//! Articulation points, bridges and biconnected components (Hopcroft–
//! Tarjan lowpoint algorithm, iterative).
//!
//! Used as the centralized oracle for the biconnectivity verification
//! problems of Das Sarma et al. (the paper's Corollary A.1 suite, which
//! cites Thurimella's sub-linear algorithms for sparse certificates and
//! biconnected components).

use crate::graph::{EdgeId, Graph, NodeId};

/// Result of the lowpoint computation.
#[derive(Debug, Clone)]
pub struct Biconnectivity {
    /// Articulation points (cut vertices), sorted.
    pub articulation_points: Vec<NodeId>,
    /// Bridge edges (cut edges), sorted.
    pub bridges: Vec<EdgeId>,
    /// `component_of_edge[e]` — biconnected-component id of edge `e`
    /// (`usize::MAX` if the edge's endpoints are in no component, which
    /// cannot happen on valid input).
    pub component_of_edge: Vec<usize>,
    /// Number of biconnected components.
    pub num_components: usize,
}

/// Computes articulation points, bridges and biconnected components.
///
/// Works on any graph (connected or not); isolated vertices belong to no
/// component.
pub fn biconnected_components(g: &Graph) -> Biconnectivity {
    let n = g.n();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut parent_edge = vec![usize::MAX; n];
    let mut is_articulation = vec![false; n];
    let mut bridges = Vec::new();
    let mut component_of_edge = vec![usize::MAX; g.m()];
    let mut num_components = 0usize;
    let mut timer = 0usize;
    let mut edge_stack: Vec<EdgeId> = Vec::new();

    for start in 0..n {
        if disc[start] != usize::MAX || g.degree(start) == 0 {
            continue;
        }
        // Iterative DFS: stack of (node, iterator index into adjacency).
        let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        let mut root_children = 0usize;
        while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
            let neighbors: Vec<(NodeId, EdgeId)> = g.neighbors(v).collect();
            if *idx < neighbors.len() {
                let (u, e) = neighbors[*idx];
                *idx += 1;
                if e == parent_edge[v] {
                    continue;
                }
                if disc[u] == usize::MAX {
                    // Tree edge.
                    if v == start {
                        root_children += 1;
                    }
                    parent_edge[u] = e;
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    edge_stack.push(e);
                    stack.push((u, 0));
                } else if disc[u] < disc[v] {
                    // Back edge.
                    edge_stack.push(e);
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[v]);
                    let pe = parent_edge[v];
                    if low[v] >= disc[p] {
                        // p is an articulation point (checked for root
                        // separately below); pop one biconnected component.
                        if p != start || root_children > 1 || low[v] > disc[p] {
                            // root handled after loop; mark non-root cuts
                        }
                        if p != start {
                            is_articulation[p] = true;
                        }
                        let cid = num_components;
                        num_components += 1;
                        while let Some(&top) = edge_stack.last() {
                            edge_stack.pop();
                            component_of_edge[top] = cid;
                            if top == pe {
                                break;
                            }
                        }
                    }
                    if low[v] > disc[p] {
                        bridges.push(pe);
                    }
                }
            }
        }
        if root_children > 1 {
            is_articulation[start] = true;
        }
        // Any leftover edges (shouldn't remain, but be safe).
        if !edge_stack.is_empty() {
            let cid = num_components;
            num_components += 1;
            for e in edge_stack.drain(..) {
                component_of_edge[e] = cid;
            }
        }
    }
    let articulation_points: Vec<NodeId> = (0..n).filter(|&v| is_articulation[v]).collect();
    bridges.sort_unstable();
    Biconnectivity {
        articulation_points,
        bridges,
        component_of_edge,
        num_components,
    }
}

/// Whether a connected graph is 2-edge-connected (bridgeless).
pub fn is_two_edge_connected(g: &Graph) -> bool {
    g.is_connected() && biconnected_components(g).bridges.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Whether a connected graph is biconnected (2-vertex-connected): no
    /// articulation points and at least 3 nodes (or a single edge).
    fn is_biconnected(g: &Graph) -> bool {
        if !g.is_connected() {
            return false;
        }
        if g.n() <= 2 {
            return g.m() >= g.n().saturating_sub(1);
        }
        biconnected_components(g).articulation_points.is_empty()
    }

    #[test]
    fn path_every_internal_node_is_articulation() {
        let g = gen::path(6);
        let b = biconnected_components(&g);
        assert_eq!(b.articulation_points, vec![1, 2, 3, 4]);
        assert_eq!(b.bridges.len(), 5, "every path edge is a bridge");
        assert_eq!(b.num_components, 5, "each edge its own component");
    }

    #[test]
    fn cycle_is_biconnected() {
        let g = gen::cycle(8);
        let b = biconnected_components(&g);
        assert!(b.articulation_points.is_empty());
        assert!(b.bridges.is_empty());
        assert_eq!(b.num_components, 1);
        assert!(is_biconnected(&g));
        assert!(is_two_edge_connected(&g));
    }

    #[test]
    fn dumbbell_bridge_detected() {
        let g = gen::dumbbell(4, 1);
        let b = biconnected_components(&g);
        let bridge = g.edge_between(3, 4).unwrap();
        assert_eq!(b.bridges, vec![bridge]);
        assert_eq!(b.articulation_points, vec![3, 4]);
        assert_eq!(b.num_components, 3, "two cliques + the bridge");
        assert!(!is_biconnected(&g));
    }

    #[test]
    fn lollipop_articulation() {
        let g = gen::lollipop(5, 4);
        let b = biconnected_components(&g);
        // Node 4 joins clique and tail; tail nodes 5..7 are also cuts.
        assert!(b.articulation_points.contains(&4));
        assert_eq!(b.bridges.len(), 4, "the tail edges");
    }

    #[test]
    fn star_center_is_articulation() {
        let g = gen::star(6);
        let b = biconnected_components(&g);
        assert_eq!(b.articulation_points, vec![0]);
        assert_eq!(b.bridges.len(), 5);
    }

    #[test]
    fn grid_is_two_edge_connected() {
        let g = gen::grid(4, 4);
        assert!(is_two_edge_connected(&g));
        assert!(is_biconnected(&g));
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        // 0-1-2-0 and 2-3-4-2: node 2 is the articulation point.
        let g = Graph::from_unweighted_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
            .unwrap();
        let b = biconnected_components(&g);
        assert_eq!(b.articulation_points, vec![2]);
        assert!(b.bridges.is_empty());
        assert_eq!(b.num_components, 2);
        // The two triangles get distinct component ids.
        let c01 = b.component_of_edge[g.edge_between(0, 1).unwrap()];
        let c34 = b.component_of_edge[g.edge_between(3, 4).unwrap()];
        assert_ne!(c01, c34);
    }

    #[test]
    fn single_edge_graph() {
        let g = gen::path(2);
        let b = biconnected_components(&g);
        assert!(b.articulation_points.is_empty());
        assert_eq!(b.bridges, vec![0]);
        assert!(is_biconnected(&g), "K2 counts as biconnected by convention");
    }

    use crate::graph::Graph;

    #[test]
    fn disconnected_graph_handled() {
        let g = Graph::from_unweighted_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let b = biconnected_components(&g);
        assert_eq!(b.num_components, 2);
        assert!(!is_biconnected(&g));
    }
}
