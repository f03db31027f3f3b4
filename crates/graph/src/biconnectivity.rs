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

/// One node's DFS state: discovery time, lowpoint, and the tree edge it
/// was discovered through (`UNSEEN` for a DFS root or an unvisited node).
#[derive(Clone, Copy)]
struct Visit {
    disc: usize,
    low: usize,
    parent_edge: EdgeId,
}

const UNSEEN: usize = usize::MAX;

/// Computes articulation points, bridges and biconnected components.
///
/// Works on any graph (connected or not); isolated vertices belong to no
/// component. One DFS step reads one adjacency entry, so the whole pass
/// is `O(n + m)`, even on a star.
pub fn biconnected_components(g: &Graph) -> Biconnectivity {
    let n = g.n();
    let unseen = Visit {
        disc: UNSEEN,
        low: UNSEEN,
        parent_edge: UNSEEN,
    };
    let mut visit = vec![unseen; n];
    let mut is_articulation = vec![false; n];
    let mut bridges = Vec::new();
    let mut component_of_edge = vec![usize::MAX; g.m()];
    let mut num_components = 0usize;
    let mut timer = 0usize;
    let mut edge_stack: Vec<EdgeId> = Vec::new();
    // Iterative DFS: (node, index of its next adjacency entry).
    let mut stack: Vec<(NodeId, usize)> = Vec::new();

    for start in 0..n {
        match visit.get_mut(start) {
            Some(s) if s.disc == UNSEEN && g.degree(start) > 0 => {
                s.disc = timer;
                s.low = timer;
            }
            _ => continue,
        }
        timer += 1;
        let mut root_children = 0usize;
        stack.push((start, 0));
        while let Some((v, idx)) = stack.last_mut() {
            let v = *v;
            let next = g.neighbors(v).nth(*idx);
            *idx += 1;
            let Some(&cur) = visit.get(v) else {
                stack.pop();
                continue;
            };
            let Some((u, e)) = next else {
                // `v` is finished: fold its lowpoint into its parent's.
                stack.pop();
                let Some(&(p, _)) = stack.last() else {
                    continue;
                };
                let Some(parent) = visit.get_mut(p) else {
                    continue;
                };
                parent.low = parent.low.min(cur.low);
                if cur.low >= parent.disc {
                    // The tree edge into `v` closes one biconnected
                    // component, and `p` separates it (the root is
                    // decided by its child count below).
                    if let Some(cut) = is_articulation.get_mut(p).filter(|_| p != start) {
                        *cut = true;
                    }
                    while let Some(top) = edge_stack.pop() {
                        if let Some(c) = component_of_edge.get_mut(top) {
                            *c = num_components;
                        }
                        if top == cur.parent_edge {
                            break;
                        }
                    }
                    num_components += 1;
                }
                if cur.low > parent.disc {
                    bridges.push(cur.parent_edge);
                }
                continue;
            };
            if e == cur.parent_edge {
                continue;
            }
            let Some(w) = visit.get_mut(u) else {
                continue;
            };
            if w.disc == UNSEEN {
                // Tree edge.
                if v == start {
                    root_children += 1;
                }
                *w = Visit {
                    disc: timer,
                    low: timer,
                    parent_edge: e,
                };
                timer += 1;
                edge_stack.push(e);
                stack.push((u, 0));
            } else if w.disc < cur.disc {
                // Back edge.
                let back = w.disc;
                edge_stack.push(e);
                if let Some(s) = visit.get_mut(v) {
                    s.low = s.low.min(back);
                }
            }
        }
        if let Some(cut) = is_articulation.get_mut(start).filter(|_| root_children > 1) {
            *cut = true;
        }
        // Every child of the root closes a component (nothing below the
        // root reaches above it), so no edge is left for the next tree.
        debug_assert!(edge_stack.is_empty());
    }
    let articulation_points: Vec<NodeId> = is_articulation
        .iter()
        .enumerate()
        .filter_map(|(v, &cut)| cut.then_some(v))
        .collect();
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
    fn large_star_is_linear_not_quadratic() {
        // One DFS step reads one adjacency entry: collecting the centre's
        // whole list per step made this take over a minute in debug.
        let n = 100_000;
        let g = gen::star(n);
        let started = std::time::Instant::now();
        assert!(!is_two_edge_connected(&g));
        let b = biconnected_components(&g);
        let elapsed = started.elapsed();
        assert_eq!(b.bridges.len(), n - 1);
        assert_eq!(b.articulation_points, vec![0]);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "a {n}-node star took {elapsed:?}"
        );
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
