//! Breadth-first traversals, distances and diameter computations.
//!
//! The paper's round bounds are all phrased in terms of the hop diameter
//! `D`; this module supplies exact diameters for test-sized graphs and a
//! two-sweep lower bound for larger benchmark instances.

use std::collections::VecDeque;

use crate::graph::{Graph, NodeId};
use crate::tree::RootedTree;

/// Hop distances from `source` to every node (`usize::MAX` if unreachable).
///
/// # Example
/// ```rust
/// use rmo_graph::{gen, bfs_distances};
/// let g = gen::path(5);
/// assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
/// ```
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut q = VecDeque::new();
    dist[source] = 0;
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        for (v, _) in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// A BFS tree rooted at `source`, together with the hop distances.
///
/// Ties between candidate parents are broken toward the smaller node id,
/// matching the deterministic tie-breaking the simulator programs use, so
/// that sequential and simulated BFS trees agree in tests.
///
/// # Panics
/// Panics if the graph is disconnected (every algorithm in the paper
/// assumes a connected network).
pub fn bfs_tree(g: &Graph, source: NodeId) -> (RootedTree, Vec<usize>) {
    let n = g.n();
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut parent_edge = vec![usize::MAX; n];
    let mut q = VecDeque::new();
    dist[source] = 0;
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        let mut nbrs: Vec<_> = g.neighbors(u).collect();
        nbrs.sort_unstable();
        for (v, e) in nbrs {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                parent[v] = u;
                parent_edge[v] = e;
                q.push_back(v);
            }
        }
    }
    assert!(
        dist.iter().all(|&d| d != usize::MAX),
        "bfs_tree requires a connected graph"
    );
    let tree = RootedTree::from_parents(source, parent, parent_edge)
        .expect("BFS parents form a valid rooted tree");
    (tree, dist)
}

/// Eccentricity of `v`: the maximum hop distance from `v` to any node.
///
/// # Panics
/// Panics if the graph is disconnected.
fn eccentricity(g: &Graph, v: NodeId) -> usize {
    let dist = bfs_distances(g, v);
    let ecc = dist.iter().copied().max().unwrap_or(0);
    assert_ne!(ecc, usize::MAX, "eccentricity requires a connected graph");
    ecc
}

/// Exact hop diameter via one BFS per node — `O(nm)`, for test-sized graphs.
///
/// # Panics
/// Panics if the graph is disconnected or empty.
pub fn diameter_exact(g: &Graph) -> usize {
    assert!(g.n() > 0, "diameter of an empty graph is undefined");
    (0..g.n()).map(|v| eccentricity(g, v)).max().unwrap()
}

/// Two-sweep diameter lower bound: BFS from `start`, then BFS from the
/// farthest node found. Exact on trees; a lower bound in general. Cheap
/// enough for benchmark-sized graphs.
pub fn two_sweep_diameter_lower_bound(g: &Graph, start: NodeId) -> usize {
    let d1 = bfs_distances(g, start);
    let (far, _) = d1
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .expect("non-empty graph");
    let d2 = bfs_distances(g, far);
    d2.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn path_distances() {
        let g = gen::path(6);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(bfs_distances(&g, 3), vec![3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_is_max() {
        let g = Graph::from_unweighted_edges(3, &[(0, 1)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    fn bfs_tree_on_cycle() {
        let g = gen::cycle(6);
        let (t, dist) = bfs_tree(&g, 0);
        assert_eq!(t.root(), 0);
        assert_eq!(dist, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(t.depth_of(3), 3);
        // parents point strictly closer to the root
        for v in 1..6 {
            assert_eq!(dist[t.parent_of(v).unwrap()], dist[v] - 1);
        }
    }

    #[test]
    fn diameter_of_known_shapes() {
        assert_eq!(diameter_exact(&gen::path(10)), 9);
        assert_eq!(diameter_exact(&gen::cycle(10)), 5);
        assert_eq!(diameter_exact(&gen::star(10)), 2);
        assert_eq!(diameter_exact(&gen::grid(4, 7)), 3 + 6);
    }

    #[test]
    fn two_sweep_exact_on_tree() {
        let g = gen::balanced_binary_tree(4);
        assert_eq!(two_sweep_diameter_lower_bound(&g, 0), diameter_exact(&g));
    }

    #[test]
    fn two_sweep_is_lower_bound_on_grid() {
        let g = gen::grid(5, 9);
        assert!(two_sweep_diameter_lower_bound(&g, 0) <= diameter_exact(&g));
    }

    #[test]
    fn eccentricity_of_center() {
        let g = gen::path(9);
        assert_eq!(eccentricity(&g, 4), 4);
        assert_eq!(eccentricity(&g, 0), 8);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn bfs_tree_panics_on_disconnected() {
        let g = Graph::from_unweighted_edges(3, &[(0, 1)]).unwrap();
        let _ = bfs_tree(&g, 0);
    }
}
