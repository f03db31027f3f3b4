//! Breadth-first traversals, distances and diameter computations.
//!
//! The paper's round bounds are all phrased in terms of the hop diameter
//! `D`; this module supplies exact diameters for test-sized graphs and a
//! two-sweep lower bound for larger benchmark instances.

use std::collections::VecDeque;

use crate::graph::{Graph, NodeId};
use crate::tree::RootedTree;

/// Hop distance from every node to the nearest of `sources`
/// (`usize::MAX` where none reaches it, so every entry when `sources` is
/// empty). One BFS seeded with all sources, `O(n + m)`; duplicate
/// sources count once, and sources outside the graph are ignored.
///
/// # Example
/// ```rust
/// use rmo_graph::{gen, bfs_distances};
/// let g = gen::path(5);
/// assert_eq!(bfs_distances(&g, &[0]), vec![0, 1, 2, 3, 4]);
/// assert_eq!(bfs_distances(&g, &[0, 4]), vec![0, 1, 2, 1, 0]);
/// ```
pub fn bfs_distances(g: &Graph, sources: &[NodeId]) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut q = VecDeque::new();
    for &s in sources {
        if let Some(d) = dist.get_mut(s).filter(|d| **d == usize::MAX) {
            *d = 0;
            q.push_back(s);
        }
    }
    while let Some(u) = q.pop_front() {
        let Some(next) = dist.get(u).map(|&d| d + 1) else {
            continue;
        };
        for (v, _) in g.neighbors(u) {
            if let Some(d) = dist.get_mut(v).filter(|d| **d == usize::MAX) {
                *d = next;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Hop distance from every node to the *farthest* of `sources`: entry
/// `v` is the max over `s` of `bfs_distances(g, &[s])[v]`, so
/// `usize::MAX` where some source does not reach `v`, and `0` everywhere
/// when `sources` is empty.
///
/// A bit-parallel BFS. It sweeps the sources 64 at a time and gives each
/// source of a batch one bit of a `u64` per node, so one pass over a
/// level's frontier advances all of the batch's waves. The last level
/// that brings a node a new bit is its distance to the batch's farthest
/// source. A node joins a level's frontier only when it gains a bit, at
/// most 64 times per batch, so a sweep never does more than the 64
/// single-source BFS runs it replaces, and far less when the batch's
/// waves reach nodes together. Extra memory is `O(n)`: three words per
/// node and two node lists.
///
/// # Example
/// ```rust
/// use rmo_graph::{gen, farthest_source_distances};
/// let g = gen::path(5);
/// assert_eq!(farthest_source_distances(&g, &[0, 4]), vec![4, 3, 2, 3, 4]);
/// ```
pub fn farthest_source_distances(g: &Graph, sources: &[NodeId]) -> Vec<usize> {
    let n = g.n();
    let mut farthest = vec![0usize; n];
    // Per node, the batch sources whose wave has reached it, those whose
    // wave reached it at the current level, and those reaching it at the
    // next; and the nodes holding current and next bits.
    let (mut reached, mut current, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let (mut frontier, mut next_frontier) = (Vec::new(), Vec::new());
    for batch in sources.chunks(64) {
        reached.fill(0);
        for (bit, &s) in batch.iter().enumerate() {
            if let Some((r, c)) = reached.get_mut(s).zip(current.get_mut(s)) {
                if *c == 0 {
                    frontier.push(s);
                }
                *r |= 1 << bit;
                *c |= 1 << bit;
            }
        }
        let mut level = 0;
        while !frontier.is_empty() {
            level += 1;
            for &u in &frontier {
                let bits = current.get_mut(u).map_or(0, std::mem::take);
                for (v, _) in g.neighbors(u) {
                    let Some(r) = reached.get_mut(v) else {
                        continue;
                    };
                    let fresh = bits & !*r;
                    if fresh == 0 {
                        continue;
                    }
                    *r |= fresh;
                    if let Some((x, far)) = next.get_mut(v).zip(farthest.get_mut(v)) {
                        if *x == 0 {
                            next_frontier.push(v);
                        }
                        *x |= fresh;
                        *far = (*far).max(level);
                    }
                }
            }
            // Every frontier node's bits were taken, so `current` is all
            // zero again and becomes the next level's `next`.
            std::mem::swap(&mut current, &mut next);
            std::mem::swap(&mut frontier, &mut next_frontier);
            next_frontier.clear();
        }
        // `batch` is non-empty, so the shift is below 64.
        let all = u64::MAX >> (64 - batch.len());
        for (r, far) in reached.iter().zip(&mut farthest) {
            if *r != all {
                *far = usize::MAX;
            }
        }
    }
    farthest
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
    let dist = bfs_distances(g, &[v]);
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
    let d1 = bfs_distances(g, &[start]);
    let (far, _) = d1
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .expect("non-empty graph");
    let d2 = bfs_distances(g, &[far]);
    d2.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn path_distances() {
        let g = gen::path(6);
        assert_eq!(bfs_distances(&g, &[0]), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(bfs_distances(&g, &[3]), vec![3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_is_max() {
        let g = Graph::from_unweighted_edges(3, &[(0, 1)]).unwrap();
        let d = bfs_distances(&g, &[0]);
        assert_eq!(d[2], usize::MAX);
    }

    /// The fold the multi-source kernels replace: one BFS per source.
    fn per_source_fold(g: &Graph, sources: &[NodeId]) -> (Vec<usize>, Vec<usize>) {
        let mut nearest = vec![usize::MAX; g.n()];
        let mut farthest = vec![0; g.n()];
        for &s in sources {
            for (v, d) in bfs_distances(g, &[s]).into_iter().enumerate() {
                nearest[v] = nearest[v].min(d);
                farthest[v] = farthest[v].max(d);
            }
        }
        (nearest, farthest)
    }

    #[test]
    fn multi_source_kernels_match_the_fold_across_batches() {
        let shapes = [
            gen::path(150),
            gen::grid(9, 15),
            gen::grid(2, 64),
            gen::path(1),
            // Two components: a source's wave never reaches the other.
            Graph::from_unweighted_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap(),
        ];
        for g in &shapes {
            let n = g.n();
            for count in [0, 1, 63, 64, 65, 128, 129, n, 2 * n + 1] {
                // Stride 7 wraps around small graphs: duplicates.
                let sources: Vec<NodeId> = (0..count).map(|i| (i * 7) % n).collect();
                let (nearest, farthest) = per_source_fold(g, &sources);
                assert_eq!(
                    bfs_distances(g, &sources),
                    nearest,
                    "n = {n}, {count} sources"
                );
                assert_eq!(
                    farthest_source_distances(g, &sources),
                    farthest,
                    "n = {n}, {count} sources"
                );
            }
        }
    }

    #[test]
    fn sources_outside_the_graph_reach_nothing() {
        let g = gen::path(3);
        assert_eq!(bfs_distances(&g, &[7]), vec![usize::MAX; 3]);
        assert_eq!(bfs_distances(&g, &[7, 2]), vec![2, 1, 0]);
        assert_eq!(farthest_source_distances(&g, &[7, 2]), vec![usize::MAX; 3]);
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
