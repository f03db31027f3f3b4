//! Bounded-treewidth and bounded-pathwidth generators.
//!
//! Tables 1–2 of the paper give shortcut parameters `b, c = Õ(t)` for
//! treewidth-`t` graphs and `b, c = p` for pathwidth-`p` graphs. `k`-trees
//! are the canonical maximal graphs of treewidth `k`; the "caterpillar of
//! cliques" [`kpath`] has pathwidth `k`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Graph, GraphBuilder};

/// A random `k`-tree on `n` nodes (treewidth exactly `k` for `n > k`).
///
/// Construction: start from a `(k+1)`-clique, then each new node is joined
/// to a random `k`-clique of the current graph (a random existing node's
/// "bag"). We track bags explicitly so the choice is always a valid clique.
/// All weights 1; deterministic per seed.
///
/// # Panics
/// Panics if `n < k + 1` or `k == 0`.
pub fn ktree(n: usize, k: usize, seed: u64) -> Graph {
    assert!(k >= 1, "k must be positive");
    assert!(n > k, "need at least k+1 nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // bags[i] = a k-clique that node can be attached to
    let mut bags: Vec<Vec<usize>> = Vec::new();
    for u in 0..=k {
        for v in (u + 1)..=k {
            b.add_edge(u, v, 1).expect("seed clique is valid");
        }
    }
    // initial bags: all k-subsets of the seed clique (just take the k+1 leave-one-out sets)
    for omit in 0..=k {
        let bag: Vec<usize> = (0..=k).filter(|&x| x != omit).collect();
        bags.push(bag);
    }
    for v in (k + 1)..n {
        let bag = bags[rng.random_range(0..bags.len())].clone();
        for &u in &bag {
            b.add_edge(u, v, 1).expect("bag attachment is valid");
        }
        // new bags: v together with each (k-1)-subset of bag
        for omit in 0..bag.len() {
            let mut nb: Vec<usize> = bag
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != omit)
                .map(|(_, &x)| x)
                .collect();
            nb.push(v);
            bags.push(nb);
        }
    }
    b.build()
}

/// A "`k`-path": a path of `len` cliques of size `k`, consecutive cliques
/// fully interconnected. Pathwidth is `Θ(k)` and the hop diameter is
/// `Θ(len)`. All weights 1.
///
/// Node `(i, j)` (clique `i`, member `j`) has id `i*k + j`.
///
/// # Panics
/// Panics if `k == 0` or `len == 0`.
pub fn kpath(len: usize, k: usize) -> Graph {
    assert!(k >= 1 && len >= 1, "dimensions must be positive");
    let n = len * k;
    let mut b = GraphBuilder::new(n);
    for i in 0..len {
        // intra-clique edges
        for a in 0..k {
            for c in (a + 1)..k {
                b.add_edge(i * k + a, i * k + c, 1).expect("valid");
            }
        }
        // full join to the next clique
        if i + 1 < len {
            for a in 0..k {
                for c in 0..k {
                    b.add_edge(i * k + a, (i + 1) * k + c, 1).expect("valid");
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::diameter_exact;

    #[test]
    fn ktree_edge_count() {
        // k-tree on n nodes has C(k+1,2) + (n-k-1)*k edges
        let (n, k) = (30, 3);
        let g = ktree(n, k, 1);
        assert_eq!(g.m(), (k + 1) * k / 2 + (n - k - 1) * k);
        assert!(g.is_connected());
    }

    #[test]
    fn ktree_min_degree_at_least_k() {
        let g = ktree(40, 4, 2);
        for v in 0..g.n() {
            assert!(g.degree(v) >= 4, "node {v} has degree < k");
        }
    }

    #[test]
    fn ktree_deterministic() {
        assert_eq!(ktree(25, 2, 7), ktree(25, 2, 7));
    }

    #[test]
    fn ktree_k1_is_tree() {
        let g = ktree(20, 1, 3);
        assert_eq!(g.m(), 19);
        assert!(g.is_connected());
    }

    #[test]
    fn kpath_shape() {
        let g = kpath(10, 3);
        assert_eq!(g.n(), 30);
        assert!(g.is_connected());
        // diameter ~ len (hop through cliques)
        let d = diameter_exact(&g);
        assert!((9..=11).contains(&d), "diameter {d} should be about len");
    }

    #[test]
    fn kpath_k1_is_path() {
        let g = kpath(8, 1);
        assert_eq!(g.m(), 7);
        assert_eq!(diameter_exact(&g), 7);
    }
}
