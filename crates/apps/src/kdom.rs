//! Corollary A.3: `k`-dominating sets of size `O(n/k)`.
//!
//! The paper: *"a simple generalization of our sub-part division
//! algorithm"* — run Algorithm 6 with completion threshold `k/6` instead
//! of `D`; the sub-part representatives form the dominating set. Each
//! complete sub-part has at least `k/6` nodes (so there are at most
//! `6n/k` representatives) and its spanning tree has depth `O(k)` (so
//! every node is within `k` hops of its representative — the `4D` bound
//! of Lemma 6.4 with `D = k/6` gives `4k/6 < k`).

use rmo_congest::CostReport;
use rmo_graph::{bfs_distances, NodeId};

use rmo_core::PaEngine;

/// Result of [`k_dominating_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KDomResult {
    /// The dominating set (sub-part representatives).
    pub set: Vec<NodeId>,
    /// Max hop distance from any node to the set (must be ≤ `k`).
    pub max_distance: usize,
    /// Measured cost (the division plus one PA-scale labeling pass).
    pub cost: CostReport,
}

/// Computes a `k`-dominating set of size `O(n/k)` on the engine's graph.
/// The Algorithm 6 division is memoized per threshold, so repeated
/// queries with the same `k` (and the eccentricity estimator built on
/// top) are charged only the final labeling pass.
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_dominating_set(engine: &mut PaEngine<'_>, k: usize) -> KDomResult {
    // rmo-lint: allow(R1) — run_query rejects k == 0 as Failed before dispatching here; direct callers own the documented contract.
    assert!(k > 0, "k must be positive");
    let g = engine.graph();
    let threshold = k.div_ceil(6);
    let (res, division_cost) = engine.whole_graph_division(threshold);
    let set: Vec<NodeId> = (0..res.division.num_subparts())
        .map(|s| res.division.rep_of_subpart(s))
        .collect();
    // The distributed algorithm reaches its representative along the
    // sub-part tree; graph distance is at most that tree distance, so the
    // farthest any node is from its nearest representative (one BFS
    // seeded with the whole set) is the honest upper-bound check.
    let max_distance = bfs_distances(g, &set).into_iter().max().unwrap_or(0);
    let cost = division_cost + CostReport::new(2, 2 * g.n() as u64);
    KDomResult {
        set,
        max_distance,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_core::EngineConfig;
    use rmo_graph::{gen, Graph};

    fn kdom(g: &Graph, k: usize) -> KDomResult {
        k_dominating_set(&mut PaEngine::new(g, EngineConfig::new()), k)
    }

    fn check(g: &Graph, k: usize) -> KDomResult {
        let res = kdom(g, k);
        assert!(
            res.max_distance <= k,
            "k = {k}: some node is {} hops from the set",
            res.max_distance
        );
        assert!(
            res.set.len() <= (6 * g.n()) / k + 1,
            "k = {k}: set size {} exceeds 6n/k = {}",
            res.set.len(),
            6 * g.n() / k
        );
        res
    }

    #[test]
    fn path_k_domination() {
        let g = gen::path(120);
        for k in [6, 12, 30, 60] {
            check(&g, k);
        }
    }

    #[test]
    fn grid_k_domination() {
        let g = gen::grid(10, 12);
        for k in [6, 12, 24] {
            check(&g, k);
        }
    }

    #[test]
    fn random_graph_k_domination() {
        let g = gen::gnp_connected(100, 0.04, 3);
        check(&g, 12);
    }

    #[test]
    fn small_k_yields_large_set() {
        let g = gen::path(30);
        let res = check(&g, 6);
        assert!(res.set.len() >= 30 / 12, "k=6 forces many representatives");
    }

    #[test]
    fn k_not_divisible_by_six_still_bounded() {
        // Regression: floor(k/6) thresholds broke the 6n/k size bound for
        // k ∈ {7..11, 13..17, ...}; the ceiling fixes it.
        let g = gen::grid(20, 30);
        for k in [7usize, 11, 16, 23] {
            check(&g, k);
        }
    }

    #[test]
    fn k_larger_than_graph_gives_single_rep() {
        let g = gen::grid(4, 4);
        let res = kdom(&g, 1000);
        assert_eq!(res.set.len(), 1, "one sub-part spans everything");
        assert!(res.max_distance <= 6, "grid diameter bounds the distance");
    }
}
