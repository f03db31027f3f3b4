//! Approximate eccentricity and radius via k-dominating sets.
//!
//! The paper's Corollary A.3 discussion notes that `O(n/k)`-size
//! k-dominating sets power `(1+ε)`-approximate eccentricity computation
//! (Holzer–Wattenhofer). The reduction: BFS from every node of a
//! k-dominating set `S`; then for any `v`, `ecc(v)` is within `±k` of
//! `max_{s∈S} (d(v, s) + ecc_S(s))`-style combinations. This module
//! implements the additive-`k` estimator
//!
//! `est(v) = max_{s∈S} d(v, s) + k`,
//!
//! which satisfies `ecc(v) ≤ est(v) ≤ ecc(v) + k`: every node is within
//! `k` of a dominator, so the farthest dominator under-shoots the true
//! eccentricity by at most `k` and over-shoots it never.
//!
//! with every BFS costed at `O(D)` rounds / `O(m)` messages and `|S|`
//! BFS waves pipelined over the k-dominating set.

use rmo_congest::CostReport;
use rmo_graph::{bfs_distances, NodeId};

use crate::kdom::k_dominating_set;
use rmo_core::PaEngine;

/// Result of [`approx_eccentricities`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccentricityResult {
    /// Per-node eccentricity estimates, each within `[ecc(v), ecc(v)+k]`.
    pub estimates: Vec<usize>,
    /// Estimated radius (min estimate).
    pub radius_estimate: usize,
    /// Estimated diameter (max estimate).
    pub diameter_estimate: usize,
    /// The k-dominating set used.
    pub dominating_set: Vec<NodeId>,
    /// Measured cost: the k-domination run plus `|S|` pipelined BFS waves.
    pub cost: CostReport,
}

/// Computes additive-`k` eccentricity over-estimates for every node of
/// the engine's graph (the underlying k-domination division is memoized
/// per `k`).
///
/// # Panics
/// Panics if `k == 0`.
pub fn approx_eccentricities(engine: &mut PaEngine<'_>, k: usize) -> EccentricityResult {
    // rmo-lint: allow(R1) — run_query rejects k == 0 as Failed before dispatching here; direct callers own the documented contract.
    assert!(k > 0, "k must be positive");
    let g = engine.graph();
    let kd = k_dominating_set(engine, k);
    let mut cost = kd.cost;
    // BFS from every dominator: |S| waves, pipelined over the BFS tree —
    // rounds O(D + |S|), messages O(|S| * m); we charge each BFS's
    // messages exactly and the pipelined round bound.
    let mut max_to_set = vec![0usize; g.n()];
    let mut max_depth = 0usize;
    for &s in &kd.set {
        let dist = bfs_distances(g, s);
        max_depth = max_depth.max(dist.iter().copied().max().expect("non-empty"));
        for (v, d) in dist.into_iter().enumerate() {
            max_to_set[v] = max_to_set[v].max(d);
        }
        cost += CostReport::new(0, 2 * g.m() as u64);
    }
    cost += CostReport::new(max_depth + kd.set.len(), 0);
    // Saturating: `usize::MAX` still over-estimates by at most `k`.
    let estimates: Vec<usize> = max_to_set.iter().map(|&d| d.saturating_add(k)).collect();
    let radius_estimate = estimates.iter().copied().min().unwrap_or(0);
    let diameter_estimate = estimates.iter().copied().max().unwrap_or(0);
    EccentricityResult {
        estimates,
        radius_estimate,
        diameter_estimate,
        dominating_set: kd.set,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_core::EngineConfig;
    use rmo_graph::{bfs_distances, gen, Graph};

    /// The true eccentricity of `v` in a connected graph.
    fn eccentricity(g: &Graph, v: usize) -> usize {
        bfs_distances(g, v).into_iter().max().unwrap_or(0)
    }

    fn ecc(g: &Graph, k: usize) -> EccentricityResult {
        approx_eccentricities(&mut PaEngine::new(g, EngineConfig::new()), k)
    }

    fn check_bounds(g: &Graph, k: usize) {
        let res = ecc(g, k);
        for v in 0..g.n() {
            let true_ecc = eccentricity(g, v);
            assert!(
                res.estimates[v] >= true_ecc,
                "node {v}: estimate {} below true {true_ecc}",
                res.estimates[v]
            );
            assert!(
                res.estimates[v] <= true_ecc + k,
                "node {v}: estimate {} above true {true_ecc} + k",
                res.estimates[v]
            );
        }
    }

    #[test]
    fn path_eccentricities() {
        check_bounds(&gen::path(60), 6);
        check_bounds(&gen::path(60), 12);
    }

    #[test]
    fn grid_eccentricities() {
        check_bounds(&gen::grid(8, 10), 6);
    }

    #[test]
    fn random_graph_eccentricities() {
        check_bounds(&gen::gnp_connected(70, 0.06, 3), 6);
    }

    #[test]
    fn diameter_and_radius_sandwich() {
        let g = gen::grid(6, 12);
        let res = ecc(&g, 6);
        let true_diam = rmo_graph::diameter_exact(&g);
        assert!(res.diameter_estimate >= true_diam);
        assert!(res.diameter_estimate <= true_diam + 6);
        let true_radius = (0..g.n()).map(|v| eccentricity(&g, v)).min().unwrap();
        assert!(res.radius_estimate >= true_radius);
        assert!(res.radius_estimate <= true_radius + 6);
    }

    #[test]
    fn small_k_is_tighter() {
        let g = gen::path(80);
        let tight = ecc(&g, 4);
        let loose = ecc(&g, 40);
        let slack_tight: usize = (0..g.n())
            .map(|v| tight.estimates[v] - eccentricity(&g, v))
            .max()
            .unwrap();
        let slack_loose: usize = (0..g.n())
            .map(|v| loose.estimates[v] - eccentricity(&g, v))
            .max()
            .unwrap();
        assert!(
            slack_tight <= slack_loose + 8,
            "smaller k cannot be much worse"
        );
        assert!(tight.dominating_set.len() >= loose.dominating_set.len());
    }
}
