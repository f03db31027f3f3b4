//! Corollary 1.4: `(1+ε)`-approximate minimum cut.
//!
//! The paper's recipe (Ghaffari–Haeupler Section 5.2): Karger-style
//! sampling reduces the min cut to `O(log n / ε²)`; then
//! `O(log n)·poly(1/ε)` spanning trees are computed (MSTs under randomly
//! perturbed weights) such that w.h.p. some tree `T*` contains an edge
//! `e*` whose removal splits `T*` into the two sides of a
//! `(1+ε)`-approximate min cut ("the cut 1-respects the tree"); a
//! sketching pass finds that edge. All three ingredients run on PA:
//!
//! * each spanning tree is our Borůvka-over-PA MST ([`crate::mst::pa_mst`]);
//! * evaluating **all** 1-respecting cuts of a tree takes `O(log n)`
//!   aggregation passes (subtree weighted degrees via convergecast, and
//!   the "edges internal to the subtree" correction via the standard
//!   LCA-ancestor sketch), which we charge as `O(log n)` PA-scale passes;
//! * the global argmin is one more `Min` aggregation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rmo_congest::CostReport;
use rmo_graph::{bfs_tree, num::ceil_log2, NodeId};

use crate::mst::pa_mst;
use rmo_core::{PaEngine, PaError};

/// Configuration for the approximate min-cut.
#[derive(Debug, Clone, Copy)]
pub struct MinCutConfig {
    /// Approximation slack `ε > 0`.
    pub epsilon: f64,
    /// Seed for the random perturbations.
    pub seed: u64,
    /// Override the number of sampled trees (`None` = the
    /// `O(log n · 1/ε²)` default).
    pub trials: Option<usize>,
}

impl Default for MinCutConfig {
    fn default() -> MinCutConfig {
        MinCutConfig {
            epsilon: 0.2,
            seed: 1,
            trials: None,
        }
    }
}

/// Result of [`approx_min_cut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinCutResult {
    /// Weight of the cut found.
    pub weight: u64,
    /// One side of the cut (`true` = in `S`).
    pub side: Vec<bool>,
    /// Number of sampled trees examined.
    pub trials: usize,
    /// Measured total cost.
    pub cost: CostReport,
}

/// Finds a `(1+ε)`-approximate minimum cut of the engine's graph w.h.p.
///
/// Election and the BFS tree are weight-oblivious, so each sampled
/// perturbation derives its trial session with
/// [`PaEngine::for_reweighted`] — stage 1 is paid once per engine, not
/// once per sampled tree.
///
/// # Errors
/// Propagates [`PaError`] from the inner MST runs.
///
/// # Panics
/// Panics if `ε ≤ 0` or the graph has fewer than 2 nodes.
pub fn approx_min_cut(
    engine: &mut PaEngine<'_>,
    config: &MinCutConfig,
) -> Result<MinCutResult, PaError> {
    let g = engine.graph();
    // rmo-lint: allow(R1) — run_query builds the config itself (default ε) and rejects n < 2 as Failed before dispatching here.
    assert!(config.epsilon > 0.0, "epsilon must be positive");
    // rmo-lint: allow(R1) — run_query rejects n < 2 as Failed before dispatching here; direct callers own the documented contract.
    assert!(g.n() >= 2, "min cut needs two nodes");
    let n = g.n();
    let log_n = ceil_log2(n.max(2));
    // The default trial count ≈ log n / ε² is tiny; the cast cannot
    // truncate for any ε a caller would survive.
    #[allow(clippy::cast_possible_truncation)]
    let trials = config
        .trials
        .unwrap_or_else(|| (log_n as f64 / (config.epsilon * config.epsilon)).ceil() as usize)
        .max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // The tree every trial session reuses is paid for exactly once.
    let mut cost = engine.charge_base();
    let mut best_weight = u64::MAX;
    let mut best_side: Vec<bool> = vec![false; n];

    for _ in 0..trials {
        // Random exponential-ish perturbation: the min cut 1-respects a
        // random greedy tree with constant probability per Karger's tree
        // packing argument. We keep weights positive and bounded.
        let perturbed = g.reweighted(|_, w| {
            let jitter = 1 + (rng.random::<u64>() % (2 * w + 1));
            w.saturating_mul(4)
                .saturating_add(jitter)
                .min((1 << 39) - 1)
        });
        // Same topology, new weights: reuse the session's tree instead of
        // re-running election + BFS for every sampled perturbation.
        let mut trial = engine.for_reweighted(&perturbed);
        let mst = pa_mst(&mut trial)?;
        cost += mst.cost;

        // Evaluate all 1-respecting cuts of this tree: for every tree edge
        // e, cut(subtree below e). Subtree membership via the rooted tree.
        let keep: Vec<bool> = {
            let mut k = vec![false; g.m()];
            for &e in &mst.edges {
                k[e] = true;
            }
            k
        };
        let (tree_graph, edge_map) = g.edge_subgraph(&keep);
        let (tree, _) = bfs_tree(&tree_graph, 0);
        let _ = edge_map;
        // wdeg convergecast + internal-edges sketch: O(log n) PA-scale
        // passes (charged), computed below.
        cost += CostReport::new(2 * tree.depth() + 2, 2 * (n as u64) * log_n as u64);
        let sizes_order = tree.top_down_order().to_vec();
        // subtree_cut[v] = weight of cut (subtree(v), rest).
        let mut wdeg_sub: Vec<u64> = vec![0; n];
        let mut internal_sub: Vec<u64> = vec![0; n];
        for (v, wdeg) in wdeg_sub.iter_mut().enumerate() {
            *wdeg = g.neighbors(v).map(|(_, e)| g.weight(e)).sum();
        }
        // For the internal-edge correction we need, per edge, its LCA in
        // the tree; all edges below v contribute... we accumulate: an edge
        // (a,b) is internal to subtree(v) iff v is an ancestor of LCA(a,b)
        // or v = LCA(a,b)... compute LCA by walking up (test scale).
        let mut internal_at_lca: Vec<u64> = vec![0; n];
        for (_, a, b, w) in g.edges() {
            let lca = lca_by_walk(&tree, a, b);
            internal_at_lca[lca] += w;
        }
        for &v in sizes_order.iter().rev() {
            for &c in tree.children_of(v) {
                wdeg_sub[v] += wdeg_sub[c];
                internal_sub[v] += internal_sub[c];
            }
            internal_sub[v] += internal_at_lca[v];
        }
        for v in 0..n {
            if v == tree.root() {
                continue;
            }
            let cut = wdeg_sub[v] - 2 * internal_sub[v];
            if cut < best_weight && cut > 0 {
                best_weight = cut;
                let mut side = vec![false; n];
                mark_subtree(&tree, v, &mut side);
                best_side = side;
            }
        }
        // The argmin over candidates is one Min aggregation.
        cost += CostReport::new(2 * tree.depth() + 2, 2 * n as u64);
    }
    Ok(MinCutResult {
        weight: best_weight,
        side: best_side,
        trials,
        cost,
    })
}

fn lca_by_walk(tree: &rmo_graph::RootedTree, a: NodeId, b: NodeId) -> NodeId {
    let (mut x, mut y) = (a, b);
    while tree.depth_of(x) > tree.depth_of(y) {
        x = tree.parent_of(x).expect("deeper node has parent");
    }
    while tree.depth_of(y) > tree.depth_of(x) {
        y = tree.parent_of(y).expect("deeper node has parent");
    }
    while x != y {
        x = tree.parent_of(x).expect("non-root");
        y = tree.parent_of(y).expect("non-root");
    }
    x
}

fn mark_subtree(tree: &rmo_graph::RootedTree, v: NodeId, side: &mut [bool]) {
    let mut stack = vec![v];
    while let Some(u) = stack.pop() {
        side[u] = true;
        stack.extend(tree.children_of(u).iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_core::EngineConfig;
    use rmo_graph::{gen, reference, Graph};

    fn min_cut(g: &Graph, config: &MinCutConfig) -> MinCutResult {
        approx_min_cut(&mut PaEngine::new(g, EngineConfig::new()), config).unwrap()
    }

    fn check_quality(g: &Graph, config: &MinCutConfig, slack: f64) {
        let exact = reference::stoer_wagner(g);
        let approx = min_cut(g, config);
        // The returned side must actually realize the claimed weight.
        let realized: u64 = g
            .edges()
            .filter(|&(_, u, v, _)| approx.side[u] != approx.side[v])
            .map(|(_, _, _, w)| w)
            .sum();
        assert_eq!(realized, approx.weight, "side must match weight");
        assert!(
            approx.weight >= exact.weight,
            "cannot beat the true min cut"
        );
        assert!(
            (approx.weight as f64) <= slack * exact.weight as f64,
            "approx {} vs exact {} exceeds slack {slack}",
            approx.weight,
            exact.weight
        );
    }

    #[test]
    fn dumbbell_bridge_found_exactly() {
        let g = gen::dumbbell(5, 1);
        check_quality(&g, &MinCutConfig::default(), 1.0 + f64::EPSILON);
    }

    #[test]
    fn cycle_cut_is_two() {
        let g = gen::cycle(12);
        let res = min_cut(&g, &MinCutConfig::default());
        assert_eq!(
            res.weight, 2,
            "a cycle's min cut 1-respects every spanning tree"
        );
    }

    #[test]
    fn grid_cut_close_to_exact() {
        let g = gen::grid(4, 8);
        check_quality(&g, &MinCutConfig::default(), 1.5);
    }

    #[test]
    fn weighted_random_graph_quality() {
        let g = gen::random_connected_weighted(24, 60, 9);
        check_quality(
            &g,
            &MinCutConfig {
                trials: Some(12),
                ..MinCutConfig::default()
            },
            2.0,
        );
    }

    #[test]
    fn more_trials_never_hurt() {
        let g = gen::random_connected(20, 45, 4);
        let few = min_cut(
            &g,
            &MinCutConfig {
                trials: Some(1),
                ..Default::default()
            },
        );
        let many = min_cut(
            &g,
            &MinCutConfig {
                trials: Some(8),
                ..Default::default()
            },
        );
        assert!(many.weight <= few.weight);
        assert!(
            many.cost.messages > few.cost.messages,
            "more trials cost more"
        );
    }
}
