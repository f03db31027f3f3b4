//! Corollary 1.5: approximate single-source shortest paths.
//!
//! The paper plugs PA into Haeupler–Li: low-diameter decompositions
//! (LDDs, after Miller–Peng–Xu) cluster the graph with random start
//! shifts; clusters contract — *traversing a cluster "in a single round"
//! is exactly a PA call* — and distances are estimated on the quotient
//! graph of clusters. The parameter `β` trades cluster radius (hence
//! approximation) against the number of rounds.
//!
//! Our estimator keeps the scheme's invariant that every estimate is the
//! length of a **real path**: the source re-roots its own cluster tree at
//! itself; a quotient edge between clusters `C₁, C₂` realized by the
//! graph edge `(u, v)` weighs `wdepth(u) + w(u,v) + wdepth(v)` (tree
//! detours through the cluster centers); Bellman–Ford over the quotient —
//! one PA call per relaxation round — then yields upper bounds
//! `d(s,v) ≤ est(v)`, with multiplicative error bounded by the cluster
//! radii (measured and reported by the benchmarks against the paper's
//! `L^{O(log log n)/log(1/β)}` guarantee).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use rmo_congest::CostReport;
use rmo_graph::NodeId;

use rmo_core::{Aggregate, PaEngine, PaError};

/// Configuration for approximate SSSP.
#[derive(Debug, Clone, Copy)]
pub struct SsspConfig {
    /// The LDD parameter `β ∈ (0, 1)`: cluster radius is
    /// `O(log n / β)` hops.
    pub beta: f64,
    /// Seed for the random shifts.
    pub seed: u64,
}

impl Default for SsspConfig {
    fn default() -> SsspConfig {
        SsspConfig { beta: 0.4, seed: 1 }
    }
}

/// Result of [`approx_sssp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspResult {
    /// Distance estimates: `d(s,v) ≤ estimate[v]`.
    pub estimates: Vec<u64>,
    /// Number of LDD clusters formed.
    pub clusters: usize,
    /// Max cluster radius in hops (drives the approximation factor).
    pub max_radius: usize,
    /// Measured total cost.
    pub cost: CostReport,
}

/// Computes approximate SSSP distances from `source` on the engine's
/// graph; the quotient relaxations run as PA calls on the engine.
/// Repeated queries with the same `β`/`seed` reuse the cached
/// cluster-partition pipeline.
///
/// # Errors
/// Propagates [`PaError`] from the quotient relaxations.
///
/// # Panics
/// Panics if `β ∉ (0, 1]` or the graph is disconnected/empty.
pub fn approx_sssp(
    engine: &mut PaEngine<'_>,
    source: NodeId,
    config: &SsspConfig,
) -> Result<SsspResult, PaError> {
    let g = engine.graph();
    assert!(
        config.beta > 0.0 && config.beta <= 1.0,
        "beta must be in (0, 1]"
    );
    assert!(
        g.n() > 0 && g.is_connected(),
        "SSSP needs a connected graph"
    );
    let n = g.n();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut cost = CostReport::zero();

    // --- LDD via shifted multi-source BFS (Miller–Peng–Xu). ---
    // ln(n)/β is a few dozen for any sane β; the cast cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    let radius_cap = ((n.max(2) as f64).ln() / config.beta).ceil() as usize + 1;
    // Geometric start shifts, truncated to the cap.
    let shift: Vec<usize> = (0..n)
        .map(|v| {
            if v == source {
                return 0; // the source always starts its own cluster
            }
            let mut s = 0usize;
            while s < radius_cap && rng.random::<f64>() < 1.0 - config.beta {
                s += 1;
            }
            radius_cap - s
        })
        .collect();
    let mut cluster = vec![usize::MAX; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut hop_depth = vec![0usize; n];
    // Time-stepped growth: at time t, nodes with shift == t start their
    // own cluster if unclaimed; claimed frontiers advance one hop.
    let mut frontier: VecDeque<NodeId> = VecDeque::new();
    let mut num_clusters = 0usize;
    let mut rounds_ldd = 0usize;
    let mut messages_ldd = 0u64;
    for t in 0..=radius_cap + n {
        for v in 0..n {
            if cluster[v] == usize::MAX && shift[v] == t {
                cluster[v] = num_clusters;
                num_clusters += 1;
                frontier.push_back(v);
            }
        }
        if frontier.is_empty() && (t > radius_cap) {
            break;
        }
        rounds_ldd += 1;
        let wave: Vec<NodeId> = frontier.drain(..).collect();
        for u in wave {
            let mut nbrs: Vec<(NodeId, usize)> = g.neighbors(u).collect();
            nbrs.sort_unstable();
            for (v, _) in nbrs {
                messages_ldd += 1;
                if cluster[v] == usize::MAX {
                    cluster[v] = cluster[u];
                    parent[v] = Some(u);
                    hop_depth[v] = hop_depth[u] + 1;
                    frontier.push_back(v);
                }
            }
        }
    }
    assert!(
        cluster.iter().all(|&c| c != usize::MAX),
        "LDD must cover the graph"
    );
    cost += CostReport::new(rounds_ldd, messages_ldd);
    let max_radius = hop_depth.iter().copied().max().unwrap_or(0);

    // Weighted depth within the cluster tree (source cluster is rooted at
    // the source by construction: shift[source] = 0 claims it first).
    let mut wdepth = vec![0u64; n];
    // parents are BFS parents, so computing depths is a downward pass.
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by_key(|&v| hop_depth[v]);
    for &v in &order {
        if let Some(p) = parent[v] {
            let e = g.edge_between(v, p).expect("tree edges are graph edges");
            wdepth[v] = wdepth[p] + g.weight(e);
        }
    }
    cost += CostReport::new(2 * max_radius + 1, 2 * n as u64);

    // --- Quotient graph over clusters. ---
    let mut qadj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); num_clusters];
    for (_, u, v, w) in g.edges() {
        if cluster[u] != cluster[v] {
            let wq = wdepth[u] + w + wdepth[v];
            qadj[cluster[u]].push((cluster[v], wq));
            qadj[cluster[v]].push((cluster[u], wq));
        }
    }

    // --- Bellman–Ford over clusters; each round is one PA call. ---
    // One real PA call on the cluster partition prices the relaxations;
    // the engine memoizes its pipeline, so every further round is
    // charged the three wave phases only.
    let pa_first = engine.solve(&cluster, &vec![0; n], Aggregate::Min)?;
    let mut qdist = vec![u64::MAX; num_clusters];
    qdist[cluster[source]] = 0;
    let mut bf_rounds = 0usize;
    loop {
        bf_rounds += 1;
        let mut changed = false;
        for c in 0..num_clusters {
            if qdist[c] == u64::MAX {
                continue;
            }
            for &(d, w) in &qadj[c] {
                let cand = qdist[c].saturating_add(w);
                if cand < qdist[d] {
                    qdist[d] = cand;
                    changed = true;
                }
            }
        }
        if !changed || bf_rounds > num_clusters {
            break;
        }
    }
    cost += pa_first.cost + pa_first.broadcast_cost.repeated(3 * (bf_rounds - 1));

    // Final estimates: quotient distance to the cluster + in-cluster tree
    // walk from the cluster center.
    let estimates: Vec<u64> = (0..n)
        .map(|v| {
            let base = qdist[cluster[v]];
            if base == u64::MAX {
                u64::MAX
            } else {
                base + wdepth[v]
            }
        })
        .collect();
    Ok(SsspResult {
        estimates,
        clusters: num_clusters,
        max_radius,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_core::EngineConfig;
    use rmo_graph::{gen, reference, Graph};

    fn sssp(g: &Graph, source: NodeId, config: &SsspConfig) -> SsspResult {
        approx_sssp(&mut PaEngine::new(g, EngineConfig::new()), source, config).unwrap()
    }

    fn check_bounds(g: &Graph, source: NodeId, config: &SsspConfig, max_ratio: f64) {
        let truth = reference::dijkstra(g, source);
        let res = sssp(g, source, config);
        for v in 0..g.n() {
            assert!(
                res.estimates[v] >= truth[v],
                "node {v}: estimate {} below true {}",
                res.estimates[v],
                truth[v]
            );
            if truth[v] > 0 {
                let ratio = res.estimates[v] as f64 / truth[v] as f64;
                assert!(
                    ratio <= max_ratio,
                    "node {v}: ratio {ratio} exceeds {max_ratio}"
                );
            } else {
                assert_eq!(res.estimates[v], 0, "the source knows distance 0");
            }
        }
    }

    #[test]
    fn source_estimate_is_zero() {
        let g = gen::grid(5, 5);
        let res = sssp(&g, 12, &SsspConfig::default());
        assert_eq!(res.estimates[12], 0);
    }

    #[test]
    fn unit_grid_bounded_ratio() {
        let g = gen::grid(6, 6);
        // Generous ratio: the guarantee is polylog; measured is usually < 4.
        check_bounds(&g, 0, &SsspConfig::default(), 12.0);
    }

    #[test]
    fn weighted_random_graph_upper_bounds() {
        let g = gen::random_connected_weighted(50, 120, 8);
        check_bounds(&g, 3, &SsspConfig::default(), 50.0);
    }

    #[test]
    fn larger_beta_means_smaller_clusters() {
        let g = gen::grid(8, 8);
        let tight = sssp(
            &g,
            0,
            &SsspConfig {
                beta: 0.9,
                ..Default::default()
            },
        );
        let loose = sssp(
            &g,
            0,
            &SsspConfig {
                beta: 0.1,
                ..Default::default()
            },
        );
        assert!(
            tight.clusters >= loose.clusters,
            "beta=0.9 gives {} clusters, beta=0.1 gives {}",
            tight.clusters,
            loose.clusters
        );
    }

    #[test]
    fn path_graph_exact_along_clusters() {
        let g = gen::path(40);
        check_bounds(&g, 0, &SsspConfig::default(), 4.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::grid(5, 7);
        let a = sssp(&g, 0, &SsspConfig::default());
        let b = sssp(&g, 0, &SsspConfig::default());
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(a.cost, b.cost);
    }
}
