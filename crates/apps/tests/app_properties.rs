//! Property tests over the applications: MST optimality, SSSP soundness,
//! component labeling vs union–find, k-domination guarantees — on
//! arbitrary random instances; and k-domination and eccentricity served
//! through `run_query`, equal to the one-BFS-per-dominator fold.

use proptest::prelude::*;

use rmo_apps::eccentricity::EccentricityResult;
use rmo_apps::kdom::{k_dominating_set, KDomResult};
use rmo_apps::mst::pa_mst;
use rmo_apps::sssp::{approx_sssp, SsspConfig};
use rmo_apps::{component_labels, run_query, ComponentLabels, Query, QueryResponse};
use rmo_congest::CostReport;
use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::{bfs_distances, gen, reference, DisjointSets, EdgeId, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pa_mst_weight_equals_kruskal(
        n in 4usize..50,
        extra in 1usize..40,
        seed in 0u64..200,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected_weighted(n, m, seed);
        let ours = pa_mst(&mut PaEngine::new(&g, EngineConfig::new())).expect("solves");
        let oracle = reference::kruskal(&g);
        prop_assert_eq!(ours.total_weight, oracle.total_weight);
        prop_assert_eq!(ours.edges, oracle.edges);
        prop_assert!(ours.phases as f64 <= (n as f64).log2() + 2.0);
    }

    #[test]
    fn sssp_estimates_are_sound(
        n in 4usize..60,
        extra in 0usize..50,
        seed in 0u64..200,
        beta_pick in 1usize..9,
        src in 0usize..1000,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected_weighted(n, m, seed);
        let source = src % n;
        let cfg = SsspConfig { beta: beta_pick as f64 / 10.0, seed };
        let res = approx_sssp(&mut PaEngine::new(&g, EngineConfig::new()), source, &cfg)
            .expect("solves");
        let truth = reference::dijkstra(&g, source);
        prop_assert_eq!(res.estimates[source], 0);
        prop_assert_eq!(res.estimates.len(), n);
        for (v, (&estimate, &exact)) in res.estimates.iter().zip(&truth).enumerate() {
            prop_assert!(estimate >= exact, "node {} undercuts", v);
            prop_assert!(estimate < u64::MAX, "connected graph: all reachable");
        }
    }

    #[test]
    fn component_labels_equal_union_find(
        n in 3usize..50,
        extra in 0usize..60,
        seed in 0u64..200,
        keep_mod in 1usize..5,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let h: Vec<EdgeId> = (0..g.m()).filter(|e| e % keep_mod == 0).collect();
        let out: ComponentLabels =
            component_labels(&mut PaEngine::new(&g, EngineConfig::new()), &h).expect("solves");
        let mut dsu = DisjointSets::new(n);
        for &e in &h {
            let (u, v) = g.endpoints(e);
            dsu.union(u, v);
        }
        prop_assert_eq!(out.num_components, dsu.set_count());
        for u in 0..n {
            for v in (u + 1)..n {
                prop_assert_eq!(out.labels[u] == out.labels[v], dsu.same(u, v));
            }
        }
    }

    #[test]
    fn kdom_guarantees_on_random_graphs(
        n in 10usize..90,
        extra in 0usize..40,
        seed in 0u64..200,
        k in 2usize..30,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let res = k_dominating_set(&mut PaEngine::new(&g, EngineConfig::new()), k);
        prop_assert!(res.max_distance <= k, "distance {} > k {}", res.max_distance, k);
        prop_assert!(
            res.set.len() <= 6 * n / k + 1,
            "size {} > 6n/k = {}", res.set.len(), 6 * n / k
        );
    }
}

/// `k_dominating_set` as one BFS per dominator: the set is the Algorithm 6
/// representatives at threshold `⌈k/6⌉`, and the check folds the
/// minimum over every dominator's distances.
fn kdom_by_fold(engine: &mut PaEngine<'_>, k: usize) -> KDomResult {
    let g = engine.graph();
    let (res, division_cost) = engine.whole_graph_division(k.div_ceil(6));
    let set: Vec<NodeId> = (0..res.division.num_subparts())
        .map(|s| res.division.rep_of_subpart(s))
        .collect();
    let mut nearest = vec![usize::MAX; g.n()];
    for &s in &set {
        for (v, d) in bfs_distances(g, &[s]).into_iter().enumerate() {
            nearest[v] = nearest[v].min(d);
        }
    }
    KDomResult {
        set,
        max_distance: nearest.into_iter().max().unwrap_or(0),
        cost: division_cost + CostReport::new(2, 2 * g.n() as u64),
    }
}

/// `approx_eccentricities` as one BFS per dominator: each wave charges
/// `2m` messages, and the waves pipeline in their deepest depth plus
/// `|S|` rounds.
fn eccentricity_by_fold(engine: &mut PaEngine<'_>, k: usize) -> EccentricityResult {
    let g = engine.graph();
    let kd = kdom_by_fold(engine, k);
    let mut cost = kd.cost;
    let mut farthest = vec![0usize; g.n()];
    let mut max_depth = 0;
    for &s in &kd.set {
        let dist = bfs_distances(g, &[s]);
        max_depth = max_depth.max(dist.iter().copied().max().unwrap_or(0));
        for (v, d) in dist.into_iter().enumerate() {
            farthest[v] = farthest[v].max(d);
        }
        cost += CostReport::new(0, 2 * g.m() as u64);
    }
    cost += CostReport::new(max_depth + kd.set.len(), 0);
    let estimates: Vec<usize> = farthest.iter().map(|&d| d.saturating_add(k)).collect();
    EccentricityResult {
        radius_estimate: estimates.iter().copied().min().unwrap_or(0),
        diameter_estimate: estimates.iter().copied().max().unwrap_or(0),
        estimates,
        dominating_set: kd.set,
        cost,
    }
}

#[test]
fn kdom_and_eccentricity_queries_equal_the_per_dominator_fold() {
    // `stream_zipf`'s topologies and its `k` values. Both engines see the
    // same call sequence, so cold and memoized divisions line up: the
    // first query of each `k` pays for the division, the next one not.
    let graphs = [
        ("grid", gen::grid(12, 12)),
        ("torus", gen::torus(10, 12)),
        ("hypercube", gen::hypercube(7)),
        ("ladder", gen::grid(2, 64)),
        ("random tree", gen::random_spanning_tree(160, 4)),
    ];
    for (name, g) in &graphs {
        let mut served = PaEngine::new(g, EngineConfig::new());
        let mut folded = PaEngine::new(g, EngineConfig::new());
        for k in [6, 10] {
            for round in 0..2 {
                let QueryResponse::Kdom(kd) = run_query(&mut served, &Query::Kdom { k }) else {
                    panic!("{name}: kdom k = {k} failed");
                };
                assert_eq!(
                    kd,
                    kdom_by_fold(&mut folded, k),
                    "{name}: kdom k = {k}, {round}"
                );
                let QueryResponse::Eccentricity(ecc) =
                    run_query(&mut served, &Query::Eccentricity { k })
                else {
                    panic!("{name}: eccentricity k = {k} failed");
                };
                let want = eccentricity_by_fold(&mut folded, k);
                assert_eq!(ecc, want, "{name}: eccentricity k = {k}, {round}");
            }
        }
    }
}
