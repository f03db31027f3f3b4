//! Property tests over the applications: MST optimality, SSSP soundness,
//! component labeling vs union–find, k-domination guarantees — on
//! arbitrary random instances.

use proptest::prelude::*;

use rmo_apps::kdom::k_dominating_set;
use rmo_apps::mst::pa_mst;
use rmo_apps::sssp::{approx_sssp, SsspConfig};
use rmo_apps::{component_labels, ComponentLabels};
use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::{gen, reference, DisjointSets, EdgeId};

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
