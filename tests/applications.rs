//! Cross-crate application correctness: every corollary's algorithm
//! against its centralized oracle.

use rmo::apps::cds::{approx_mwcds, is_connected_dominating_set};
use rmo::apps::kdom::k_dominating_set;
use rmo::apps::mincut::{approx_min_cut, MinCutConfig};
use rmo::apps::mst::{naive_mst, pa_mst, PaMstResult};
use rmo::apps::sssp::{approx_sssp, SsspConfig};
use rmo::apps::verify::{verify_connected_spanning, verify_cut, verify_spanning_tree};
use rmo::apps::{component_labels, ComponentLabels};
use rmo::core::{EngineConfig, PaEngine};
use rmo::graph::{gen, reference, DisjointSets, EdgeId, Graph};

/// A fresh default engine: every call below is a one-shot run.
fn fresh(g: &Graph) -> PaEngine<'_> {
    PaEngine::new(g, EngineConfig::new())
}

fn mst(g: &Graph) -> PaMstResult {
    pa_mst(&mut fresh(g)).expect("solves")
}

#[test]
fn mst_matches_kruskal_across_families() {
    let cases = vec![
        gen::grid_weighted(7, 9, 1),
        gen::random_connected_weighted(80, 200, 2),
        gen::distinct_weights(&gen::ktree(50, 3, 3), 4),
        gen::distinct_weights(&gen::lollipop(9, 25), 5),
    ];
    for g in cases {
        let ours = mst(&g);
        let oracle = reference::kruskal(&g);
        assert_eq!(ours.total_weight, oracle.total_weight);
        assert_eq!(ours.edges, oracle.edges, "unique MST with distinct weights");
    }
}

#[test]
fn naive_and_pa_mst_agree() {
    let g = gen::grid_weighted(6, 10, 8);
    let a = mst(&g);
    let b = naive_mst(&g, &EngineConfig::new()).unwrap();
    assert_eq!(a.edges, b.edges);
}

#[test]
fn mst_output_is_spanning_tree() {
    let g = gen::random_connected_weighted(70, 180, 11);
    let ours = mst(&g);
    // Acyclic + spanning via DSU.
    let mut dsu = DisjointSets::new(g.n());
    for &e in &ours.edges {
        let (u, v) = g.endpoints(e);
        assert!(dsu.union(u, v), "edge {e} closes a cycle");
    }
    assert_eq!(dsu.set_count(), 1, "spans all nodes");
}

#[test]
fn mincut_never_below_exact_and_tight_on_planted() {
    for bridge in [1u64, 3, 9] {
        let g = gen::dumbbell(7, bridge);
        let exact = reference::stoer_wagner(&g);
        assert_eq!(exact.weight, bridge);
        let res = approx_min_cut(&mut fresh(&g), &MinCutConfig::default()).unwrap();
        assert_eq!(res.weight, bridge, "planted bridge must be found");
        // The reported side realizes the weight.
        let realized: u64 = g
            .edges()
            .filter(|&(_, u, v, _)| res.side[u] != res.side[v])
            .map(|(_, _, _, w)| w)
            .sum();
        assert_eq!(realized, res.weight);
        assert!(res.weight >= exact.weight);
    }
}

#[test]
fn mincut_reasonable_on_random_graphs() {
    for seed in 0..3 {
        let g = gen::random_connected(26, 60, seed);
        let exact = reference::stoer_wagner(&g);
        let res = approx_min_cut(
            &mut fresh(&g),
            &MinCutConfig {
                trials: Some(10),
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.weight >= exact.weight);
        assert!(
            res.weight as f64 <= 2.5 * exact.weight as f64,
            "seed {seed}: {} vs exact {}",
            res.weight,
            exact.weight
        );
    }
}

#[test]
fn sssp_upper_bounds_and_bounded_stretch() {
    let cases = vec![
        gen::grid(9, 9),
        gen::random_connected_weighted(100, 250, 4),
        gen::path(80),
        gen::balanced_binary_tree(6),
    ];
    for g in cases {
        let truth = reference::dijkstra(&g, 0);
        let res = approx_sssp(&mut fresh(&g), 0, &SsspConfig::default()).expect("solves");
        for v in 0..g.n() {
            assert!(res.estimates[v] >= truth[v], "estimates are path lengths");
        }
        let max_stretch = (0..g.n())
            .filter(|&v| truth[v] > 0)
            .map(|v| res.estimates[v] as f64 / truth[v] as f64)
            .fold(1.0f64, f64::max);
        assert!(
            max_stretch <= 60.0,
            "stretch {max_stretch} is out of control"
        );
    }
}

#[test]
fn component_labels_match_dsu() {
    let g = gen::gnp_connected(60, 0.08, 2);
    // H = every third edge.
    let h: Vec<EdgeId> = (0..g.m()).filter(|e| e % 3 == 0).collect();
    let out: ComponentLabels = component_labels(&mut fresh(&g), &h).unwrap();
    let mut dsu = DisjointSets::new(g.n());
    for &e in &h {
        let (u, v) = g.endpoints(e);
        dsu.union(u, v);
    }
    for u in 0..g.n() {
        for v in (u + 1)..g.n() {
            assert_eq!(
                out.labels[u] == out.labels[v],
                dsu.same(u, v),
                "pair ({u},{v})"
            );
        }
    }
}

#[test]
fn verification_suite_on_planted_instances() {
    let g = gen::grid_weighted(6, 6, 4);
    let mst = reference::kruskal(&g).edges;
    assert!(verify_spanning_tree(&mut fresh(&g), &mst).unwrap().holds);
    let with_extra: Vec<EdgeId> = {
        let mut e = mst.clone();
        e.push((0..g.m()).find(|x| !mst.contains(x)).unwrap());
        e
    };
    assert!(
        !verify_spanning_tree(&mut fresh(&g), &with_extra)
            .unwrap()
            .holds
    );
    let all: Vec<EdgeId> = (0..g.m()).collect();
    assert!(
        verify_connected_spanning(&mut fresh(&g), &all)
            .unwrap()
            .holds
    );

    let d = gen::dumbbell(5, 2);
    let bridge = d.edge_between(4, 5).unwrap();
    assert!(verify_cut(&mut fresh(&d), &[bridge]).unwrap().holds);
}

#[test]
fn kdom_guarantees_across_k() {
    let g = gen::grid(8, 18);
    for k in [6usize, 12, 36] {
        let res = k_dominating_set(&mut fresh(&g), k);
        assert!(res.max_distance <= k, "k={k}");
        assert!(
            res.set.len() <= 6 * g.n() / k + 1,
            "k={k}: size {}",
            res.set.len()
        );
    }
}

#[test]
fn cds_valid_and_modest_on_structures() {
    let cases = vec![
        gen::star(25),
        gen::grid(5, 9),
        gen::gnp_connected(50, 0.1, 8),
    ];
    for g in cases {
        let w: Vec<u64> = (0..g.n() as u64).map(|v| 1 + v % 5).collect();
        let res = approx_mwcds(&mut fresh(&g), &w).unwrap();
        assert!(is_connected_dominating_set(&g, &res.set));
        assert!(res.weight > 0);
    }
}
