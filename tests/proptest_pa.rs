//! Property-based tests of the PA stack: on arbitrary connected graphs,
//! partitions, values and aggregates, the distributed result equals the
//! centralized fold, the delivery record it is folded along is a
//! spanning forest of the parts, the wave an artifact miss keeps is
//! phase A at the final block budget, and the cost accounting stays
//! sane.

mod common;

use proptest::prelude::*;

use rmo::core::solve::run_wave;
use rmo::core::{Aggregate, EngineConfig, PaEngine, PaInstance, WavePlan};
use rmo::graph::{gen, Graph, Partition};

/// Strategy: a connected graph described by (n, extra edges, seed).
fn graph_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (4usize..40, 0usize..60, 0u64..1000)
}

fn aggregate() -> impl Strategy<Value = Aggregate> {
    prop_oneof![
        Just(Aggregate::Min),
        Just(Aggregate::Max),
        Just(Aggregate::Sum),
        Just(Aggregate::Xor),
        Just(Aggregate::Or),
    ]
}

/// Asserts that the wave `build_artifacts` keeps for `parts` is phase A
/// at the final block budget: a fresh `run_wave` on the final plan, at
/// `block_budget`, repeats it in every field.
fn assert_kept_wave_is_phase_a(g: &Graph, parts: &Partition, cfg: EngineConfig) {
    let mut engine = PaEngine::new(g, cfg);
    let tree = engine.tree().clone();
    let artifacts = engine.pipeline_for(parts).expect("valid partition");
    let plan = WavePlan::build(g, &tree, &artifacts.shortcut, &artifacts.division, parts);
    assert_eq!(plan.block_budget(), artifacts.block_budget, "{cfg:?}");
    let fresh = run_wave(g, parts, &artifacts.setup(&tree), &plan, cfg.variant);
    let kept = &artifacts.wave;
    assert_eq!(kept.cost, fresh.cost, "cost under {cfg:?}");
    assert_eq!(
        kept.iterations_per_part, fresh.iterations_per_part,
        "iterations under {cfg:?}"
    );
    assert_eq!(kept.informed, fresh.informed, "informed set under {cfg:?}");
    assert_eq!(kept.trace, fresh.trace, "trace under {cfg:?}");
    assert_eq!(kept.record, fresh.record, "delivery record under {cfg:?}");
    assert_eq!(kept, &fresh, "wave under {cfg:?}");
}

#[test]
fn kept_wave_is_phase_a_on_the_stage_pin_workloads() {
    // The workloads of `crates/core/tests/stage_pins.rs`. Under the
    // deterministic configuration `gnp3000` takes two doubling sweeps,
    // so keeping the first sweep's wave fails here.
    let grid = gen::grid(8, 8);
    let path = gen::path(64);
    let gnp = gen::random_connected(60, 150, 5);
    let gnp3000 = gen::random_connected(3000, 4500, 5);
    let workloads = [
        (
            &grid,
            Partition::new(&grid, gen::grid_row_partition(8, 8)).unwrap(),
        ),
        (
            &path,
            Partition::new(&path, gen::path_blocks(64, 8)).unwrap(),
        ),
        (&gnp, gen::random_connected_partition(&gnp, 6, 11)),
        (&gnp3000, gen::random_connected_partition(&gnp3000, 24, 11)),
    ];
    for (g, parts) in &workloads {
        for cfg in common::config_grid() {
            assert_kept_wave_is_phase_a(g, parts, cfg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kept_wave_is_phase_a_at_the_final_budget(
        (n, extra, seed) in graph_params(),
        parts_target in 1usize..10,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let parts = gen::random_connected_partition(&g, parts_target, seed ^ 0xabcd);
        for cfg in common::config_grid() {
            assert_kept_wave_is_phase_a(&g, &parts, cfg.seed(seed));
        }
    }

    #[test]
    fn pa_matches_reference_on_arbitrary_instances(
        (n, extra, seed) in graph_params(),
        parts_target in 1usize..10,
        f in aggregate(),
        values_seed in 0u64..1000,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let parts = gen::random_connected_partition(&g, parts_target, seed ^ 0xabcd);
        let values: Vec<u64> = (0..n as u64)
            .map(|v| v.wrapping_mul(values_seed.wrapping_mul(2654435761) | 1) % 100_000)
            .collect();
        let inst = PaInstance::from_partition(&g, parts, values, f).unwrap();
        for cfg in common::config_grid() {
            let res = PaEngine::new(&g, cfg.seed(seed))
                .solve(inst.partition().assignment(), inst.values(), f)
                .unwrap();
            for p in inst.partition().part_ids() {
                prop_assert_eq!(res.aggregates[p], inst.reference_aggregate(p));
            }
            for v in 0..n {
                prop_assert_eq!(res.value_at(v), inst.reference_aggregate_of(v));
            }
            // Cost sanity: the pipeline did some work but not absurd amounts.
            prop_assert!(res.cost.rounds >= 1);
            prop_assert!(res.cost.messages >= 1);
            let generous = (g.m() as u64 + n as u64) * 64 * 64;
            prop_assert!(res.cost.messages <= generous, "messages {} blow up", res.cost.messages);
        }
    }

    #[test]
    fn delivery_record_is_a_spanning_forest_rooted_at_the_leaders(
        (n, extra, seed) in graph_params(),
        parts_target in 1usize..10,
    ) {
        // The answers are folded along the record, so a record that is
        // not a forest of the parts could still give a lucky `Min`
        // answer: check its shape directly.
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let parts = gen::random_connected_partition(&g, parts_target, seed ^ 0xabcd);
        for cfg in common::config_grid() {
            let mut engine = PaEngine::new(&g, cfg.seed(seed));
            let artifacts = engine.pipeline_for(&parts).unwrap();
            let record = &artifacts.wave.record;
            let mut position = vec![None; n];
            for (i, &v) in record.order().iter().enumerate() {
                prop_assert!(position[v].is_none(), "node {} delivered twice", v);
                position[v] = Some(i);
            }
            for v in 0..n {
                let leader = artifacts.leaders[parts.part_of(v)];
                if v == leader {
                    prop_assert_eq!(record.informer(v), None, "leader {} has an informer", v);
                    continue;
                }
                let Some(at) = position[v] else {
                    return Err(TestCaseError::fail(format!("node {v} is not in the order")));
                };
                let Some(u) = record.informer(v) else {
                    return Err(TestCaseError::fail(format!("node {v} has no informer")));
                };
                prop_assert_eq!(parts.part_of(u), parts.part_of(v), "{} informed {}", u, v);
                prop_assert!(
                    position[u].is_some_and(|before| before < at),
                    "informer {} of {} is not earlier in the order",
                    u,
                    v
                );
            }
        }
    }

    #[test]
    fn pa_deterministic_configs_are_reproducible(
        (n, extra, seed) in graph_params(),
        parts_target in 1usize..6,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let parts = gen::random_connected_partition(&g, parts_target, seed);
        let values: Vec<u64> = (0..n as u64).collect();
        let solve = || {
            PaEngine::new(&g, EngineConfig::new())
                .solve(parts.assignment(), &values, Aggregate::Sum)
                .unwrap()
        };
        let (a, b) = (solve(), solve());
        prop_assert_eq!(a.cost, b.cost);
        prop_assert_eq!(a.aggregates, b.aggregates);
    }

    #[test]
    fn leaderless_matches_reference(
        (n, extra, seed) in (4usize..25, 0usize..25, 0u64..200),
        parts_target in 1usize..5,
    ) {
        use rmo::core::leaderless::leaderless_pa;
        use rmo::core::Variant;
        use rmo::graph::bfs_tree;
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let parts = gen::random_connected_partition(&g, parts_target, seed ^ 7);
        let values: Vec<u64> = (0..n as u64).map(|v| v * 3 % 17).collect();
        let inst = PaInstance::from_partition(&g, parts, values, Aggregate::Min).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let out = leaderless_pa(&inst, &tree, Variant::Deterministic).unwrap();
        for p in inst.partition().part_ids() {
            prop_assert_eq!(out.result.aggregates[p], inst.reference_aggregate(p));
            prop_assert_eq!(inst.partition().part_of(out.leaders[p]), p);
        }
    }
}
