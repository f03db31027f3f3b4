//! `PaEngine` session semantics, cross-crate: engine results must
//! bit-match a from-scratch run of the public pipeline stages, repeated
//! calls must be served from the artifact cache, and consecutive
//! *application* calls on one graph must reuse the session's BFS tree
//! (the second call's setup is strictly cheaper than the first's).

use rmo::apps::components::component_labels;
use rmo::apps::mst::pa_mst;
use rmo::apps::verify::{verify_mst, verify_spanning_tree};
use rmo::congest::programs::bfs::run_bfs;
use rmo::congest::programs::leader::run_leader_election;
use rmo::congest::Network;
use rmo::core::{
    build_artifacts, solve_on, Aggregate, EngineConfig, PaEngine, PaInstance, PaResult,
};
use rmo::graph::{gen, Graph, Partition};

/// Every existing end-to-end test topology, as (name, graph, partition).
fn topologies() -> Vec<(&'static str, Graph, Partition)> {
    let mut out = Vec::new();
    let g = gen::grid(6, 10);
    let parts = Partition::new(&g, gen::grid_row_partition(6, 10)).unwrap();
    out.push(("grid rows", g, parts));
    let g = gen::path(100);
    let parts = Partition::new(&g, gen::path_blocks(100, 25)).unwrap();
    out.push(("path blocks", g, parts));
    let g = gen::gnp_connected(70, 0.07, 5);
    let parts = gen::random_connected_partition(&g, 6, 9);
    out.push(("gnp random", g, parts));
    let g = gen::grid(6, 16);
    let parts = Partition::new(&g, vec![0; 96]).unwrap();
    out.push(("one part", g, parts));
    out
}

/// The from-scratch reference: election, BFS, stages 2–4 and the free
/// `solve_on` (a fresh `WavePlan` and `SolveScratch`), all rebuilt for
/// this one call — no cache, no recycled arena, no incremental charging.
fn from_scratch(inst: &PaInstance<'_>, config: &EngineConfig) -> PaResult {
    let g = inst.graph();
    let net = Network::new(g, config.seed);
    let (root, _, elect_cost) = run_leader_election(g, &net).unwrap();
    let (tree, _, bfs_cost) = run_bfs(g, &net, root).unwrap();
    let artifacts = build_artifacts(g, inst.partition(), config, &tree);
    let mut result = solve_on(inst, &artifacts.setup(&tree), config.variant).unwrap();
    result.cost += artifacts.setup_cost + elect_cost + bfs_cost;
    result
}

#[test]
fn engine_bit_matches_from_scratch_stages_everywhere() {
    for (name, g, parts) in topologies() {
        let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 31) % 97).collect();
        for config in [
            EngineConfig::new(),
            EngineConfig::new().randomized(3),
            EngineConfig::new().trivial().seed(1),
        ] {
            let mut engine = PaEngine::new(&g, config);
            let ours = engine
                .solve(parts.assignment(), &values, Aggregate::Min)
                .unwrap();
            let inst =
                PaInstance::from_partition(&g, parts.clone(), values.clone(), Aggregate::Min)
                    .unwrap();
            let reference = from_scratch(&inst, &config);
            assert_eq!(ours.aggregates, reference.aggregates, "{name} {config:?}");
            assert_eq!(ours.node_values, reference.node_values, "{name} {config:?}");
            assert_eq!(ours.cost, reference.cost, "{name} {config:?}");
            assert_eq!(
                ours.iterations_per_part, reference.iterations_per_part,
                "{name} {config:?}"
            );
        }
    }
}

#[test]
fn repeated_solves_hit_the_cache_on_every_topology() {
    for (name, g, parts) in topologies() {
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let first = engine
            .solve(parts.assignment(), &values, Aggregate::Sum)
            .unwrap();
        let second = engine
            .solve(parts.assignment(), &values, Aggregate::Sum)
            .unwrap();
        assert_eq!(first.aggregates, second.aggregates, "{name}");
        assert!(
            second.cost.rounds < first.cost.rounds,
            "{name}: warm {} must beat cold {}",
            second.cost.rounds,
            first.cost.rounds
        );
        // A hit is charged exactly the three wave phases — no setup.
        assert_eq!(second.cost, second.broadcast_cost.repeated(3), "{name}");
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{name}");
    }
}

#[test]
fn cross_partition_solves_evict_at_capacity() {
    let g = gen::grid(6, 12);
    let values = vec![1u64; g.n()];
    let mut engine = PaEngine::new(&g, EngineConfig::new().cache_capacity(2));
    // Three distinct partitions: rows, row-pairs, whole.
    let partitions = [
        Partition::new(&g, gen::grid_row_partition(6, 12)).unwrap(),
        Partition::new(&g, (0..g.n()).map(|v| (v / 12) / 2).collect()).unwrap(),
        Partition::whole(&g).unwrap(),
    ];
    for parts in &partitions {
        engine
            .solve(parts.assignment(), &values, Aggregate::Sum)
            .unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.cached_partitions, 2);
    // Most-recent partitions still hit; the evicted one rebuilds.
    engine
        .solve(partitions[1].assignment(), &values, Aggregate::Sum)
        .unwrap();
    engine
        .solve(partitions[2].assignment(), &values, Aggregate::Sum)
        .unwrap();
    assert_eq!(engine.stats().hits, 2);
    engine
        .solve(partitions[0].assignment(), &values, Aggregate::Sum)
        .unwrap();
    assert_eq!(engine.stats().misses, 4, "evicted partition rebuilds");
}

#[test]
fn consecutive_app_calls_reuse_the_session_tree() {
    let g = gen::grid_weighted(6, 9, 4);
    let mut engine = PaEngine::new(&g, EngineConfig::new());
    // First app call: MST — pays election + BFS (the engine's base cost).
    let mst = pa_mst(&mut engine).unwrap();
    let base = engine.stats().base_cost;
    assert!(base.rounds > 0 && base.messages > 0);
    // Second app call on the same session: verification. Its total cost
    // must come in strictly below the first call's setup-inclusive cost
    // baseline for the same work run cold.
    let verdict = verify_mst(&mut engine, &mst.edges).unwrap();
    assert!(verdict.holds);
    let cold = {
        let mut fresh = PaEngine::new(&g, EngineConfig::new());
        verify_mst(&mut fresh, &mst.edges).unwrap()
    };
    assert_eq!(verdict.holds, cold.holds);
    assert!(
        verdict.cost.rounds + base.rounds <= cold.cost.rounds,
        "warm verification ({} rounds) must save the shared setup vs cold ({} rounds)",
        verdict.cost.rounds,
        cold.cost.rounds
    );
    assert!(
        verdict.cost.messages < cold.cost.messages,
        "warm verification must not re-pay election + BFS messages"
    );
}

#[test]
fn verification_suite_shares_component_labelings() {
    let g = gen::grid(5, 8);
    let h: Vec<usize> = (0..g.m())
        .filter(|&e| {
            let (u, v) = g.endpoints(e);
            u / 8 == v / 8
        })
        .collect();
    let mut engine = PaEngine::new(&g, EngineConfig::new());
    let first = component_labels(&mut engine, &h).unwrap();
    let second = component_labels(&mut engine, &h).unwrap();
    assert_eq!(first.labels, second.labels);
    assert!(
        second.cost.rounds < first.cost.rounds,
        "second labeling of the same H must hit the cache"
    );
    // A verifier on the same session keeps hitting the same artifacts.
    let verdict = verify_spanning_tree(&mut engine, &h).unwrap();
    assert!(!verdict.holds, "row edges are not spanning");
    assert!(engine.stats().hits >= 2);
}
