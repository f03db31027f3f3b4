//! The `PaCluster` determinism, routing, and work-stealing contract.
//!
//! * Threaded serving bit-matches the sequential replay — responses
//!   *and* per-query cost accounting — on a seeded mixed workload over
//!   grid/path/gnp graphs, at several shard counts, under both
//!   scheduling policies.
//! * A threaded run's [`ServeLog`] (LPT placement + recorded steals)
//!   replayed through `serve_replay` reproduces the run bit-for-bit,
//!   final assignment included — at shards 1/2/4/7; a sequential run
//!   and the replay of its own log are equal as whole reports.
//! * Skewed workloads (all traffic on one graph; every graph hashing
//!   to one shard) stay deterministic, and the `Balanced` scheduler
//!   spreads the adversarial fleet that starves hash-pinning.
//! * `PaEngine`/`EngineCore` are statically `Send` (what lets engines
//!   live on shard worker threads — and hop between them when stolen).
//! * The `Pinned` policy pins every graph to exactly one shard, stably.

use rmo_apps::dispatch::{Query, QueryResponse};
use rmo_apps::service::{
    colliding_graph_ids, mixed_workload, zipf_workload, GraphId, PaCluster, ReplicaPolicy,
    SchedulePolicy, ServeLog,
};
use rmo_core::{Aggregate, EngineCore, PaEngine};
use rmo_graph::gen;

fn fleet() -> Vec<(GraphId, rmo_graph::Graph)> {
    vec![
        (GraphId(10), gen::grid(5, 6)),
        (GraphId(11), gen::grid(4, 4)),
        (GraphId(12), gen::path(40)),
        (GraphId(13), gen::path(17)),
        (GraphId(14), gen::gnp_connected(30, 0.12, 3)),
        (GraphId(15), gen::gnp_connected(24, 0.15, 8)),
    ]
}

fn fleet_with_policy(shards: usize, policy: SchedulePolicy) -> PaCluster {
    let mut cluster = PaCluster::with_policy(shards, policy);
    for (id, g) in fleet() {
        cluster.add_graph(id, g);
    }
    cluster
}

fn fleet_cluster(shards: usize) -> PaCluster {
    fleet_with_policy(shards, SchedulePolicy::default())
}

fn one_shard_cluster(shards: usize, policy: SchedulePolicy) -> (PaCluster, Vec<GraphId>) {
    let ids = colliding_graph_ids(shards, 0, 5);
    let mut cluster = PaCluster::with_policy(shards, policy);
    for (rank, &id) in ids.iter().enumerate() {
        cluster.add_graph(id, gen::grid(4, 4 + rank));
    }
    (cluster, ids)
}

#[test]
fn threaded_serving_bit_matches_sequential_replay() {
    let workload = mixed_workload(&fleet_cluster(1), 60, 2026);
    let baseline = fleet_cluster(1).serve_sequential(&workload);
    assert!(
        baseline.responses.iter().all(|r| r.is_ok()),
        "the generated workload is always servable"
    );
    for shards in [1usize, 2, 4, 7] {
        for policy in [SchedulePolicy::Balanced, SchedulePolicy::Pinned] {
            let mut cluster = fleet_with_policy(shards, policy);
            let threaded = cluster.serve(&workload);
            // Answers and per-query CostReports are inside the responses:
            // equality is the full determinism contract, including cost
            // accounting (who paid election+BFS, setup, waves) — and it
            // holds regardless of placement policy or stealing.
            assert_eq!(
                threaded.responses, baseline.responses,
                "threaded responses diverged at {shards} shards under {policy:?}"
            );
            // Engine counters (hits/misses/evictions/base/charged) too.
            let replay = fleet_with_policy(shards, policy).serve_sequential(&workload);
            assert_eq!(
                threaded.stats.engine, replay.stats.engine,
                "engine counters diverged at {shards} shards under {policy:?}"
            );
            assert_eq!(threaded.stats.queries, workload.len() as u64);
            assert_eq!(threaded.stats.failed, 0);
        }
    }
}

#[test]
fn steal_log_replay_reproduces_placement_at_every_shard_count() {
    let workload = mixed_workload(&fleet_cluster(1), 48, 77);
    for shards in [1usize, 2, 4, 7] {
        let mut threaded = fleet_cluster(shards);
        let report = threaded.serve(&workload);
        // Feed the recorded final assignment (steals included) back into
        // an identically prepared cluster: everything must bit-match —
        // responses, engine counters, and the per-shard placement.
        let mut fresh = fleet_cluster(shards);
        let replay = fresh.serve_replay(&workload, &report.log);
        assert_eq!(replay.responses, report.responses, "{shards} shards");
        assert_eq!(replay.stats.engine, report.stats.engine);
        assert_eq!(
            replay.log.assignments, report.log.assignments,
            "replay must land every group on the recorded shard"
        );
        assert!(replay.log.steals.is_empty(), "replays never steal");
        // Without steals the contract is one equality: a sequential run
        // and the replay of its own log agree on the whole report.
        let sequential = fleet_cluster(shards).serve_sequential(&workload);
        let replayed = fleet_cluster(shards).serve_replay(&workload, &sequential.log);
        assert_eq!(replayed, sequential, "{shards} shards");
        // The log itself is sane: every steal lands where the
        // assignment says, epochs are sequential.
        for (i, steal) in report.log.steals.iter().enumerate() {
            assert_eq!(steal.epoch, i as u64);
            assert!(steal.from != steal.to);
            assert!(
                report.log.assignments[steal.to].contains(&steal.graph),
                "stolen group must appear in the thief's assignment"
            );
        }
    }
}

#[test]
fn handcrafted_replay_moves_a_group_deterministically() {
    // Placement independence, exercised without racing threads: take the
    // sequential run's log, move one whole graph group to another shard
    // by hand, and replay — responses and engine counters must not move.
    let workload = mixed_workload(&fleet_cluster(1), 36, 31);
    let baseline = fleet_cluster(4).serve_sequential(&workload);
    let mut log = baseline.log.clone();
    let from = (0..4)
        .find(|&s| !log.assignments[s].is_empty())
        .expect("some shard serves");
    let moved = log.assignments[from].pop().unwrap();
    let to = (from + 1) % 4;
    log.assignments[to].insert(0, moved);
    let mut fresh = fleet_cluster(4);
    let replay = fresh.serve_replay(&workload, &log);
    assert_eq!(replay.responses, baseline.responses);
    assert_eq!(replay.stats.engine, baseline.stats.engine);
    assert!(
        replay.log.assignments[to].contains(&moved),
        "the moved group executed on its new shard"
    );
}

#[test]
fn hot_graph_skew_stays_deterministic() {
    // All traffic on one graph: a single unsplittable group. Threaded
    // and sequential still bit-match, and exactly one shard serves.
    let workload = zipf_workload(&fleet_cluster(1), 40, 9, 50.0);
    let hot = fleet_cluster(1).graph_ids()[0];
    assert!(
        workload.iter().all(|(id, _)| *id == hot),
        "exponent 50 sends every query to the first graph"
    );
    let mut threaded = fleet_cluster(4);
    let t = threaded.serve(&workload);
    let s = fleet_cluster(4).serve_sequential(&workload);
    assert_eq!(t.responses, s.responses);
    assert_eq!(t.stats.engine, s.stats.engine);
    let serving: Vec<usize> = t
        .log
        .assignments
        .iter()
        .enumerate()
        .filter(|(_, ids)| !ids.is_empty())
        .map(|(shard, _)| shard)
        .collect();
    assert_eq!(serving.len(), 1, "one graph group, one shard: {serving:?}");
}

#[test]
fn balanced_policy_spreads_an_adversarially_hashed_fleet() {
    // Five graphs whose ids all hash to shard 0 of 4. Pinned serving
    // serializes the whole batch on that shard; Balanced (LPT) spreads
    // the groups — and both produce identical responses.
    let shards = 4;
    let (pinned_cluster, ids) = one_shard_cluster(shards, SchedulePolicy::Pinned);
    for &id in &ids {
        assert_eq!(pinned_cluster.shard_of(id), 0, "ids hash to shard 0");
    }
    let workload = mixed_workload(&pinned_cluster, 40, 5);

    let (mut pinned, _) = one_shard_cluster(shards, SchedulePolicy::Pinned);
    let p = pinned.serve(&workload);
    let busy_shards = |report: &rmo_apps::ServeReport| {
        let assignments = report.log.assignments.iter();
        assignments.filter(|ids| !ids.is_empty()).count()
    };
    assert_eq!(busy_shards(&p), 1, "hash-pinning starves three shards");
    assert_eq!(p.log.assignments[0].len(), ids.len(), "all on shard 0");

    let (mut balanced, _) = one_shard_cluster(shards, SchedulePolicy::Balanced);
    let b = balanced.serve_sequential(&workload);
    assert!(
        busy_shards(&b) >= 3,
        "LPT spreads 5 groups over the fleet, got {} busy shards",
        busy_shards(&b)
    );
    assert_eq!(b.responses, p.responses, "placement never changes answers");
    assert_eq!(b.stats.engine, p.stats.engine);
}

#[test]
fn warm_clusters_stay_deterministic_across_batches() {
    // Two batches back-to-back: the second starts on parked warm
    // engines *and* a demand history that reshapes the LPT placement —
    // threaded/sequential must still agree bit-for-bit.
    let first = mixed_workload(&fleet_cluster(1), 24, 5);
    let second = mixed_workload(&fleet_cluster(1), 24, 6);
    let mut threaded = fleet_cluster(3);
    let mut sequential = fleet_cluster(3);
    let _ = (threaded.serve(&first), sequential.serve_sequential(&first));
    let t = threaded.serve(&second);
    let s = sequential.serve_sequential(&second);
    assert_eq!(t.responses, s.responses);
    assert_eq!(t.stats.engine, s.stats.engine);
    assert_eq!(t.stats.queries, 48, "lifetime counter spans both batches");
}

#[test]
fn engine_and_core_are_send() {
    fn assert_send<T: Send>() {}
    // The static contract the shard workers rely on: an engine (and its
    // parked core, and a steal log) can move to a worker thread.
    assert_send::<PaEngine<'static>>();
    assert_send::<EngineCore>();
    assert_send::<Query>();
    assert_send::<QueryResponse>();
    assert_send::<ServeLog>();
}

#[test]
fn every_graph_is_pinned_to_one_shard_under_pinned_policy() {
    let pinned_fleet = |shards: usize| fleet_with_policy(shards, SchedulePolicy::Pinned);
    let cluster = pinned_fleet(4);
    let pinned: Vec<usize> = cluster
        .graph_ids()
        .iter()
        .map(|&id| cluster.shard_of(id))
        .collect();
    // Stable: the same mapping on every call and every rebuild.
    let rebuilt = pinned_fleet(4);
    for (i, &id) in cluster.graph_ids().iter().enumerate() {
        assert!(pinned[i] < 4, "shard out of range");
        assert_eq!(rebuilt.shard_of(id), pinned[i], "routing must be stable");
    }

    // Serving confirms the pin: across several batches, each graph only
    // ever appears in its own shard's served set.
    let mut cluster = pinned_fleet(4);
    for seed in [1u64, 2, 3] {
        let workload = mixed_workload(&cluster, 30, seed);
        let report = cluster.serve(&workload);
        for (shard, ids) in report.log.assignments.iter().enumerate() {
            for &id in ids {
                assert_eq!(
                    cluster.shard_of(id),
                    shard,
                    "graph {id} served off its pinned shard"
                );
            }
        }
        // Every submitted graph was served by exactly one shard.
        for (id, _) in &workload {
            let serving: Vec<usize> = report
                .log
                .assignments
                .iter()
                .enumerate()
                .filter(|(_, ids)| ids.contains(id))
                .map(|(shard, _)| shard)
                .collect();
            assert_eq!(serving.len(), 1, "graph {id} spread over {serving:?}");
        }
    }
}

#[test]
fn group_panic_spares_other_groups_and_stays_deterministic() {
    // Panics are contained per *group*: every healthy group still
    // serves (wherever it was placed, stolen or not), so the post-panic
    // cluster state is identical across serving modes.
    let mut post_panic_engine = Vec::new();
    for threaded in [true, false] {
        let mut cluster = fleet_cluster(2);
        let ids = cluster.graph_ids();
        let (healthy, third) = (ids[0], ids[2]);
        // A connected graph whose edge weight overflows the Borůvka
        // packing (`pack` requires weight < 2^40): registration accepts
        // it, and `Query::Mst` on it is documented to panic.
        let wide = GraphId(777);
        cluster.add_graph(
            wide,
            rmo_graph::Graph::from_edges(2, &[(0, 1, 1u64 << 40)]).unwrap(),
        );
        let n = cluster.graph(healthy).unwrap().n();
        let pa = Query::Pa {
            assignment: vec![0; n],
            values: vec![7; n],
            agg: Aggregate::Sum,
        };
        // Warm the healthy graph, then serve a batch where one group
        // panics deep in its solver.
        let _ = cluster.serve(&[(healthy, pa.clone())]);
        let batch = vec![
            (healthy, pa.clone()),
            (wide, Query::Mst),
            (third, Query::Mst),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if threaded {
                cluster.serve(&batch)
            } else {
                cluster.serve_sequential(&batch)
            }
        }));
        assert!(result.is_err(), "the solver panic must propagate");
        // The healthy groups' work and warm state survived the panic:
        // their queries were answered (served counter) and the parked
        // engines still serve cache hits.
        let after = cluster.serve(&[(healthy, pa.clone())]);
        let stats = after.stats;
        assert_eq!(stats.engine.misses, 2, "healthy engines never rebuilt");
        assert_eq!(stats.engine.hits, 2, "both repeat solves were warm");
        assert_eq!(stats.queries, 4, "all four healthy queries counted");
        post_panic_engine.push(stats.engine);
    }
    assert_eq!(
        post_panic_engine[0], post_panic_engine[1],
        "post-panic cluster state must not depend on the serving mode"
    );
}

#[test]
fn contract_violations_fail_gracefully_across_the_cluster() {
    // Dispatch contract violations (`k == 0`, zero min-cut trials) no
    // longer panic anywhere on the serving path: the offending query
    // comes back as `Failed`, every other group serves normally, and
    // the batch stays bit-identical across serving modes.
    let mut reports = Vec::new();
    for threaded in [true, false] {
        let mut cluster = fleet_cluster(2);
        let ids = cluster.graph_ids();
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        let n = cluster.graph(a).unwrap().n();
        let batch = vec![
            (
                a,
                Query::Pa {
                    assignment: vec![0; n],
                    values: vec![3; n],
                    agg: Aggregate::Sum,
                },
            ),
            (b, Query::Kdom { k: 0 }),
            (b, Query::MinCut { trials: 0 }),
            (c, Query::Mst),
        ];
        let report = if threaded {
            cluster.serve(&batch)
        } else {
            cluster.serve_sequential(&batch)
        };
        assert!(report.responses[0].is_ok(), "{:?}", report.responses[0]);
        match &report.responses[1] {
            QueryResponse::Failed(msg) => {
                assert!(msg.to_string().contains("positive radius"), "{msg}")
            }
            other => panic!("Kdom k=0 must fail gracefully, got {other:?}"),
        }
        match &report.responses[2] {
            QueryResponse::Failed(msg) => assert!(msg.to_string().contains("trial"), "{msg}"),
            other => panic!("MinCut trials=0 must fail gracefully, got {other:?}"),
        }
        assert!(report.responses[3].is_ok(), "{:?}", report.responses[3]);
        // The poisoned graph's group survived its failed queries and
        // still serves real work afterwards.
        let after = cluster.serve(&[(b, Query::Mst)]);
        assert!(after.responses[0].is_ok(), "{:?}", after.responses[0]);
        reports.push((report.responses, report.stats.engine));
    }
    assert_eq!(
        reports[0], reports[1],
        "graceful failures must stay mode-independent"
    );
}

/// A replica-enabled cluster: one hot graph, one satellite, 4 shards.
fn replica_cluster() -> PaCluster {
    let mut cluster = PaCluster::with_policy(4, SchedulePolicy::Balanced);
    cluster.add_graph(GraphId(1), gen::grid(5, 5));
    cluster.add_graph(GraphId(2), gen::path(12));
    cluster.set_replica_policy(ReplicaPolicy::new(0.5, 3));
    cluster
}

/// Warm both cores (cold engines never split), identically in every
/// serving mode.
fn warm_replica_cluster() -> PaCluster {
    let mut cluster = replica_cluster();
    cluster.serve_sequential(&[(GraphId(1), Query::Mst), (GraphId(2), Query::Mst)]);
    cluster
}

#[test]
fn fork_events_are_pinned_and_replay_bit_for_bit() {
    // Six hot queries on the warmed graph: the planner must fork the
    // engine exactly once, three ways, onto three distinct shards —
    // pinned exactly, in both serving modes, and through replay.
    let hot: Vec<(GraphId, Query)> = (0..6).map(|_| (GraphId(1), Query::Mst)).collect();
    let mut by_mode = Vec::new();
    for threaded in [true, false] {
        let mut cluster = warm_replica_cluster();
        let report = if threaded {
            cluster.serve(&hot)
        } else {
            cluster.serve_sequential(&hot)
        };
        assert_eq!(report.log.forks.len(), 1, "one split, one event");
        let event = &report.log.forks[0];
        assert_eq!(event.graph, GraphId(1));
        assert_eq!(event.replicas, 3, "max_replicas caps the fan-out");
        let mut shards = event.shards.clone();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), 3, "chunks land on distinct shards");
        assert_eq!(report.stats.forks, 2, "a 3-way split forks two fresh cores");
        assert_eq!(report.stats.replicas, 3, "three replica chunk runs");
        // The fork log replays bit-for-bit on a fresh warmed cluster.
        let mut fresh = warm_replica_cluster();
        let replay = fresh.serve_replay(&hot, &report.log);
        assert_eq!(replay.responses, report.responses);
        assert_eq!(replay.log.assignments, report.log.assignments);
        assert_eq!(replay.log.replica_indices, report.log.replica_indices);
        assert_eq!(replay.log.forks, report.log.forks);
        assert!(replay.log.steals.is_empty());
        by_mode.push((
            report.responses.clone(),
            report.stats.engine,
            report.log.forks.clone(),
        ));
    }
    assert_eq!(by_mode[0], by_mode[1], "fork placement is mode-independent");
}

#[test]
fn split_batch_reparks_one_survivor_with_merged_counters() {
    // The survivor rule: after a split batch exactly one warm core is
    // re-parked (lowest replica index) carrying every replica's merged
    // counters — so the engine totals are mode-independent and the next
    // solve is a cache hit, not a rebuild.
    let hot: Vec<(GraphId, Query)> = (0..6).map(|_| (GraphId(1), Query::Mst)).collect();
    let mut lifetime = Vec::new();
    for threaded in [true, false] {
        let mut cluster = warm_replica_cluster();
        let before = cluster.stats().engine;
        assert_eq!(
            (before.hits, before.misses),
            (0, 2),
            "two cold warm-up solves"
        );
        let report = if threaded {
            cluster.serve(&hot)
        } else {
            cluster.serve_sequential(&hot)
        };
        assert!(!report.log.forks.is_empty(), "the hot batch splits");
        // Every chunk solved on a warmed fork: six hits, zero new
        // misses — forking never rebuilds artifacts.
        let after = cluster.stats().engine;
        assert_eq!(after.hits - before.hits, 6, "all replica runs were warm");
        assert_eq!(after.misses, before.misses, "no replica rebuilt anything");
        // The re-parked survivor serves the follow-up from cache.
        let follow = cluster.serve(&[(GraphId(1), Query::Mst)]);
        assert!(follow.log.forks.is_empty(), "a single query is never split");
        let parked = cluster.stats().engine;
        assert_eq!(parked.hits - after.hits, 1, "survivor kept the warm cache");
        assert_eq!(parked.misses, after.misses);
        lifetime.push(parked);
    }
    assert_eq!(
        lifetime[0], lifetime[1],
        "merged survivor counters must not depend on the serving mode"
    );
}

#[test]
fn scheduler_batching_yields_cross_query_cache_hits() {
    // A stream of same-partition Pa queries interleaved across graphs:
    // the scheduler's affinity batching must turn the repeats into
    // artifact-cache hits even though the submissions alternate graphs.
    let mut cluster = fleet_cluster(2);
    let rows30: Vec<usize> = (0..30).map(|v| v / 6).collect();
    let rows40: Vec<usize> = (0..40).map(|v| v / 8).collect();
    let mut queries = Vec::new();
    for i in 0..4u64 {
        queries.push((
            GraphId(10),
            Query::Pa {
                assignment: rows30.clone(),
                values: vec![i; 30],
                agg: Aggregate::Max,
            },
        ));
        queries.push((
            GraphId(12),
            Query::Pa {
                assignment: rows40.clone(),
                values: vec![i; 40],
                agg: Aggregate::Max,
            },
        ));
    }
    let report = cluster.serve(&queries);
    assert!(report.responses.iter().all(|r| r.is_ok()));
    // 2 distinct (graph, partition) classes, 4 queries each: 2 misses,
    // 6 hits.
    assert_eq!(report.stats.engine.misses, 2);
    assert_eq!(report.stats.engine.hits, 6);
}
