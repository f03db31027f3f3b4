//! The `PaCluster` determinism, routing, and work-stealing contract.
//!
//! * Threaded serving bit-matches the sequential replay — responses
//!   *and* per-query cost accounting — on a seeded mixed workload over
//!   grid/path/gnp graphs, at several shard counts.
//! * A threaded run's [`ServeLog`] (LPT placement + recorded steals)
//!   replayed through `serve_replay` reproduces the run bit-for-bit,
//!   final assignment included — at shards 1/2/4/7; a sequential run
//!   and the replay of its own log are equal as whole reports.
//! * Skewed workloads (all traffic on one graph; every graph hashing
//!   to one shard) stay deterministic, and LPT spreads the adversarial
//!   fleet whose home placement (`home_placement`, every group on its
//!   id's hash shard) starves three shards.
//! * `PaEngine`/`EngineCore` are statically `Send` (what lets engines
//!   live on shard worker threads — and hop between them when stolen).
//! * `shard_of` is stable, and replaying the home placement runs every
//!   graph on exactly that shard.
//! * Degenerate fleets (one node, one edge, a star, a triangle, a long
//!   path) under saturating query parameters never panic, and serve
//!   and stream identically in every mode.

use rmo_apps::dispatch::{FailReason, Query, QueryResponse, VerifyCheck};
use rmo_apps::service::{
    colliding_graph_ids, mixed_workload, zipf_workload, GraphId, PaCluster, ReplicaPolicy, ServeLog,
};
use rmo_apps::stream::{stamp_arrivals, StreamConfig, StreamGateway};
use rmo_core::{Aggregate, EngineCore, PaEngine};
use rmo_graph::{gen, Graph};

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

fn fleet_cluster(shards: usize) -> PaCluster {
    let mut cluster = PaCluster::new(shards);
    for (id, g) in fleet() {
        cluster.add_graph(id, g);
    }
    cluster
}

fn one_shard_cluster(shards: usize) -> (PaCluster, Vec<GraphId>) {
    let ids = colliding_graph_ids(shards, 0, 5);
    let mut cluster = PaCluster::new(shards);
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
        let mut cluster = fleet_cluster(shards);
        let threaded = cluster.serve(&workload);
        // Answers and per-query CostReports are inside the responses:
        // equality is the full determinism contract, including cost
        // accounting (who paid election+BFS, setup, waves) — and it
        // holds regardless of placement or stealing.
        assert_eq!(
            threaded.responses, baseline.responses,
            "threaded responses diverged at {shards} shards"
        );
        // Engine counters (hits/misses/evictions/base/charged) too.
        let replay = fleet_cluster(shards).serve_sequential(&workload);
        assert_eq!(
            threaded.stats.engine, replay.stats.engine,
            "engine counters diverged at {shards} shards"
        );
        assert_eq!(threaded.stats.queries, workload.len() as u64);
        assert_eq!(threaded.stats.failed, 0);
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
    // Five graphs whose ids all hash to shard 0 of 4. Their home
    // placement serializes the whole batch on that shard; LPT spreads
    // the groups — and both produce identical responses and counters.
    let shards = 4;
    let (probe, ids) = one_shard_cluster(shards);
    for &id in &ids {
        assert_eq!(probe.shard_of(id), 0, "ids hash to shard 0");
    }
    let workload = mixed_workload(&probe, 40, 5);
    let busy_shards = |report: &rmo_apps::ServeReport| {
        let assignments = report.log.assignments.iter();
        assignments.filter(|ids| !ids.is_empty()).count()
    };

    let (mut lpt, _) = one_shard_cluster(shards);
    let b = lpt.serve_sequential(&workload);
    assert!(
        busy_shards(&b) >= 3,
        "LPT spreads 5 groups over the fleet, got {} busy shards",
        busy_shards(&b)
    );

    let (mut home, _) = one_shard_cluster(shards);
    let log = home.home_placement(&workload);
    let h = home.serve_replay(&workload, &log);
    assert_eq!(busy_shards(&h), 1, "hash-pinning starves three shards");
    assert_eq!(h.log.assignments[0].len(), ids.len(), "all on shard 0");
    assert_eq!(h.responses, b.responses, "placement never changes answers");
    assert_eq!(h.stats.engine, b.stats.engine);
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
    let cluster = fleet_cluster(4);
    let pinned: Vec<usize> = cluster
        .graph_ids()
        .iter()
        .map(|&id| cluster.shard_of(id))
        .collect();
    // Stable: the same mapping on every call and every rebuild.
    let rebuilt = fleet_cluster(4);
    for (i, &id) in cluster.graph_ids().iter().enumerate() {
        assert!(pinned[i] < 4, "shard out of range");
        assert_eq!(rebuilt.shard_of(id), pinned[i], "routing must be stable");
    }

    // Replaying the home placement confirms the pin: across several
    // batches, each graph only ever runs on its own home shard.
    let mut cluster = fleet_cluster(4);
    for seed in [1u64, 2, 3] {
        let workload = mixed_workload(&cluster, 30, seed);
        let log = cluster.home_placement(&workload);
        let report = cluster.serve_replay(&workload, &log);
        assert!(report.responses.iter().all(|r| r.is_ok()));
        assert_eq!(report.log.assignments, log.assignments);
        for (shard, ids) in report.log.assignments.iter().enumerate() {
            for &id in ids {
                assert_eq!(
                    cluster.shard_of(id),
                    shard,
                    "graph {id} served off its home shard"
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
    // cluster state is identical across serving modes. The threaded
    // mode serves shard 0 on the calling thread, so the poisoned group
    // must be contained there as well as on a helper thread: at one
    // shard it is planned on the caller's shard, at two and three on a
    // helper's.
    let mut poisoned_shards = Vec::new();
    for shards in [1usize, 2, 3] {
        let mut post_panic_engine = Vec::new();
        for threaded in [true, false] {
            let mut cluster = fleet_cluster(shards);
            let ids = cluster.graph_ids();
            let (healthy, third) = (ids[0], ids[2]);
            // A connected graph whose edge weight overflows the Borůvka
            // packing (`pack` requires weight < 2^40): registration
            // accepts it, and `Query::Mst` on it is documented to panic.
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
            let plan = cluster.planned_execution(&batch);
            let poisoned = plan.iter().position(|queue| queue.contains(&1));
            if threaded {
                poisoned_shards.push(poisoned);
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if threaded {
                    cluster.serve(&batch)
                } else {
                    cluster.serve_sequential(&batch)
                }
            }));
            assert!(result.is_err(), "the solver panic must propagate");
            // The healthy groups' work and warm state survived the
            // panic: their queries were answered (served counter) and
            // the parked engines still serve cache hits.
            let after = cluster.serve(&[(healthy, pa.clone())]);
            let stats = after.stats;
            assert_eq!(stats.engine.misses, 2, "healthy engines never rebuilt");
            assert_eq!(stats.engine.hits, 2, "both repeat solves were warm");
            assert_eq!(stats.queries, 4, "all four healthy queries counted");
            post_panic_engine.push(stats.engine);
        }
        assert_eq!(
            post_panic_engine[0], post_panic_engine[1],
            "post-panic cluster state must not depend on the serving mode ({shards} shards)"
        );
    }
    assert_eq!(
        poisoned_shards,
        [Some(0), Some(1), Some(2)],
        "the poisoned group is planned on the caller's shard 0 at one shard \
         and on a helper's shard at two and three"
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
    let mut cluster = PaCluster::new(4);
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

#[test]
fn degenerate_fleets_serve_hostile_parameters_identically_in_every_mode() {
    // One node, one edge, a star, a triangle and a long path, each hit
    // with every query kind at saturating parameters. Nothing panics;
    // threaded, sequential, steal-log replay and the stream gateway
    // agree; the only failure is min-cut on the one-node graph.
    let fleet = [
        Graph::from_edges(1, &[]).unwrap(),
        gen::path(2),
        gen::star(7),
        gen::cycle(3),
        gen::path(300),
    ];
    let cluster = |shards: usize| {
        let mut cluster = PaCluster::new(shards);
        for (id, g) in (0..).zip(&fleet) {
            cluster.add_graph(GraphId(id), g.clone());
        }
        cluster
    };
    let mut workload = Vec::new();
    for (id, g) in (0..).zip(&fleet) {
        let (n, every_edge): (usize, Vec<usize>) = (g.n(), (0..g.m()).collect());
        let pa = |assignment| Query::Pa {
            assignment,
            values: (0..n as u64).collect(),
            agg: Aggregate::Sum,
        };
        let verify = |check| Query::Verify {
            check,
            h_edges: every_edge.clone(),
        };
        let queries = [
            pa(vec![0; n]),
            pa((0..n).collect()),
            Query::Kdom { k: usize::MAX },
            Query::Eccentricity { k: usize::MAX },
            Query::Cds {
                node_weights: vec![u64::MAX; n],
            },
            Query::Sssp { source: n - 1 },
            Query::MinCut { trials: 2 },
            Query::Mst,
            Query::Components { h_edges: vec![] },
            Query::Components {
                h_edges: every_edge.clone(),
            },
            verify(VerifyCheck::Mst),
            verify(VerifyCheck::TwoEdgeConnected),
            verify(VerifyCheck::Bipartite),
        ];
        workload.extend(queries.map(|query| (GraphId(id), query)));
    }
    let baseline = cluster(1).serve_sequential(&workload);
    let too_small = QueryResponse::Failed(FailReason::MinCutTooSmall { nodes: 1 });
    for ((id, query), response) in workload.iter().zip(&baseline.responses) {
        if *id == GraphId(0) && matches!(query, Query::MinCut { .. }) {
            assert_eq!(response, &too_small);
        } else {
            assert!(response.is_ok(), "{query:?} on {id}: {response:?}");
        }
    }
    for shards in [1usize, 3] {
        let threaded = cluster(shards).serve(&workload);
        let sequential = cluster(shards).serve_sequential(&workload);
        let replay = cluster(shards).serve_replay(&workload, &threaded.log);
        for report in [&threaded, &sequential, &replay] {
            assert_eq!(report.responses, baseline.responses, "{shards} shards");
            assert_eq!(report.stats.engine, sequential.stats.engine);
        }
        assert_eq!(replay.log.assignments, threaded.log.assignments);

        let trace = stamp_arrivals(workload.clone(), 7, 3);
        let config = StreamConfig::new().with_high_water(trace.len());
        let streamed = StreamGateway::new(cluster(shards), config).run(&trace);
        let reference = StreamGateway::new(cluster(shards), config).run_sequential(&trace);
        assert_eq!(streamed.outcomes, reference.outcomes, "{shards} shards");
        assert_eq!(streamed.stats, reference.stats);
        assert_eq!(streamed.stats.admitted, trace.len() as u64);
    }
}
