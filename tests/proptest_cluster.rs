//! Property-based determinism of the serving layer: for arbitrary shard
//! counts, seeds, skew exponents and replica policies, threaded serving
//! (LPT placement + replica splitting + work stealing) bit-matches the
//! sequential replay — responses, per-query costs, and engine counters
//! — and the recorded steal/fork log reproduces the exact placement.
//! With replicas off, the replayed home placement (every group on its
//! id's hash shard) answers and counts like the LPT run too.

use proptest::prelude::*;

use rmo::apps::service::{zipf_workload, GraphId, PaCluster, ReplicaPolicy};
use rmo::apps::Query;
use rmo::graph::gen;

fn skew_cluster(shards: usize) -> PaCluster {
    let mut cluster = PaCluster::new(shards);
    cluster.add_graph(GraphId(0), gen::grid(4, 5));
    cluster.add_graph(GraphId(1), gen::path(16));
    cluster.add_graph(GraphId(2), gen::gnp_connected(18, 0.2, 5));
    cluster.add_graph(GraphId(3), gen::grid(3, 6));
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn threaded_equals_sequential_under_random_skew(
        shards in 1usize..6,
        seed in 0u64..1000,
        // 0 = uniform traffic; large = almost everything on one graph.
        exponent in 0u32..30,
        pinned in any::<bool>(),
        // Replica splitting: 1 disables it structurally; low thresholds
        // with several replicas split any group that dominates the mean.
        max_replicas in 1usize..5,
        threshold_tenths in 1u32..16,
    ) {
        // The home placement only fits unsplit batches, so its runs
        // keep replicas off.
        let replica = if pinned {
            ReplicaPolicy::disabled()
        } else {
            ReplicaPolicy::new(f64::from(threshold_tenths) / 10.0, max_replicas)
        };
        // Identically prepared clusters with *warm* cores: replica
        // splitting only forks warmed engines, so the warm-up batch is
        // what makes the policy dimension actually bite.
        let warmup: Vec<(GraphId, Query)> = (0..4).map(|g| (GraphId(g), Query::Mst)).collect();
        let prepared = || {
            let mut cluster = skew_cluster(shards);
            cluster.set_replica_policy(replica);
            cluster.serve_sequential(&warmup);
            cluster
        };
        let workload = zipf_workload(
            &skew_cluster(1),
            20,
            seed,
            f64::from(exponent) / 10.0,
        );
        let mut threaded = prepared();
        let t = threaded.serve(&workload);
        let s = prepared().serve_sequential(&workload);
        prop_assert_eq!(&t.responses, &s.responses);
        prop_assert_eq!(t.stats.engine, s.stats.engine);
        prop_assert_eq!(t.stats.queries, (workload.len() + warmup.len()) as u64);
        prop_assert_eq!(t.stats.forks, s.stats.forks);
        prop_assert_eq!(t.stats.replicas, s.stats.replicas);
        // The steal/fork log replays to the identical placement,
        // replica chunks included.
        let r = prepared().serve_replay(&workload, &t.log);
        prop_assert_eq!(&r.responses, &t.responses);
        prop_assert_eq!(&r.log.assignments, &t.log.assignments);
        prop_assert_eq!(&r.log.replica_indices, &t.log.replica_indices);
        prop_assert_eq!(&r.log.forks, &t.log.forks);
        prop_assert!(r.log.steals.is_empty());
        if pinned {
            let mut home = prepared();
            let log = home.home_placement(&workload);
            let h = home.serve_replay(&workload, &log);
            prop_assert_eq!(&h.responses, &t.responses);
            prop_assert_eq!(h.stats.engine, t.stats.engine);
            prop_assert!(h.log.steals.is_empty());
            for (shard, ids) in h.log.assignments.iter().enumerate() {
                prop_assert!(ids.iter().all(|&id| home.shard_of(id) == shard));
            }
            prop_assert_eq!(h.log.assignments, log.assignments);
        }
    }
}
