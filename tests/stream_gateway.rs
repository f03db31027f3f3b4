//! Integration tests of the streaming front-end: the stream ≡ batch
//! equivalence (every recorded batch, served through the plain batch
//! path, bit-matches what the gateway answered), the bit-for-bit
//! `ArrivalLog` replay, and backpressure pinning the *exact* rejection
//! set at a given high-water mark.

use proptest::prelude::*;

use rmo::apps::service::{GraphId, PaCluster};
use rmo::apps::stream::{
    mixed_arrivals, zipf_arrivals, Arrival, RejectReason, StreamConfig, StreamGateway,
};
use rmo::apps::Query;
use rmo::graph::gen;

fn small_fleet(shards: usize) -> PaCluster {
    let mut cluster = PaCluster::new(shards);
    cluster.add_graph(GraphId(0), gen::grid(4, 5));
    cluster.add_graph(GraphId(1), gen::path(16));
    cluster.add_graph(GraphId(2), gen::gnp_connected(18, 0.2, 5));
    cluster.add_graph(GraphId(3), gen::grid(3, 6));
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any arrival interleaving: (1) the recorded `ArrivalLog` replays
    /// the full report bit-for-bit on a fresh gateway, and (2) serving
    /// the recorded batches through the plain batch path
    /// (`serve_sequential`, batch by batch) reproduces every response
    /// and the final engine counters — the stream is the batch path
    /// plus framing, never a different computation.
    #[test]
    fn stream_replay_bit_matches_the_batch_path(
        shards in 1usize..5,
        seed in 0u64..1000,
        mean_gap in 0u64..8,
        max_batch in 1usize..9,
        max_wait in 0u64..24,
        zipf in any::<bool>(),
    ) {
        let trace = if zipf {
            zipf_arrivals(&small_fleet(1), 24, seed, 1.3, mean_gap)
        } else {
            mixed_arrivals(&small_fleet(1), 24, seed, mean_gap)
        };
        let config = StreamConfig::new()
            .with_max_batch(max_batch)
            .with_max_wait_ticks(max_wait)
            .with_high_water(trace.len());
        let mut gateway = StreamGateway::new(small_fleet(shards), config);
        let report = gateway.run(&trace);
        prop_assert_eq!(report.stats.rejected, 0u64);
        prop_assert_eq!(report.stats.admitted, trace.len() as u64);

        // (1) Bit-for-bit replay from the ArrivalLog.
        let replayed = StreamGateway::new(small_fleet(shards), config)
            .replay(&trace, &report.log)
            .expect("a recorded log replays on an identically prepared gateway");
        prop_assert_eq!(&replayed, &report);

        // (2) Stream ≡ batch: serve each recorded batch frame through
        // the plain batch path on a fresh cluster. Warm-cache state
        // must evolve identically, so responses AND the final engine
        // counters bit-match the streamed outcomes.
        let mut batch_path = small_fleet(shards);
        for record in &report.log.batches {
            let frame: Vec<(GraphId, Query)> = record
                .queries
                .iter()
                .map(|&(seq, _)| {
                    let a = &trace[seq];
                    (a.graph, a.query.clone())
                })
                .collect();
            let served = batch_path.serve_sequential(&frame);
            for (&(seq, tick), response) in record.queries.iter().zip(&served.responses) {
                prop_assert_eq!(trace[seq].tick, tick);
                let outcome = &report.outcomes[seq];
                prop_assert_eq!(
                    outcome.result.as_ref().expect("admitted queries are served"),
                    response
                );
            }
        }
        prop_assert_eq!(
            batch_path.stats().engine,
            report.stats.engine,
            "the streamed cluster's engine counters are the batch path's"
        );

        // The batch partition covers the admitted sequence numbers
        // exactly once, in arrival order.
        let mut covered: Vec<usize> = report
            .log
            .batches
            .iter()
            .flat_map(|r| r.queries.iter().map(|&(seq, _)| seq))
            .collect();
        let sorted = {
            let mut s = covered.clone();
            s.sort_unstable();
            s
        };
        prop_assert_eq!(&covered, &sorted, "batches partition in arrival order");
        covered.dedup();
        prop_assert_eq!(covered.len(), trace.len());
    }
}

/// The backpressure contract, pinned exactly: with one shard, a
/// high-water mark of 3, and a batch size of 3, a six-query burst at
/// tick 0 admits exactly the first three queries (which close a batch
/// by size and go in flight) and rejects the other three with the
/// precise depth it saw; once the modeled batch completes, admission
/// reopens.
#[test]
fn high_water_mark_pins_the_exact_rejection_set() {
    let config = StreamConfig::new()
        .with_max_batch(3)
        .with_max_wait_ticks(1_000)
        .with_high_water(3)
        .with_work_per_tick(1);
    let mut cluster = PaCluster::new(1);
    cluster.add_graph(GraphId(1), gen::grid(4, 5));
    let mut gateway = StreamGateway::new(cluster, config);
    let mut trace: Vec<Arrival> = (0..6)
        .map(|_| Arrival {
            tick: 0,
            graph: GraphId(1),
            query: Query::Mst,
        })
        .collect();
    // A straggler long after the burst's batch drains.
    trace.push(Arrival {
        tick: 10_000_000,
        graph: GraphId(1),
        query: Query::Mst,
    });
    let report = gateway.run(&trace);
    let expected = RejectReason::ShardSaturated {
        shard: 0,
        depth: 3,
        high_water: 3,
    };
    assert_eq!(
        report.rejections(),
        vec![(3, expected), (4, expected), (5, expected)],
        "exactly the burst's tail is shed, each seeing depth 3"
    );
    assert!(
        report.outcomes[6].result.is_ok(),
        "admission reopens after drain"
    );
    assert_eq!(report.stats.admitted, 4);
    assert_eq!(report.stats.rejected, 3);
    assert_eq!(report.stats.size_closes, 1);
    assert_eq!(report.stats.flush_closes, 1);
    // Rejected queries never reach a batch: the log records only the
    // four admitted ones.
    let logged: usize = report.log.batches.iter().map(|b| b.queries.len()).sum();
    assert_eq!(logged, 4);
}

/// Saturation is per *shard*: a burst that saturates one graph's home
/// shard must not shed traffic arriving for a graph homed elsewhere.
#[test]
fn backpressure_is_per_shard_not_global() {
    // Find two graphs homed on different shards of a 2-shard cluster.
    let probe = small_fleet(2);
    let ids = probe.graph_ids();
    let first = ids[0];
    let other = *ids
        .iter()
        .find(|&&id| probe.shard_of(id) != probe.shard_of(first))
        .expect("four graphs over two shards always split");
    let config = StreamConfig::new()
        .with_max_batch(100)
        .with_max_wait_ticks(1_000)
        .with_high_water(2);
    let mut gateway = StreamGateway::new(small_fleet(2), config);
    let mk = |tick: u64, graph: GraphId| Arrival {
        tick,
        graph,
        query: Query::Mst,
    };
    let trace = vec![
        mk(0, first),
        mk(0, first),
        mk(1, first), // third on the same home shard: shed
        mk(1, other), // different home shard: admitted
        mk(2, other),
        mk(2, other), // third on the other shard: shed
    ];
    let report = gateway.run(&trace);
    let rejected: Vec<usize> = report.rejections().iter().map(|&(seq, _)| seq).collect();
    assert_eq!(
        rejected,
        vec![2, 5],
        "each shard sheds only its own overflow"
    );
    assert!(matches!(
        report.outcomes[2].result,
        Err(RejectReason::ShardSaturated {
            depth: 2,
            high_water: 2,
            ..
        })
    ));
}

/// Replaying someone else's log is a typed error, not a panic — even
/// when the foreign log's shard count or batch framing is nonsense
/// for this gateway.
#[test]
fn foreign_logs_fail_replay_gracefully() {
    let trace = mixed_arrivals(&small_fleet(2), 16, 5, 3);
    let config = StreamConfig::new().with_max_batch(4).with_max_wait_ticks(8);
    let report = StreamGateway::new(small_fleet(2), config).run(&trace);

    // Different shard count: placement can't apply.
    let err = StreamGateway::new(small_fleet(3), config)
        .replay(&trace, &report.log)
        .unwrap_err();
    assert!(err.batch.is_some(), "{err}");

    // Different batching config: framing diverges before placement.
    let narrow = StreamConfig::new().with_max_batch(2).with_max_wait_ticks(8);
    let err = StreamGateway::new(small_fleet(2), narrow)
        .replay(&trace, &report.log)
        .unwrap_err();
    assert!(err.to_string().contains("diverged"), "{err}");

    // Same ticks, other graph: the frame matches, but the recorded
    // placement names a group this batch does not have.
    let mst = |graph| Arrival {
        tick: 0,
        graph: GraphId(graph),
        query: Query::Mst,
    };
    let recorded = StreamGateway::new(small_fleet(2), config).run(&[mst(1), mst(1)]);
    let err = StreamGateway::new(small_fleet(2), config)
        .replay(&[mst(2), mst(2)], &recorded.log)
        .unwrap_err();
    assert_eq!(err.batch, Some(0), "{err}");
}
