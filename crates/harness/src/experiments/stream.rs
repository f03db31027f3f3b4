//! Streaming serving: modeled latency percentiles and backpressure of
//! `StreamGateway` under skewed arrival traces.
//!
//! The serve experiment's fleet of six topologies is registered on a
//! cluster wrapped in a [`StreamGateway`], and hit with a
//! `zipf_arrivals` trace — zipf graph popularity under a bursty,
//! seeded logical-time arrival process. Latency here is **modeled**:
//! the gateway charges each shard its planned queries' deterministic
//! cost (rounds + messages) at `work_per_tick` per logical tick, so
//! every number in the tables is a pure function of the workload —
//! byte-identical across reruns, machines, and thread interleavings
//! (asserted on every run, threaded vs sequential vs replay).
//!
//! The first table sweeps shard count: more shards shorten each
//! batch's modeled critical path, so tail latency falls while the
//! query mix stays fixed. The second sweeps the admission high-water
//! mark at a fixed fleet: tighter marks shed more load (higher
//! rejection rate) in exchange for a flatter served tail — the
//! backpressure tradeoff, quantified.

use rmo_apps::service::{GraphId, PaCluster};
use rmo_apps::stream::{zipf_arrivals, StreamConfig, StreamGateway, StreamReport};
use rmo_graph::gen;

use crate::util::print_table;

/// The serving fleet: same topology mix as the serve experiment.
fn fleet(scale: usize) -> Vec<(GraphId, rmo_graph::Graph)> {
    let s = scale.max(4);
    vec![
        (GraphId(1), gen::grid(s, s)),
        (GraphId(2), gen::grid(s, 2 * s)),
        (GraphId(3), gen::path(s * s)),
        (GraphId(4), gen::torus(s, s)),
        (
            GraphId(5),
            gen::gnp_connected(s * s, 2.5 / (s * s) as f64, 7),
        ),
        (GraphId(6), gen::random_connected(s * s, 2 * s * s, 11)),
    ]
}

fn cluster_for(scale: usize, shards: usize) -> PaCluster {
    let mut cluster = PaCluster::new(shards);
    for (id, g) in fleet(scale) {
        cluster.add_graph(id, g);
    }
    cluster
}

/// Asserts the deterministic slice of two runs is byte-identical:
/// every outcome (responses, rejections, modeled ticks), every
/// counter, and every batch frame. Nested `ServeLog` steal placement
/// is the one field allowed to differ between *threaded* runs —
/// stealing moves wall-clock work, never results.
fn assert_deterministic_eq(a: &StreamReport, b: &StreamReport, label: &str, what: &str) {
    assert_eq!(
        a.outcomes, b.outcomes,
        "{label}: outcomes diverged ({what})"
    );
    assert_eq!(a.stats, b.stats, "{label}: stats diverged ({what})");
    assert_eq!(
        a.log.batches.len(),
        b.log.batches.len(),
        "{label}: batch count diverged ({what})"
    );
    for (x, y) in a.log.batches.iter().zip(&b.log.batches) {
        assert_eq!(
            (
                x.open_tick,
                x.close_tick,
                x.closed_by,
                x.start_tick,
                x.done_tick,
                &x.queries
            ),
            (
                y.open_tick,
                y.close_tick,
                y.closed_by,
                y.start_tick,
                y.done_tick,
                &y.queries
            ),
            "{label}: batch frame diverged ({what})"
        );
    }
}

/// Runs one gateway config over the trace and pins the determinism
/// contract: a fresh threaded rerun and the sequential executor agree
/// on the whole deterministic slice, and the recorded `ArrivalLog`
/// replays the full report — nested placement logs included —
/// bit-for-bit.
fn run_checked(
    scale: usize,
    shards: usize,
    config: StreamConfig,
    trace: &[rmo_apps::stream::Arrival],
    label: &str,
) -> StreamReport {
    let mut gateway = StreamGateway::new(cluster_for(scale, shards), config);
    let report = gateway.run(trace);
    let rerun = StreamGateway::new(cluster_for(scale, shards), config).run(trace);
    assert_deterministic_eq(&report, &rerun, label, "threaded rerun");
    let sequential = StreamGateway::new(cluster_for(scale, shards), config).run_sequential(trace);
    assert_deterministic_eq(&report, &sequential, label, "sequential run");
    let replayed = StreamGateway::new(cluster_for(scale, shards), config)
        .replay(trace, &report.log)
        .unwrap_or_else(|m| panic!("{label}: replay must accept its own log: {m}"));
    assert_eq!(
        replayed, report,
        "{label}: the ArrivalLog replay must reproduce the run bit-for-bit"
    );
    report
}

fn percentile_row(report: &StreamReport) -> (u64, u64, u64) {
    (
        report.latency_percentile(50).unwrap_or(0),
        report.latency_percentile(95).unwrap_or(0),
        report.latency_percentile(99).unwrap_or(0),
    )
}

pub fn run(quick: bool) {
    let scale = if quick { 6 } else { 10 };
    let count = if quick { 80 } else { 240 };
    let mean_gap = 3;
    let exponent = 1.2;

    // The trace is a function of the fleet + seed only: every shard
    // count and every config streams the identical arrival sequence.
    let trace = zipf_arrivals(&cluster_for(scale, 1), count, 97, exponent, mean_gap);

    let config = StreamConfig::new()
        .with_max_batch(16)
        .with_max_wait_ticks(24)
        .with_high_water(count)
        .with_work_per_tick(4096);
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let label = format!("{shards} shards");
        let report = run_checked(scale, shards, config, &trace, &label);
        assert_eq!(
            report.stats.rejected, 0,
            "the wide-open high-water mark admits the whole trace"
        );
        let (p50, p95, p99) = percentile_row(&report);
        let stats = &report.stats;
        rows.push(vec![
            shards.to_string(),
            stats.arrivals.to_string(),
            stats.batches.to_string(),
            format!(
                "{}/{}/{}",
                stats.size_closes, stats.deadline_closes, stats.flush_closes
            ),
            p50.to_string(),
            p95.to_string(),
            p99.to_string(),
            stats.done_tick.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Stream — zipf({exponent}) arrivals, mean gap {mean_gap} ticks, \
             batch ≤16 or 24-tick deadline (fleet of 6 graphs)"
        ),
        &[
            "shards",
            "arrivals",
            "batches",
            "size/ddl/flush",
            "p50",
            "p95",
            "p99",
            "done tick",
        ],
        &rows,
    );
    println!(
        "\nShape check: latencies are modeled logical ticks (queueing + \
         the planned shard's service), so every cell is deterministic — \
         asserted byte-identical across rerun, sequential, and \
         ArrivalLog replay on every row. More shards cut each batch's \
         modeled critical path, so the tail percentiles fall while the \
         arrival sequence stays fixed."
    );

    // Backpressure: tighten the high-water mark at a fixed fleet.
    let shards = 4usize;
    let mut rows = Vec::new();
    for high_water in [count, 12, 6, 3] {
        let config = StreamConfig::new()
            .with_max_batch(16)
            .with_max_wait_ticks(24)
            .with_high_water(high_water)
            .with_work_per_tick(512);
        let label = format!("high water {high_water}");
        let report = run_checked(scale, shards, config, &trace, &label);
        let stats = &report.stats;
        let (p50, p95, p99) = percentile_row(&report);
        rows.push(vec![
            high_water.to_string(),
            stats.admitted.to_string(),
            stats.rejected.to_string(),
            format!(
                "{:.0}%",
                100.0 * stats.rejected as f64 / (stats.arrivals as f64).max(1.0)
            ),
            p50.to_string(),
            p95.to_string(),
            p99.to_string(),
        ]);
    }
    print_table(
        &format!("Stream — admission control at {shards} shards (work_per_tick 512)"),
        &[
            "high water",
            "admitted",
            "rejected",
            "reject rate",
            "p50",
            "p95",
            "p99",
        ],
        &rows,
    );
    println!(
        "\nShape check: a tighter high-water mark sheds bursts at \
         admission (typed `ShardSaturated` rejections, exact set \
         pinned in tests/stream_gateway.rs), trading rejected arrivals \
         for a flatter served tail. Every row's exact rejection set is \
         deterministic and replays bit-for-bit."
    );
}
