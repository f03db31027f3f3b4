//! The end-to-end run: set the fleet up several times, then stream
//! chunks through `StreamGateway::run_with` for the time budget, as
//! fast as the gateway takes them, and check every answer.

use std::time::{Duration, Instant};

use rmo_apps::dispatch::Query;
use rmo_apps::stream::{StreamEvent, StreamGateway};

use crate::check;
use crate::fleet::Workload;
use crate::sys;
use crate::tally::{median, percentile, ratio, Tally};
use crate::Metric;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Wall latencies a run collects at least, so that p99 has ten or more
/// samples beyond it.
const MIN_LATENCIES: usize = 1010;

/// What a run reports: the JSON result line's fields.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub fn run(w: &Workload, seconds: f64) -> Outcome {
    let mut failed = 0u64;
    let mut setups = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        drop(cluster.take());
        let (fresh, elapsed, bad) = w.setup();
        failed += bad as u64;
        setups.push(elapsed.as_secs_f64());
        cluster = Some(fresh);
    }
    let mut gateway = StreamGateway::new(cluster.expect("at least one set-up"), w.config);

    let mut tally = Tally::default();
    let mut prefix = Tally::default();
    let mut digests: Vec<u64> = Vec::new();
    let mut chunk_qps = Vec::new();
    let mut answered_total = 0u64;
    let mut wall_total = Duration::ZERO;
    let mut cpu_total = Duration::ZERO;
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut attempted = 0u64;
    let start = Instant::now();
    let mut index = 0u64;
    while (index as usize) < w.window
        || latencies_ms.len() < MIN_LATENCIES
        || start.elapsed().as_secs_f64() < seconds
    {
        let arrivals = w.chunk(index);
        let before = gateway.cluster().stats().engine;
        let mut admitted: Vec<Option<Instant>> = vec![None; arrivals.len()];
        let mut waits = Vec::with_capacity(arrivals.len());
        let cpu0 = sys::process_cpu();
        let t0 = Instant::now();
        let report = gateway.run_with(&arrivals, &mut |event| match event {
            StreamEvent::Admitted { seq, .. } => admitted[seq] = Some(Instant::now()),
            StreamEvent::Response { seq, .. } => {
                if let Some(at) = admitted[seq] {
                    waits.push(at.elapsed());
                }
            }
            _ => {}
        });
        let wall = t0.elapsed();
        let cpu = sys::process_cpu() - cpu0;

        let verified = (index as usize) < w.verify;
        let mut answered = 0u64;
        for (outcome, arrival) in report.outcomes.iter().zip(&arrivals) {
            attempted += 1;
            let Ok(response) = &outcome.result else {
                failed += 1;
                continue;
            };
            if !response.is_ok() || check::pa_correct(&arrival.query, response) == Some(false) {
                failed += 1;
                continue;
            }
            answered += 1;
            if verified && !matches!(arrival.query, Query::Pa { .. }) {
                digests.push(check::digest(response));
            }
        }
        if (index as usize) < w.window {
            tally.add(&report, &before);
        }
        if verified {
            prefix.add(&report, &before);
        }
        chunk_qps.push(ratio(answered as f64, wall.as_secs_f64()));
        answered_total += answered;
        wall_total += wall;
        cpu_total += cpu;
        latencies_ms.extend(waits.iter().map(|d| d.as_secs_f64() * 1e3));
        index += 1;
    }
    let peak_rss_mb = sys::peak_rss_mb();
    drop(gateway);
    failed += replay_mismatches(w, &digests, &prefix);

    latencies_ms.sort_by(f64::total_cmp);
    let mut sorted_qps = chunk_qps.clone();
    sorted_qps.sort_by(f64::total_cmp);
    eprintln!(
        "{}: {} chunks, {} arrivals, {:.2}s; set-ups {:?} s; chunk qps quartiles {:.0} {:.0} {:.0} {:.0} {:.0}",
        w.name,
        index,
        attempted,
        start.elapsed().as_secs_f64(),
        setups,
        percentile(&sorted_qps, 0),
        percentile(&sorted_qps, 25),
        percentile(&sorted_qps, 50),
        percentile(&sorted_qps, 75),
        percentile(&sorted_qps, 100),
    );
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new(
            "qps",
            ratio(answered_total as f64, wall_total.as_secs_f64()),
            "1/s",
        ),
        Metric::new("p50_ms", percentile(&latencies_ms, 50), "ms"),
        Metric::new("p99_ms", percentile(&latencies_ms, 99), "ms"),
        Metric::new(
            "cpu_ms_per_query",
            ratio(cpu_total.as_secs_f64() * 1e3, answered_total as f64),
            "ms",
        ),
        Metric::new("modeled_p50_ticks", tally.modeled(50), "ticks"),
        Metric::new("modeled_p99_ticks", tally.modeled(99), "ticks"),
        Metric::new("rounds_per_query", tally.per_query(tally.rounds), "rounds"),
        Metric::new(
            "messages_per_query",
            tally.per_query(tally.messages),
            "messages",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new(
            "answered_frac",
            ratio((attempted - failed.min(attempted)) as f64, attempted as f64),
            "fraction",
        ),
    ];
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Replays the first [`Workload::verify`] chunks with the sequential
/// executor on a freshly set-up cluster and counts the answers (non-PA
/// digests) and exact counts that differ from the threaded run's.
fn replay_mismatches(w: &Workload, digests: &[u64], tally: &Tally) -> u64 {
    let (cluster, _, bad) = w.setup();
    let mut gateway = StreamGateway::new(cluster, w.config);
    let mut replayed = Vec::with_capacity(digests.len());
    let mut counts = Tally::default();
    for index in 0..w.verify as u64 {
        let arrivals = w.chunk(index);
        let before = gateway.cluster().stats().engine;
        let report = gateway.run_sequential(&arrivals);
        counts.add(&report, &before);
        for (outcome, arrival) in report.outcomes.iter().zip(&arrivals) {
            if let (Ok(response), false) =
                (&outcome.result, matches!(arrival.query, Query::Pa { .. }))
            {
                replayed.push(check::digest(response));
            }
        }
    }
    let differing = digests
        .iter()
        .zip(&replayed)
        .filter(|(a, b)| a != b)
        .count()
        + digests.len().abs_diff(replayed.len());
    if counts != *tally {
        eprintln!(
            "{}: the sequential replay's counts differ from the run's",
            w.name
        );
        return differing as u64 + 1 + bad as u64;
    }
    differing as u64 + bad as u64
}
