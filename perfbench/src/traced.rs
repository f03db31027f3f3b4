//! The traced run: the scored window served once by the threaded
//! gateway (the reference), then replayed on the calling thread one
//! layer down at a time, with one span per public call:
//!
//! 1. `StreamGateway::run_sequential` per chunk → `stream.run`;
//! 2. per `ArrivalLog` batch, on an identically set-up cluster,
//!    `PaCluster::planned_execution` → `service.plan` and
//!    `PaCluster::serve_sequential` → `service.serve`;
//! 3. per query in planned order, on the benchmark's own warmed
//!    `PaEngine`s, `run_query` → `dispatch.<kind>` (or `engine.solve`
//!    for PA, after `PaEngine::pipeline_for` → `engine.artifacts_*`).
//!
//! A layer's self time is its spans minus the next layer's. Every
//! replay's answers must equal the threaded run's, and the engine
//! misses and evictions of step 3 must equal those of step 1.

use std::path::Path;
use std::time::Duration;

use rmo_apps::dispatch::{run_query, Query};
use rmo_apps::service::GraphId;
use rmo_apps::stream::StreamGateway;
use rmo_core::{EngineConfig, EngineStats, PaEngine};
use rmo_graph::Partition;

use crate::check;
use crate::fleet::{self, kind_of, Workload, KINDS};
use crate::measure;
use crate::spans::{At, Recorder};
use crate::sys;
use crate::tally::{ratio, Tally};
use crate::Metric;

/// Span layers (indices into [`crate::spans::LAYERS`]).
const STREAM: usize = 0;
const SERVICE: usize = 1;
const DISPATCH: usize = 2;
const ENGINE: usize = 3;

pub fn run(w: &Workload, out: Option<&Path>) -> measure::Outcome {
    let mut failed = 0u64;

    // The threaded reference: what a user of the gateway gets.
    let (cluster, _, bad) = w.setup();
    failed += bad as u64;
    let base_cost = cluster.stats().engine.base_cost;
    let mut gateway = StreamGateway::new(cluster, w.config);
    let mut threaded = Tally::default();
    let mut reference: Vec<Vec<u64>> = Vec::new();
    let mut steals = 0u64;
    let mut threaded_cpu = Duration::ZERO;
    for index in 0..w.window as u64 {
        let arrivals = w.chunk(index);
        let before = gateway.cluster().stats().engine;
        let cpu0 = sys::process_cpu();
        let report = gateway.run(&arrivals);
        threaded_cpu += sys::process_cpu() - cpu0;
        threaded.add(&report, &before);
        steals += report
            .log
            .batches
            .iter()
            .map(|b| b.serve.steals.len() as u64)
            .sum::<u64>();
        let mut digests = Vec::with_capacity(arrivals.len());
        for (outcome, arrival) in report.outcomes.iter().zip(&arrivals) {
            match &outcome.result {
                Ok(response)
                    if response.is_ok()
                        && check::pa_correct(&arrival.query, response) != Some(false) =>
                {
                    digests.push(check::digest(response));
                }
                _ => {
                    failed += 1;
                    digests.push(0);
                }
            }
        }
        reference.push(digests);
    }
    drop(gateway);

    // The layered replay.
    let (cluster, _, bad) = w.setup();
    failed += bad as u64;
    let mut stream = StreamGateway::new(cluster, w.config);
    let (mut service, _, bad) = w.setup();
    failed += bad as u64;
    let mut engines: Vec<PaEngine<'_>> = w
        .graphs
        .iter()
        .map(|(_, g)| PaEngine::new(g, EngineConfig::new()))
        .collect();
    for (id, query) in w.warmup() {
        if !run_query(&mut engines[w.slot(id)], &query).is_ok() {
            failed += 1;
        }
    }
    let engines_before = fleet_stats(&engines);

    let mut rec = Recorder::new();
    let mut sequential = Tally::default();
    let mut sequential_cpu = Duration::ZERO;
    let mut attempted = 0u64;
    let differ = |expected: Option<&u64>, got: u64| u64::from(expected != Some(&got));
    for (index, digests) in reference.iter().enumerate() {
        let chunk = index as u64;
        let arrivals = w.chunk(chunk);
        attempted += arrivals.len() as u64;
        let root = At {
            parent: None,
            chunk,
            batch: None,
            seq: None,
        };
        let before = stream.cluster().stats().engine;
        let cpu0 = sys::process_cpu();
        let (report, chunk_span) = rec.time("stream.run", STREAM, root, || {
            stream.run_sequential(&arrivals)
        });
        sequential_cpu += sys::process_cpu() - cpu0;
        sequential.add(&report, &before);
        for (seq, outcome) in report.outcomes.iter().enumerate() {
            let got = outcome.result.as_ref().map_or(1, check::digest);
            failed += differ(digests.get(seq), got);
        }

        for (b, batch) in report.log.batches.iter().enumerate() {
            let queries: Vec<(GraphId, Query)> = batch
                .queries
                .iter()
                .map(|&(seq, _)| (arrivals[seq].graph, arrivals[seq].query.clone()))
                .collect();
            let at = At {
                parent: Some(chunk_span),
                chunk,
                batch: Some(b),
                seq: None,
            };
            let (plan, _) = rec.time("service.plan", SERVICE, at, || {
                service.planned_execution(&queries)
            });
            let (served, serve_span) = rec.time("service.serve", SERVICE, at, || {
                service.serve_sequential(&queries)
            });
            for (&(seq, _), response) in batch.queries.iter().zip(&served.responses) {
                failed += differ(digests.get(seq), check::digest(response));
            }

            for &local in plan.iter().flatten() {
                let (id, query) = &queries[local];
                let seq = batch.queries[local].0;
                let engine = &mut engines[w.slot(*id)];
                let at = At {
                    parent: Some(serve_span),
                    chunk,
                    batch: Some(b),
                    seq: Some(seq),
                };
                let (name, layer) = if let Query::Pa { assignment, .. } = query {
                    let Ok(parts) = Partition::new(engine.graph(), assignment.clone()) else {
                        failed += 1;
                        continue;
                    };
                    let misses = engine.stats().misses;
                    let (_, span) = rec.time("engine.artifacts", ENGINE, at, || {
                        engine.pipeline_for(&parts).is_ok()
                    });
                    rec.spans[span].name = if engine.stats().misses == misses {
                        "engine.artifacts_hit".into()
                    } else {
                        "engine.artifacts_miss".into()
                    };
                    ("engine.solve".to_string(), ENGINE)
                } else {
                    (format!("dispatch.{}", KINDS[kind_of(query)]), DISPATCH)
                };
                let (response, _) = rec.time(&name, layer, at, || run_query(engine, query));
                failed += differ(digests.get(seq), check::digest(&response));
            }
        }
    }
    let engines_after = fleet_stats(&engines);
    drop(engines);

    // Exact counts: the sequential replay reproduces the threaded run,
    // and step 3's engines reproduce the cluster's misses and evictions.
    let replayed_misses = engines_after.misses - engines_before.misses;
    let replayed_evictions = engines_after.evictions - engines_before.evictions;
    if threaded != sequential
        || replayed_misses != sequential.misses
        || replayed_evictions != sequential.evictions
    {
        eprintln!(
            "{}: counts differ: threaded {:?} / sequential {:?} / engines {} misses {} evictions",
            w.name, threaded, sequential, replayed_misses, replayed_evictions
        );
        failed += 1;
    }

    let probes = probe();
    let probe_totals = probes.totals();
    let totals = rec.totals();
    let total = |name: &str| totals.get(name).map_or(Duration::ZERO, |t| t.0);
    // A call the workload never made is timed on the probe instead.
    let mean_ms = |name: &str| match totals.get(name).or_else(|| probe_totals.get(name)) {
        Some(&(sum, count)) if count > 0 => ms(sum) / count as f64,
        _ => 0.0,
    };
    let layer_total = |layer: usize| -> Duration {
        rec.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur)
            .sum()
    };
    let root = layer_total(STREAM);
    let service_total = layer_total(SERVICE);
    let below_service = layer_total(DISPATCH) + layer_total(ENGINE);
    let queries = sequential.queries as f64;
    let stream_self_ms = ms(root) - ms(service_total);
    let service_self_ms = ms(service_total) - ms(below_service);
    report_split(w, &rec, root, stream_self_ms, service_self_ms);

    if let Some(dir) = out {
        let stem = dir.join(format!("{}-seed{}", w.name, w.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(stem.with_extension("spans.jsonl"), rec.to_json_lines()))
            .and_then(|()| std::fs::write(stem.with_extension("trace.json"), rec.to_chrome()));
        if let Err(e) = written {
            eprintln!("could not write the trace under {}: {e}", dir.display());
        }
    }

    // Every workload sends PA; a PA dispatch is the fetch plus the solve.
    let pa_count = totals.get("engine.solve").map_or(0, |t| t.1);
    let pa_total =
        total("engine.solve") + total("engine.artifacts_hit") + total("engine.artifacts_miss");
    let dispatch_pa_ms = ratio(ms(pa_total), pa_count as f64);
    let mut metrics = vec![
        Metric::new("engine.solve_ms", mean_ms("engine.solve"), "ms"),
        Metric::new(
            "engine.artifacts_hit_ms",
            mean_ms("engine.artifacts_hit"),
            "ms",
        ),
        Metric::new(
            "engine.artifacts_miss_ms",
            mean_ms("engine.artifacts_miss"),
            "ms",
        ),
        Metric::new(
            "engine.hit_rate",
            ratio(
                sequential.hits as f64,
                (sequential.hits + sequential.misses) as f64,
            ),
            "fraction",
        ),
        Metric::new(
            "engine.misses_per_kquery",
            sequential.per_kquery(sequential.misses),
            "count",
        ),
        Metric::new(
            "engine.evictions_per_kquery",
            sequential.per_kquery(sequential.evictions),
            "count",
        ),
        Metric::new(
            "engine.division_hit_rate",
            ratio(
                sequential.division_hits as f64,
                (sequential.division_hits + sequential.division_misses) as f64,
            ),
            "fraction",
        ),
        Metric::new("dispatch.pa_ms", dispatch_pa_ms, "ms"),
    ];
    for kind in &KINDS[1..] {
        let name = format!("dispatch.{kind}");
        metrics.push(Metric::new(&format!("{name}_ms"), mean_ms(&name), "ms"));
    }
    let batches = sequential.batches as f64;
    metrics.extend([
        Metric::new(
            "service.plan_ms_per_batch",
            ratio(ms(total("service.plan")), batches),
            "ms",
        ),
        Metric::new(
            "service.self_ms_per_query",
            ratio(service_self_ms, queries),
            "ms",
        ),
        Metric::new(
            "service.thread_cpu_ratio",
            ratio(
                threaded.per_query(threaded_cpu.as_nanos() as u64),
                sequential.per_query(sequential_cpu.as_nanos() as u64),
            ),
            "ratio",
        ),
        Metric::new(
            "service.steals_per_batch",
            ratio(steals as f64, batches),
            "count",
        ),
        Metric::new(
            "stream.self_ms_per_query",
            ratio(stream_self_ms, queries),
            "ms",
        ),
        Metric::new("stream.mean_batch_size", ratio(queries, batches), "count"),
        Metric::new(
            "stream.deadline_close_frac",
            ratio(sequential.deadline_closes as f64, batches),
            "fraction",
        ),
        Metric::new("congest.base_rounds", base_cost.rounds as f64, "rounds"),
        Metric::new(
            "congest.base_messages",
            base_cost.messages as f64,
            "messages",
        ),
        Metric::new(
            "congest.solve_rounds",
            sequential.per_query(sequential.rounds),
            "rounds",
        ),
        Metric::new(
            "congest.solve_messages",
            sequential.per_query(sequential.messages),
            "messages",
        ),
    ]);
    measure::Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Lifetime counters of the benchmark's own engines, merged.
fn fleet_stats(engines: &[PaEngine<'_>]) -> EngineStats {
    let mut merged = EngineStats::default();
    for engine in engines {
        merged.merge(&engine.stats());
    }
    merged
}

/// Spans of the probe: one call of every engine entry and query kind on
/// a small fixed grid, standing in for the calls a workload never makes.
fn probe() -> Recorder {
    let mut rec = Recorder::new();
    let (graph, queries) = fleet::probe();
    let mut engine = PaEngine::new(&graph, EngineConfig::new());
    let at = At {
        parent: None,
        chunk: 0,
        batch: None,
        seq: None,
    };
    let _ = engine.tree();
    for query in &queries {
        let (name, layer) = if let Query::Pa { assignment, .. } = query {
            if let Ok(parts) = Partition::new(&graph, assignment.clone()) {
                rec.time("engine.artifacts_miss", ENGINE, at, || {
                    engine.pipeline_for(&parts).is_ok()
                });
                rec.time("engine.artifacts_hit", ENGINE, at, || {
                    engine.pipeline_for(&parts).is_ok()
                });
            }
            ("engine.solve".to_string(), ENGINE)
        } else {
            (format!("dispatch.{}", KINDS[kind_of(query)]), DISPATCH)
        };
        rec.time(&name, layer, at, || run_query(&mut engine, query));
    }
    rec
}

/// Prints the layer split of the traced replay to stderr.
fn report_split(w: &Workload, rec: &Recorder, root: Duration, stream_self: f64, service_self: f64) {
    let root_ms = ms(root);
    let mut rows: Vec<(String, f64)> = vec![
        ("stream (self)".into(), stream_self),
        ("service (self)".into(), service_self),
    ];
    for (name, (sum, _)) in rec.totals() {
        if name.starts_with("dispatch.") || name.starts_with("engine.") {
            rows.push((name.to_string(), ms(sum)));
        }
    }
    let explained: f64 = rows.iter().map(|(_, v)| v.max(0.0)).sum();
    eprintln!(
        "{}: traced layer split of {:.1} ms (root stream.run)",
        w.name, root_ms
    );
    for (name, value) in &rows {
        eprintln!(
            "  {name:<28} {value:>10.1} ms  {:>5.1}%",
            100.0 * ratio(*value, root_ms)
        );
    }
    eprintln!(
        "  self times sum to {:.1}% of the root",
        100.0 * ratio(explained, root_ms)
    );
}
