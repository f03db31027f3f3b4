//! `perfbench`: the serving benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of the traced replay (and writes its spans
//! under `--out`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod fleet;
mod measure;
mod rng;
mod spans;
mod sys;
mod tally;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::spans::quote;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => parsed.trace = value != "0",
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = fleet::Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            fleet::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let result = if args.trace {
        traced::run(&workload, args.out.as_deref())
    } else {
        measure::run(&workload, args.seconds)
    };
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                quote(&m.name),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use rmo_apps::stream::StreamGateway;

    use crate::fleet::{Workload, NAMES};

    /// Guards against a modeled backlog: with load below capacity, a
    /// trace twice as long has the same modeled tail, not a longer one.
    #[test]
    fn modeled_p99_does_not_grow_when_the_trace_doubles() {
        for name in NAMES {
            let w = Workload::new(name, 7).expect("known workload");
            let p99 = |len: usize| {
                let (cluster, _, failed) = w.setup();
                assert_eq!(failed, 0, "{name}: warm-up failed");
                let report =
                    StreamGateway::new(cluster, w.config).run_sequential(&w.arrivals(0, len));
                assert_eq!(report.stats.rejected, 0, "{name}: arrivals rejected");
                report
                    .latency_percentile(99)
                    .expect("queries were admitted")
            };
            let (single, double) = (p99(w.chunk_len), p99(2 * w.chunk_len));
            assert!(
                double as f64 <= 1.1 * single as f64 + 4.0,
                "{name}: modeled p99 grew from {single} to {double} ticks when the trace doubled"
            );
        }
    }
}
