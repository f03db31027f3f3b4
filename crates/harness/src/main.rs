//! `rmo-harness` — regenerates every table and figure of the paper.
//!
//! ```text
//! rmo-harness <experiment> [--quick] [--skew] [--hot] [--json]
//!             [--check-baseline <path>]
//! ```
//!
//! `--skew` adds the scheduler-balance scenarios (zipf popularity,
//! adversarial one-shard hashing) to the `serve` experiment; `--hot`
//! switches `serve` to the single-hot-graph replica-scheduling
//! scenario instead. `--json` switches the `perf` experiment to
//! machine-readable output (schema `rmo-perf/3`; see `BENCH_perf.json`).
//! `--check-baseline <path>` turns the `perf` run into a regression
//! gate against the last block of a recorded trajectory file (non-zero
//! exit on count drift, or on an entry slower than the gate's fixed
//! threshold).
//!
//! Experiments: `table1`, `table2`, `figure1`, `figure2`, `figure3`,
//! `figure4`, `figure5`, `mst`, `mincut`, `sssp`, `verification`,
//! `kdom`, `cds`, `leaderless`, `ablation`, `beyond`, `engine`,
//! `serve`, `stream`, `perf`, or `all`.
//!
//! Output is a set of markdown tables whose rows mirror what the paper
//! reports; `EXPERIMENTS.md` records a captured run next to the paper's
//! claims.

#![forbid(unsafe_code)]

mod experiments;
mod util;

use std::env;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let skew = args.iter().any(|a| a == "--skew");
    let hot = args.iter().any(|a| a == "--hot");
    let json = args.iter().any(|a| a == "--json");
    let baseline = args
        .iter()
        .position(|a| a == "--check-baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // The experiment name is the first bare argument that is not the
    // value of `--check-baseline`.
    let which = {
        let mut which = String::new();
        let mut skip_value = false;
        for a in &args {
            if skip_value {
                skip_value = false;
                continue;
            }
            if a == "--check-baseline" {
                skip_value = true;
                continue;
            }
            if !a.starts_with("--") {
                which = a.clone();
                break;
            }
        }
        which
    };
    let all = [
        "table1",
        "table2",
        "figure1",
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "mst",
        "mincut",
        "sssp",
        "verification",
        "kdom",
        "cds",
        "leaderless",
        "ablation",
        "beyond",
        "engine",
        "serve",
        "stream",
        "perf",
    ];
    let run = |name: &str| match name {
        "table1" => experiments::table1::run(quick),
        "table2" => experiments::table2::run(quick),
        "figure1" => experiments::figure1::run(),
        "figure2" => experiments::figure2::run(quick),
        "figure3" => experiments::figure3::run(),
        "figure4" => experiments::figure4::run(),
        "figure5" => experiments::figure5::run(),
        "mst" => experiments::mst::run(quick),
        "mincut" => experiments::mincut::run(quick),
        "sssp" => experiments::sssp::run(quick),
        "verification" => experiments::verification::run(),
        "kdom" => experiments::kdom::run(),
        "cds" => experiments::cds::run(),
        "leaderless" => experiments::leaderless::run(),
        "ablation" => experiments::ablation::run(quick),
        "beyond" => experiments::beyond::run(),
        "engine" => experiments::engine::run(quick),
        "serve" => experiments::serve::run(quick, skew, hot),
        "stream" => experiments::stream::run(quick),
        "perf" => experiments::perf::run(quick, json, baseline.as_deref()),
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("available: {} all", all.join(" "));
            std::process::exit(2);
        }
    };
    if which.is_empty() || which == "all" {
        for name in all {
            run(name);
        }
    } else {
        run(&which);
    }
}
