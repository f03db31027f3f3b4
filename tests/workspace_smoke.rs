//! Workspace smoke tests: the parts of the repo that aren't exercised by
//! unit tests still build and run.
//!
//! * every example under `examples/` compiles (`cargo build --examples`)
//!   and runs to exit 0 with a non-empty report;
//! * the `rmo-harness` binary runs a quick Table 1 regeneration without
//!   panicking and prints a markdown table;
//! * the `serve --skew` experiment runs, which exercises the threaded
//!   `PaCluster` path (shard 0 on the calling thread, scoped helper
//!   workers for the rest, one shared response emitter, LPT
//!   placement, work stealing on the skewed scenarios) and its internal
//!   threaded-vs-sequential/steal-log-replay bit-match assertions — plus
//!   the ≥1.5× balanced-vs-pinned critical-path bound — on every CI
//!   push;
//! * the `serve --hot` experiment runs, which asserts the ≥1.8×
//!   replica-scheduling win and threaded ≡ sequential ≡ replay with
//!   fork events included;
//! * `rmo-harness perf --quick --json` emits a well-formed `rmo-perf/3`
//!   JSON document covering the whole workload suite (primitives with
//!   their dense-reference speedups, table2 PA, the isolated pipeline
//!   stages, serve, the streamed PA trace, the hot-graph cluster rows,
//!   one `run_query` row
//!   per query kind), so the perf trajectory's machine-readable format
//!   can't silently rot.
//!
//! These shell out to the same `cargo` that is running the test suite
//! (Cargo releases the build-directory lock before executing test
//! binaries, so the nested invocations are safe).

use std::process::Command;

fn cargo() -> Command {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

/// Runs `rmo-harness <args>` and returns its stdout. The experiments
/// assert their own contracts, so a failed assertion is a non-zero exit,
/// which fails the calling test.
fn harness(args: &[&str]) -> String {
    let out = cargo()
        .args([
            "run",
            "--quiet",
            "-p",
            "rmo-harness",
            "--bin",
            "rmo-harness",
            "--",
        ])
        .args(args)
        .output()
        .expect("failed to spawn rmo-harness");
    assert!(
        out.status.success(),
        "rmo-harness {} exited with {:?}:\n{}",
        args.join(" "),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn lint_ratchet_matches_tree() {
    // The determinism gate's ratchet file must describe the tree
    // exactly — a stale budget hides the next unwrap/expect regression.
    // (tests/lint_clean.rs checks the full rule set; this smoke test
    // pins the ratchet/tree agreement specifically.)
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = rmo_lint::scan_workspace(root).expect("workspace scan runs");
    let text = std::fs::read_to_string(root.join("lint-ratchet.toml"))
        .expect("lint-ratchet.toml exists at the workspace root");
    let ratchet = rmo_lint::ratchet::Ratchet::parse(&text).expect("lint-ratchet.toml parses");
    let (counts, unmapped) = rmo_lint::p1_counts(&ratchet, &report.p1);
    assert!(
        unmapped.is_empty(),
        "unbudgeted library paths: {unmapped:#?}"
    );
    for (key, budget) in &ratchet.budgets {
        let count = counts.get(key.as_str()).copied().unwrap_or(0);
        assert_eq!(
            count, *budget,
            "{key}: ratchet says {budget}, tree has {count} — run --update-ratchet"
        );
    }
}

#[test]
fn all_examples_compile() {
    // --message-format=json reports each produced executable, which works
    // regardless of where the target directory lives (CARGO_TARGET_DIR,
    // build.target-dir, …).
    let out = cargo()
        .args(["build", "--examples", "--quiet", "--message-format=json"])
        .output()
        .expect("failed to spawn cargo build --examples");
    assert!(
        out.status.success(),
        "cargo build --examples failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Guard against examples silently disappearing from the build: all
    // seven quickstart/explorer binaries must be produced (fresh builds)
    // or already on disk as reported by a previous run (fingerprint-fresh
    // builds still emit the artifact messages with the executable path).
    // Each must then run: a panic or an empty report fails here.
    let expected = [
        "diameter_probe",
        "engine_session",
        "network_health",
        "quickstart",
        "sensor_regions",
        "shortcut_explorer",
        "spanning_tree_builder",
    ];
    let stdout = String::from_utf8_lossy(&out.stdout);
    let executables: Vec<&str> = stdout
        .lines()
        .filter_map(|line| {
            let (_, rest) = line.split_once("\"executable\":\"")?;
            rest.split('"').next()
        })
        .collect();
    for name in expected {
        let exe = executables
            .iter()
            .find(|exe| {
                std::path::Path::new(exe)
                    .file_stem()
                    .is_some_and(|s| s == name)
            })
            .unwrap_or_else(|| {
                panic!(
                    "example binary `{name}` missing after cargo build --examples; \
                     built: {executables:?}"
                )
            });
        let run = Command::new(exe)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn example `{name}`: {e}"));
        assert!(
            run.status.success(),
            "example `{name}` exited with {:?}:\n{}",
            run.status.code(),
            String::from_utf8_lossy(&run.stderr)
        );
        assert!(!run.stdout.is_empty(), "example `{name}` printed nothing");
    }
}

#[test]
fn harness_quick_table1_runs() {
    let stdout = harness(&["table1", "--quick"]);
    assert!(
        stdout.contains("Table 1") && stdout.contains("| family"),
        "harness did not print the Table 1 markdown table; got:\n{stdout}"
    );
}

#[test]
fn harness_quick_perf_emits_valid_json() {
    let stdout = harness(&["perf", "--quick", "--json"]);
    let json = stdout.trim();

    // Schema shape (no serde in-tree, so validate structurally).
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "perf --json must print exactly one JSON object; got:\n{json}"
    );
    for (open, close) in [('{', '}'), ('[', ']')] {
        let opens = json.matches(open).count();
        let closes = json.matches(close).count();
        assert_eq!(opens, closes, "unbalanced {open}{close} in:\n{json}");
    }
    assert!(
        json.contains("\"schema\": \"rmo-perf/3\""),
        "schema marker missing:\n{json}"
    );
    assert!(
        json.contains("\"mode\": \"quick\""),
        "mode marker missing:\n{json}"
    );

    // The fixed workload suite: every named entry must be present with
    // the full field set, and the simulator-bound primitives must carry
    // their dense-reference comparison.
    for name in [
        "primitives/bfs_path",
        "primitives/bfs_grid",
        "primitives/broadcast_grid",
        "primitives/broadcast_path",
        "primitives/convergecast_grid",
        "primitives/pipeline_path",
        "primitives/election_grid",
        "table2_pa/general",
        "table2_pa/planar_grid",
        "table2_pa/treewidth3",
        "table2_pa/pathwidth3",
        "pipeline/stage1_tree",
        "pipeline/divisions",
        "pipeline/shortcuts",
        "pipeline/artifacts_miss",
        "pipeline/routing",
        "pipeline/warm_solve",
        "serve/mixed_sequential",
        "stream/pa_sequential",
        "cluster/hot_pinned",
        "cluster/hot_balanced",
        "cluster/hot_replicas",
        "dispatch/pa",
        "dispatch/components",
        "dispatch/verify",
        "dispatch/kdom",
        "dispatch/eccentricity",
        "dispatch/mst",
        "dispatch/sssp",
        "dispatch/mincut",
        "dispatch/cds",
    ] {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "suite entry `{name}` missing from:\n{json}"
        );
    }
    for line in json.lines().filter(|l| l.contains("\"name\":")) {
        for field in ["\"wall_ms\":", "\"rounds\":", "\"messages\":"] {
            assert!(line.contains(field), "entry missing {field}: {line}");
        }
        if line.contains("primitives/") {
            for field in ["\"reference_wall_ms\":", "\"speedup\":"] {
                assert!(
                    line.contains(field),
                    "primitive entry missing {field}: {line}"
                );
            }
        }
    }
}

#[test]
fn harness_quick_serve_runs_threaded_cluster_with_skew() {
    // The experiment itself asserts that threaded serving bit-matches
    // the sequential replay and the steal-log replay, and that the
    // Balanced scheduler beats hash-pinning >= 1.5x on the adversarial
    // one-shard fleet; a failed assertion is a non-zero exit here.
    let stdout = harness(&["serve", "--quick", "--skew"]);
    assert!(
        stdout.contains("Serve") && stdout.contains("| shards"),
        "harness did not print the serve table; got:\n{stdout}"
    );
    assert!(
        stdout.contains("hit rate"),
        "serve table must report cache hit rates; got:\n{stdout}"
    );
    assert!(
        stdout.contains("one-shard hash") && stdout.contains("steals"),
        "the skew run must print the scheduler-balance table; got:\n{stdout}"
    );
}

#[test]
fn harness_quick_serve_hot_runs_replica_scheduling() {
    // The experiment itself asserts that replica scheduling beats
    // Balanced >= 1.8x on the modeled critical path, and that threaded
    // serving, the sequential run and the fork-event replay bit-match;
    // a failed assertion is a non-zero exit here.
    let stdout = harness(&["serve", "--quick", "--hot"]);
    assert!(
        stdout.contains("Serve --hot") && stdout.contains("| cluster/hot_replicas"),
        "harness did not print the hot-graph table; got:\n{stdout}"
    );
}

#[test]
fn harness_quick_stream_runs_gateway_with_backpressure() {
    // The experiment itself asserts the gateway's determinism contract
    // on every row (threaded rerun + sequential run agree on the whole
    // deterministic slice; the ArrivalLog replay reproduces the report
    // bit-for-bit); a failed assertion is a non-zero exit here.
    let stdout = harness(&["stream", "--quick"]);
    assert!(
        stdout.contains("Stream") && stdout.contains("| shards"),
        "harness did not print the stream latency table; got:\n{stdout}"
    );
    for column in ["p50", "p95", "p99"] {
        assert!(
            stdout.contains(column),
            "stream table must report {column} modeled latency; got:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("high water") && stdout.contains("reject rate"),
        "the admission-control table must be printed; got:\n{stdout}"
    );
}
