//! The workspace determinism gate: `rmo-lint` must pass on the whole
//! tree — token-local rules, the P1 ratchet, and the interprocedural
//! serving-path rules (R1 panic-reachability pins, Q1 dispatch parity,
//! L2 lock discipline). This runs in the default `cargo test`, so
//! tier-1 catches a determinism regression even before the dedicated
//! CI job does.

use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn ratchet() -> rmo_lint::ratchet::Ratchet {
    let text = std::fs::read_to_string(root().join("lint-ratchet.toml"))
        .expect("lint-ratchet.toml exists at the workspace root");
    rmo_lint::ratchet::Ratchet::parse(&text).expect("lint-ratchet.toml parses")
}

#[test]
fn workspace_is_lint_clean() {
    let report = rmo_lint::check(root()).expect("workspace scan runs");
    assert!(
        report.is_clean(),
        "rmo-lint found {} violation(s):\n{}",
        report.lines().len(),
        report.lines().join("\n")
    );
}

#[test]
fn check_output_is_byte_identical_across_runs() {
    // The whole point of the gate is determinism; hold the gate itself
    // to it. Two full scans of the real workspace must render the same
    // report, byte for byte, in every output format.
    let a = rmo_lint::check(root()).expect("first scan runs");
    let b = rmo_lint::check(root()).expect("second scan runs");
    assert_eq!(a.lines(), b.lines());
    assert_eq!(rmo_lint::render_json(&a), rmo_lint::render_json(&b));
    assert_eq!(rmo_lint::render_github(&a), rmo_lint::render_github(&b));
}

#[test]
fn ratchet_matches_tree_exactly() {
    // `check` already fails on drift in either direction; assert the
    // counts directly as well so this invariant survives refactors of
    // the failure-message plumbing.
    let report = rmo_lint::scan_workspace(root()).expect("workspace scan runs");
    let ratchet = ratchet();
    let (counts, unmapped) = rmo_lint::p1_counts(&ratchet, &report.p1);
    assert!(
        unmapped.is_empty(),
        "library paths without a ratchet budget: {unmapped:#?}"
    );
    for (key, budget) in &ratchet.budgets {
        let count = counts.get(key.as_str()).copied().unwrap_or(0);
        assert_eq!(
            count, *budget,
            "{key}: tree has {count} unwrap/expect sites but the ratchet says {budget} — \
             run `cargo run -p rmo-lint -- --update-ratchet`"
        );
    }
}

#[test]
fn r1_pins_match_the_tree_exactly() {
    // Same exact-match contract for the panic-reachability section: a
    // new serve-path panic AND a silent fix both show up as drift.
    let report = rmo_lint::scan_workspace(root()).expect("workspace scan runs");
    let sites =
        rmo_lint::reach::panic_reachability(&report.parsed, rmo_lint::reach::SERVING_ENTRIES)
            .expect("every serving entry resolves");
    assert!(
        sites.iter().all(|f| f.rule == "R1"),
        "reason-less allow(R1) directives present: {sites:#?}"
    );
    let ratchet = ratchet();
    let (counts, unmapped) = rmo_lint::r1_counts(&ratchet, &sites);
    assert!(
        unmapped.is_empty(),
        "reachable paths without an [r1] pin: {unmapped:#?}"
    );
    for (key, pin) in &ratchet.r1 {
        let count = counts.get(key.as_str()).copied().unwrap_or(0);
        assert_eq!(
            count, *pin,
            "[r1] {key}: tree has {count} panic-reachable sites but the pin says {pin} — \
             fix new panics, or lock in a sweep via `cargo run -p rmo-lint -- --update-ratchet`"
        );
    }
    // The dispatch surface itself stays panic-free: contract violations
    // come back as Failed responses, never as a crash.
    assert_eq!(ratchet.r1_pin("crates/apps/src/dispatch.rs"), Some(0));
}

#[test]
fn library_crates_carry_no_wall_clock_exception() {
    // D3 keeps wall clocks at the harness edge: no library crate opts
    // out of it, so every wall time is measured by the caller.
    let report = rmo_lint::scan_workspace(root()).expect("workspace scan runs");
    let library =
        ["graph", "congest", "shortcut", "core", "apps"].map(|c| format!("crates/{c}/src/"));
    let exceptions: Vec<&str> = report
        .parsed
        .iter()
        .filter(|file| library.iter().any(|prefix| file.path.starts_with(prefix)))
        .filter(|file| file.lines.iter().any(|line| line.contains("allow(D3)")))
        .map(|file| file.path.as_str())
        .collect();
    assert!(
        exceptions.is_empty(),
        "library code must not opt out of D3: {exceptions:?}"
    );
}

#[test]
fn serving_path_is_strictly_below_its_baseline() {
    let ratchet = ratchet();
    let service_budget = ratchet
        .budget("crates/apps/src/service.rs")
        .expect("service.rs has a budget");
    let service_baseline = ratchet
        .baseline("crates/apps/src/service.rs")
        .expect("service.rs has a baseline");
    assert!(
        service_budget < service_baseline,
        "the de-unwrap sweep must hold: service.rs budget {service_budget} \
         is not strictly below its pre-sweep baseline {service_baseline}"
    );
    // dispatch.rs entered the sweep already clean; it must stay at zero.
    assert_eq!(ratchet.budget("crates/apps/src/dispatch.rs"), Some(0));
    assert_eq!(ratchet.baseline("crates/apps/src/dispatch.rs"), Some(0));
}

#[test]
fn deterministic_modules_are_classified() {
    // The classification table is the contract's foundation — pin it.
    for path in [
        "crates/congest/src/router.rs",
        "crates/core/src/engine.rs",
        "crates/shortcut/src/alg8.rs",
        "crates/apps/src/dispatch.rs",
        "crates/apps/src/service.rs",
    ] {
        assert!(
            rmo_lint::classify(path).deterministic,
            "{path} must be a deterministic module"
        );
    }
    assert!(!rmo_lint::classify("crates/graph/src/graph.rs").deterministic);
    assert!(!rmo_lint::classify("crates/apps/src/mst.rs").deterministic);
    assert!(rmo_lint::classify("crates/harness/src/main.rs").timing_exempt);
    assert!(rmo_lint::classify("crates/congest/tests/alloc_free.rs").is_test);
    // Lock discipline applies to the serving loop, not to test code.
    assert!(rmo_lint::classify("crates/apps/src/service.rs").lock_discipline);
    assert!(!rmo_lint::classify("crates/apps/src/dispatch.rs").lock_discipline);
    assert!(!rmo_lint::classify("crates/apps/tests/service.rs").lock_discipline);
}
