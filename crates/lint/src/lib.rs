//! `rmo-lint` — the workspace determinism & safety static-analysis
//! pass. See `DESIGN.md` § "Determinism contract" for the full story;
//! in short, every serving-layer guarantee (bit-for-bit `serve_replay`,
//! FNV-pinned fingerprints, mode-independent engine counters) relies on
//! the absence of hidden nondeterminism, and this pass enforces that
//! absence statically:
//!
//! * **D1** — no order-escaping iteration over `HashMap`/`HashSet` in
//!   deterministic modules (`congest`, `core`, `shortcut`,
//!   `apps::{dispatch,service}`).
//! * **D2** — no `RandomState`/`DefaultHasher` anywhere.
//! * **D3** — no `Instant::now`/`SystemTime`/`thread::current` outside
//!   harness timing code.
//! * **C1** — no unchecked narrowing `as` casts in cost-accounting code.
//! * **P1** — `unwrap()`/`expect()` in non-test library code, tracked by
//!   the [`ratchet`] file whose budgets only decrease.
//!
//! Above the token-local rules sits an interprocedural layer ([`items`]
//! → [`callgraph`] → [`reach`]) that recovers `fn`/`impl`/`mod`
//! structure and a workspace call graph, powering:
//!
//! * **R1** — panic-capable sites (panic-family macros, slice indexing,
//!   non-literal div/mod, `unwrap`/`expect`) reachable from the serving
//!   entry points, with the full call chain in the diagnostic and the
//!   residual count pinned by the `[r1]` ratchet section.
//! * **L2** — lock discipline in `service.rs`-class modules: no second
//!   `lock()` and no blocking op while a `MutexGuard` binding is live.
//! * **Q1** — dispatch parity: every `Query` variant handled by name in
//!   `run_query`, `weight`, and `affinity`.
//! * **U1** — no unreached `pub fn`: every free or inherent `pub fn` of
//!   the library crates has a caller in another file that a root (a
//!   serving entry, the harness `main`, a test, example or perfbench fn)
//!   reaches.
//!
//! Suppression requires a reason:
//! `// rmo-lint: allow(RULE) — reason` on the offending line or the one
//! above. A reason-less allow is itself an error (`E1`).

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod items;
pub mod ratchet;
pub mod reach;
pub mod rules;
pub mod tokenizer;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{FileClass, Finding};

/// Derives a file's role in the pass from its workspace-relative path
/// (forward slashes). Mirrors the layout documented in `DESIGN.md`.
pub fn classify(path: &str) -> FileClass {
    let is_test = path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("perfbench/");
    let library = path.starts_with("crates/") && path.contains("/src/") && !is_test;
    let deterministic = path.starts_with("crates/congest/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/shortcut/src/")
        || path == "crates/apps/src/dispatch.rs"
        || path == "crates/apps/src/service.rs"
        || path == "crates/apps/src/stream.rs";
    let timing_exempt = path.starts_with("crates/harness/");
    let cost_accounting = path == "crates/congest/src/metrics.rs"
        || path == "crates/core/src/engine.rs"
        || path == "crates/core/src/pipeline.rs";
    let lock_discipline =
        library && (path.ends_with("/service.rs") || path == "crates/apps/src/stream.rs");
    FileClass {
        is_test,
        deterministic,
        timing_exempt,
        cost_accounting,
        library,
        lock_discipline,
    }
}

/// Lints one source text as if it lived at `path`. The entry point the
/// fixture tests drive directly.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenizer::tokenize(source);
    let lines: Vec<&str> = source.lines().collect();
    rules::lint_tokens(path, classify(path), &tokens, &lines)
}

/// Parses one source text into the item structure the interprocedural
/// passes consume, as if it lived at `path`.
pub fn parse_source(path: &str, source: &str) -> items::ParsedFile {
    let tokens = tokenizer::tokenize(source);
    let mask = rules::test_region_mask(&tokens);
    items::parse_items(
        path,
        classify(path),
        tokens,
        mask,
        source.lines().map(|l| l.to_string()).collect(),
    )
}

/// Everything one workspace scan produces: hard findings (D1–D3, C1,
/// L2, E1), the P1 sites grouped per ratchet-relevant file, and the
/// parsed item corpus the interprocedural passes run over.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Findings that fail the build outright.
    pub errors: Vec<Finding>,
    /// Surviving (un-allowed) P1 findings, for ratchet accounting.
    pub p1: Vec<Finding>,
    /// Files scanned (workspace-relative), for reporting.
    pub files: usize,
    /// Every scanned file, parsed for the call-graph passes, plus the
    /// `perfbench/src` files U1 reads for roots.
    pub parsed: Vec<items::ParsedFile>,
}

/// Walks the workspace at `root` and lints every source file: all of
/// `crates/` (minus `crates/lint/fixtures/`, which exists to violate
/// the rules) plus the root `src/`, `tests/`, and `examples/` trees.
/// `perfbench/src` is parsed for U1's roots but never linted: the
/// benchmark is its own workspace. `vendor/` and `target/` are never
/// scanned — vendored stubs are not ours to fix.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", "tests", "examples", "perfbench/src"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut report = ScanReport::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        if rel.starts_with("crates/lint/fixtures/") {
            continue;
        }
        let source = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        if rel.starts_with("perfbench/") {
            report.parsed.push(parse_source(&rel, &source));
            continue;
        }
        report.files += 1;
        for finding in lint_source(&rel, &source) {
            if finding.rule == "P1" {
                report.p1.push(finding);
            } else {
                report.errors.push(finding);
            }
        }
        report.parsed.push(parse_source(&rel, &source));
    }
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// P1 site counts per budget key, plus the P1 findings that map to no
/// key at all (always an error: every library path needs a budget).
pub fn p1_counts<'a>(
    ratchet: &'a ratchet::Ratchet,
    p1: &[Finding],
) -> (BTreeMap<&'a str, usize>, Vec<Finding>) {
    let mut counts: BTreeMap<&str, usize> = ratchet
        .budgets
        .iter()
        .map(|(k, _)| (k.as_str(), 0))
        .collect();
    let mut unmapped = Vec::new();
    for f in p1 {
        match ratchet.key_for(&f.file) {
            Some(key) => *counts.entry(key).or_insert(0) += 1,
            None => unmapped.push(f.clone()),
        }
    }
    (counts, unmapped)
}

/// R1 site counts per `[r1]` key, plus the R1 findings no key covers
/// (always a failure: every reachable path needs a pin).
pub fn r1_counts<'a>(
    ratchet: &'a ratchet::Ratchet,
    r1: &[Finding],
) -> (BTreeMap<&'a str, usize>, Vec<Finding>) {
    let mut counts: BTreeMap<&str, usize> =
        ratchet.r1.iter().map(|(k, _)| (k.as_str(), 0)).collect();
    let mut unmapped = Vec::new();
    for f in r1 {
        match ratchet.r1_key_for(&f.file) {
            Some(key) => *counts.entry(key).or_insert(0) += 1,
            None => unmapped.push(f.clone()),
        }
    }
    (counts, unmapped)
}

/// Structured result of the full `--check` pass, so text, JSON, and
/// GitHub-annotation output all render from the same data.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Hard findings (token-local rules, L2, Q1, U1, E1) plus — when an
    /// `[r1]` pin drifts — the R1 findings of the drifted keys, chains
    /// included, so the offending paths are visible without re-running.
    pub findings: Vec<Finding>,
    /// Non-finding failures: ratchet drift, unmapped paths, missing
    /// entry points, config errors.
    pub failures: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

impl CheckReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.failures.is_empty()
    }

    /// Every failure as a printable line (findings first, then the
    /// summary failures), matching the historical text output.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.findings.iter().map(|f| f.to_string()).collect();
        out.extend(self.failures.iter().cloned());
        out
    }
}

/// How many drifted-key R1 findings `--check` lists per key before
/// truncating — enough to act on, bounded so a bad sweep can't dump
/// hundreds of chains into CI logs.
const R1_DRIFT_LISTING: usize = 20;

/// The full `--check` pass: scan, run the interprocedural rules, and
/// compare both ratchet sections against `lint-ratchet.toml`.
pub fn check(root: &Path) -> Result<CheckReport, String> {
    let report = scan_workspace(root)?;
    let ratchet_text = fs::read_to_string(root.join("lint-ratchet.toml"))
        .map_err(|e| format!("lint-ratchet.toml: {e}"))?;
    let ratchet = ratchet::Ratchet::parse(&ratchet_text)?;
    let mut out = CheckReport {
        findings: report.errors.clone(),
        failures: Vec::new(),
        files: report.files,
    };

    // P1 budgets (unchanged semantics).
    let (counts, unmapped) = p1_counts(&ratchet, &report.p1);
    for f in unmapped {
        out.failures.push(format!(
            "{f} (no [budgets] entry in lint-ratchet.toml covers this path)"
        ));
    }
    for (key, &count) in &counts {
        match ratchet.budget(key) {
            Some(budget) if count > budget => out.failures.push(format!(
                "lint-ratchet.toml: {key}: {count} unwrap/expect sites exceed the budget of {budget} — \
                 return a Result or add `// rmo-lint: allow(P1) — reason`"
            )),
            Some(budget) if count < budget => out.failures.push(format!(
                "lint-ratchet.toml: {key}: budget {budget} is stale ({count} sites remain) — \
                 run `cargo run -p rmo-lint -- --update-ratchet` to ratchet it down"
            )),
            _ => {}
        }
    }

    // Q1 — dispatch parity (hard findings; a missing enum/handler is a
    // wiring failure, not a silently-skipped rule).
    match reach::dispatch_parity(&report.parsed, "Query", reach::DISPATCH_HANDLERS) {
        Ok(findings) => out.findings.extend(findings),
        Err(e) => out.failures.push(e),
    }

    // U1 — unreached `pub fn`s (hard findings, held at zero).
    match reach::unreached_pub_fns(&report.parsed, reach::SERVING_ENTRIES) {
        Ok(findings) => out.findings.extend(findings),
        Err(e) => out.failures.push(e),
    }

    // R1 — panic reachability, pinned per prefix by the [r1] section.
    match reach::panic_reachability(&report.parsed, reach::SERVING_ENTRIES) {
        Ok(findings) => {
            // Reason-less allow(R1) directives surface as E1 hard findings.
            let (sites, e1): (Vec<Finding>, Vec<Finding>) =
                findings.into_iter().partition(|f| f.rule == "R1");
            out.findings.extend(e1);
            let (counts, unmapped) = r1_counts(&ratchet, &sites);
            for f in &unmapped {
                out.failures.push(format!(
                    "{f} (no [r1] entry in lint-ratchet.toml covers this path)"
                ));
            }
            for (key, &count) in &counts {
                let pin = ratchet.r1_pin(key).unwrap_or(0);
                if count == pin {
                    continue;
                }
                out.failures.push(format!(
                    "lint-ratchet.toml: [r1] {key}: {count} panic-reachable sites, pinned at {pin} — \
                     new serve-path panics must be fixed or allowed with a reason; \
                     fixes are locked in via `cargo run -p rmo-lint -- --update-ratchet`"
                ));
                for (listed, f) in sites
                    .iter()
                    .filter(|f| ratchet.r1_key_for(&f.file) == Some(key))
                    .enumerate()
                {
                    if listed == R1_DRIFT_LISTING {
                        out.failures.push(format!(
                            "lint-ratchet.toml: [r1] {key}: … and {} more site(s)",
                            count - listed
                        ));
                        break;
                    }
                    out.findings.push(f.clone());
                }
            }
        }
        Err(e) => out.failures.push(e),
    }

    out.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(out)
}

/// The `--update-ratchet` pass: rewrite budgets and `[r1]` pins to the
/// current counts. Refuses to *raise* either — new unwrap/expect sites
/// and new panic-reachable sites are fixed or allowed, never budgeted
/// in. Returns the keys that changed.
pub fn update_ratchet(root: &Path) -> Result<Vec<String>, String> {
    let report = scan_workspace(root)?;
    if let Some(err) = report.errors.first() {
        return Err(format!(
            "refusing to update the ratchet while hard findings exist, e.g. {err}"
        ));
    }
    let path = root.join("lint-ratchet.toml");
    let text = fs::read_to_string(&path).map_err(|e| format!("lint-ratchet.toml: {e}"))?;
    let mut ratchet = ratchet::Ratchet::parse(&text)?;
    let (counts, unmapped) = p1_counts(&ratchet, &report.p1);
    if let Some(f) = unmapped.first() {
        return Err(format!(
            "{f} (no [budgets] entry covers this path — add one set to 0 first)"
        ));
    }
    let mut changed = Vec::new();
    let counts: BTreeMap<String, usize> = counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for (key, budget) in &mut ratchet.budgets {
        let count = counts.get(key.as_str()).copied().unwrap_or(0);
        if count > *budget {
            return Err(format!(
                "{key}: {count} sites exceed the budget of {budget}; budgets only decrease — \
                 fix the new sites or allow them with a reason"
            ));
        }
        if count < *budget {
            changed.push(format!("{key}: {budget} -> {count}"));
            *budget = count;
        }
    }
    let r1_findings = reach::panic_reachability(&report.parsed, reach::SERVING_ENTRIES)?;
    if let Some(e1) = r1_findings.iter().find(|f| f.rule != "R1") {
        return Err(format!(
            "refusing to update the ratchet while hard findings exist, e.g. {e1}"
        ));
    }
    let (r1c, r1_unmapped) = r1_counts(&ratchet, &r1_findings);
    if let Some(f) = r1_unmapped.first() {
        return Err(format!(
            "{f} (no [r1] entry covers this path — add one set to 0 first)"
        ));
    }
    let r1c: BTreeMap<String, usize> = r1c.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    for (key, pin) in &mut ratchet.r1 {
        let count = r1c.get(key.as_str()).copied().unwrap_or(0);
        if count > *pin {
            return Err(format!(
                "[r1] {key}: {count} reachable sites exceed the pin of {pin}; pins only decrease — \
                 fix the new panic paths or allow them with a reason"
            ));
        }
        if count < *pin {
            changed.push(format!("[r1] {key}: {pin} -> {count}"));
            *pin = count;
        }
    }
    fs::write(&path, ratchet.render()).map_err(|e| format!("lint-ratchet.toml: {e}"))?;
    Ok(changed)
}

/// Renders a check report as one machine-readable JSON object:
/// `{"clean":…,"files":…,"findings":[{file,line,rule,message,chain}…],
/// "failures":[…]}`. Hand-rolled (no registry deps); key order and
/// array order are deterministic, so CI diffs are stable.
pub fn render_json(report: &CheckReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"clean\":{},", report.is_clean()));
    out.push_str(&format!("\"files\":{},", report.files));
    out.push_str("\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{},\"chain\":[{}]}}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message),
            f.chain
                .iter()
                .map(|c| json_str(c))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    out.push_str("],\"failures\":[");
    for (i, msg) in report.failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(msg));
    }
    out.push_str("]}");
    out
}

/// Renders a check report as GitHub Actions workflow commands — one
/// `::error` annotation per finding (anchored to file and line) and per
/// failure. Empty when clean.
pub fn render_github(report: &CheckReport) -> Vec<String> {
    let mut out = Vec::new();
    for f in &report.findings {
        out.push(format!(
            "::error file={},line={},title=rmo-lint {}::{}",
            f.file,
            f.line,
            f.rule,
            github_escape(&f.to_string())
        ));
    }
    for msg in &report.failures {
        out.push(format!("::error title=rmo-lint::{}", github_escape(msg)));
    }
    out
}

/// Minimal JSON string encoder for the diagnostic fields we emit.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Workflow-command message escaping per the GitHub Actions spec.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Locates the workspace root: the nearest ancestor of `start` holding
/// `lint-ratchet.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("lint-ratchet.toml").is_file() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}
