//! The interprocedural fixture corpus: R1, Q1 and U1 fire on their
//! known-bad snippets, stay quiet on the checked rewrites, honor
//! reasoned `allow(...)` directives — and the whole analysis renders
//! byte-identically regardless of file-walk order or re-runs.

use rmo_lint::items::ParsedFile;
use rmo_lint::{parse_source, reach, Finding};

const SERVICE_PATH: &str = "crates/apps/src/service.rs";
const DISPATCH_PATH: &str = "crates/apps/src/dispatch.rs";

fn render(findings: &[Finding]) -> Vec<String> {
    findings.iter().map(|f| f.to_string()).collect()
}

#[test]
fn r1_fires_on_every_panic_kind_reachable_from_serve() {
    let files = vec![parse_source(
        SERVICE_PATH,
        include_str!("../fixtures/r1_fire.rs"),
    )];
    let findings = reach::panic_reachability(&files, &["PaCluster::serve"]).unwrap();
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![16, 17, 18, 19],
        "assert!, indexing, div, and unwrap all live in billing(): {findings:#?}"
    );
    for f in &findings {
        assert_eq!(f.rule, "R1");
        assert_eq!(
            f.chain,
            vec![
                "PaCluster::serve",
                "service::run_worker",
                "service::billing"
            ],
            "the diagnostic must carry the full entry-to-site chain"
        );
        assert!(
            f.to_string()
                .contains("via PaCluster::serve → service::run_worker"),
            "chain missing from the rendered line: {f}"
        );
    }
    let messages: String = findings.iter().map(|f| f.message.as_str()).collect();
    for kind in [
        "`assert!`",
        "slice/array indexing",
        "non-literal integer `/`",
        "`.unwrap()`",
    ] {
        assert!(messages.contains(kind), "no R1 finding mentions {kind}");
    }
}

#[test]
fn r1_stays_quiet_on_checked_code_and_off_path_panics() {
    let files = vec![parse_source(
        SERVICE_PATH,
        include_str!("../fixtures/r1_quiet.rs"),
    )];
    let findings = reach::panic_reachability(&files, &["PaCluster::serve"]).unwrap();
    assert!(
        findings.is_empty(),
        "checked ops on the path, panic! off it: {findings:#?}"
    );
}

#[test]
fn r1_allow_needs_a_reason() {
    let files = vec![parse_source(
        SERVICE_PATH,
        include_str!("../fixtures/r1_allow.rs"),
    )];
    let findings = reach::panic_reachability(&files, &["PaCluster::serve"]).unwrap();
    // The reasoned directive suppresses the indexing site outright; the
    // reason-less one suppresses the assert but surfaces as E1.
    assert_eq!(
        findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect::<Vec<_>>(),
        vec![("E1", 15)],
        "{findings:#?}"
    );
}

/// The `rmo_graph` files the path fixtures call into, one panic site
/// each: a top-level module, and a module of the `gen` directory.
const GRAPH_FILES: &[(&str, &str)] = &[
    (
        "crates/graph/src/biconnectivity.rs",
        "pub fn is_two_edge_connected(xs: &[u64]) -> bool {\n    xs[0] > 0\n}\n",
    ),
    (
        "crates/graph/src/gen/grid.rs",
        "pub fn grid(side: u64) -> u64 {\n    assert!(side > 0);\n    side * side\n}\n",
    ),
];

/// R1 from `PaCluster::serve` over a serving fixture plus
/// [`GRAPH_FILES`], rendered as `(file, line, chain)`.
fn r1_through_paths(fixture: &str) -> Vec<(String, usize, Vec<String>)> {
    let mut files = vec![parse_source(SERVICE_PATH, fixture)];
    files.extend(GRAPH_FILES.iter().map(|(p, src)| parse_source(p, src)));
    let findings = reach::panic_reachability(&files, &["PaCluster::serve"]).unwrap();
    findings
        .into_iter()
        .map(|f| (f.file, f.line, f.chain))
        .collect()
}

fn site(file: &str, line: usize, chain: &[&str]) -> (String, usize, Vec<String>) {
    let chain = chain.iter().map(|c| c.to_string()).collect();
    (file.to_string(), line, chain)
}

#[test]
fn r1_follows_a_crate_path_call() {
    assert_eq!(
        r1_through_paths(include_str!("../fixtures/r1_crate_path.rs")),
        [site(
            GRAPH_FILES[0].0,
            2,
            &[
                "PaCluster::serve",
                "service::verify",
                "biconnectivity::is_two_edge_connected"
            ]
        )]
    );
}

#[test]
fn r1_follows_a_directory_module_call() {
    assert_eq!(
        r1_through_paths(include_str!("../fixtures/r1_dir_module.rs")),
        [site(
            GRAPH_FILES[1].0,
            2,
            &["PaCluster::serve", "grid::grid"]
        )]
    );
}

#[test]
fn r1_follows_a_facade_alias_call() {
    assert_eq!(
        r1_through_paths(include_str!("../fixtures/r1_facade_alias.rs")),
        [
            site(
                GRAPH_FILES[0].0,
                2,
                &["PaCluster::serve", "biconnectivity::is_two_edge_connected"]
            ),
            site(GRAPH_FILES[1].0, 2, &["PaCluster::serve", "grid::grid"]),
        ]
    );
}

#[test]
fn r1_follows_a_fn_named_as_a_value() {
    assert_eq!(
        r1_through_paths(include_str!("../fixtures/r1_by_value.rs")),
        [site(
            SERVICE_PATH,
            15,
            &["PaCluster::serve", "GroupHistory::mean_work"]
        )]
    );
}

#[test]
fn q1_fires_once_per_handler_hiding_a_variant_behind_a_wildcard() {
    let files = vec![parse_source(
        DISPATCH_PATH,
        include_str!("../fixtures/q1_fire.rs"),
    )];
    let findings = reach::dispatch_parity(&files, "Query", reach::DISPATCH_HANDLERS).unwrap();
    assert_eq!(
        findings.len(),
        2,
        "Gamma hides in weight AND affinity: {findings:#?}"
    );
    for f in &findings {
        assert_eq!(f.rule, "Q1");
        assert_eq!(f.line, 6, "Q1 anchors to the variant's declaration line");
        assert!(f.message.contains("Query::Gamma"), "{f}");
    }
    let messages: String = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.contains("`weight`") && messages.contains("`affinity`"));
}

#[test]
fn q1_stays_quiet_when_or_patterns_name_every_variant() {
    let files = vec![parse_source(
        DISPATCH_PATH,
        include_str!("../fixtures/q1_quiet.rs"),
    )];
    let findings = reach::dispatch_parity(&files, "Query", reach::DISPATCH_HANDLERS).unwrap();
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn q1_allow_with_reason_permits_a_deliberately_unwired_variant() {
    let src = r#"pub enum Query {
    Alpha,
    // rmo-lint: allow(Q1) — Legacy is decode-only; upstream rejects it before dispatch.
    Legacy,
}
pub fn run_query(q: &Query) -> u64 {
    match q { Query::Alpha => 1, Query::Legacy => 0 }
}
impl Query {
    pub fn weight(&self) -> u64 { match self { Query::Alpha => 1, _ => 0 } }
    pub fn affinity(&self) -> u64 { match self { Query::Alpha => 1, _ => 0 } }
}
"#;
    let files = vec![parse_source(DISPATCH_PATH, src)];
    let findings = reach::dispatch_parity(&files, "Query", reach::DISPATCH_HANDLERS).unwrap();
    assert!(
        findings.is_empty(),
        "one reasoned directive covers both handler findings on that variant: {findings:#?}"
    );
}

/// A U1 fixture at `path` plus inline caller files, as one corpus.
fn u1_corpus(path: &str, fixture: &str, callers: &[(&str, &str)]) -> Vec<ParsedFile> {
    let mut files = vec![parse_source(path, fixture)];
    files.extend(callers.iter().map(|(p, src)| parse_source(p, src)));
    files
}

#[test]
fn u1_fire_reports_unreached_and_same_file_only_pub_fns() {
    let test = "#[test]\nfn api() { rmo_graph::fire::Widget.api(|x| x); }";
    let fixture = include_str!("../fixtures/u1_fire.rs");
    let files = u1_corpus(
        "crates/graph/src/fire.rs",
        fixture,
        &[("crates/graph/tests/w.rs", test)],
    );
    let findings = reach::unreached_pub_fns(&files, &[]).unwrap();
    let got: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}", f.line, f.message))
        .collect();
    assert_eq!(got.len(), 3, "{got:#?}");
    assert!(
        got[0].starts_with("10:`pub fn Widget::orphan`")
            && got[0].ends_with("no caller: delete it")
    );
    assert!(got[1].starts_with("13:`pub fn fire::helper`") && got[1].ends_with("make it private"));
    assert!(got[2].starts_with("14:`pub fn fire::tested_only`") && got[2].ends_with("delete it"));
}

#[test]
fn u1_quiet_when_a_root_or_reached_fn_calls_from_another_file() {
    let callers = [
        ("tests/t.rs", "#[test]\nfn t() { from_test(); rmo_apps::mid::relay(&[1]); }"),
        ("examples/demo.rs", "fn main() { rmo_core::quiet::from_example(); }"),
        ("crates/harness/src/main.rs", "fn main() { quiet::from_harness(); }"),
        ("perfbench/src/main.rs", "fn main() { from_perfbench(); }"),
        ("crates/apps/src/dispatch.rs", "pub fn run_query() -> u64 { from_serving() }"),
        (
            "crates/apps/src/mid.rs",
            "pub fn relay(xs: &[u64]) -> Vec<u64> {\n    Meter::chained();\n    xs.iter().copied().map(Meter::by_value).collect()\n}",
        ),
    ];
    let fixture = include_str!("../fixtures/u1_quiet.rs");
    let files = u1_corpus("crates/core/src/quiet.rs", fixture, &callers);
    let findings = reach::unreached_pub_fns(&files, &["dispatch::run_query"]).unwrap();
    assert!(findings.is_empty(), "{findings:#?}");
    // Without the serving entry as a root, it and `from_serving` are dead.
    let findings = reach::unreached_pub_fns(&files, &[]).unwrap();
    let got: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(
        got,
        ["crates/apps/src/dispatch.rs", "crates/core/src/quiet.rs"]
    );
    let err = reach::unreached_pub_fns(&files, &["PaCluster::serve"]).unwrap_err();
    assert!(err.contains("PaCluster::serve"), "{err}");
}

#[test]
fn u1_allow_exempts_and_roots_a_fn_but_needs_a_reason() {
    let fixture = include_str!("../fixtures/u1_allow.rs");
    let other = ("crates/shortcut/src/other.rs", "pub fn leaf() -> u64 { 1 }");
    let files = u1_corpus("crates/shortcut/src/allow.rs", fixture, &[other]);
    // `ledger` is allowed and, as a root, reaches `leaf` in another
    // file; `bare`'s directive has no reason.
    let findings = reach::unreached_pub_fns(&files, &[]).unwrap();
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, [("E1", 11)], "{findings:#?}");
}

#[test]
fn u1_fires_when_only_a_std_type_calls_the_name() {
    let test = "#[test]\nfn t() {\n    let cell = std::sync::OnceLock::new();\n    \
                cell.get_or_init(rmo_congest::scratch::Scratch::default).slots();\n}";
    let fixture = include_str!("../fixtures/u1_std_new.rs");
    let files = u1_corpus(
        "crates/congest/src/scratch.rs",
        fixture,
        &[("crates/congest/tests/s.rs", test)],
    );
    let findings = reach::unreached_pub_fns(&files, &[]).unwrap();
    let got: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}", f.line, f.message))
        .collect();
    assert_eq!(got.len(), 1, "{got:#?}");
    assert!(
        got[0].starts_with("11:`pub fn Scratch::new`") && got[0].ends_with("no caller: delete it"),
        "{got:#?}"
    );
}

/// The mixed corpus both stability tests run over: a serve path with
/// reachable panics in one file, a parity violation in another.
fn mixed_corpus() -> Vec<ParsedFile> {
    vec![
        parse_source(SERVICE_PATH, include_str!("../fixtures/r1_fire.rs")),
        parse_source(DISPATCH_PATH, include_str!("../fixtures/q1_fire.rs")),
    ]
}

fn analyze(files: &[ParsedFile]) -> Vec<String> {
    let entries = ["PaCluster::serve", "dispatch::run_query"];
    let mut out = render(&reach::panic_reachability(files, &entries).unwrap());
    out.extend(render(
        &reach::dispatch_parity(files, "Query", reach::DISPATCH_HANDLERS).unwrap(),
    ));
    out
}

#[test]
fn findings_are_independent_of_file_walk_order() {
    let forward = analyze(&mixed_corpus());
    let mut reversed_corpus = mixed_corpus();
    reversed_corpus.reverse();
    let reversed = analyze(&reversed_corpus);
    assert_eq!(
        forward, reversed,
        "the analysis must not leak input order into its output"
    );
    assert_eq!(forward.len(), 6, "4 R1 + 2 Q1: {forward:#?}");
}

#[test]
fn findings_are_byte_identical_across_reruns() {
    let corpus = mixed_corpus();
    assert_eq!(analyze(&corpus), analyze(&corpus));
}
