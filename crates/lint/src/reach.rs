//! Pass 3: the interprocedural rule families. R1 and U1 walk the same
//! graph, [`CallGraph::build`], with its one resolution rule per call
//! form.
//!
//! * **R1 panic-reachability** — from the serving entry points, walk the
//!   call graph and report every panic-capable site (`panic!`-family
//!   macros, slice/array indexing, non-literal integer div/mod,
//!   `unwrap`/`expect`) in a reachable fn, with the full entry-to-site
//!   call chain in the diagnostic. Residuals are pinned per path prefix
//!   by the `[r1]` section of `lint-ratchet.toml` — the count must match
//!   the swept baseline *exactly*, so new panic paths and silent fixes
//!   both surface in `--check`.
//! * **Q1 dispatch-parity** — every `Query` variant must be handled by
//!   name (`Query::Variant`) in `run_query`, `weight`, and `affinity`,
//!   so a future workload PR cannot ship a partially-wired variant
//!   behind a wildcard arm. Wildcards intentionally do not count.
//!
//! * **U1 unreached `pub fn`** — every free or inherent `pub fn` of the
//!   five library crates must be called (or named as a value) by a
//!   reached fn in *another* file. Roots are the serving entries, the
//!   harness `main`, every fn of a test, example or `perfbench/src`
//!   file, and every fn allowed with a reason. In-file `#[cfg(test)]`
//!   fns are not roots: a `pub fn` only its unit tests call is dead.
//!   A call that resolves to nothing (`OnceLock::new`) keeps nothing
//!   alive.
//!
//! All three honor `// rmo-lint: allow(R1|Q1|U1) — reason` on the
//! reported line or the line above, like every other rule; an allowed
//! U1 fn is also a root.

use crate::callgraph::CallGraph;
use crate::items::{panic_sites_in, ParsedFile};
use crate::rules::{allow_directive, apply_allows, Finding};

/// The serving entry points R1 walks from, as display quals. A missing
/// entry is a hard error, not a silently-empty analysis: if a refactor
/// renames `serve`, this list must move with it.
pub const SERVING_ENTRIES: &[&str] = &[
    "dispatch::run_query",
    "PaCluster::serve",
    "PaCluster::serve_sequential",
    "PaCluster::serve_replay",
    "StreamGateway::run",
    "StreamGateway::run_sequential",
    "StreamGateway::replay",
    // The replica-scheduling path: forking and re-absorbing warmed
    // cores runs on the serving batch path (outside any lock), so the
    // panic-freedom walk must cover it even if a refactor ever detaches
    // it from `run_batch`.
    "EngineCore::fork",
    "EngineCore::absorb",
];

/// The dispatch surfaces Q1 holds to parity, all in the file that
/// defines the `Query` enum.
pub const DISPATCH_HANDLERS: &[&str] = &["run_query", "weight", "affinity"];

/// R1: panic-capable sites reachable from `entries` (display quals).
/// Returns findings sorted by (file, line, message); `Err` if any entry
/// resolves to no workspace fn.
pub fn panic_reachability(files: &[ParsedFile], entries: &[&str]) -> Result<Vec<Finding>, String> {
    let graph = CallGraph::build(files);
    let roots = resolve_entries(&graph, entries, "R1")?;
    let parents = graph.reach(&roots);
    let mut raw = Vec::new();
    for n in 0..graph.nodes.len() {
        if parents[n].is_none() {
            continue;
        }
        let node = graph.nodes[n];
        let file = &files[node.file];
        let chain = graph.chain(&parents, n);
        for site in panic_sites_in(file, node.f) {
            raw.push(Finding {
                rule: "R1",
                file: file.path.clone(),
                line: site.line,
                message: format!(
                    "{} is reachable from serving entry `{}`",
                    site.kind.describe(),
                    chain.first().cloned().unwrap_or_default()
                ),
                chain: chain.clone(),
            });
        }
    }
    Ok(filter_allows_by_file(raw, files))
}

/// Resolves `entries` (display quals) to graph nodes; `Err` names the
/// first one that resolves to no workspace fn.
fn resolve_entries(
    graph: &CallGraph<'_>,
    entries: &[&str],
    rule: &str,
) -> Result<Vec<usize>, String> {
    entries
        .iter()
        .map(|&entry| {
            graph.find(entry).ok_or_else(|| {
                format!(
                    "{rule} entry point `{entry}` resolves to no workspace fn — \
                     update SERVING_ENTRIES in crates/lint/src/reach.rs if it moved"
                )
            })
        })
        .collect()
}

/// U1: the free and inherent `pub fn`s of the library crates
/// (`crates/{graph,congest,shortcut,core,apps}/src`) that no reached fn
/// in another file calls, each finding saying what to do. `entries` are
/// the serving entries (display quals; `Err` if one resolves to no fn);
/// the other roots come from the corpus.
pub fn unreached_pub_fns(files: &[ParsedFile], entries: &[&str]) -> Result<Vec<Finding>, String> {
    let graph = CallGraph::build(files);
    let entries = resolve_entries(&graph, entries, "U1")?;
    let mut roots = entries.clone();
    roots.extend((0..graph.nodes.len()).filter(|&n| {
        let (file, f) = graph.item(n);
        file.class.is_test
            || (file.path == "crates/harness/src/main.rs" && f.name == "main")
            || allow_directive(&file.lines, f.line, "U1") == Some(true)
    }));
    let parents = graph.reach(&roots);
    // Per fn: [a reached caller in its own file, one in another file].
    let mut callers = vec![[false; 2]; graph.nodes.len()];
    for (u, out) in graph.edges.iter().enumerate() {
        for &v in out.iter().filter(|_| parents[u].is_some()) {
            callers[v][usize::from(graph.nodes[u].file != graph.nodes[v].file)] = true;
        }
    }
    let mut raw = Vec::new();
    for (n, &[same, cross]) in callers.iter().enumerate() {
        let (file, f) = graph.item(n);
        let in_scope = file.class.library && !file.path.starts_with("crates/harness/");
        if cross || !in_scope || f.is_test || !f.is_pub || entries.contains(&n) {
            continue;
        }
        let verdict = if same {
            "only same-file callers: make it private"
        } else {
            "no caller: delete it"
        };
        raw.push(Finding {
            rule: "U1",
            file: file.path.clone(),
            line: f.line,
            message: format!(
                "`pub fn {}` is called from no root or reached fn in another file — {verdict}",
                f.qual()
            ),
            chain: Vec::new(),
        });
    }
    Ok(filter_allows_by_file(raw, files))
}

/// Q1: cross-file variant parity for the dispatch enum. `Err` if the
/// enum or any handler fn is missing from the corpus.
pub fn dispatch_parity(
    files: &[ParsedFile],
    enum_name: &str,
    handlers: &[&str],
) -> Result<Vec<Finding>, String> {
    // The enum, by stable order if it somehow appears twice.
    let mut owners: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (ei, e) in file.enums.iter().enumerate() {
            if !e.is_test && e.name == enum_name {
                owners.push((fi, ei));
            }
        }
    }
    owners.sort_by_key(|&(fi, ei)| (files[fi].path.as_str(), files[fi].enums[ei].line));
    let Some(&(fi, ei)) = owners.first() else {
        return Err(format!(
            "Q1: enum `{enum_name}` not found in any scanned file — \
             update the dispatch-parity wiring in crates/lint/src/reach.rs if it moved"
        ));
    };
    let file = &files[fi];
    let item = &file.enums[ei];

    let mut raw = Vec::new();
    for &handler in handlers {
        let Some(hidx) = file
            .fns
            .iter()
            .position(|f| !f.is_test && f.name == handler)
        else {
            return Err(format!(
                "Q1: handler fn `{handler}` not found in {} — \
                 every dispatch surface must live beside enum `{enum_name}`",
                file.path
            ));
        };
        let handled = variants_named_in(file, hidx, enum_name);
        for (variant, line) in &item.variants {
            if !handled.iter().any(|h| h == variant) {
                raw.push(Finding {
                    rule: "Q1",
                    file: file.path.clone(),
                    line: *line,
                    message: format!(
                        "`{enum_name}::{variant}` is not handled by name in `{handler}` — \
                         wire every variant through run_query, weight, and affinity \
                         (wildcard arms do not count)"
                    ),
                    chain: vec![
                        format!("{}::{handler}", enum_name),
                        format!("{enum_name}::{variant}"),
                    ],
                });
            }
        }
    }
    Ok(filter_allows_by_file(raw, files))
}

/// Variant names mentioned as `Enum :: Variant` inside fn `hidx`'s body.
fn variants_named_in(file: &ParsedFile, hidx: usize, enum_name: &str) -> Vec<String> {
    let f = &file.fns[hidx];
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in f.body.0..f.body.1.min(toks.len()) {
        if file.owner[i] != hidx {
            continue;
        }
        if toks[i].is_ident(enum_name)
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(v) = toks.get(i + 3) {
                if v.kind == crate::tokenizer::TokKind::Ident {
                    out.push(v.text.clone());
                }
            }
        }
    }
    out
}

/// Applies allow directives per owning file, then sorts for stable
/// output regardless of input order.
fn filter_allows_by_file(raw: Vec<Finding>, files: &[ParsedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in raw {
        let lines: Vec<&str> = files
            .iter()
            .find(|pf| pf.path == f.file)
            .map(|pf| pf.lines.iter().map(|l| l.as_str()).collect())
            .unwrap_or_default();
        out.extend(apply_allows(vec![f], &lines));
    }
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_source;

    #[test]
    fn r1_reports_the_full_chain_to_a_reachable_panic() {
        let files = vec![
            parse_source(
                "crates/apps/src/service.rs",
                r#"
                pub struct PaCluster;
                impl PaCluster {
                    pub fn serve(&self) { run_worker(); }
                    pub fn serve_sequential(&self) {}
                    pub fn serve_replay(&self) {}
                }
                fn run_worker() { crate::depths::measure(7); }
                pub fn run_query() {}
            "#,
            ),
            parse_source(
                "crates/apps/src/depths.rs",
                "pub fn measure(x: u64) -> u64 { assert!(x > 0); x }",
            ),
        ];
        let findings = panic_reachability(&files, &["PaCluster::serve"]).unwrap();
        assert_eq!(findings.len(), 1, "{findings:#?}");
        let f = &findings[0];
        assert_eq!(f.rule, "R1");
        assert_eq!(f.file, "crates/apps/src/depths.rs");
        assert_eq!(
            f.chain,
            vec!["PaCluster::serve", "service::run_worker", "depths::measure"]
        );
    }

    #[test]
    fn r1_ignores_unreachable_panics_and_missing_entries_error() {
        let files = vec![parse_source(
            "crates/apps/src/service.rs",
            r#"
            pub struct PaCluster;
            impl PaCluster { pub fn serve(&self) {} }
            pub fn orphan() { panic!("never on the serve path") }
        "#,
        )];
        let findings = panic_reachability(&files, &["PaCluster::serve"]).unwrap();
        assert!(findings.is_empty(), "{findings:#?}");
        let err = panic_reachability(&files, &["PaCluster::serve_replay"]).unwrap_err();
        assert!(err.contains("serve_replay"), "{err}");
    }

    #[test]
    fn r1_allow_with_reason_suppresses_the_site() {
        let files = vec![parse_source(
            "crates/apps/src/service.rs",
            r#"
            pub struct PaCluster;
            impl PaCluster {
                pub fn serve(&self) {
                    // rmo-lint: allow(R1) — invariant: queue is non-empty here.
                    let _ = [1u64][0];
                }
            }
        "#,
        )];
        let findings = panic_reachability(&files, &["PaCluster::serve"]).unwrap();
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn q1_flags_a_variant_missing_from_one_handler() {
        let files = vec![parse_source(
            "crates/apps/src/dispatch.rs",
            r#"
            pub enum Query { Alpha, Beta }
            pub fn run_query(q: &Query) {
                match q { Query::Alpha => {}, Query::Beta => {} }
            }
            impl Query {
                pub fn weight(&self) -> u64 {
                    match self { Query::Alpha => 1, _ => 2 }
                }
                pub fn affinity(&self) -> u64 {
                    match self { Query::Alpha => 0, Query::Beta => 1 }
                }
            }
        "#,
        )];
        let findings = dispatch_parity(&files, "Query", DISPATCH_HANDLERS).unwrap();
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, "Q1");
        assert!(findings[0].message.contains("Query::Beta"));
        assert!(findings[0].message.contains("weight"));
    }

    #[test]
    fn q1_is_quiet_at_full_parity_and_errors_on_missing_handler() {
        let full = vec![parse_source(
            "crates/apps/src/dispatch.rs",
            r#"
            pub enum Query { Alpha }
            pub fn run_query(q: &Query) { match q { Query::Alpha => {} } }
            impl Query {
                pub fn weight(&self) -> u64 { match self { Query::Alpha => 1 } }
                pub fn affinity(&self) -> u64 { match self { Query::Alpha => 0 } }
            }
        "#,
        )];
        assert!(dispatch_parity(&full, "Query", DISPATCH_HANDLERS)
            .unwrap()
            .is_empty());
        let missing = vec![parse_source(
            "crates/apps/src/dispatch.rs",
            "pub enum Query { Alpha }\npub fn run_query(q: &Query) { match q { Query::Alpha => {} } }",
        )];
        let err = dispatch_parity(&missing, "Query", DISPATCH_HANDLERS).unwrap_err();
        assert!(err.contains("weight"), "{err}");
    }
}
