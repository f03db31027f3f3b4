//! Pass 2: the one workspace call graph over the items recovered by
//! [`crate::items`], plus deterministic reachability with parent chains
//! for the diagnostics in [`crate::reach`]. R1 and U1 both walk it.
//!
//! Resolution is by name and path, not type inference. One rule per
//! call form:
//!
//! * `.name(…)` method syntax resolves to **every** workspace method
//!   named `name` (any `impl` block). Std/vendored methods resolve to
//!   nothing — no workspace item carries the name.
//! * `Self::name(…)` resolves within the caller's own `impl` type.
//! * `…::q::name(…)` resolves to the methods of an `impl q` block, and
//!   to the free fns named `name` whose file path names `q`: the crate
//!   (`rmo_graph`), its facade alias (`graph`, as in `rmo::graph::…`), a
//!   directory module (`gen`), the file stem (`bfs`) or an inline `mod`.
//!   A qualifier that names nothing in the workspace (`Vec::new`,
//!   `OnceLock::new`, a generic `T::name`) resolves to nothing, so a
//!   static call through a type parameter is not followed.
//! * Bare `name(…)`, and `crate::`/`self::`/`super::name(…)`, resolve to
//!   every free fn named `name`.
//! * A path named as a value (`.map(Type::name)`) is an edge, resolved
//!   like the call it stands for.
//!
//! Method calls over-approximate, which only ever *adds* chains. The
//! other blind spot is a renaming import: `use rmo_graph::bfs as walk;`
//! then `walk::f()` resolves to nothing, since `use` trees are not read.
//! The workspace has no `use … as` alias of a module or fn (only the
//! facade's `pub use rmo_graph as graph`, whose alias the path rule
//! already knows).
//!
//! The node set is fixed: every non-`#[cfg(test)]` fn of a file that can
//! link the library crates, plus every fn of a test-class file (tests,
//! examples, perfbench). Library code never calls into a test-class
//! file — those crates link the library, not the reverse — so no edge
//! enters one from outside, and R1's walk from a serving entry never
//! reaches a test node. U1 takes the test-class nodes as roots.
//!
//! Everything is keyed and iterated by `(path, line, name)` — never by
//! input order — so findings are byte-identical under a shuffled file
//! walk (pinned by `tests/analysis.rs`).

use crate::items::{calls_in, CallSite, FnItem, ParsedFile};

/// One graph node: a `fn` item of the fixed node set, addressed by file
/// and fn index.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    pub file: usize,
    pub f: usize,
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    files: &'a [ParsedFile],
    /// Per file, the [`path_names`] a qualified call can reach it by.
    names: Vec<Vec<String>>,
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[u]` are callee node ids, stable-sorted, deduped.
    pub edges: Vec<Vec<usize>>,
}

/// Whether a file can link the library crates at all. The lint tool is
/// its own binary — `rmo-lint` is never a dependency of the library —
/// and its generic method names (`build`, `find`, `chain`) would
/// otherwise collide into the graph as phantom callees.
fn links_library(file: &ParsedFile) -> bool {
    !file.path.starts_with("crates/lint/")
}

/// The names a qualified call can use for the module a file defines:
/// for `crates/graph/src/gen/grid.rs` that is `rmo_graph`, `graph`,
/// `gen` and `grid`. A library crate contributes its crate name and its
/// facade alias (the root `src/` is the facade, `rmo`); every directory
/// below that and the file stem (not `lib`, `main` or `mod`) add one
/// name each.
fn path_names(path: &str) -> Vec<String> {
    let segments: Vec<&str> = path
        .strip_suffix(".rs")
        .unwrap_or(path)
        .split('/')
        .collect();
    let (mut names, rest) = match segments.as_slice() {
        ["crates", krate, "src", rest @ ..] => {
            (vec![format!("rmo_{krate}"), krate.to_string()], rest)
        }
        ["crates", _, rest @ ..] => (Vec::new(), rest),
        ["src", rest @ ..] => (vec!["rmo".to_string()], rest),
        rest => (Vec::new(), rest),
    };
    names.extend(
        rest.iter()
            .filter(|s| !matches!(**s, "src" | "lib" | "main" | "mod"))
            .map(|s| s.to_string()),
    );
    names
}

impl<'a> CallGraph<'a> {
    /// The order-independent identity of a node: where its `fn` lives.
    fn key(&self, n: usize) -> (&'a str, usize, &'a str) {
        let (file, f) = self.item(n);
        (file.path.as_str(), f.line, f.name.as_str())
    }

    /// The file and `fn` item behind node `n`.
    pub(crate) fn item(&self, n: usize) -> (&'a ParsedFile, &'a FnItem) {
        let node = self.nodes[n];
        let file = &self.files[node.file];
        (file, &file.fns[node.f])
    }

    /// Display name for chain diagnostics (`Type::fn` / `module::fn`).
    pub fn qual(&self, n: usize) -> String {
        self.item(n).1.qual()
    }

    /// Resolves a display qual back to a non-test node (used for entry
    /// points). Ties break on the stable key.
    pub fn find(&self, qual: &str) -> Option<usize> {
        (0..self.nodes.len())
            .filter(|&n| !self.item(n).0.class.is_test && self.qual(n) == qual)
            .min_by_key(|&n| self.key(n))
    }

    /// Whether `call`, made from node `u`, resolves to node `v` (whose
    /// fn already carries the called name).
    fn resolves(&self, u: usize, call: &CallSite, v: usize) -> bool {
        let (caller_file, caller) = self.item(u);
        let (callee_file, callee) = self.item(v);
        if callee_file.class.is_test && !caller_file.class.is_test {
            return false;
        }
        if call.method {
            return callee.impl_type.is_some();
        }
        match call.qualifier.as_deref() {
            None | Some("crate" | "self" | "super") => callee.impl_type.is_none(),
            Some("Self") => caller.impl_type.is_some() && callee.impl_type == caller.impl_type,
            Some(q) if callee.impl_type.is_some() => callee.impl_type.as_deref() == Some(q),
            Some(q) => {
                self.names[self.nodes[v].file].iter().any(|n| n == q)
                    || callee.modules.iter().any(|m| m == q)
            }
        }
    }

    /// Builds the graph over the fixed node set, with the rules above.
    /// Files may arrive in any order; the result is the same graph
    /// regardless.
    pub fn build(files: &'a [ParsedFile]) -> Self {
        let mut graph = CallGraph {
            files,
            names: files.iter().map(|f| path_names(&f.path)).collect(),
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (xi, f) in file.fns.iter().enumerate() {
                if links_library(file) && (file.class.is_test || !f.is_test) {
                    graph.nodes.push(Node { file: fi, f: xi });
                }
            }
        }
        // Name index into `nodes`, buckets stable-sorted.
        let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> =
            std::collections::BTreeMap::new();
        for n in 0..graph.nodes.len() {
            by_name
                .entry(graph.item(n).1.name.as_str())
                .or_default()
                .push(n);
        }
        for bucket in by_name.values_mut() {
            bucket.sort_by_key(|&n| graph.key(n));
        }
        for u in 0..graph.nodes.len() {
            let node = graph.nodes[u];
            let mut out: Vec<usize> = Vec::new();
            for call in calls_in(&files[node.file], node.f) {
                if let Some(bucket) = by_name.get(call.name.as_str()) {
                    out.extend(bucket.iter().filter(|&&v| graph.resolves(u, &call, v)));
                }
            }
            out.sort_by_key(|&n| graph.key(n));
            out.dedup();
            graph.edges.push(out);
        }
        graph
    }

    /// BFS from `entries`, returning a parent array (`parent[e] == e`
    /// for entries, `None` for unreachable nodes). Shortest chains;
    /// same-depth ties break on the stable key, so chains do not depend
    /// on input order.
    pub fn reach(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut frontier: Vec<usize> = entries.to_vec();
        frontier.sort_by_key(|&n| self.key(n));
        frontier.dedup();
        for &e in &frontier {
            parent[e] = Some(e);
        }
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in &self.edges[u] {
                    if parent[v].is_none() {
                        parent[v] = Some(u);
                        next.push(v);
                    }
                }
            }
            next.sort_by_key(|&n| self.key(n));
            next.dedup();
            frontier = next;
        }
        parent
    }

    /// The entry-to-`n` call chain as display quals.
    pub fn chain(&self, parents: &[Option<usize>], n: usize) -> Vec<String> {
        let mut out = vec![self.qual(n)];
        let mut cur = n;
        while let Some(p) = parents[cur] {
            if p == cur {
                break;
            }
            out.push(self.qual(p));
            cur = p;
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::rules::test_region_mask;
    use crate::tokenizer::tokenize;

    fn parse(path: &str, src: &str) -> ParsedFile {
        let tokens = tokenize(src);
        let mask = test_region_mask(&tokens);
        parse_items(
            path,
            crate::classify(path),
            tokens,
            mask,
            src.lines().map(|l| l.to_string()).collect(),
        )
    }

    #[test]
    fn resolves_methods_self_paths_and_free_fns() {
        let a = parse(
            "crates/apps/src/service.rs",
            r#"
            pub struct Cluster;
            impl Cluster {
                pub fn serve(&self) { self.tick(); Self::rebuild(); run_query(); }
                fn tick(&self) { helper::deep(); }
                fn rebuild() {}
            }
        "#,
        );
        let b = parse(
            "crates/apps/src/helper.rs",
            r#"
            pub fn deep() {}
            pub fn run_query() {}
        "#,
        );
        let files = vec![a, b];
        let g = CallGraph::build(&files);
        let serve = g.find("Cluster::serve").unwrap();
        let callees: Vec<String> = g.edges[serve].iter().map(|&v| g.qual(v)).collect();
        assert_eq!(
            callees,
            vec!["helper::run_query", "Cluster::tick", "Cluster::rebuild"],
            "free fn by name, Self:: by impl type, method by name"
        );
        let tick = g.find("Cluster::tick").unwrap();
        let callees: Vec<String> = g.edges[tick].iter().map(|&v| g.qual(v)).collect();
        assert_eq!(callees, vec!["helper::deep"], "module-qualified free fn");
    }

    #[test]
    fn reach_and_chain_are_input_order_independent() {
        let srcs = [
            (
                "crates/apps/src/a.rs",
                "pub fn entry() { mid(); }\npub fn mid() { sink(); }",
            ),
            ("crates/apps/src/b.rs", "pub fn sink() { other(); }"),
            ("crates/apps/src/c.rs", "pub fn other() {}"),
        ];
        let forward: Vec<ParsedFile> = srcs.iter().map(|(p, s)| parse(p, s)).collect();
        let backward: Vec<ParsedFile> = srcs.iter().rev().map(|(p, s)| parse(p, s)).collect();
        let chains = |files: &[ParsedFile]| -> Vec<Vec<String>> {
            let g = CallGraph::build(files);
            let entry = g.find("a::entry").unwrap();
            let parents = g.reach(&[entry]);
            let mut out: Vec<Vec<String>> = (0..g.nodes.len())
                .filter(|&n| parents[n].is_some())
                .map(|n| g.chain(&parents, n))
                .collect();
            out.sort();
            out
        };
        assert_eq!(chains(&forward), chains(&backward));
        let got = chains(&forward);
        assert!(got.contains(&vec![
            "a::entry".to_string(),
            "a::mid".into(),
            "b::sink".into(),
            "c::other".into()
        ]));
    }

    #[test]
    fn test_fns_are_not_graph_nodes() {
        let file = parse(
            "crates/apps/src/x.rs",
            r#"
            pub fn real() {}
            #[cfg(test)]
            mod tests {
                fn fake() { super::real(); }
            }
        "#,
        );
        let files = vec![file];
        let g = CallGraph::build(&files);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.qual(0), "x::real");
    }
}
