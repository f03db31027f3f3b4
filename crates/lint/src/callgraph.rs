//! Pass 2: a name-resolved-enough workspace call graph over the items
//! recovered by [`crate::items`], plus deterministic reachability with
//! parent chains for the diagnostics in [`crate::reach`].
//!
//! Resolution is conservative over-approximation, not type inference:
//!
//! * `.name(…)` method syntax resolves to **every** workspace method
//!   named `name` (any `impl` block). Std/vendored methods resolve to
//!   nothing — no workspace item carries the name.
//! * `Self::name(…)` resolves within the caller's own `impl` type.
//! * `Type::name(…)` resolves to methods of `Type`; if `Type` names no
//!   impl block, it is treated as a module path and resolves to free
//!   fns in a module of that name (`dispatch::run_query`).
//! * Bare `name(…)` resolves to every free fn named `name`.
//!
//! Over-approximation only ever *adds* chains, so R1 stays sound-ish
//! for its purpose: a clean report really means no workspace call path
//! from a serving entry point reaches a panic source this analysis can
//! see. Each rule chooses which fns enter the graph: R1 leaves test fns
//! out, U1 keeps the test, example and benchmark files as roots.
//!
//! Everything is keyed and iterated by `(path, line, name)` — never by
//! input order — so findings are byte-identical under a shuffled file
//! walk (pinned by `tests/analysis.rs`).

use crate::items::{calls_in, FnItem, ParsedFile};

/// One graph node: a `fn` item the build filter accepted, addressed by
/// file and fn index.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    pub file: usize,
    pub f: usize,
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    files: &'a [ParsedFile],
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[u]` are callee node ids, stable-sorted, deduped.
    pub edges: Vec<Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// The order-independent identity of a node: where its `fn` lives.
    fn key(&self, n: usize) -> (&'a str, usize, &'a str) {
        let node = self.nodes[n];
        let f = &self.files[node.file].fns[node.f];
        (self.files[node.file].path.as_str(), f.line, f.name.as_str())
    }

    /// Display name for chain diagnostics (`Type::fn` / `module::fn`).
    pub fn qual(&self, n: usize) -> String {
        let node = self.nodes[n];
        self.files[node.file].fns[node.f].qual()
    }

    /// Resolves a display qual back to a node (used for entry points).
    /// Ties break on the stable key.
    pub fn find(&self, qual: &str) -> Option<usize> {
        (0..self.nodes.len())
            .filter(|&n| self.qual(n) == qual)
            .min_by_key(|&n| self.key(n))
    }

    /// Builds the graph over every non-test fn, with the strict rules
    /// above. Files may arrive in any order; the result is the same
    /// graph regardless.
    pub fn build(files: &'a [ParsedFile]) -> Self {
        Self::build_filtered(files, |_, f| !f.is_test, false)
    }

    /// Builds the graph over the fns `include` accepts — excluded fns
    /// contribute no nodes (and therefore no call targets), but their
    /// files stay addressable for diagnostics.
    ///
    /// `lenient` widens resolution for a rule that must not miss a
    /// caller: a path named as a value (`.map(Type::name)`) is an edge,
    /// and a call no strict rule resolves (a re-exported `gen::path`, a
    /// turbofish `Type::<T>::new`, a generic `T::name`) resolves to every
    /// fn of its name.
    pub fn build_filtered(
        files: &'a [ParsedFile],
        include: impl Fn(&ParsedFile, &FnItem) -> bool,
        lenient: bool,
    ) -> Self {
        let mut graph = CallGraph {
            files,
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (xi, f) in file.fns.iter().enumerate() {
                if include(file, f) {
                    graph.nodes.push(Node { file: fi, f: xi });
                }
            }
        }
        // Name index into `nodes`, buckets stable-sorted.
        let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> =
            std::collections::BTreeMap::new();
        for n in 0..graph.nodes.len() {
            let node = graph.nodes[n];
            by_name
                .entry(files[node.file].fns[node.f].name.as_str())
                .or_default()
                .push(n);
        }
        for bucket in by_name.values_mut() {
            bucket.sort_by_key(|&n| graph.key(n));
        }
        for u in 0..graph.nodes.len() {
            let node = graph.nodes[u];
            let caller = &files[node.file].fns[node.f];
            let mut out: Vec<usize> = Vec::new();
            for call in calls_in(&files[node.file], node.f) {
                if call.by_value && !lenient {
                    continue;
                }
                let Some(bucket) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                let resolved = out.len();
                for &v in bucket {
                    let cand = graph.nodes[v];
                    let callee = &files[cand.file].fns[cand.f];
                    let hit = if call.method {
                        callee.impl_type.is_some()
                    } else {
                        match call.qualifier.as_deref() {
                            Some("Self") => {
                                caller.impl_type.is_some() && callee.impl_type == caller.impl_type
                            }
                            Some(q) => {
                                callee.impl_type.as_deref() == Some(q)
                                    || (callee.impl_type.is_none()
                                        && callee.modules.last().map(|m| m.as_str()) == Some(q))
                            }
                            None => callee.impl_type.is_none(),
                        }
                    };
                    if hit {
                        out.push(v);
                    }
                }
                if lenient && out.len() == resolved {
                    out.extend(bucket);
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
