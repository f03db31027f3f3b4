//! Pass 1 of the interprocedural layer: recover `mod`/`impl`/`fn`/`enum`
//! structure from one file's token stream, and extract per-function
//! facts (outgoing calls, panic-capable sites) for the call-graph and
//! reachability passes in [`crate::callgraph`] and [`crate::reach`].
//!
//! This is deliberately *not* a Rust parser. It tracks brace depth,
//! keeps a scope stack of `mod` names and `impl` target types, and
//! records every `fn` body's token range plus which function owns each
//! token (innermost wins, so closures belong to their enclosing `fn`
//! and nested `fn`s own their own bodies). That is "name-resolved
//! enough" for a conservative serving-path analysis over a workspace
//! whose style the other lint rules already constrain.

use crate::rules::FileClass;
use crate::tokenizer::{TokKind, Token};

/// One `fn` item: where it lives, what `impl` block (if any) owns it,
/// and the token range of its body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare function name (`serve`).
    pub name: String,
    /// The `impl` target's last path segment, for methods
    /// (`Some("PaCluster")`), `None` for free functions.
    pub impl_type: Option<String>,
    /// Enclosing inline-`mod` chain plus the file's module stem, e.g.
    /// `["dispatch"]` for a fn at the top of `crates/apps/src/dispatch.rs`.
    pub modules: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body, **exclusive** of the outer braces.
    pub body: (usize, usize),
    /// Whether the fn sits in a `#[cfg(test)]`/`#[test]` region (or a
    /// test-class file) — excluded from the serving call graph.
    pub is_test: bool,
    /// Whether the fn is declared plain `pub` (`pub(crate)` and other
    /// restricted visibilities are not; trait impl fns never are).
    pub is_pub: bool,
}

impl FnItem {
    /// The display name used in chain diagnostics: `Type::name` for
    /// methods, `module::name` for free fns (bare `name` at crate root).
    pub fn qual(&self) -> String {
        match (&self.impl_type, self.modules.last()) {
            (Some(ty), _) => format!("{ty}::{}", self.name),
            (None, Some(m)) => format!("{m}::{}", self.name),
            (None, None) => self.name.clone(),
        }
    }
}

/// One `enum` item with its variant names (for the Q1 parity rule).
#[derive(Debug, Clone)]
pub struct EnumItem {
    pub name: String,
    pub line: usize,
    /// `(variant name, 1-based line)`, in declaration order.
    pub variants: Vec<(String, usize)>,
    pub is_test: bool,
}

/// One parsed source file: tokens plus recovered structure. The unit
/// the workspace analysis consumes.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    pub class: FileClass,
    pub tokens: Vec<Token>,
    /// Per-token `#[cfg(test)]`/`#[test]` mask (see [`crate::rules`]).
    pub in_test: Vec<bool>,
    /// Raw source lines, for allow-directive lookup.
    pub lines: Vec<String>,
    pub fns: Vec<FnItem>,
    pub enums: Vec<EnumItem>,
    /// For each token, the index into `fns` of the innermost fn whose
    /// body contains it (`usize::MAX` = item/top level).
    pub owner: Vec<usize>,
}

/// A call expression found inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (`solve`, `run_query`).
    pub name: String,
    /// For `Path::name(...)` calls, the last path segment before the
    /// name (`Some("PaCluster")`, `Some("Self")`); `None` for bare
    /// calls and method calls.
    pub qualifier: Option<String>,
    /// `true` for `.name(...)` method syntax.
    pub method: bool,
    /// `true` for a path named as a value rather than called
    /// (`.map(Type::name)`); only U1 follows these.
    pub by_value: bool,
    pub line: usize,
}

/// How a token position can panic at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `assert!` / … invocation.
    Macro(String),
    /// Slice/array indexing `expr[…]`.
    Index,
    /// Integer `/` or `%` whose right operand is not a literal.
    DivMod(char),
    /// `.unwrap()` / `.expect()`.
    UnwrapExpect(String),
}

impl PanicKind {
    /// Short human label used in diagnostics.
    pub fn describe(&self) -> String {
        match self {
            PanicKind::Macro(m) => format!("`{m}!`"),
            PanicKind::Index => "slice/array indexing `[…]`".to_string(),
            PanicKind::DivMod(op) => format!("non-literal integer `{op}`"),
            PanicKind::UnwrapExpect(m) => format!("`.{m}()`"),
        }
    }
}

/// One panic-capable site inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub line: usize,
}

/// Macros whose expansion aborts the thread. `debug_assert*` is
/// excluded: it compiles out of the release serving binary.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
    "todo",
    "unimplemented",
];

/// Keywords that look like call syntax (`ident (`) but are not calls.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "let", "else", "fn",
    "impl", "mod", "use", "pub", "where", "unsafe", "dyn", "ref", "mut", "box", "await", "break",
    "continue", "struct", "enum", "trait", "const", "static", "type",
];

/// The module stem a file path contributes: `dispatch` for
/// `crates/apps/src/dispatch.rs`, the parent directory for `mod.rs`,
/// nothing for `lib.rs`/`main.rs` crate roots.
fn file_module_stem(path: &str) -> Option<String> {
    let file = path.rsplit('/').next()?;
    let stem = file.strip_suffix(".rs")?;
    match stem {
        "lib" | "main" => None,
        "mod" => {
            let mut parts = path.rsplit('/');
            parts.next();
            parts.next().map(|d| d.to_string())
        }
        other => Some(other.to_string()),
    }
}

/// What an un-opened scope will become once its `{` arrives.
#[derive(Debug, Clone)]
enum Pending {
    Mod(String),
    Impl(String),
    Fn {
        name: String,
        line: usize,
        is_pub: bool,
    },
    Enum {
        name: String,
        line: usize,
    },
}

/// One open brace on the scope stack.
#[derive(Debug, Clone)]
enum Scope {
    Mod,
    Impl,
    /// Index into the output `fns` vec.
    Fn(usize),
    /// Index into the output `enums` vec.
    Enum(usize),
    Other,
}

/// Parses one file's token stream into items. `class`/`in_test` follow
/// [`crate::classify`] and [`crate::rules`]; the caller tokenizes.
pub fn parse_items(
    path: &str,
    class: FileClass,
    tokens: Vec<Token>,
    in_test: Vec<bool>,
    lines: Vec<String>,
) -> ParsedFile {
    let mut fns: Vec<FnItem> = Vec::new();
    let mut enums: Vec<EnumItem> = Vec::new();
    let mut owner = vec![usize::MAX; tokens.len()];
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut mod_stack: Vec<String> = Vec::new();
    if let Some(stem) = file_module_stem(path) {
        mod_stack.push(stem);
    }
    let mut impl_stack: Vec<String> = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if let Some(f) = fn_stack.last() {
            owner[i] = *f;
        }
        match t.kind {
            TokKind::Ident if t.text == "mod" => {
                // `mod name {` opens a scope; `mod name;` is external.
                if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    if tokens.get(i + 2).is_some_and(|b| b.is_punct('{')) {
                        pending = Some(Pending::Mod(name.text.clone()));
                    }
                }
            }
            // `impl Trait` in a fn signature is a type, not a block.
            TokKind::Ident if t.text == "impl" && !matches!(pending, Some(Pending::Fn { .. })) => {
                // Scan to the body `{`, remembering the last type-path
                // ident at angle-depth 0; `for` resets it (trait impls
                // name the target after `for`).
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut target = String::new();
                while let Some(tok) = tokens.get(j) {
                    if tok.is_punct('<') {
                        angle += 1;
                    } else if tok.is_punct('>') {
                        angle -= 1;
                    } else if (tok.is_punct('{') && angle <= 0) || tok.is_punct(';') {
                        break;
                    } else if angle == 0 && tok.kind == TokKind::Ident {
                        if tok.text == "for" {
                            target.clear();
                        } else if tok.text != "where" {
                            target = tok.text.clone();
                        } else {
                            break; // `where` clause: target already seen
                        }
                    }
                    j += 1;
                }
                if !target.is_empty() {
                    pending = Some(Pending::Impl(target));
                }
            }
            TokKind::Ident if t.text == "fn" => {
                // `fn name` — skip `fn()` types (`fn` followed by `(`).
                if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    pending = Some(Pending::Fn {
                        name: name.text.clone(),
                        line: t.line,
                        is_pub: declared_pub(&tokens, i),
                    });
                }
            }
            TokKind::Ident if t.text == "enum" => {
                if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    pending = Some(Pending::Enum {
                        name: name.text.clone(),
                        line: t.line,
                    });
                }
            }
            TokKind::Punct if t.text == ";" => {
                // A `;` before any `{` cancels a pending item (trait fn
                // signature, `impl Trait for Ty;`-style, etc.).
                pending = None;
            }
            TokKind::Punct if t.text == "{" => {
                let scope = match pending.take() {
                    Some(Pending::Mod(name)) => {
                        mod_stack.push(name);
                        Scope::Mod
                    }
                    Some(Pending::Impl(target)) => {
                        impl_stack.push(target);
                        Scope::Impl
                    }
                    Some(Pending::Fn { name, line, is_pub }) => {
                        let idx = fns.len();
                        fns.push(FnItem {
                            name,
                            impl_type: impl_stack.last().cloned(),
                            modules: mod_stack.clone(),
                            line,
                            body: (i + 1, i + 1), // end patched at `}`
                            is_test: class.is_test || in_test.get(i).copied().unwrap_or(false),
                            is_pub,
                        });
                        fn_stack.push(idx);
                        Scope::Fn(idx)
                    }
                    Some(Pending::Enum { name, line }) => {
                        let idx = enums.len();
                        enums.push(EnumItem {
                            name,
                            line,
                            variants: Vec::new(),
                            is_test: class.is_test || in_test.get(i).copied().unwrap_or(false),
                        });
                        Scope::Enum(idx)
                    }
                    None => Scope::Other,
                };
                scopes.push(scope);
            }
            TokKind::Punct if t.text == "}" => match scopes.pop() {
                Some(Scope::Mod) => {
                    mod_stack.pop();
                }
                Some(Scope::Impl) => {
                    impl_stack.pop();
                }
                Some(Scope::Fn(idx)) => {
                    fns[idx].body.1 = i;
                    fn_stack.pop();
                }
                Some(Scope::Enum(idx)) => {
                    collect_variants(&tokens, &mut enums[idx], i);
                }
                Some(Scope::Other) | None => {}
            },
            _ => {}
        }
        // `struct`/`trait`/`union` bodies and expression blocks all land
        // in Scope::Other via the `pending == None` default.
        i += 1;
    }

    ParsedFile {
        path: path.to_string(),
        class,
        tokens,
        in_test,
        lines,
        fns,
        enums,
        owner,
    }
}

/// Whether the `fn` keyword at `fn_idx` is declared plain `pub`: the
/// token before its qualifiers (`const`, `unsafe`, `async`, `extern`;
/// an ABI string is already stripped) is `pub`, not `pub(…)`'s `)`.
fn declared_pub(tokens: &[Token], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while let Some(prev) = j.checked_sub(1).map(|p| &tokens[p]) {
        if !["const", "unsafe", "async", "extern"]
            .iter()
            .any(|&q| prev.is_ident(q))
        {
            return prev.is_ident("pub");
        }
        j -= 1;
    }
    false
}

/// Fills `item.variants` from the enum body that just closed at token
/// `close`. A variant name is an ident at the body's own depth whose
/// predecessor is `{`, `,`, or `]` (the end of a variant attribute).
fn collect_variants(tokens: &[Token], item: &mut EnumItem, close: usize) {
    // Walk back to the matching `{`.
    let mut depth = 0i32;
    let mut open = close;
    loop {
        let t = &tokens[open];
        if t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('{') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if open == 0 {
            return;
        }
        open -= 1;
    }
    let mut level = 0i32;
    for j in open + 1..close {
        let t = &tokens[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            level += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            level -= 1;
        } else if level == 0 && t.kind == TokKind::Ident {
            let prev_ok = j == open + 1
                || tokens[j - 1].is_punct(',')
                || tokens[j - 1].is_punct(']')
                || tokens[j - 1].is_punct('{');
            if prev_ok {
                item.variants.push((t.text.clone(), t.line));
            }
        }
    }
}

/// Extracts the call sites inside `f`'s body (tokens the fn *owns* —
/// nested fns' bodies are excluded; closures are included).
pub fn calls_in(file: &ParsedFile, fn_idx: usize) -> Vec<CallSite> {
    let f = &file.fns[fn_idx];
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in f.body.0..f.body.1.min(toks.len()) {
        if file.owner[i] != fn_idx {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || NOT_CALLS.iter().any(|&k| t.text == k) {
            continue;
        }
        let next = toks.get(i + 1);
        let path = i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].kind == TokKind::Ident;
        // `Qual :: name` followed by `)` or `,` names the fn as a value
        // (`.map(Type::name)`); anything else not followed by `(` is no
        // call.
        let by_value = path && next.is_some_and(|n| n.is_punct(')') || n.is_punct(','));
        if !by_value && !next.is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // `name!(…)` macros are not calls (panic macros are collected
        // separately); `fn name(` is a definition, not a call.
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        if prev.is_some_and(|p| p.is_punct('!') || p.is_ident("fn")) {
            continue;
        }
        if prev.is_some_and(|p| p.is_punct('.')) {
            out.push(CallSite {
                name: t.text.clone(),
                qualifier: None,
                method: true,
                by_value: false,
                line: t.line,
            });
            continue;
        }
        // `Qual :: name` — capture the last path segment.
        let qualifier = path.then(|| toks[i - 3].text.clone());
        out.push(CallSite {
            name: t.text.clone(),
            qualifier,
            method: false,
            by_value,
            line: t.line,
        });
    }
    out
}

/// Extracts the panic-capable sites inside `f`'s body (same ownership
/// rules as [`calls_in`]). Test regions never contribute: a fn marked
/// `is_test` has no sites, and `#[cfg(test)]` tokens inside a non-test
/// fn are skipped via the file's mask.
pub fn panic_sites_in(file: &ParsedFile, fn_idx: usize) -> Vec<PanicSite> {
    let f = &file.fns[fn_idx];
    if f.is_test {
        return Vec::new();
    }
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in f.body.0..f.body.1.min(toks.len()) {
        if file.owner[i] != fn_idx || file.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {
                if PANIC_MACROS.iter().any(|&m| t.text == m)
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    out.push(PanicSite {
                        kind: PanicKind::Macro(t.text.clone()),
                        line: t.line,
                    });
                }
                if (t.text == "unwrap" || t.text == "expect")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    out.push(PanicSite {
                        kind: PanicKind::UnwrapExpect(t.text.clone()),
                        line: t.line,
                    });
                }
            }
            TokKind::Punct if t.text == "[" => {
                // Indexing: `expr[…]` — the `[` directly follows an
                // identifier, `)`, or `]`. Array literals, attributes
                // (`#[…]`, `…![…]`), types and patterns don't.
                let Some(p) = i.checked_sub(1).map(|p| &toks[p]) else {
                    continue;
                };
                let indexing = (p.kind == TokKind::Ident
                    && !NOT_CALLS.iter().any(|&k| p.text == k))
                    || p.is_punct(')')
                    || p.is_punct(']');
                if indexing {
                    out.push(PanicSite {
                        kind: PanicKind::Index,
                        line: t.line,
                    });
                }
            }
            TokKind::Punct if t.text == "/" || t.text == "%" => {
                // Binary `/`/`%` in operator position whose right operand
                // is not a numeric literal (a nonzero literal divisor
                // cannot panic; `x / 0` is a compile error).
                let Some(p) = i.checked_sub(1).map(|p| &toks[p]) else {
                    continue;
                };
                let binary = (p.kind == TokKind::Ident && !NOT_CALLS.iter().any(|&k| p.text == k))
                    || p.kind == TokKind::Number
                    || p.is_punct(')')
                    || p.is_punct(']');
                if !binary {
                    continue;
                }
                // `/=`/`%=` compound assignment: operand is after the `=`.
                let mut rhs = i + 1;
                if toks.get(rhs).is_some_and(|n| n.is_punct('=')) {
                    rhs += 1;
                }
                if toks.get(rhs).is_some_and(|n| n.kind == TokKind::Number) {
                    continue;
                }
                let op = t.text.chars().next().unwrap_or('/');
                out.push(PanicSite {
                    kind: PanicKind::DivMod(op),
                    line: t.line,
                });
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, rules::test_region_mask, tokenizer::tokenize};

    fn parse(path: &str, src: &str) -> ParsedFile {
        let tokens = tokenize(src);
        let mask = test_region_mask(&tokens);
        parse_items(
            path,
            classify(path),
            tokens,
            mask,
            src.lines().map(|l| l.to_string()).collect(),
        )
    }

    const SAMPLE: &str = r#"
        pub struct Widget { count: usize }

        impl Widget {
            pub fn serve(&mut self, xs: &[u64]) -> u64 {
                let first = xs[0];
                helper(first) / self.count as u64
            }
            fn park(self) {}
        }

        impl std::fmt::Display for Widget {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.count)
            }
        }

        pub fn helper(x: u64) -> u64 {
            x.checked_mul(2).unwrap()
        }

        mod inner {
            pub fn deep() { panic!("boom") }
        }

        #[cfg(test)]
        mod tests {
            fn test_only() { helper(1); }
        }
    "#;

    #[test]
    fn recovers_fn_impl_mod_structure() {
        let file = parse("crates/apps/src/widget.rs", SAMPLE);
        let names: Vec<(String, Option<String>, bool)> = file
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone(), f.is_test))
            .collect();
        assert_eq!(
            names,
            vec![
                ("serve".into(), Some("Widget".into()), false),
                ("park".into(), Some("Widget".into()), false),
                ("fmt".into(), Some("Widget".into()), false),
                ("helper".into(), None, false),
                ("deep".into(), None, false),
                ("test_only".into(), None, true),
            ]
        );
        let deep = &file.fns[4];
        assert_eq!(deep.modules, vec!["widget".to_string(), "inner".into()]);
        assert_eq!(deep.qual(), "inner::deep");
        assert_eq!(file.fns[0].qual(), "Widget::serve");
    }

    #[test]
    fn calls_and_panic_sites_attach_to_the_right_fn() {
        let file = parse("crates/apps/src/widget.rs", SAMPLE);
        let serve_calls = calls_in(&file, 0);
        assert!(
            serve_calls.iter().any(|c| c.name == "helper" && !c.method),
            "{serve_calls:?}"
        );
        let serve_sites = panic_sites_in(&file, 0);
        assert!(
            serve_sites.iter().any(|s| s.kind == PanicKind::Index),
            "{serve_sites:?}"
        );
        assert!(
            serve_sites
                .iter()
                .any(|s| matches!(s.kind, PanicKind::DivMod('/'))),
            "{serve_sites:?}"
        );
        // helper's unwrap belongs to helper, not serve.
        assert!(!serve_sites
            .iter()
            .any(|s| matches!(s.kind, PanicKind::UnwrapExpect(_))));
        let helper_sites = panic_sites_in(&file, 3);
        assert_eq!(
            helper_sites
                .iter()
                .filter(|s| s.kind == PanicKind::UnwrapExpect("unwrap".into()))
                .count(),
            1
        );
        let deep_sites = panic_sites_in(&file, 4);
        assert!(deep_sites
            .iter()
            .any(|s| s.kind == PanicKind::Macro("panic".into())));
        // Test fns contribute nothing.
        assert!(panic_sites_in(&file, 5).is_empty());
    }

    #[test]
    fn benign_brackets_and_literal_division_stay_quiet() {
        let src = r#"
            pub fn quiet(xs: &[u64], map: &std::collections::BTreeMap<u64, u64>) -> u64 {
                let v = vec![1, 2, 3];
                let half = xs.len() / 2;
                let arr: [u64; 2] = [0, 1];
                let got = xs.get(half).copied().unwrap_or(0);
                got + v.len() as u64 + arr.len() as u64 + map.len() as u64
            }
        "#;
        let file = parse("crates/apps/src/quiet.rs", src);
        let sites = panic_sites_in(&file, 0);
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn enum_variants_are_collected() {
        let src = r#"
            pub enum Query {
                Pa { assignment: Vec<usize> },
                Mst,
                #[doc = "x"]
                Sssp(usize),
            }
        "#;
        let file = parse("crates/apps/src/dispatch.rs", src);
        assert_eq!(file.enums.len(), 1);
        let vs: Vec<&str> = file.enums[0]
            .variants
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        assert_eq!(vs, vec!["Pa", "Mst", "Sssp"]);
    }

    #[test]
    fn method_and_qualified_calls_are_distinguished() {
        let src = r#"
            pub fn go(c: &mut Cluster) {
                c.solve(1);
                Cluster::rebuild(c);
                Self::tick();
                free(2);
            }
        "#;
        let file = parse("crates/apps/src/x.rs", src);
        let calls = calls_in(&file, 0);
        assert!(calls
            .iter()
            .any(|c| c.method && c.name == "solve" && c.qualifier.is_none()));
        assert!(calls.iter().any(|c| !c.method
            && c.name == "rebuild"
            && c.qualifier.as_deref() == Some("Cluster")));
        assert!(calls
            .iter()
            .any(|c| c.qualifier.as_deref() == Some("Self") && c.name == "tick"));
        assert!(calls
            .iter()
            .any(|c| !c.method && c.name == "free" && c.qualifier.is_none()));
    }
}
