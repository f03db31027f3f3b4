//! The determinism & safety rules, run over one file's token stream.
//!
//! | id   | rule |
//! |------|------|
//! | `D1` | no order-escaping iteration over `HashMap`/`HashSet` in deterministic modules |
//! | `D2` | no `RandomState`/`DefaultHasher` anywhere |
//! | `D3` | no `Instant::now`/`SystemTime`/`thread::current` outside harness timing code |
//! | `C1` | no unchecked narrowing `as` casts in cost-accounting code |
//! | `P1` | `unwrap()`/`expect()` in non-test library code (ratcheted, see [`crate::ratchet`]) |
//! | `L2` | no second `lock()` and no blocking op while a `MutexGuard` binding is live (lock-discipline modules) |
//!
//! The interprocedural families `R1` (panic reachability), `Q1`
//! (dispatch parity) and `U1` (unreached `pub fn`s) live in
//! [`crate::reach`]; they share [`Finding`] and the allow-directive
//! machinery here.
//!
//! Suppression: `// rmo-lint: allow(RULE) — reason` on the finding's
//! line or the line above. The reason is required; an allow without one
//! is itself reported (rule id `E1`).

use crate::tokenizer::{TokKind, Token};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D1`, `D2`, `D3`, `C1`, `P1`, `L2`, `R1`, `Q1`, `U1`, or `E1`
    /// for a reason-less allow directive).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// For interprocedural findings (R1), the entry-to-site call chain
    /// as display quals; empty for token-local rules.
    pub chain: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, " (via {})", self.chain.join(" → "))?;
        }
        Ok(())
    }
}

/// How a file participates in the pass — derived from its path by
/// [`crate::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Test/bench/example code: D1, D3, C1 and the P1 count skip it
    /// entirely (D2 still applies — hidden randomness in a test breaks
    /// replay assertions just as hard).
    pub is_test: bool,
    /// Deterministic module (D1 applies): `congest`, `core`, `shortcut`,
    /// `apps::{dispatch,service}`.
    pub deterministic: bool,
    /// Harness timing code (D3 exempt).
    pub timing_exempt: bool,
    /// Cost-accounting code (C1 applies).
    pub cost_accounting: bool,
    /// Library source (P1 counted against the ratchet).
    pub library: bool,
    /// Scheduler-coordination modules (`service.rs`-class): L2 applies.
    pub lock_discipline: bool,
}

/// Methods whose call on a hash collection escapes its internal order.
const ORDER_ESCAPING: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Integer types an `as` cast can silently truncate into.
const NARROWING: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// Runs every applicable rule on one file. `lines` are the raw source
/// lines (for allow-directive lookup); `path` is workspace-relative.
pub fn lint_tokens(path: &str, class: FileClass, tokens: &[Token], lines: &[&str]) -> Vec<Finding> {
    let in_test = test_region_mask(tokens);
    let mut raw = Vec::new();

    // D2 — banned hashers, everywhere (test code included).
    for t in tokens {
        if t.is_ident("RandomState") || t.is_ident("DefaultHasher") {
            raw.push(Finding {
                rule: "D2",
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` introduces process-local hash randomness; fingerprints are FNV by contract",
                    t.text
                ),
                chain: Vec::new(),
            });
        }
    }

    // D3 — wall-clock / thread-identity reads.
    if !class.timing_exempt && !class.is_test {
        for (i, t) in tokens.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            if t.is_ident("Instant")
                && matches(tokens, i + 1, &[":", ":"])
                && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
            {
                raw.push(finding("D3", path, t.line,
                    "`Instant::now()` reads the wall clock; responses and placement must not depend on time"));
            }
            if t.is_ident("SystemTime") {
                raw.push(finding("D3", path, t.line,
                    "`SystemTime` reads the wall clock; responses and placement must not depend on time"));
            }
            if t.is_ident("thread")
                && matches(tokens, i + 1, &[":", ":"])
                && tokens.get(i + 3).is_some_and(|t| t.is_ident("current"))
            {
                raw.push(finding("D3", path, t.line,
                    "`thread::current()` exposes scheduler-dependent identity; use the shard index instead"));
            }
        }
    }

    // D1 — order-escaping hash iteration in deterministic modules.
    if class.deterministic && !class.is_test {
        let hash_idents = collect_hash_idents(tokens, &in_test);
        for (i, t) in tokens.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            // `name.iter()` and friends on a known hash-typed binding.
            if t.kind == TokKind::Ident
                && hash_idents.iter().any(|h| h == &t.text)
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
            {
                if let Some(m) = tokens.get(i + 2) {
                    if ORDER_ESCAPING.iter().any(|&me| m.is_ident(me))
                        && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
                    {
                        raw.push(Finding {
                            rule: "D1",
                            file: path.to_string(),
                            line: m.line,
                            message: format!(
                                "`{}.{}()` iterates a hash collection in arbitrary order; use BTreeMap/BTreeSet or sort first",
                                t.text, m.text
                            ),
                            chain: Vec::new(),
                        });
                    }
                }
            }
            // `for … in <expr containing a hash binding> {`.
            if t.is_ident("for") {
                let mut j = i + 1;
                let mut depth = 0i32;
                let mut seen_in = false;
                while let Some(tok) = tokens.get(j) {
                    if tok.is_punct('(') || tok.is_punct('[') {
                        depth += 1;
                    } else if tok.is_punct(')') || tok.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && tok.is_punct('{') {
                        break;
                    } else if depth == 0 && tok.is_ident("in") {
                        seen_in = true;
                    } else if seen_in
                        && tok.kind == TokKind::Ident
                        && hash_idents.iter().any(|h| h == &tok.text)
                    {
                        raw.push(Finding {
                            rule: "D1",
                            file: path.to_string(),
                            line: tok.line,
                            message: format!(
                                "`for … in` over hash collection `{}` iterates in arbitrary order; use BTreeMap/BTreeSet or sort first",
                                tok.text
                            ),
                            chain: Vec::new(),
                        });
                        break;
                    }
                    j += 1;
                }
            }
        }
    }

    // C1 — narrowing `as` casts in cost-accounting code.
    if class.cost_accounting && !class.is_test {
        for (i, t) in tokens.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            if t.is_ident("as") {
                if let Some(ty) = tokens.get(i + 1) {
                    if NARROWING.iter().any(|&nt| ty.is_ident(nt)) {
                        raw.push(Finding {
                            rule: "C1",
                            file: path.to_string(),
                            line: t.line,
                            message: format!(
                                "`as {}` can silently truncate a cost counter; use `try_from` or widen the accumulator",
                                ty.text
                            ),
                            chain: Vec::new(),
                        });
                    }
                }
            }
        }
    }

    // P1 — unwrap/expect in non-test library code.
    if class.library && !class.is_test {
        for (i, t) in tokens.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            if t.is_punct('.') {
                if let (Some(m), Some(paren)) = (tokens.get(i + 1), tokens.get(i + 2)) {
                    if (m.is_ident("unwrap") || m.is_ident("expect")) && paren.is_punct('(') {
                        raw.push(Finding {
                            rule: "P1",
                            file: path.to_string(),
                            line: m.line,
                            message: format!(
                                "`.{}()` in library code can kill a shard; return a Result or degrade the response",
                                m.text
                            ),
                            chain: Vec::new(),
                        });
                    }
                }
            }
        }
    }

    // L2 — lock discipline in scheduler-coordination modules.
    if class.lock_discipline && !class.is_test {
        l2_lock_discipline(path, tokens, &in_test, &mut raw);
    }

    apply_allows(raw, lines)
}

/// Ops that block (or can block) the calling thread: channel traffic,
/// engine solves, dispatch, and thread joins. None of these may run
/// while the scheduler guard is held — a stalled shard would wedge every
/// other worker behind the mutex.
const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "solve",
    "solve_into",
    "solve_on",
    "pipeline_for",
    "run_query",
    "join",
    // Replica scheduling: cloning a warmed engine (stage-1 tree +
    // artifact cache) and merging counters back are batch-path work —
    // never under the scheduler guard.
    "fork",
    "absorb",
];

/// Methods that pass a `lock()` result through while still returning
/// the guard (poison shrug-offs), for guard-binding detection.
const GUARD_PRESERVING: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// A `MutexGuard` binding currently in scope.
struct LiveGuard {
    name: String,
    /// Brace depth at the binding; the guard dies when its block closes.
    depth: i32,
    /// First token index at which the guard is actually held (past the
    /// binding's own `;`), so the binding's own `lock()` never
    /// self-reports.
    active_from: usize,
}

/// L2: within one file, flag (a) a `lock()` call while another guard
/// binding is live and (b) any blocking op (mpsc `send`/`recv`, engine
/// solve, dispatch, `join`) while the guard is held.
///
/// A *guard binding* is `let [mut] name = …lock(…)…;` whose method chain
/// after the lock call is only poison-handling (`unwrap`, `expect`,
/// `unwrap_or_else`) — `let next = lock(state).next_group(…)` returns a
/// value, not the guard, and the temporary dies at the `;`. `drop(name)`
/// releases a guard early; leaving the binding's block releases it too.
fn l2_lock_discipline(path: &str, tokens: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
            continue;
        }
        // `drop(name)` releases a guard early.
        if t.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(name) = tokens.get(i + 2) {
                guards.retain(|g| g.name != name.text);
            }
        }
        let held: Vec<&LiveGuard> = guards.iter().filter(|g| g.active_from <= i).collect();
        if !held.is_empty() && t.kind == TokKind::Ident {
            let is_call = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
            if is_call && t.text == "lock" {
                raw.push(Finding {
                    rule: "L2",
                    file: path.to_string(),
                    line: t.line,
                    message: format!(
                        "`lock()` taken while guard `{}` is still live — release the first guard before locking again",
                        held[0].name
                    ),
                    chain: Vec::new(),
                });
            } else if is_call && BLOCKING.iter().any(|&b| t.text == b) {
                raw.push(Finding {
                    rule: "L2",
                    file: path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}()` can block while scheduler guard `{}` is held — move the call outside the locked region",
                        t.text, held[0].name
                    ),
                    chain: Vec::new(),
                });
            }
        }
        // `let [mut] name …= <init>;` — detect new guard bindings.
        if t.is_ident("let") {
            if let Some((name, semi)) = guard_binding(tokens, i) {
                guards.push(LiveGuard {
                    name,
                    depth,
                    active_from: semi + 1,
                });
            }
        }
    }
}

/// If the `let` statement starting at `let_idx` binds a `MutexGuard`
/// (initializer is a lock call followed only by poison-handling
/// methods), returns the binding name and the index of the closing `;`.
fn guard_binding(tokens: &[Token], let_idx: usize) -> Option<(String, usize)> {
    let mut j = let_idx + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = tokens
        .get(j)
        .filter(|t| t.kind == TokKind::Ident)?
        .text
        .clone();
    j += 1;
    // Skip an optional `: Type` ascription up to the `=` (or bail at a
    // pattern binding / missing initializer).
    let mut angle = 0i32;
    loop {
        let t = tokens.get(j)?;
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && t.is_punct('=') {
            // `==` never appears between a binding and its initializer.
            j += 1;
            break;
        } else if t.is_punct(';') || t.is_punct('(') || t.is_punct('{') {
            return None;
        }
        j += 1;
    }
    // Find a lock call in the initializer: ident `lock` followed by `(`.
    let mut lock_close: Option<usize> = None;
    let mut k = j;
    let mut paren = 0i32;
    while let Some(t) = tokens.get(k) {
        if paren == 0 && t.is_punct(';') {
            break;
        }
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        }
        if paren == 0 && t.is_ident("lock") && tokens.get(k + 1).is_some_and(|n| n.is_punct('(')) {
            // Skip the call's parens.
            let mut depth = 0i32;
            let mut m = k + 1;
            while let Some(p) = tokens.get(m) {
                if p.is_punct('(') {
                    depth += 1;
                } else if p.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                m += 1;
            }
            lock_close = Some(m);
            k = m;
        }
        k += 1;
    }
    let mut m = lock_close? + 1;
    // Only poison-handling methods may follow if the binding is to keep
    // the guard itself.
    loop {
        let t = tokens.get(m)?;
        if t.is_punct(';') {
            return Some((name, m));
        }
        if !t.is_punct('.') {
            return None;
        }
        let method = tokens.get(m + 1)?;
        if !GUARD_PRESERVING.iter().any(|&g| method.is_ident(g)) {
            return None;
        }
        if !tokens.get(m + 2).is_some_and(|n| n.is_punct('(')) {
            return None;
        }
        let mut depth = 0i32;
        m += 2;
        while let Some(p) = tokens.get(m) {
            if p.is_punct('(') {
                depth += 1;
            } else if p.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            m += 1;
        }
        m += 1;
    }
}

fn finding(rule: &'static str, path: &str, line: usize, message: &str) -> Finding {
    Finding {
        rule,
        file: path.to_string(),
        line,
        message: message.to_string(),
        chain: Vec::new(),
    }
}

/// True if `tokens[start..]` begins with exactly the given punctuation
/// characters.
fn matches(tokens: &[Token], start: usize, puncts: &[&str]) -> bool {
    puncts.iter().enumerate().all(|(k, p)| {
        tokens
            .get(start + k)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == *p)
    })
}

/// Marks every token inside a `#[cfg(test)]` item or a `#[test]`
/// function, so the in-file test code is exempt from D1/D3/C1/P1 like
/// test files are. An attribute marks the next item: up to the matching
/// close of the first `{` block, or the first `;` if none opens.
pub(crate) fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut attr: Vec<&Token> = Vec::new();
            while let Some(t) = tokens.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                attr.push(t);
                j += 1;
            }
            let is_test_attr = match attr.first() {
                Some(t) if t.is_ident("test") => true,
                Some(t) if t.is_ident("cfg") => attr.iter().any(|t| t.is_ident("test")),
                _ => false,
            };
            if is_test_attr {
                // Mark from the attribute through the annotated item.
                let mut k = j + 1;
                let mut brace = 0i32;
                let mut entered = false;
                while let Some(t) = tokens.get(k) {
                    if t.is_punct('{') {
                        brace += 1;
                        entered = true;
                    } else if t.is_punct('}') {
                        brace -= 1;
                        if entered && brace == 0 {
                            break;
                        }
                    } else if t.is_punct(';') && !entered {
                        break; // e.g. `#[cfg(test)] use …;`
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take((k + 1).min(tokens.len())).skip(i) {
                    *m = true;
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Pass 1 of D1: identifiers bound to a `HashMap`/`HashSet`, from type
/// ascriptions (`name: …HashMap<…>`, including fn params and struct
/// fields) and direct constructor bindings
/// (`let [mut] name = HashMap::new()` / `::from`/`::with_capacity`).
fn collect_hash_idents(tokens: &[Token], in_test: &[bool]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back across the type expression to the `name :` that owns
        // it. Stop at tokens that end a binding context.
        let mut j = i;
        let mut angle = 0i32;
        while j > 0 {
            let p = &tokens[j - 1];
            if p.is_punct('>') {
                if j >= 2 && (tokens[j - 2].is_punct('-') || tokens[j - 2].is_punct('=')) {
                    break; // `-> HashMap<…>` / `=> HashMap::…`: no binding name
                }
                angle += 1;
            } else if p.is_punct('<') {
                if angle == 0 {
                    // Inside this binding's own generics, keep walking.
                } else {
                    angle -= 1;
                }
            } else if angle == 0
                && (p.is_punct(';')
                    || p.is_punct('{')
                    || p.is_punct('}')
                    || p.is_punct('(')
                    || p.is_punct(',')
                    || p.is_punct('=')
                    || p.is_ident("let"))
            {
                break;
            }
            j -= 1;
        }
        // `let [mut] name = HashMap::…` — the `=` stops the walk; look
        // back past it for the binding name.
        if j > 0 && tokens[j - 1].is_punct('=') {
            let mut k = j - 1;
            while k > 0 {
                let p = &tokens[k - 1];
                if p.is_ident("let") {
                    // name is the token after `let` (skipping `mut`).
                    let mut name_idx = k;
                    if tokens.get(name_idx).is_some_and(|t| t.is_ident("mut")) {
                        name_idx += 1;
                    }
                    if let Some(name) = tokens.get(name_idx) {
                        if name.kind == TokKind::Ident {
                            push_unique(&mut names, &name.text);
                        }
                    }
                    break;
                }
                if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
                    break;
                }
                k -= 1;
            }
            continue;
        }
        // `name : …HashMap…` — find the `:` directly after an identifier
        // at the start of the span (fn params, struct fields, and
        // `let name: Ty = …` all look like this).
        if j >= 2 && tokens[j].is_punct(':') && tokens[j - 1].kind == TokKind::Ident {
            push_unique(&mut names, &tokens[j - 1].text);
            continue;
        }
        // The span may start with `name :` followed by `&`/`mut`/path
        // segments; scan forward inside it for the first `ident :` pair.
        let mut k = j;
        while k + 1 < i {
            if tokens[k].kind == TokKind::Ident && tokens[k + 1].is_punct(':') {
                // Exclude path segments (`std::collections`): a path has
                // a second `:` right after.
                if !tokens.get(k + 2).is_some_and(|t| t.is_punct(':')) {
                    push_unique(&mut names, &tokens[k].text);
                }
                break;
            }
            k += 1;
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if !names.iter().any(|n| n == name) {
        names.push(name.to_string());
    }
}

/// Applies `// rmo-lint: allow(RULE) — reason` directives: a finding is
/// suppressed when its own line or the line above carries a directive
/// naming its rule *with* a reason; a directive without a reason turns
/// the finding into an `E1` error instead.
pub(crate) fn apply_allows(raw: Vec<Finding>, lines: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in raw {
        match allow_directive(lines, f.line, f.rule) {
            Some(true) => {} // allowed, with reason
            Some(false) => out.push(Finding {
                rule: "E1",
                file: f.file,
                line: f.line,
                message: format!(
                    "rmo-lint allow({}) without a reason — write `// rmo-lint: allow({}) — why it is safe`",
                    f.rule, f.rule
                ),
                chain: Vec::new(),
            }),
            None => out.push(f),
        }
    }
    out
}

/// Whether 1-based `line` or the line above carries an allow directive
/// for `rule`: `Some(true)` with a reason, `Some(false)` without, `None`
/// if neither does.
pub(crate) fn allow_directive(lines: &[impl AsRef<str>], line: usize, rule: &str) -> Option<bool> {
    directive_on(lines, line, rule).or(directive_on(lines, line.wrapping_sub(1), rule))
}

fn directive_on(lines: &[impl AsRef<str>], line: usize, rule: &str) -> Option<bool> {
    let text = lines.get(line.checked_sub(1)?)?.as_ref();
    let start = text.find("rmo-lint: allow(")?;
    let rest = &text[start + "rmo-lint: allow(".len()..];
    let close = rest.find(')')?;
    if rest[..close].trim() != rule {
        return None;
    }
    // A reason is any word characters after the closing paren, past
    // separator punctuation (`—`, `-`, `:`).
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
        .trim();
    Some(reason.chars().filter(|c| c.is_alphanumeric()).count() >= 3)
}
