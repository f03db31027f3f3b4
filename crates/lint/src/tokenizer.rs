//! A small self-contained Rust lexer: just enough to walk source as a
//! token stream with comments and string/char literals stripped, so the
//! rules in [`crate::rules`] never fire on text inside a doc comment or
//! a format string. No registry dependencies — the build is offline.
//!
//! Handled: line and (nested) block comments, string literals with
//! escapes, raw strings (`r"…"`, `r#"…"#`, any hash depth), byte and
//! byte-raw strings, char literals vs. lifetimes, numeric literals
//! (including hex like `0xA` and floats like `1.0`, which must not leak
//! an `A`/`0` identifier), identifiers/keywords, and single-character
//! punctuation. Multi-character operators arrive as adjacent punctuation
//! tokens (`::` is `:`, `:`), which is what the sequence-matching rules
//! expect.

/// What a token is. Only the distinctions the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (lexed as one unit so `0xA` never yields `A`).
    Number,
    /// Single punctuation character.
    Punct,
    /// Lifetime marker (`'a`) — lexed so the `'` never opens a char
    /// literal.
    Lifetime,
}

/// One token: kind, text, and the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Token {
    /// Whether this token is the exact identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into a token stream, discarding comments, whitespace,
/// and string/char literal *contents* (the literals themselves vanish —
/// no rule cares about them).
pub fn tokenize(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = chars.len();
    let peek = |i: usize, off: usize| -> Option<char> { chars.get(i + off).copied() };
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (regular or doc) — skip to end of line.
        if c == '/' && peek(i, 1) == Some('/') {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nested per the Rust grammar.
        if c == '/' && peek(i, 1) == Some('*') {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && peek(i, 1) == Some('*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && peek(i, 1) == Some('/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings: r"…", r#"…"#, br"…", br#"…"#.
        if (c == 'r' || c == 'b') && {
            let mut j = i;
            if c == 'b' && peek(j, 1) == Some('r') {
                j += 1;
            }
            matches!(peek(j, 1), Some('"') | Some('#')) && chars[j] == 'r'
        } {
            let mut j = i + 1;
            if c == 'b' {
                j += 1; // past the `r`
            }
            let mut hashes = 0usize;
            while peek(j, 0) == Some('#') {
                hashes += 1;
                j += 1;
            }
            if peek(j, 0) == Some('"') {
                j += 1;
                // Scan for `"` followed by `hashes` hash marks.
                'raw: while j < n {
                    if chars[j] == '\n' {
                        line += 1;
                    } else if chars[j] == '"' {
                        let mut k = 0usize;
                        while k < hashes && peek(j, 1 + k) == Some('#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
            // `r#ident` — a raw identifier, not a raw string. Lex it as
            // ONE Ident token (text keeps the `r#` prefix so `r#fn`
            // never masquerades as the `fn` keyword downstream); the
            // old fall-through produced `r`, `#`, `ident`, and the
            // stray `#` could seed a bogus attribute region.
            if c == 'r' && hashes == 1 && peek(j, 0).is_some_and(is_ident_start) {
                let start = i;
                i = j;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
                continue;
            }
            // Not actually a raw string (`r` / `b` identifier); fall
            // through to identifier lexing below.
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && peek(i, 1) == Some('"')) {
            i += if c == 'b' { 2 } else { 1 };
            while i < n {
                match chars[i] {
                    '\\' => {
                        // A `\` line continuation still ends a line.
                        if peek(i, 1) == Some('\n') {
                            line += 1;
                        }
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            let next = peek(i, 1);
            let is_lifetime = match next {
                Some(nc) if is_ident_start(nc) => {
                    // `'a` is a lifetime unless a closing quote follows
                    // the identifier run immediately (`'a'` is a char).
                    let mut j = i + 1;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    peek(j, 0) != Some('\'')
                }
                _ => false,
            };
            if is_lifetime {
                let start = i;
                i += 1;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            } else {
                // Char literal: consume to the closing quote.
                i += 1;
                while i < n {
                    match chars[i] {
                        '\\' => i += 2,
                        '\'' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            continue;
        }
        // Numbers (one unit: `0xAF`, `1_000`, `1.5e3`).
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            // Fractional part — but not a `..` range.
            if peek(i, 0) == Some('.') && peek(i, 1).is_some_and(|d| d.is_ascii_digit()) {
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            tokens.push(Token {
                kind: TokKind::Number,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Everything else: single punctuation character.
        tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_vanish() {
        let src = r##"
            // HashMap in a comment
            /* DefaultHasher in /* a nested */ block */
            let s = "Instant::now() inside a string";
            let r = r#"SystemTime in a raw string"#;
            let x = real_ident;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|t| t == "HashMap"
            || t == "DefaultHasher"
            || t == "Instant"
            || t == "SystemTime"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let toks = tokenize(src);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        // The 'x' char literal is consumed, not left as a stray quote.
        assert!(!toks.iter().any(|t| t.is_punct('\'')));
    }

    #[test]
    fn hex_literals_do_not_leak_identifiers() {
        let toks = tokenize("let v = 0xA ^ 0xCAFE;");
        assert!(!toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text == "A" || t.text == "CAFE")));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = tokenize("a\nb\n\nc");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
        // A string's line continuation is a newline too.
        let toks = tokenize("f(\"x \\\n y\", z)");
        assert_eq!(
            toks.iter().find(|t| t.is_ident("z")).map(|t| t.line),
            Some(2)
        );
    }

    #[test]
    fn raw_identifiers_are_single_tokens_not_raw_strings() {
        // `r#type` must not open a raw string: everything after it
        // would vanish from the stream, hiding real findings.
        let toks = tokenize("let r#type = HashMap::new(); r#type.iter();");
        assert!(
            toks.iter().any(|t| t.is_ident("HashMap")),
            "code after a raw identifier stays visible: {toks:?}"
        );
        // One Ident token per occurrence, `r#` prefix preserved (so
        // `r#fn` can never be mistaken for the `fn` keyword).
        let raw: Vec<_> = toks.iter().filter(|t| t.is_ident("r#type")).collect();
        assert_eq!(raw.len(), 2, "got {toks:?}");
        // No stray `#` punctuation leaks out of a raw identifier (a
        // stray `#` could seed a bogus attribute region).
        assert!(!toks.iter().any(|t| t.is_punct('#')));
        // `r#fn` stays distinct from the keyword.
        let toks = tokenize("let r#fn = 3;");
        assert!(!toks.iter().any(|t| t.is_ident("fn")));
        assert!(toks.iter().any(|t| t.is_ident("r#fn")));
    }

    #[test]
    fn raw_strings_still_vanish_next_to_raw_identifiers() {
        let toks = tokenize(r##"let r#x = r#"RandomState"#; let y = r#x;"##);
        assert!(!toks.iter().any(|t| t.is_ident("RandomState")));
        assert_eq!(
            toks.iter().filter(|t| t.is_ident("r#x")).count(),
            2,
            "{toks:?}"
        );
    }

    #[test]
    fn range_after_number_is_not_a_float() {
        let toks = tokenize("for i in 0..n {}");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Number && t.text == "0"));
        assert!(toks.iter().any(|t| t.is_ident("n")));
    }
}
