//! A lightweight Rust lexer — just enough syntax to audit determinism.
//!
//! The linter must see identifiers, float literals, and a little punctuation
//! while ignoring everything inside comments, strings, and char literals
//! (doc prose routinely mentions `Instant` or `HashMap`, and string payloads
//! are data, not code). It must also *read* one very specific kind of
//! comment: `// detlint: allow(<rule>) -- <reason>` suppression directives.
//!
//! The lexer is deliberately not a parser: it has no grammar, no AST, and no
//! `syn` dependency (the workspace builds offline). Rules operate on the
//! flat token stream, which is exact enough for the fence we need — every
//! banned construct is visible as an identifier or literal token.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `static`, `f64`, …).
    Ident,
    /// A floating-point literal (`1.5`, `2e9`, `3f32`).
    FloatLit,
    /// An integer literal (`3`, `0xC6`, `65_536u32`).
    IntLit,
    /// Punctuation; `::` is joined, everything else is one character.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's class.
    pub kind: TokenKind,
    /// The token's text, verbatim from the source.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A `// detlint: allow(<rules>) -- <reason>` directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the directive appears on.
    pub line: u32,
    /// Rule names listed inside `allow(...)`, comma-separated, trimmed.
    pub rules: Vec<String>,
    /// `true` if a non-empty `-- <reason>` trailer is present.
    pub has_reason: bool,
    /// `true` if the directive parsed as `allow(...)` at all.
    pub well_formed: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct ScannedSource {
    /// Code tokens, in order.
    pub tokens: Vec<Token>,
    /// Every `detlint:` directive found in comments.
    pub allows: Vec<AllowDirective>,
}

/// Parses the text after `detlint:` in a comment into a directive.
fn parse_directive(body: &str, line: u32) -> AllowDirective {
    let malformed = AllowDirective {
        line,
        rules: Vec::new(),
        has_reason: false,
        well_formed: false,
    };
    let body = body.trim();
    let Some(rest) = body.strip_prefix("allow") else {
        return malformed;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return malformed;
    };
    let Some(close) = rest.find(')') else {
        return malformed;
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let trailer = rest[close + 1..].trim();
    let has_reason = trailer
        .strip_prefix("--")
        .is_some_and(|r| !r.trim().is_empty());
    let well_formed = !rules.is_empty();
    AllowDirective {
        line,
        rules,
        has_reason,
        well_formed,
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `source`, returning tokens and suppression directives.
pub fn scan(source: &str) -> ScannedSource {
    let b = source.as_bytes();
    let mut out = ScannedSource::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = source[i..].find('\n').map_or(b.len(), |n| i + n);
                let comment = &source[i..end];
                if let Some(pos) = comment.find("detlint:") {
                    out.allows
                        .push(parse_directive(&comment[pos + "detlint:".len()..], line));
                }
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => i = skip_string(b, i, &mut line),
            b'\'' => i = skip_char_or_lifetime(b, i),
            _ if c.is_ascii_digit() => {
                let (end, is_float) = scan_number(b, i);
                out.tokens.push(Token {
                    kind: if is_float {
                        TokenKind::FloatLit
                    } else {
                        TokenKind::IntLit
                    },
                    text: source[i..end].to_string(),
                    line,
                });
                i = end;
            }
            _ if is_ident_start(c) => {
                let mut j = i + 1;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                let ident = &source[i..j];
                // Raw/byte string prefixes glue onto the opening quote.
                if let Some(end) = raw_string_end(b, i, j, ident) {
                    for &nb in &b[i..end] {
                        if nb == b'\n' {
                            line += 1;
                        }
                    }
                    i = end;
                    continue;
                }
                if matches!(ident, "b") && j < b.len() && (b[j] == b'"' || b[j] == b'\'') {
                    // b"..." byte string / b'x' byte char: skip like the
                    // unprefixed form.
                    i = if b[j] == b'"' {
                        skip_string(b, j, &mut line)
                    } else {
                        skip_char_or_lifetime(b, j)
                    };
                    continue;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: ident.to_string(),
                    line,
                });
                i = j;
            }
            b':' if i + 1 < b.len() && b[i + 1] == b':' => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: "::".to_string(),
                    line,
                });
                i += 2;
            }
            _ => {
                if !c.is_ascii_whitespace() {
                    out.tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: (c as char).to_string(),
                        line,
                    });
                }
                i += 1;
            }
        }
    }
    out
}

/// Skips a `"..."` literal starting at the opening quote; returns the index
/// past the closing quote and counts embedded newlines.
fn skip_string(b: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips a char literal (`'a'`, `'\n'`) or a lifetime (`'static`); returns
/// the index after it. Lifetimes produce no token — `'static` must not be
/// mistaken for the `static` keyword.
fn skip_char_or_lifetime(b: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    if i >= b.len() {
        return i;
    }
    if b[i] == b'\\' {
        // Escaped char literal: skip the escape, then find the close quote.
        i += 2;
        while i < b.len() && b[i] != b'\'' {
            i += 1;
        }
        return (i + 1).min(b.len());
    }
    if is_ident_start(b[i]) {
        let mut j = i + 1;
        while j < b.len() && is_ident_continue(b[j]) {
            j += 1;
        }
        if j < b.len() && b[j] == b'\'' {
            return j + 1; // 'a' — a char literal
        }
        return j; // 'static — a lifetime, no token
    }
    // Punctuation char literal like '(' or digit like '7'.
    let mut j = i + 1;
    while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
        j += 1;
    }
    (j + 1).min(b.len())
}

/// If an identifier at `i..j` is a raw-string prefix (`r`, `br`, `rb`) glued
/// to `#*"`, returns the index past the whole raw string.
fn raw_string_end(b: &[u8], _i: usize, j: usize, ident: &str) -> Option<usize> {
    if !matches!(ident, "r" | "br" | "rb") {
        return None;
    }
    let mut k = j;
    let mut hashes = 0usize;
    while k < b.len() && b[k] == b'#' {
        hashes += 1;
        k += 1;
    }
    if k >= b.len() || b[k] != b'"' {
        return None;
    }
    k += 1;
    // Find `"` followed by `hashes` hash marks.
    while k < b.len() {
        if b[k] == b'"' {
            let mut h = 0usize;
            while k + 1 + h < b.len() && b[k + 1 + h] == b'#' && h < hashes {
                h += 1;
            }
            if h == hashes {
                return Some(k + 1 + hashes);
            }
        }
        k += 1;
    }
    Some(b.len())
}

/// Scans a numeric literal starting at a digit; returns `(end, is_float)`.
fn scan_number(b: &[u8], start: usize) -> (usize, bool) {
    let mut i = start;
    // Radix-prefixed literals are always integers.
    if b[i] == b'0' && i + 1 < b.len() && matches!(b[i + 1], b'x' | b'o' | b'b') {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return (i, false);
    }
    let mut is_float = false;
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    // Fractional part: a '.' followed by a digit (not `..` ranges, not
    // `1.max(2)` method calls, and a trailing `1.` also counts as float).
    if i < b.len() && b[i] == b'.' {
        let next = b.get(i + 1).copied();
        match next {
            Some(n) if n.is_ascii_digit() => {
                is_float = true;
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
            }
            Some(b'.') => return (i, false),
            Some(n) if is_ident_start(n) => return (i, false),
            _ => {
                is_float = true;
                i += 1;
            }
        }
    }
    // Exponent.
    if i < b.len() && matches!(b[i], b'e' | b'E') {
        let mut k = i + 1;
        if k < b.len() && matches!(b[k], b'+' | b'-') {
            k += 1;
        }
        if k < b.len() && b[k].is_ascii_digit() {
            is_float = true;
            i = k;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (`u32`, `f64`, …).
    if i < b.len() && is_ident_start(b[i]) {
        let s = i;
        while i < b.len() && is_ident_continue(b[i]) {
            i += 1;
        }
        let suffix = &b[s..i];
        if suffix == b"f32" || suffix == b"f64" {
            is_float = true;
        }
    }
    (i, is_float)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    fn floats(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::FloatLit)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let src = [
            "// Instant::now in a comment\n",
            "/* HashMap in /* a nested */ block */\n",
            "let s = \"SystemTime::now()\";\n",
            "let r = r#\"raw HashMap\"#;\n",
        ]
        .concat();
        let ids = idents(&src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_static_keywords() {
        let ids = idents("fn f(x: &'static str) {} static Y: u8 = 0;");
        assert_eq!(ids.iter().filter(|i| *i == "static").count(), 1);
    }

    #[test]
    fn char_literals_do_not_derail() {
        let ids = idents("let c = 'a'; let nl = '\\n'; let q = '\"'; static Z: u8 = 0;");
        assert!(ids.contains(&"static".to_string()));
    }

    #[test]
    fn float_literals_detected_ranges_and_fields_ignored() {
        assert_eq!(floats("let x = 1.5;"), vec!["1.5"]);
        assert_eq!(floats("let y = 2e9;"), vec!["2e9"]);
        assert_eq!(floats("let z = 3f64;"), vec!["3f64"]);
        assert!(floats("for i in 0..10 { t.0; 1.max(2); }").is_empty());
        assert!(floats("let n = 0x1e9; let m = 42u64;").is_empty());
    }

    #[test]
    fn line_numbers_track_through_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nstatic B: u8 = 0;";
        let scanned = scan(src);
        let stat = scanned
            .tokens
            .iter()
            .find(|t| t.text == "static")
            .expect("static token");
        assert_eq!(stat.line, 3);
    }

    #[test]
    fn int_literals_are_tokens() {
        let ints: Vec<String> = scan("const VERSION: u8 = 3; const MAGIC: u8 = 0xC6;")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::IntLit)
            .map(|t| t.text)
            .collect();
        assert_eq!(ints, vec!["3", "0xC6"]);
    }

    #[test]
    fn directives_parse() {
        let s = scan("// detlint: allow(wall_clock) -- test harness timing\nlet x = 1;");
        assert_eq!(s.allows.len(), 1);
        let d = &s.allows[0];
        assert!(d.well_formed && d.has_reason);
        assert_eq!(d.rules, vec!["wall_clock"]);
        assert_eq!(d.line, 1);
    }

    #[test]
    fn directive_without_reason_is_flagged() {
        let s = scan("// detlint: allow(float)\n");
        assert!(s.allows[0].well_formed);
        assert!(!s.allows[0].has_reason);
    }

    #[test]
    fn directive_with_multiple_rules() {
        let s = scan("// detlint: allow(float, unordered_collections) -- stats only\n");
        assert_eq!(s.allows[0].rules, vec!["float", "unordered_collections"]);
        assert!(s.allows[0].has_reason);
    }

    #[test]
    fn garbage_directive_is_malformed() {
        let s = scan("// detlint: disable everything\n");
        assert!(!s.allows[0].well_formed);
    }

    #[test]
    fn byte_strings_are_skipped() {
        let ids = idents(r#"let b = b"HashMap"; let c = b'x'; let ok = 1;"#);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"ok".to_string()));
    }
}
