//! Wire-schema drift lint.
//!
//! The three hand-rolled codecs (`crates/lobby/src/wire.rs`,
//! `crates/sync/src/wire.rs`, `crates/relay/src/wire.rs`) are the
//! protocol: there is no IDL, so nothing
//! machine-checks that (a) every message's `encode` arm writes exactly the
//! fields its `decode` arm reads, or (b) a layout change bumps `VERSION`.
//! This pass recovers the schema from the token stream itself:
//!
//! * the `mod ty { const NAME: u8 = N; }` table gives message names/tags,
//! * each decode arm (`ty::NAME => …`) and encode arm (anchored at
//!   `put_u8(ty::NAME)`) is reduced to its sequence of primitive wire ops —
//!   `u8`/`u16`/`u32`/`u64` for the fixed-width getters/putters, `varint`
//!   for a LEB128 varint, `sparse32` for a presence-masked `u32`, `bytes`
//!   for a length-prefixed payload (`put_slice` ↔ `try_take`/`advance`),
//!   with `for`-loop bodies folded into `rep[…]` groups and helper
//!   functions (e.g. the lobby's `get_name`) spliced in at call sites,
//! * encode/decode asymmetry is a [`WIRE_ASYMMETRY`] diagnostic,
//! * the per-message op table is hashed (FNV-1a 64) into a layout
//!   fingerprint, pinned in `results/wire_schema.json`. CI re-extracts and
//!   compares: a fingerprint change with an unchanged `VERSION` fails the
//!   build — the wire cannot drift silently.
//!
//! The extractor is deliberately conservative: if it cannot find the
//! version const, the `ty` table, or any arms, that is itself a
//! [`WIRE_SCHEMA`] diagnostic — a codec the pass can no longer read is a
//! codec CI can no longer guard.

use std::fmt::Write as _;
use std::path::Path;

use crate::lexer::{int_value, scan, Token, TokenKind};
use crate::report::json_string;
use crate::rules::{Diagnostic, WIRE_ASYMMETRY, WIRE_SCHEMA};

/// The codecs under guard: `(codec name, workspace-relative path)`.
pub const CODEC_FILES: [(&str, &str); 3] = [
    ("lobby", "crates/lobby/src/wire.rs"),
    ("sync", "crates/sync/src/wire.rs"),
    ("relay", "crates/relay/src/wire.rs"),
];

/// One message's recovered wire layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSchema {
    /// Tag byte from the `ty` table.
    pub tag: u64,
    /// Lower-cased const name (`register`, `snapshot_chunk`, …).
    pub name: String,
    /// Op sequence written by the encode arm.
    pub encode_ops: String,
    /// Op sequence read by the decode arm.
    pub decode_ops: String,
}

/// One codec's recovered schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecSchema {
    /// Codec name (`lobby`, `sync`, `relay`).
    pub name: String,
    /// Workspace-relative source path.
    pub file: String,
    /// Value of the codec's `VERSION` const.
    pub version: u64,
    /// Messages sorted by tag.
    pub messages: Vec<MessageSchema>,
    /// FNV-1a 64 hash of the message table (layout only — `VERSION` is
    /// deliberately excluded so "layout changed, version did not" is
    /// detectable).
    pub fingerprint: u64,
}

/// Result of extracting every codec in [`CODEC_FILES`].
#[derive(Debug, Default)]
pub struct WireSchemas {
    /// Successfully extracted codecs.
    pub codecs: Vec<CodecSchema>,
    /// Asymmetry and extraction-failure diagnostics.
    pub diagnostics: Vec<Diagnostic>,
}

/// Extracts the schema of every codec under `root`, accumulating
/// diagnostics rather than failing fast.
pub fn extract_workspace(root: &Path) -> std::io::Result<WireSchemas> {
    let mut out = WireSchemas::default();
    for (name, rel) in CODEC_FILES {
        let path = root.join(rel);
        let source = std::fs::read_to_string(&path)?;
        let (schema, mut diags) = extract_codec(name, rel, &source);
        out.diagnostics.append(&mut diags);
        if let Some(s) = schema {
            out.codecs.push(s);
        }
    }
    Ok(out)
}

/// Maps a getter/putter identifier to its wire op, if it is one.
fn op_for(ident: &str) -> Option<&'static str> {
    Some(match ident {
        "get_u8" | "put_u8" => "u8",
        "get_u16_le" | "put_u16_le" => "u16",
        "get_u32_le" | "put_u32_le" => "u32",
        "get_u64_le" | "put_u64_le" => "u64",
        "get_varint" | "put_varint" => "varint",
        "get_sparse_u32" | "put_sparse_u32" => "sparse32",
        "put_slice" | "try_take" | "advance" => "bytes",
        _ => return None,
    })
}

/// A function body found in the token stream: `(name, body_range)`.
struct FnBody {
    name: String,
    start: usize,
    end: usize,
}

/// Finds every `fn name … { … }` body, including nested ones.
fn fn_bodies(tokens: &[Token]) -> Vec<FnBody> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].kind != TokenKind::Ident || tokens[i].text != "fn" {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        // The body is the first `{` after the signature; signatures contain
        // parens/brackets/angles but never braces.
        let Some(open) = (i + 2..tokens.len()).find(|&j| tokens[j].text == "{") else {
            continue;
        };
        let Some(close) = matching_brace(tokens, open) else {
            continue;
        };
        out.push(FnBody {
            name: name_tok.text.clone(),
            start: open + 1,
            end: close,
        });
    }
    out
}

/// Index of the `}` matching the `{` at `open`, if any.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Flattens the wire ops in `tokens[start..end]`, folding `for` bodies into
/// `rep[…]` and splicing helper functions at their call sites.
fn collect_ops(
    tokens: &[Token],
    start: usize,
    end: usize,
    helpers: &[(String, String)],
) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident {
            if t.text == "for" {
                // Fold the loop body into one rep group.
                if let Some(open) = (i + 1..end).find(|&j| tokens[j].text == "{") {
                    if let Some(close) = matching_brace(tokens, open).filter(|&c| c <= end) {
                        let inner = collect_ops(tokens, open + 1, close, helpers);
                        if !inner.is_empty() {
                            out.push(format!("rep[{}]", inner.join(",")));
                        }
                        i = close + 1;
                        continue;
                    }
                }
            } else if let Some(op) = op_for(&t.text) {
                out.push(op.to_string());
            } else if tokens.get(i + 1).is_some_and(|n| n.text == "(") {
                if let Some((_, ops)) = helpers.iter().find(|(h, _)| *h == t.text) {
                    out.push(ops.clone());
                }
            }
        }
        i += 1;
    }
    out
}

/// Extracts one codec's schema from `source`. Returns the schema (if the
/// file was readable as a codec at all) plus any diagnostics.
pub fn extract_codec(
    name: &str,
    rel: &str,
    source: &str,
) -> (Option<CodecSchema>, Vec<Diagnostic>) {
    let scanned = scan(source);
    let tokens = &scanned.tokens;
    let mut diags = Vec::new();
    let fail = |line: u32, msg: String, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic {
            file: rel.to_string(),
            line,
            rule: WIRE_SCHEMA,
            message: msg,
        });
    };

    // `const VERSION: … = <int>;`
    let version = tokens.windows(2).enumerate().find_map(|(i, w)| {
        (w[0].text == "const" && w[1].text == "VERSION")
            .then(|| {
                tokens[i + 2..]
                    .iter()
                    .take(8)
                    .find(|t| t.kind == TokenKind::IntLit)
                    .and_then(|t| int_value(&t.text))
            })
            .flatten()
    });
    let Some(version) = version else {
        fail(1, "no `const VERSION` found".to_string(), &mut diags);
        return (None, diags);
    };

    // `mod ty { const NAME: u8 = N; … }`
    let mut tags: Vec<(String, u64, u32)> = Vec::new();
    if let Some(m) = (0..tokens.len().saturating_sub(1))
        .find(|&i| tokens[i].text == "mod" && tokens[i + 1].text == "ty")
    {
        if let Some(open) = (m + 2..tokens.len()).find(|&j| tokens[j].text == "{") {
            let close = matching_brace(tokens, open).unwrap_or(tokens.len());
            let mut i = open;
            while i + 1 < close {
                if tokens[i].text == "const" && tokens[i + 1].kind == TokenKind::Ident {
                    let cname = tokens[i + 1].text.clone();
                    let line = tokens[i + 1].line;
                    if let Some(v) = tokens[i + 2..close.min(i + 8)]
                        .iter()
                        .find(|t| t.kind == TokenKind::IntLit)
                        .and_then(|t| int_value(&t.text))
                    {
                        tags.push((cname, v, line));
                    }
                }
                i += 1;
            }
        }
    }
    if tags.is_empty() {
        fail(1, "no `mod ty` tag table found".to_string(), &mut diags);
        return (None, diags);
    }

    let fns = fn_bodies(tokens);
    // Helpers: any named fn with wire ops that is not a codec entry point.
    // One level deep is enough for these codecs.
    let helpers: Vec<(String, String)> = fns
        .iter()
        .filter(|f| !matches!(f.name.as_str(), "encode" | "encode_into" | "decode"))
        .filter_map(|f| {
            let ops = collect_ops(tokens, f.start, f.end, &[]);
            (!ops.is_empty()).then(|| (f.name.clone(), ops.join(",")))
        })
        .collect();
    // Smallest enclosing fn body end for an anchor index (nested fns give
    // multiple candidates; the tightest is the actual arm's function).
    let enclosing_end = |i: usize| {
        fns.iter()
            .filter(|f| f.start <= i && i < f.end)
            .map(|f| f.end)
            .min()
            .unwrap_or(tokens.len())
    };

    // Encode arms, anchored at `put_u8(ty::NAME)` (the tag write itself is
    // not part of the message body).
    let mut enc_anchors: Vec<(String, usize, u32)> = Vec::new();
    for i in 0..tokens.len().saturating_sub(5) {
        if tokens[i].text == "put_u8"
            && tokens[i + 1].text == "("
            && tokens[i + 2].text == "ty"
            && tokens[i + 3].text == "::"
            && tokens[i + 4].kind == TokenKind::Ident
            && tokens[i + 5].text == ")"
        {
            enc_anchors.push((tokens[i + 4].text.clone(), i, tokens[i].line));
        }
    }
    let mut encode_arms: Vec<(String, String, u32)> = Vec::new();
    for (k, (cname, i, line)) in enc_anchors.iter().enumerate() {
        let fn_end = enclosing_end(*i);
        let arm_end = enc_anchors
            .get(k + 1)
            .map(|(_, j, _)| *j)
            .filter(|&j| j < fn_end)
            .unwrap_or(fn_end);
        let ops = collect_ops(tokens, i + 6, arm_end, &helpers);
        encode_arms.push((cname.clone(), ops.join(","), *line));
    }

    // Decode arms: `ty::NAME => …` (the lexer splits `=>` into `=` `>`).
    let mut decode_arms: Vec<(String, String, u32)> = Vec::new();
    for i in 0..tokens.len().saturating_sub(4) {
        if tokens[i].text == "ty"
            && tokens[i + 1].text == "::"
            && tokens[i + 2].kind == TokenKind::Ident
            && tokens[i + 3].text == "="
            && tokens[i + 4].text == ">"
        {
            let fn_end = enclosing_end(i);
            let body = i + 5;
            let arm_end = if tokens.get(body).is_some_and(|t| t.text == "{") {
                matching_brace(tokens, body).map_or(fn_end, |c| c.min(fn_end))
            } else {
                // Expression arm: up to the `,` at bracket depth zero.
                let mut depth = 0i32;
                let mut j = body;
                while j < fn_end {
                    match tokens[j].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                j
            };
            let ops = collect_ops(tokens, body, arm_end, &helpers);
            decode_arms.push((tokens[i + 2].text.clone(), ops.join(","), tokens[i].line));
        }
    }
    if encode_arms.is_empty() || decode_arms.is_empty() {
        fail(
            1,
            format!(
                "found {} encode / {} decode arms — extraction anchors lost",
                encode_arms.len(),
                decode_arms.len()
            ),
            &mut diags,
        );
        return (None, diags);
    }

    // Assemble per-tag messages and cross-check symmetry.
    let mut messages = Vec::new();
    for (cname, tag, line) in &tags {
        let enc = encode_arms.iter().find(|(n, _, _)| n == cname);
        let dec = decode_arms.iter().find(|(n, _, _)| n == cname);
        match (enc, dec) {
            (Some((_, e, _)), Some((_, d, _))) => {
                if e != d {
                    diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: *line,
                        rule: WIRE_ASYMMETRY,
                        message: format!("`{cname}` encode writes [{e}] but decode reads [{d}]"),
                    });
                }
                messages.push(MessageSchema {
                    tag: *tag,
                    name: cname.to_lowercase(),
                    encode_ops: e.clone(),
                    decode_ops: d.clone(),
                });
            }
            (enc, _) => {
                let missing = if enc.is_none() { "encode" } else { "decode" };
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: *line,
                    rule: WIRE_ASYMMETRY,
                    message: format!("`{cname}` has no {missing} arm"),
                });
            }
        }
    }
    messages.sort_by_key(|m| m.tag);

    // Duplicate tag values would silently shadow each other on the wire.
    for w in messages.windows(2) {
        if w[0].tag == w[1].tag {
            fail(
                1,
                format!(
                    "tag {} assigned to both `{}` and `{}`",
                    w[0].tag, w[0].name, w[1].name
                ),
                &mut diags,
            );
        }
    }

    let mut canon = String::new();
    for m in &messages {
        let _ = writeln!(
            canon,
            "{}:{}:{}:{}",
            m.tag, m.name, m.encode_ops, m.decode_ops
        );
    }
    let schema = CodecSchema {
        name: name.to_string(),
        file: rel.to_string(),
        version,
        fingerprint: fnv1a(canon.as_bytes()),
        messages,
    };
    (Some(schema), diags)
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Serializes extracted schemas as the lockfile JSON document.
pub fn to_json(codecs: &[CodecSchema]) -> String {
    let mut out = String::from("{\n  \"codecs\": [");
    for (i, c) in codecs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\n      \"name\": {},\n      \"file\": {},\n      \
             \"version\": {},\n      \"fingerprint\": \"{:#018x}\",\n      \
             \"messages\": [",
            json_string(&c.name),
            json_string(&c.file),
            c.version,
            c.fingerprint
        );
        for (j, m) in c.messages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n        {{\"tag\": {}, \"name\": {}, \"ops\": {}}}",
                m.tag,
                json_string(&m.name),
                json_string(&m.encode_ops)
            );
        }
        if !c.messages.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
    }
    if !codecs.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Pulls `"key": value` (a bare integer or a quoted string) out of a block
/// of the lockfile we wrote ourselves. Not a general JSON parser — the
/// crate stays dependency-free and the input is machine-generated.
fn json_field<'a>(block: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = block.find(&pat)? + pat.len();
    let rest = block[at..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '\n', '}']).next().map(str::trim)
    }
}

/// Checks freshly extracted schemas against the pinned lockfile text.
/// Returns one human-readable failure per codec that drifted.
pub fn check_against(codecs: &[CodecSchema], pinned: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for c in codecs {
        let needle = format!("\"name\": \"{}\"", c.name);
        let Some(at) = pinned.find(&needle) else {
            failures.push(format!(
                "codec `{}` missing from the lockfile; run --update-schema",
                c.name
            ));
            continue;
        };
        let block = &pinned[at..];
        let pin_version = json_field(block, "version").and_then(|v| v.parse::<u64>().ok());
        let pin_fp = json_field(block, "fingerprint")
            .and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok());
        let (Some(pin_version), Some(pin_fp)) = (pin_version, pin_fp) else {
            failures.push(format!(
                "lockfile entry for `{}` is unreadable; run --update-schema",
                c.name
            ));
            continue;
        };
        if c.fingerprint != pin_fp && c.version == pin_version {
            failures.push(format!(
                "`{}` wire layout changed (fingerprint {:#018x} -> {:#018x}) \
                 without a VERSION bump: bump VERSION in {} and run --update-schema",
                c.name, pin_fp, c.fingerprint, c.file
            ));
        } else if c.fingerprint != pin_fp || c.version != pin_version {
            failures.push(format!(
                "`{}` schema changed with a VERSION bump ({} -> {}); \
                 refresh the lockfile with --update-schema",
                c.name, pin_version, c.version
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature codec with the same shape as the real ones.
    pub const MINI: &str = r#"
const MAGIC: u8 = 0xAA;
const VERSION: u8 = 2;
mod ty {
    pub const PING: u8 = 1;
    pub const DATA: u8 = 2;
}
fn get_name(b: &mut &[u8]) -> u8 {
    let n = b.get_u8() as usize;
    b.advance(n);
    0
}
impl Msg {
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_u8(MAGIC);
        b.put_u8(VERSION);
        match self {
            Msg::Ping { nonce } => {
                b.put_u8(ty::PING);
                b.put_u32_le(*nonce);
            }
            Msg::Data { items } => {
                b.put_u8(ty::DATA);
                b.put_u16_le(items.len() as u16);
                for it in items {
                    b.put_u8(it.kind);
                    b.put_slice(&it.bytes);
                }
            }
        }
        b
    }
    pub fn decode(b: &mut &[u8]) -> Msg {
        match b.get_u8() {
            ty::PING => Msg::Ping { nonce: b.get_u32_le() },
            ty::DATA => {
                let n = b.get_u16_le() as usize;
                for _ in 0..n {
                    let _k = get_name(b);
                }
                Msg::Data { items: Vec::new() }
            }
            _ => Msg::Ping { nonce: 0 },
        }
    }
}
"#;

    #[test]
    fn mini_codec_extracts_and_reports_asymmetry() {
        let (schema, diags) = extract_codec("mini", "mini.rs", MINI);
        let schema = schema.expect("schema");
        assert_eq!(schema.version, 2);
        assert_eq!(schema.messages.len(), 2);
        assert_eq!(schema.messages[0].name, "ping");
        assert_eq!(schema.messages[0].encode_ops, "u32");
        assert_eq!(schema.messages[0].decode_ops, "u32");
        // DATA is deliberately asymmetric: encode writes u8+bytes per item,
        // decode (via the get_name helper) reads u8+bytes per item too —
        // but the helper splice proves itself here.
        assert_eq!(schema.messages[1].encode_ops, "u16,rep[u8,bytes]");
        assert_eq!(schema.messages[1].decode_ops, "u16,rep[u8,bytes]");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn asymmetry_is_diagnosed() {
        let broken = MINI.replace("nonce: b.get_u32_le()", "nonce: b.get_u16_le() as u32");
        let (_, diags) = extract_codec("mini", "mini.rs", &broken);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, WIRE_ASYMMETRY);
        assert!(diags[0].message.contains("PING"));
    }

    /// A run-length message in the shape of the sync input codec.
    const RUNS: &str = r#"
const VERSION: u8 = 1;
mod ty {
    pub const INPUT: u8 = 1;
}
impl Msg {
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            Msg::Input(m) => {
                b.put_u8(ty::INPUT);
                b.put_varint(m.first);
                b.put_varint(m.runs.len() as u64);
                for (len, word) in &m.runs {
                    b.put_varint(*len);
                    b.put_sparse_u32(*word);
                }
            }
        }
    }
    pub fn decode(data: &[u8]) -> Result<Msg, E> {
        let mut b = data;
        Ok(match b.get_u8() {
            ty::INPUT => {
                let first = b.get_varint()?;
                let runs = b.get_varint()?;
                let mut out = Vec::new();
                for _ in 0..runs {
                    let len = b.get_varint()?;
                    out.push((len, b.get_sparse_u32()?));
                }
                Msg::Input(Input { first, runs: out })
            }
            other => return Err(E(other)),
        })
    }
}
"#;

    #[test]
    fn compact_ops_fold_into_matching_run_groups() {
        let (schema, diags) = extract_codec("runs", "runs.rs", RUNS);
        assert!(diags.is_empty(), "{diags:?}");
        let input = &schema.expect("schema").messages[0];
        assert_eq!(input.encode_ops, "varint,varint,rep[varint,sparse32]");
        assert_eq!(input.decode_ops, input.encode_ops);

        // A fixed-width read or write on one side of a compact field is
        // the drift the lint exists to catch.
        for broken in [
            RUNS.replace("b.get_sparse_u32()?", "b.get_u32_le()"),
            RUNS.replace("b.put_varint(*len);", "b.put_u16_le(*len as u16);"),
            RUNS.replace(
                "let first = b.get_varint()?;",
                "let first = b.get_u64_le();",
            ),
        ] {
            let (_, diags) = extract_codec("runs", "runs.rs", &broken);
            assert_eq!(diags.len(), 1, "{broken}");
            assert_eq!(diags[0].rule, WIRE_ASYMMETRY);
            assert!(diags[0].message.contains("INPUT"), "{}", diags[0].message);
        }
    }

    #[test]
    fn fingerprint_tracks_layout_not_version() {
        let (a, _) = extract_codec("mini", "mini.rs", MINI);
        let bumped = MINI.replace("const VERSION: u8 = 2;", "const VERSION: u8 = 3;");
        let (b, _) = extract_codec("mini", "mini.rs", &bumped);
        let widened = MINI.replace("b.put_u32_le(*nonce)", "b.put_u64_le(*nonce)");
        let (c, _) = extract_codec("mini", "mini.rs", &widened);
        let (a, b, c) = (a.unwrap(), b.unwrap(), c.unwrap());
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "version bump alone keeps layout"
        );
        assert_ne!(b.version, a.version);
        assert_ne!(
            a.fingerprint, c.fingerprint,
            "field width change re-fingerprints"
        );
    }

    #[test]
    fn check_against_catches_silent_drift() {
        let (a, _) = extract_codec("mini", "mini.rs", MINI);
        let a = a.unwrap();
        let lock = to_json(std::slice::from_ref(&a));
        assert!(check_against(std::slice::from_ref(&a), &lock).is_empty());

        // Layout change, same version: the must-bump failure.
        let widened = MINI.replace("b.put_u32_le(*nonce)", "b.put_u64_le(*nonce)");
        let drifted = extract_codec("mini", "mini.rs", &widened).0.unwrap();
        let fails = check_against(std::slice::from_ref(&drifted), &lock);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("without a VERSION bump"), "{}", fails[0]);

        // Layout change with a bump: stale lockfile, different message.
        let both = widened.replace("const VERSION: u8 = 2;", "const VERSION: u8 = 3;");
        let bumped = extract_codec("mini", "mini.rs", &both).0.unwrap();
        let fails = check_against(std::slice::from_ref(&bumped), &lock);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("--update-schema"), "{}", fails[0]);
    }

    #[test]
    fn missing_anchors_are_an_extraction_failure() {
        let (schema, diags) = extract_codec("x", "x.rs", "const VERSION: u8 = 1;\n");
        assert!(schema.is_none());
        assert!(diags.iter().any(|d| d.rule == WIRE_SCHEMA));
    }

    #[test]
    fn lockfile_json_roundtrips_through_field_parser() {
        let (a, _) = extract_codec("mini", "mini.rs", MINI);
        let a = a.unwrap();
        let lock = to_json(std::slice::from_ref(&a));
        let block = &lock[lock.find("\"name\": \"mini\"").unwrap()..];
        assert_eq!(json_field(block, "version"), Some("2"));
        let fp = json_field(block, "fingerprint").unwrap();
        assert_eq!(
            u64::from_str_radix(fp.trim_start_matches("0x"), 16).unwrap(),
            a.fingerprint
        );
    }
}
