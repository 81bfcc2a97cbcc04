//! The determinism rules and the engine that applies them to a token stream.

use crate::lexer::{scan, AllowDirective, Token, TokenKind};

/// One determinism rule the auditor can enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No wall-clock reads (`Instant`, `SystemTime`, `UNIX_EPOCH`) — time
    /// must flow through `crates/clock`'s `Clock` abstraction.
    WallClock,
    /// No `HashMap`/`HashSet`/`RandomState` — iteration order is seeded per
    /// process and leaks into state; the deterministic core uses `BTreeMap`.
    UnorderedCollections,
    /// No `f32`/`f64` types or float literals — rounding is not guaranteed
    /// bit-identical across targets; simulation state is integer-only.
    Float,
    /// No OS entropy (`rand`, `thread_rng`, `OsRng`, `getrandom`) —
    /// randomness must come from the seeded `coplay_net::DetRng`.
    Entropy,
    /// No `static mut` and no interior-mutable statics (`OnceLock`,
    /// atomics, `Mutex`, …) — hidden global state diverges replicas.
    StaticState,
    /// No panic reachable from arbitrary input: `unwrap`/`expect`,
    /// `panic!`/`unreachable!`/`todo!`/`unimplemented!`, and the
    /// `*_unchecked` family. Wire/transport decode must return typed errors;
    /// hot paths must justify every remaining panic with a waiver.
    PanicPath,
    /// No slice/array indexing (`b[0]`, `&b[..n]`) in byte-codec zones —
    /// out-of-range input must surface as `Truncated`, not a panic. Use the
    /// checked `Buf` getters / `try_take` instead.
    UncheckedIndex,
    /// No steady-state allocation (`Vec::new`, `to_vec`, `clone`,
    /// `format!`, `Box::new`, …) in the modules the perf PRs made
    /// alloc-free; constructor/cold-path allocations carry waivers.
    HotAlloc,
}

/// Rule id used by `bad_suppression` diagnostics (not a suppressible rule).
pub const BAD_SUPPRESSION: &str = "bad_suppression";

/// Rule id used for stale waivers — a well-formed `allow(...)` that
/// suppresses nothing. Not itself suppressible: a waiver that outlives its
/// finding is dead armour and must be removed, not re-waived.
pub const STALE_SUPPRESSION: &str = "stale_suppression";

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::WallClock,
        Rule::UnorderedCollections,
        Rule::Float,
        Rule::Entropy,
        Rule::StaticState,
        Rule::PanicPath,
        Rule::UncheckedIndex,
        Rule::HotAlloc,
    ];

    /// The original determinism fence — what "deterministic core" means in
    /// the policy table. The panic/alloc rules are zone-scoped separately.
    pub const DETERMINISM: [Rule; 5] = [
        Rule::WallClock,
        Rule::UnorderedCollections,
        Rule::Float,
        Rule::Entropy,
        Rule::StaticState,
    ];

    /// The rule's stable identifier, as used in `allow(...)` directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall_clock",
            Rule::UnorderedCollections => "unordered_collections",
            Rule::Float => "float",
            Rule::Entropy => "entropy",
            Rule::StaticState => "static_state",
            Rule::PanicPath => "panic_path",
            Rule::UncheckedIndex => "unchecked_index",
            Rule::HotAlloc => "hot_alloc",
        }
    }

    /// Parses a rule identifier.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == s)
    }

    /// Whether findings inside a `#[cfg(test)]` region are dropped. Panic
    /// and allocation rules guard production paths only — tests unwrap and
    /// allocate freely. Determinism rules still apply in tests: a test that
    /// reads wall clocks reproduces differently.
    pub fn skips_test_code(self) -> bool {
        matches!(
            self,
            Rule::PanicPath | Rule::UncheckedIndex | Rule::HotAlloc
        )
    }
}

/// One violation, pinned to `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier (`wall_clock`, …, or `bad_suppression`).
    pub rule: &'static str,
    /// Human-readable explanation naming the offending construct.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Identifiers that read wall clocks.
const CLOCK_IDENTS: [&str; 3] = ["Instant", "SystemTime", "UNIX_EPOCH"];

/// Identifiers naming randomized-order containers.
const UNORDERED_IDENTS: [&str; 3] = ["HashMap", "HashSet", "RandomState"];

/// Identifiers that tap OS entropy.
const ENTROPY_IDENTS: [&str; 4] = ["thread_rng", "OsRng", "getrandom", "from_entropy"];

/// Macros that unwind unconditionally when reached.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Methods that panic on the "wrong" variant.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// The `unsafe` no-check family: worse than a panic — undefined behaviour
/// on out-of-range input.
const UNCHECKED_FNS: [&str; 7] = [
    "get_unchecked",
    "get_unchecked_mut",
    "unwrap_unchecked",
    "from_utf8_unchecked",
    "unchecked_add",
    "unchecked_sub",
    "unchecked_mul",
];

/// Methods that allocate when called on a hot path.
const ALLOC_METHODS: [&str; 5] = ["to_vec", "to_string", "to_owned", "with_capacity", "clone"];

/// Types whose `::new()` allocates (or will on first push).
const ALLOC_TYPES: [&str; 5] = ["Vec", "VecDeque", "Box", "String", "BTreeMap"];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Interior-mutability wrappers that make a `static` mutable global state.
const INTERIOR_MUTABLE: [&str; 19] = [
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "Cell",
    "LazyCell",
    "LazyLock",
    "Mutex",
    "OnceCell",
    "OnceLock",
    "RwLock",
];

/// Applies `rules` to `source`, honouring `// detlint: allow(...)` comments.
///
/// A well-formed allow directive (known rules *and* a `-- <reason>` trailer)
/// suppresses matching diagnostics on its own line and the next line.
/// Malformed directives suppress nothing and are themselves reported as
/// [`BAD_SUPPRESSION`] — an audit fence with silent escape hatches is no
/// fence at all.
pub fn lint_source(file: &str, source: &str, rules: &[Rule]) -> Vec<Diagnostic> {
    lint_source_counted(file, source, rules).0
}

/// As [`lint_source`], also returning the number of well-formed allow
/// directives honoured (whether or not they suppressed anything).
pub fn lint_source_counted(file: &str, source: &str, rules: &[Rule]) -> (Vec<Diagnostic>, usize) {
    let scanned = scan(source);
    let mut diags = Vec::new();
    let cutoff = test_region_start(&scanned.tokens);
    for rule in rules {
        let before = diags.len();
        check_rule(*rule, &scanned.tokens, file, &mut diags);
        if rule.skips_test_code() {
            if let Some(cut) = cutoff {
                let mut idx = 0;
                diags.retain(|d| {
                    let keep = idx < before || d.line < cut;
                    idx += 1;
                    keep
                });
            }
        }
    }

    // Partition directives: usable suppressions vs. reportable mistakes.
    let mut valid: Vec<&AllowDirective> = Vec::new();
    for d in &scanned.allows {
        let known = d.rules.iter().all(|r| Rule::parse(r).is_some());
        if d.well_formed && d.has_reason && known {
            valid.push(d);
        } else {
            let why = if !d.well_formed {
                "directive is not `detlint: allow(<rule>) -- <reason>`".to_string()
            } else if !known {
                let unknown: Vec<&str> = d
                    .rules
                    .iter()
                    .filter(|r| Rule::parse(r).is_none())
                    .map(String::as_str)
                    .collect();
                format!("unknown rule(s) {}", unknown.join(", "))
            } else {
                "missing `-- <reason>` justification".to_string()
            };
            diags.push(Diagnostic {
                file: file.to_string(),
                line: d.line,
                rule: BAD_SUPPRESSION,
                message: why,
            });
        }
    }

    // Apply suppressions, tracking which directives earn their keep. A
    // directive covers its own line and the next (the annotated statement).
    let mut used = vec![false; valid.len()];
    diags.retain(|d| {
        if d.rule == BAD_SUPPRESSION {
            return true;
        }
        let mut suppressed = false;
        for (a, hit) in valid.iter().zip(used.iter_mut()) {
            if (a.line == d.line || a.line + 1 == d.line) && a.rules.iter().any(|r| r == d.rule) {
                *hit = true;
                suppressed = true;
            }
        }
        !suppressed
    });

    // A waiver that suppresses nothing is stale: either the finding was
    // fixed (remove the waiver) or the directive drifted off its line.
    // Only report rules the caller actually ran — a file linted with a
    // subset of rules must not mark out-of-scope waivers stale.
    for (a, hit) in valid.iter().zip(used.iter()) {
        let in_scope = a
            .rules
            .iter()
            .any(|r| Rule::parse(r).is_some_and(|rule| rules.contains(&rule)));
        if !*hit && in_scope {
            diags.push(Diagnostic {
                file: file.to_string(),
                line: a.line,
                rule: STALE_SUPPRESSION,
                message: format!(
                    "waiver `allow({})` suppresses nothing; remove it",
                    a.rules.join(", ")
                ),
            });
        }
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (diags, valid.len())
}

/// The 1-based line where the file's `#[cfg(test)]` region begins, if any.
/// Repo convention keeps unit-test modules at the end of the file, so the
/// first `cfg(test)` marker is a sound cutoff for the panic/alloc rules.
fn test_region_start(tokens: &[Token]) -> Option<u32> {
    tokens.windows(3).find_map(|w| {
        (w[0].text == "cfg" && w[1].text == "(" && w[2].text == "test").then_some(w[0].line)
    })
}

fn push(diags: &mut Vec<Diagnostic>, file: &str, line: u32, rule: Rule, message: String) {
    diags.push(Diagnostic {
        file: file.to_string(),
        line,
        rule: rule.id(),
        message,
    });
}

fn check_rule(rule: Rule, tokens: &[Token], file: &str, diags: &mut Vec<Diagnostic>) {
    match rule {
        Rule::WallClock => {
            for t in tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
                if CLOCK_IDENTS.contains(&t.text.as_str()) {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!("wall-clock read `{}`; use the Clock trait", t.text),
                    );
                }
            }
        }
        Rule::UnorderedCollections => {
            for t in tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
                if UNORDERED_IDENTS.contains(&t.text.as_str()) {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!(
                            "randomized-order container `{}`; use BTreeMap/BTreeSet",
                            t.text
                        ),
                    );
                }
            }
        }
        Rule::Float => {
            for t in tokens {
                match t.kind {
                    TokenKind::Ident if t.text == "f32" || t.text == "f64" => {
                        push(
                            diags,
                            file,
                            t.line,
                            rule,
                            format!("floating-point type `{}` in a deterministic path", t.text),
                        );
                    }
                    TokenKind::FloatLit => {
                        push(
                            diags,
                            file,
                            t.line,
                            rule,
                            format!(
                                "floating-point literal `{}` in a deterministic path",
                                t.text
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }
        Rule::Entropy => {
            for (i, t) in tokens.iter().enumerate() {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let hit = ENTROPY_IDENTS.contains(&t.text.as_str())
                    || (t.text == "rand"
                        && tokens
                            .get(i + 1)
                            .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "::"));
                if hit {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!(
                            "OS entropy via `{}`; seed coplay_net::DetRng instead",
                            t.text
                        ),
                    );
                }
            }
        }
        Rule::PanicPath => {
            for (i, t) in tokens.iter().enumerate() {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let next = |o: usize| tokens.get(i + o).map(|n| n.text.as_str());
                let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
                if PANIC_MACROS.contains(&t.text.as_str()) && next(1) == Some("!") {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!("`{}!` reachable in a fenced zone", t.text),
                    );
                } else if PANIC_METHODS.contains(&t.text.as_str())
                    && next(1) == Some("(")
                    && prev.is_some_and(|p| p.kind == TokenKind::Punct && p.text == ".")
                {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!(
                            "`.{}()` panics on the error path; return a typed error",
                            t.text
                        ),
                    );
                } else if UNCHECKED_FNS.contains(&t.text.as_str()) && next(1) == Some("(") {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!("unchecked call `{}` — UB on bad input", t.text),
                    );
                }
            }
        }
        Rule::UncheckedIndex => {
            for (i, t) in tokens.iter().enumerate() {
                if t.kind != TokenKind::Punct || t.text != "[" {
                    continue;
                }
                // Indexing is `expr[...]`: the token before `[` ends an
                // expression (identifier, `]`, or `)`). Everything else —
                // `#[attr]`, `vec![`, slice types `&[u8]`, array literals
                // `= [..]`, slice patterns `{ [..] =>` — is not indexing.
                let Some(p) = i.checked_sub(1).and_then(|p| tokens.get(p)) else {
                    continue;
                };
                let is_index = match p.kind {
                    TokenKind::Ident => !matches!(
                        p.text.as_str(),
                        // Keywords that may directly precede an array/slice
                        // expression or type rather than being indexed.
                        "mut" | "dyn" | "in" | "return" | "break" | "else" | "match" | "as"
                    ),
                    TokenKind::Punct => p.text == "]" || p.text == ")",
                    _ => false,
                };
                if is_index {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!(
                            "slice indexing after `{}` panics when out of range; \
                             use checked Buf getters or `try_take`",
                            p.text
                        ),
                    );
                }
            }
        }
        Rule::HotAlloc => {
            for (i, t) in tokens.iter().enumerate() {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let next = |o: usize| tokens.get(i + o).map(|n| n.text.as_str());
                let prev = |o: usize| i.checked_sub(o).and_then(|p| tokens.get(p));
                if ALLOC_MACROS.contains(&t.text.as_str()) && next(1) == Some("!") {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!("`{}!` allocates on a zero-alloc hot path", t.text),
                    );
                } else if ALLOC_METHODS.contains(&t.text.as_str())
                    && next(1) == Some("(")
                    && prev(1).is_some_and(|p| {
                        p.kind == TokenKind::Punct && (p.text == "." || p.text == "::")
                    })
                {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!("`{}` allocates on a zero-alloc hot path", t.text),
                    );
                } else if t.text == "new"
                    && next(1) == Some("(")
                    && prev(1).is_some_and(|p| p.text == "::")
                    && prev(2).is_some_and(|p| {
                        p.kind == TokenKind::Ident && ALLOC_TYPES.contains(&p.text.as_str())
                    })
                {
                    let ty = prev(2).map_or("?", |p| p.text.as_str());
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        format!("`{ty}::new` constructs a growable container on a hot path"),
                    );
                }
            }
        }
        Rule::StaticState => {
            for (i, t) in tokens.iter().enumerate() {
                if t.kind != TokenKind::Ident || t.text != "static" {
                    continue;
                }
                if tokens
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident && n.text == "mut")
                {
                    push(
                        diags,
                        file,
                        t.line,
                        rule,
                        "`static mut` global state".to_string(),
                    );
                    continue;
                }
                // Scan the static's type (up to `=` or `;`) for interior
                // mutability.
                for n in tokens.iter().skip(i + 1).take(48) {
                    if n.kind == TokenKind::Punct && (n.text == "=" || n.text == ";") {
                        break;
                    }
                    if n.kind == TokenKind::Ident && INTERIOR_MUTABLE.contains(&n.text.as_str()) {
                        push(
                            diags,
                            file,
                            t.line,
                            rule,
                            format!("interior-mutable static (`{}`)", n.text),
                        );
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(src: &str) -> Vec<Diagnostic> {
        lint_source("test.rs", src, &Rule::ALL)
    }

    fn rules_hit(src: &str) -> Vec<&'static str> {
        all(src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_source_passes() {
        assert!(all("use std::collections::BTreeMap;\nfn f(x: u64) -> u64 { x + 1 }\n").is_empty());
    }

    #[test]
    fn each_rule_fires() {
        assert_eq!(rules_hit("let t = Instant::now();"), vec!["wall_clock"]);
        assert_eq!(
            rules_hit("use std::collections::HashMap;"),
            vec!["unordered_collections"]
        );
        assert_eq!(rules_hit("fn f(x: f32) {}"), vec!["float"]);
        assert_eq!(rules_hit("let v = 0.5;"), vec!["float"]);
        assert_eq!(
            rules_hit("let r = rand::thread_rng();"),
            vec!["entropy", "entropy"]
        );
        assert_eq!(rules_hit("static mut X: u64 = 0;"), vec!["static_state"]);
        assert_eq!(
            rules_hit("static C: OnceLock<u64> = OnceLock::new();"),
            vec!["static_state"]
        );
    }

    #[test]
    fn rand_as_plain_identifier_is_fine() {
        // A local variable named `rand` is not the rand crate.
        assert!(all("let rand = 4u32; let x = rand + 1;").is_empty());
    }

    #[test]
    fn immutable_static_is_fine() {
        assert!(all("static TABLE: [u8; 4] = [1, 2, 3, 4];").is_empty());
    }

    #[test]
    fn initializer_after_equals_is_not_searched() {
        // `Mutex` appearing only in the initializer expression of a plain
        // const-like static type would be a different construct; the type
        // window stops at `=`.
        assert!(all("static N: usize = MUTEX_COUNT;").is_empty());
    }

    #[test]
    fn allow_on_same_or_previous_line_suppresses() {
        let same = "let t = Instant::now(); // detlint: allow(wall_clock) -- test shim\n";
        assert!(all(same).is_empty());
        let prev = "// detlint: allow(wall_clock) -- test shim\nlet t = Instant::now();\n";
        assert!(all(prev).is_empty());
    }

    #[test]
    fn allow_does_not_leak_to_later_lines() {
        let src =
            "// detlint: allow(wall_clock) -- one line only\nlet a = 1;\nlet t = Instant::now();\n";
        // The violation two lines down is not covered — and the waiver,
        // now covering nothing, is reported stale.
        assert_eq!(rules_hit(src), vec!["stale_suppression", "wall_clock"]);
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress_and_is_stale() {
        let src = "// detlint: allow(float) -- wrong rule\nlet t = Instant::now();\n";
        assert_eq!(rules_hit(src), vec!["stale_suppression", "wall_clock"]);
    }

    #[test]
    fn stale_waiver_is_reported() {
        let src = "// detlint: allow(wall_clock) -- long since fixed\nlet x = 1;\n";
        let d = all(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "stale_suppression");
        assert!(d[0].message.contains("wall_clock"));
    }

    #[test]
    fn used_waiver_is_not_stale() {
        let src = "// detlint: allow(wall_clock) -- shim\nlet t = Instant::now();\n";
        assert!(all(src).is_empty());
    }

    #[test]
    fn stale_check_honours_rule_scope() {
        // Linted without wall_clock, a wall_clock waiver is out of scope and
        // must not be reported stale (the finding it covers was never run).
        let src = "// detlint: allow(wall_clock) -- covered elsewhere\nlet t = Instant::now();\n";
        assert!(lint_source("t.rs", src, &[Rule::Float]).is_empty());
    }

    #[test]
    fn panic_path_fires_on_macros_methods_and_unchecked() {
        let d = lint_source(
            "t.rs",
            concat!(
                "fn f(o: Option<u8>, b: &[u8]) -> u8 {\n",
                "    let a = o.unwrap();\n",
                "    let c = o.expect(\"x\");\n",
                "    if a == 0 { panic!(\"boom\"); }\n",
                "    if c == 1 { unreachable!(); }\n",
                "    unsafe { *b.get_unchecked(0) }\n",
                "}\n",
            ),
            &[Rule::PanicPath],
        );
        let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6]);
        assert!(d.iter().all(|x| x.rule == "panic_path"));
    }

    #[test]
    fn panic_path_ignores_asserts_and_fn_names() {
        // assert!/debug_assert! are intentional invariants, and an fn NAMED
        // unwrap is a definition, not a call site.
        let src = "fn unwrap(x: u8) {}\nfn g() { assert!(true); debug_assert!(1 == 1); }\n";
        assert!(lint_source("t.rs", src, &[Rule::PanicPath]).is_empty());
    }

    #[test]
    fn unchecked_index_fires_on_indexing_only() {
        let flagged = "fn f(b: &[u8], n: usize) -> u8 { let x = &b[..n]; b[0] }\n";
        let d = lint_source("t.rs", flagged, &[Rule::UncheckedIndex]);
        assert_eq!(d.len(), 2);
        let clean = concat!(
            "#[derive(Clone)]\n",
            "struct S { buf: [u8; 4] }\n",
            "fn g() -> Vec<u8> { let a = [1u8, 2]; vec![3u8] }\n",
            "fn h(s: &[u8]) { match s { [1, ..] => {} _ => {} } }\n",
        );
        assert!(lint_source("t.rs", clean, &[Rule::UncheckedIndex]).is_empty());
    }

    #[test]
    fn hot_alloc_fires_on_allocation_sites() {
        let d = lint_source(
            "t.rs",
            concat!(
                "fn f(b: &[u8]) {\n",
                "    let v: Vec<u8> = Vec::new();\n",
                "    let w = b.to_vec();\n",
                "    let s = format!(\"x{}\", 1);\n",
                "    let bx = Box::new(3u8);\n",
                "    let c = w.clone();\n",
                "    let vc = Vec::<u8>::with_capacity(8);\n",
                "}\n",
            ),
            &[Rule::HotAlloc],
        );
        let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6, 7]);
        assert!(d.iter().all(|x| x.rule == "hot_alloc"));
    }

    #[test]
    fn new_rules_skip_cfg_test_regions_but_determinism_rules_do_not() {
        let src = concat!(
            "fn prod(o: Option<u8>) -> u8 { o.unwrap() }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(o: Option<u8>) { o.unwrap(); let v = vec![0u8]; let x = v[0]; }\n",
            "    fn w() { let t = Instant::now(); }\n",
            "}\n",
        );
        let d = lint_source("t.rs", src, &Rule::ALL);
        let hits: Vec<(&str, u32)> = d.iter().map(|x| (x.rule, x.line)).collect();
        // Only the production unwrap and the in-test wall clock survive.
        assert_eq!(hits, vec![("panic_path", 1), ("wall_clock", 5)]);
    }

    #[test]
    fn reasonless_allow_is_reported_and_suppresses_nothing() {
        let src = "// detlint: allow(wall_clock)\nlet t = Instant::now();\n";
        let hits = rules_hit(src);
        assert!(hits.contains(&"bad_suppression"));
        assert!(hits.contains(&"wall_clock"));
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// detlint: allow(no_such_rule) -- reason\n";
        let d = all(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "bad_suppression");
        assert!(d[0].message.contains("no_such_rule"));
    }

    #[test]
    fn diagnostics_carry_file_and_line() {
        let d = all("let a = 1;\nlet t = SystemTime::now();\n");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].file.as_str(), d[0].line), ("test.rs", 2));
        assert!(d[0].to_string().contains("test.rs:2"));
    }

    #[test]
    fn selected_rules_only() {
        let src = "let t = Instant::now(); let x = 0.5;";
        let d = lint_source("t.rs", src, &[Rule::Float]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float");
    }
}
