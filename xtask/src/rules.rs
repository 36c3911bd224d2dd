//! The lint rules and the per-file analysis driver.
//!
//! Each rule produces [`Finding`]s; a finding is suppressed by an
//! explicit escape hatch written on the same line or the line above:
//!
//! ```text
//! // ats-lint: allow(<rule>) — <reason>
//! ```
//!
//! The reason is mandatory (≥ 8 characters) and the rule name must be
//! real; a malformed or unused annotation is itself a finding
//! (`bad-allow`), so the escape hatch cannot rot into decoration.

use crate::ast::{Ast, LetStmt};
use crate::lexer::{lex, strip_cfg_test, Tok, Token};
use std::collections::BTreeMap;

/// Every rule the linter knows, by kebab-case name.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-panic",
        "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in library code; \
         on untrusted surfaces assert!/assert_eq!/assert_ne! count too",
    ),
    (
        "lossy-cast",
        "no `as <integer>` casts in untrusted-input files; use try_from/checked helpers",
    ),
    (
        "slice-index",
        "no `[]` indexing in untrusted-input files; use .get()/checked slicing",
    ),
    (
        "error-type",
        "public fallible APIs must return ats_common::AtsError",
    ),
    (
        "lint-table",
        "crate-level lint attributes belong in [workspace.lints]",
    ),
    (
        "bad-allow",
        "malformed, unknown, or unused `ats-lint: allow` annotation",
    ),
    (
        "lock-discipline",
        "no thread join, channel send/recv, socket I/O, or second lock acquisition while a \
         guard is live in the enclosing block; the cross-file lock-order graph must be acyclic",
    ),
    (
        "float-determinism",
        "in numeric hot files, fused-shape accumulation (`acc += a * b`) must route through \
         vecops::{fmadd, axpy, dot} so the canonical accumulation order is machine-enforced",
    ),
    (
        "untrusted-len-alloc",
        "on untrusted surfaces, Vec::with_capacity/vec![_; n]/.reserve(n) sized by a \
         decoded/parsed value needs an intervening bound check (min/comparison guard)",
    ),
    (
        "one-fork-join",
        "`crossbeam::` appears only in the one fork-join (crates/compress/src/par.rs); \
         threaded passes call ats_compress::par::fork_join",
    ),
    (
        "no-ambient-env",
        "no env::var/var_os/vars/vars_os in library or CLI code outside crates/bench/: \
         a store's layout and an engine's behaviour are arguments, never the caller's \
         environment",
    ),
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule name (kebab-case, from [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Files whose bytes or text arrive from outside the process — disk
/// formats, CLI arguments, query text. The `lossy-cast` and
/// `slice-index` rules apply only here: a lossy cast or unchecked index
/// on attacker-controllable lengths is exactly the `read_deltas`
/// corrupt-count bug class. The reconstruction kernels are held to the
/// same standard: they run over caller-shaped buffers on the hot serving
/// path, where an unchecked index would turn a length bug into UB-adjacent
/// panics instead of an error.
pub const UNTRUSTED_SURFACES: &[&str] = &[
    "crates/common/src/codec.rs",
    "crates/storage/src/format.rs",
    "crates/storage/src/store_dir.rs",
    "crates/storage/src/file.rs",
    "crates/storage/src/pool.rs",
    "crates/storage/src/synopsis.rs",
    "crates/compress/src/append.rs",
    "crates/compress/src/delta.rs",
    "crates/core/src/disk.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/timeblock.rs",
    "crates/linalg/src/kernels.rs",
    "crates/query/src/parse.rs",
    "crates/query/src/metrics.rs",
    "crates/query/src/serve.rs",
    "src/bin/ats.rs",
];

/// Path prefixes exempt from `no-panic`: the bench crate is an offline
/// experiment harness whose binaries may abort on I/O errors — it is
/// not part of the serving path the panic-free policy protects.
pub const NO_PANIC_EXEMPT_PREFIXES: &[&str] = &["crates/bench/"];

/// Numeric hot files where accumulation order is a correctness contract
/// (DESIGN.md §5f/§5g: shard/thread/batch results are bitwise identical
/// to the serial scalar path). Raw fused-shape accumulation here must
/// route through `vecops::{fmadd, axpy, dot}` — the `float-determinism`
/// rule enforces it. `vecops.rs` itself is excluded: it *is* the
/// canonical implementation.
pub const FLOAT_HOT_FILES: &[&str] = &[
    "crates/linalg/src/kernels.rs",
    "crates/linalg/src/svd.rs",
    "crates/compress/src/gram.rs",
    "crates/compress/src/svd.rs",
    "crates/compress/src/svdd.rs",
    "crates/compress/src/append.rs",
    "crates/core/src/disk.rs",
    "crates/core/src/shard.rs",
];

/// The one file allowed to name the scoped-thread crate: every threaded
/// pass goes through its `fork_join`, so swapping the thread primitive
/// is a change to one function.
pub const FORK_JOIN_FILE: &str = "crates/compress/src/par.rs";

/// Path prefixes exempt from `no-ambient-env`: the offline experiment
/// harness reads its knobs (`ATS_MAX_N`, `ATS_RESULTS_DIR`) from the
/// environment. (`xtask/` itself is never scanned.)
pub const AMBIENT_ENV_EXEMPT_PREFIXES: &[&str] = &["crates/bench/"];

/// The `std::env` readers `no-ambient-env` flags. `env::args` (the CLI's
/// own arguments) and `env::temp_dir` stay legal.
const AMBIENT_ENV_READERS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// Files whose named `Mutex`/`RwLock` fields form the nodes of the
/// cross-file lock-acquisition-order graph (the long-lived daemon and
/// the shared page pool it serves from).
pub const LOCK_GRAPH_FILES: &[&str] = &[
    "crates/query/src/serve.rs",
    "crates/query/src/metrics.rs",
    "crates/query/src/engine.rs",
    "crates/storage/src/pool.rs",
];

/// Tokens whose presence in an initializer marks the binding as derived
/// from decoded/parsed external bytes (the `read_deltas` corrupt-count
/// bug class). Matched as whole identifiers followed by `(`, `<`, or `::`.
const DECODE_TOKENS: &[&str] = &[
    "from_be_bytes",
    "from_le_bytes",
    "from_ne_bytes",
    "read_u16",
    "read_u32",
    "read_u64",
    "read_varint",
    "decode_varint",
    "parse",
    "decode",
];

/// Method calls that block (or can block indefinitely) and therefore
/// must not run while a lock guard is live.
const BLOCKING_METHODS: &[&str] = &[
    "join",
    "send",
    "recv",
    "try_send",
    "try_recv",
    "recv_timeout",
    "accept",
    "connect",
];

/// Type names whose mere use while a guard is live signals socket I/O
/// under a lock.
const BLOCKING_TYPES: &[&str] = &["TcpStream", "TcpListener"];

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Asserts abort just like `panic!`, but they encode an invariant, so
/// they are tolerated in trusted library code where the invariant is
/// the library's own. On untrusted surfaces the "invariant" is someone
/// else's input — `error_report`'s old `assert_eq!(dims)` turned two
/// mismatched *files* into a process abort — so there they are flagged
/// like any other panic. `debug_assert*` are distinct names and stay
/// legal everywhere.
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Keywords that may directly precede `[` without it being an index
/// expression (slice patterns, array types in odd spots).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "match", "if", "else", "as", "mut", "ref", "move", "while", "loop",
    "for", "where", "impl", "fn", "pub", "use", "mod", "struct", "enum", "const", "static",
    "break", "continue", "dyn", "type", "box", "yield",
];

/// A parsed `ats-lint: allow(rule)` annotation.
struct Allow {
    line: u32,
    rule: String,
    used: std::cell::Cell<bool>,
}

/// Parse annotations out of the file's line comments, recording
/// malformed ones as `bad-allow` findings immediately.
fn parse_allows(
    file: &str,
    comments: &[crate::lexer::Comment],
    findings: &mut Vec<Finding>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("ats-lint:") else {
            continue;
        };
        let rest = c.text[pos + "ats-lint:".len()..].trim_start();
        let bad = |msg: String, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: "bad-allow",
                message: msg,
            });
        };
        let Some(rest) = rest.strip_prefix("allow(") else {
            bad(
                "annotation must be `ats-lint: allow(<rule>) — <reason>`".to_string(),
                findings,
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("unclosed `allow(`".to_string(), findings);
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !RULES.iter().any(|&(name, _)| name == rule) {
            bad(
                format!("unknown rule {rule:?} in allow annotation"),
                findings,
            );
            continue;
        }
        // Everything after `)` must be a separator plus a real reason.
        let tail = rest[close + 1..].trim_start();
        let reason = tail.trim_start_matches(['—', '–', '-', ':']).trim();
        if reason.len() < 8 {
            bad(
                format!(
                    "allow({rule}) needs a reason: `// ats-lint: allow({rule}) — <why this is safe>`"
                ),
                findings,
            );
            continue;
        }
        allows.push(Allow {
            line: c.line,
            rule,
            used: std::cell::Cell::new(false),
        });
    }
    allows
}

/// Lint one source file. `file` is the workspace-relative path used both
/// for reporting and for scoping path-dependent rules.
pub fn lint_source(file: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let (all_toks, comments) = lex(src);
    let toks = strip_cfg_test(&all_toks);
    let ast = Ast::parse(&toks);
    let allows = parse_allows(file, &comments, &mut findings);

    let untrusted = UNTRUSTED_SURFACES.contains(&file);
    let no_panic = !NO_PANIC_EXEMPT_PREFIXES
        .iter()
        .any(|&p| file.starts_with(p));

    let mut raw: Vec<Finding> = Vec::new();
    if no_panic {
        rule_no_panic(file, &toks, untrusted, &mut raw);
    }
    if untrusted {
        rule_lossy_cast(file, &toks, &mut raw);
        rule_slice_index(file, &toks, &mut raw);
        rule_untrusted_len_alloc(file, &toks, &ast, &mut raw);
    }
    if FLOAT_HOT_FILES.contains(&file) {
        rule_float_determinism(file, &toks, &mut raw);
    }
    if file != FORK_JOIN_FILE {
        rule_one_fork_join(file, &toks, &mut raw);
    }
    if !AMBIENT_ENV_EXEMPT_PREFIXES
        .iter()
        .any(|&p| file.starts_with(p))
    {
        rule_no_ambient_env(file, &toks, &mut raw);
    }
    rule_lock_discipline(file, &toks, &ast, &mut raw);
    rule_error_type(file, &toks, &mut raw);
    rule_lint_header(file, &toks, &mut raw);

    // Apply the escape hatch: an annotation suppresses findings of its
    // rule on its own line and the following line.
    for f in raw {
        let suppressed = allows.iter().any(|a| {
            a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) && {
                a.used.set(true);
                true
            }
        });
        if !suppressed {
            findings.push(f);
        }
    }
    for a in &allows {
        if !a.used.get() {
            findings.push(Finding {
                file: file.to_string(),
                line: a.line,
                rule: "bad-allow",
                message: format!(
                    "allow({}) suppresses nothing on this or the next line — remove it",
                    a.rule
                ),
            });
        }
    }
    findings.sort();
    findings
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        Tok::Punct(_) => None,
    }
}

fn punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

fn rule_no_panic(file: &str, toks: &[Token], untrusted: bool, out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let Some(word) = ident(&toks[i]) else {
            continue;
        };
        if PANIC_METHODS.contains(&word)
            && i > 0
            && punct(&toks[i - 1], '.')
            && toks.get(i + 1).is_some_and(|t| punct(t, '('))
        {
            out.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: "no-panic",
                message: format!(
                    "`.{word}()` can panic; return Result<_, AtsError> instead \
                     (or annotate: `// ats-lint: allow(no-panic) — <reason>`)"
                ),
            });
        }
        if PANIC_MACROS.contains(&word) && toks.get(i + 1).is_some_and(|t| punct(t, '!')) {
            out.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: "no-panic",
                message: format!(
                    "`{word}!` aborts the serving path; return Result<_, AtsError> instead \
                     (or annotate: `// ats-lint: allow(no-panic) — <reason>`)"
                ),
            });
        }
        if untrusted
            && ASSERT_MACROS.contains(&word)
            && toks.get(i + 1).is_some_and(|t| punct(t, '!'))
        {
            out.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: "no-panic",
                message: format!(
                    "`{word}!` on an untrusted surface aborts on bad input; validate and \
                     return Result<_, AtsError> instead \
                     (or annotate: `// ats-lint: allow(no-panic) — <reason>`)"
                ),
            });
        }
    }
}

fn rule_lossy_cast(file: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if ident(&toks[i]) != Some("as") {
            continue;
        }
        // `use x as y` renames are not casts: the token before a cast's
        // `as` is never the `use` path separator context — cheap check:
        // renames are followed by a plain identifier that is not a type
        // we police, so just test the target type.
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        let Some(ty) = ident(next) else { continue };
        if INT_TYPES.contains(&ty) {
            out.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: "lossy-cast",
                message: format!(
                    "`as {ty}` on untrusted input; use {ty}::try_from / the checked codec \
                     helpers, or annotate with a proof the cast is lossless"
                ),
            });
        }
    }
}

fn rule_slice_index(file: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 1..toks.len() {
        if !punct(&toks[i], '[') {
            continue;
        }
        let prev = &toks[i - 1];
        let is_index_base = match &prev.tok {
            Tok::Ident(w) => !NON_INDEX_KEYWORDS.contains(&w.as_str()),
            Tok::Punct(c) => matches!(c, ')' | ']' | '?'),
        };
        if is_index_base {
            out.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: "slice-index",
                message: "`[]` indexing on untrusted-length data can panic; use .get()/.get_mut() \
                          or checked slicing, or annotate with the bound that makes it safe"
                    .to_string(),
            });
        }
    }
}

/// Detect `pub fn … -> Result<…, NotAtsError>` and `pub fn … -> io::Result<…>`.
fn rule_error_type(file: &str, toks: &[Token], out: &mut Vec<Finding>) {
    // Binaries surface errors to the shell, not to library callers.
    if file.starts_with("src/bin/") || file.contains("/src/bin/") {
        return;
    }
    let mut i = 0usize;
    while i < toks.len() {
        if ident(&toks[i]) != Some("pub") {
            i += 1;
            continue;
        }
        // pub(crate)/pub(super)/pub(in …) are not public API.
        if toks.get(i + 1).is_some_and(|t| punct(t, '(')) {
            i += 2;
            continue;
        }
        // Allow qualifiers between `pub` and `fn`.
        let mut j = i + 1;
        while j < toks.len()
            && matches!(
                ident(&toks[j]),
                Some("const" | "async" | "unsafe" | "extern")
            )
        {
            j += 1;
        }
        if ident(&toks[j]).map(|_| ()).is_none() || ident(&toks[j]) != Some("fn") {
            i += 1;
            continue;
        }
        let fn_line = toks[j].line;
        let fn_name = ident(&toks[j + 1]).unwrap_or("?").to_string();
        // Find the parameter list: the first `(` at angle-depth 0,
        // treating `->`'s `>` as an arrow rather than a closing angle.
        let mut k = j + 2;
        let mut angle = 0i32;
        while k < toks.len() {
            match &toks[k].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !(k > 0 && punct(&toks[k - 1], '-')) => angle -= 1,
                Tok::Punct('(') if angle == 0 => break,
                Tok::Punct('{') | Tok::Punct(';') => break,
                _ => {}
            }
            k += 1;
        }
        if k >= toks.len() || !punct(&toks[k], '(') {
            i = j + 1;
            continue;
        }
        // Match the params to the closing `)`.
        let mut depth = 0i32;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        k += 1;
        // Return type?
        if !(toks.get(k).is_some_and(|t| punct(t, '-'))
            && toks.get(k + 1).is_some_and(|t| punct(t, '>')))
        {
            i = k;
            continue;
        }
        k += 2;
        let ret_start = k;
        let mut paren = 0i32;
        while k < toks.len() {
            match &toks[k].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct('{') | Tok::Punct(';') if paren == 0 => break,
                Tok::Ident(w) if w == "where" && paren == 0 => break,
                _ => {}
            }
            k += 1;
        }
        check_return_type(file, fn_line, &fn_name, &toks[ret_start..k], out);
        i = k;
    }
}

fn check_return_type(file: &str, line: u32, fn_name: &str, ret: &[Token], out: &mut Vec<Finding>) {
    let flat: String = ret
        .iter()
        .map(|t| match &t.tok {
            Tok::Ident(s) => format!("{s} "),
            Tok::Punct(c) => c.to_string(),
        })
        .collect();
    if flat.contains("io ::Result") {
        out.push(Finding {
            file: file.to_string(),
            line,
            rule: "error-type",
            message: format!(
                "pub fn {fn_name} returns io::Result; public fallible APIs return \
                 ats_common::Result (AtsError wraps the io::Error)"
            ),
        });
        return;
    }
    // Find `Result <` and split its top-level generic args on `,`.
    for i in 0..ret.len() {
        if ident(&ret[i]) != Some("Result") {
            continue;
        }
        if !ret.get(i + 1).is_some_and(|t| punct(t, '<')) {
            continue;
        }
        let mut angle = 0i32;
        let mut nest = 0i32; // parens/brackets: tuple and array commas don't count
        let mut last_comma: Option<usize> = None;
        let mut end = ret.len();
        for (k, t) in ret.iter().enumerate().skip(i + 1) {
            match t.tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => {
                    angle -= 1;
                    if angle == 0 {
                        end = k;
                        break;
                    }
                }
                Tok::Punct('(') | Tok::Punct('[') => nest += 1,
                Tok::Punct(')') | Tok::Punct(']') => nest -= 1,
                Tok::Punct(',') if angle == 1 && nest == 0 => last_comma = Some(k),
                _ => {}
            }
        }
        let Some(comma) = last_comma else { continue };
        let err_ty: String = ret[comma + 1..end]
            .iter()
            .map(|t| match &t.tok {
                Tok::Ident(s) => s.clone(),
                Tok::Punct(c) => c.to_string(),
            })
            .collect();
        if !err_ty.contains("AtsError") {
            out.push(Finding {
                file: file.to_string(),
                line,
                rule: "error-type",
                message: format!(
                    "pub fn {fn_name} returns Result<_, {err_ty}>; public fallible APIs \
                     return ats_common::Result<_> (error type AtsError)"
                ),
            });
        }
    }
}

/// `crossbeam::` outside [`FORK_JOIN_FILE`]: a second hand-rolled thread
/// scope, which the next change of thread primitive would miss.
fn rule_one_fork_join(file: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if ident(&toks[i]) == Some("crossbeam")
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
        {
            out.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: "one-fork-join",
                message: format!(
                    "`crossbeam::` outside {FORK_JOIN_FILE}; run the workers through \
                     ats_compress::par::fork_join"
                ),
            });
        }
    }
}

/// `env::var` and friends in shipped code: behaviour that changes with
/// the caller's shell instead of with an argument.
fn rule_no_ambient_env(file: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if ident(&toks[i]) == Some("env")
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
        {
            if let Some(reader) = toks
                .get(i + 3)
                .and_then(ident)
                .filter(|r| AMBIENT_ENV_READERS.contains(r))
            {
                out.push(Finding {
                    file: file.to_string(),
                    line: toks[i].line,
                    rule: "no-ambient-env",
                    message: format!(
                        "`env::{reader}` reads the caller's environment; take the value \
                         as an argument or a flag instead"
                    ),
                });
            }
        }
    }
}

/// Crate-level lint attributes (`#![warn(…)]` etc.) are unified under
/// `[workspace.lints]`; per-file copies drift and belong there.
fn rule_lint_header(file: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len().saturating_sub(3) {
        if punct(&toks[i], '#')
            && punct(&toks[i + 1], '!')
            && punct(&toks[i + 2], '[')
            && matches!(
                ident(&toks[i + 3]),
                Some("warn" | "deny" | "forbid" | "allow")
            )
        {
            out.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: "lint-table",
                message: "crate-level lint attribute; declare it once in [workspace.lints] \
                          (Cargo.toml) instead"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------

/// Is the token at `i` a lock acquisition? Recognized shapes:
/// `.lock()` / `.try_lock()` / `.read()` / `.write()` / `.try_read()` /
/// `.try_write()` with *empty* parens (RwLock/Mutex acquisitions take no
/// arguments, which keeps `io::Read::read(buf)` out), and the free
/// poison-recovering helper `lock(&…)` from serve.rs (any arity, but not
/// its own `fn lock` definition).
fn acquisition_at(toks: &[Token], i: usize) -> bool {
    let Some(w) = ident(&toks[i]) else {
        return false;
    };
    if !toks.get(i + 1).is_some_and(|t| punct(t, '(')) {
        return false;
    }
    let dotted = i > 0 && punct(&toks[i - 1], '.');
    match w {
        "lock" | "try_lock" | "read" | "write" | "try_read" | "try_write" if dotted => {
            toks.get(i + 2).is_some_and(|t| punct(t, ')'))
        }
        "lock" => i == 0 || ident(&toks[i - 1]) != Some("fn"),
        _ => false,
    }
}

/// Best-effort name of the lock a recognized acquisition targets: the
/// receiver field for `.lock()` (`self.inner.lock()` → `inner`), the
/// last path component of the argument for the free helper
/// (`lock(&shared.queue)` → `queue`).
fn acquisition_target(toks: &[Token], i: usize) -> Option<String> {
    if i > 0 && punct(&toks[i - 1], '.') {
        return toks
            .get(i.checked_sub(2)?)
            .and_then(ident)
            .map(str::to_string);
    }
    // Free helper: scan the parenthesized argument for its last ident.
    let mut j = i + 1;
    let mut depth = 0i64;
    let mut last = None;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(w) if w != "self" && w != "mut" => last = Some(w.clone()),
            _ => {}
        }
        j += 1;
    }
    last
}

/// A binding whose initializer acquires a lock, live to the end of its
/// enclosing block (or an explicit `drop(name)`).
struct LiveGuard<'a> {
    stmt: &'a LetStmt,
    /// Best-effort name of the lock field this guard holds.
    field: Option<String>,
}

/// Find the guard bindings of one file: lets whose initializer contains
/// an acquisition at brace depth 0 *within the initializer* — an inner
/// `{ … }` block confines its temporaries, so `let v = { let g =
/// m.lock(); … };` does not make `v` a guard, while `let v =
/// take(&mut *lock(&m));` conservatively does (parens do not end
/// temporary lifetimes; the guard lives to the end of the statement and
/// Rust's temporary-extension rules can stretch it further).
fn guard_lets<'a>(toks: &[Token], ast: &'a Ast) -> Vec<LiveGuard<'a>> {
    let mut out = Vec::new();
    for l in &ast.lets {
        let (s, e) = l.init;
        let mut depth = 0i64;
        let mut j = s;
        while j < e.min(toks.len()) {
            match &toks[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ if depth == 0 && acquisition_at(toks, j) => {
                    out.push(LiveGuard {
                        stmt: l,
                        field: acquisition_target(toks, j),
                    });
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// Tokens `[start, end)` where a guard is live: from the end of its let
/// statement to the close of its enclosing block, cut short by an
/// explicit `drop(<name>)`.
fn guard_live_range(toks: &[Token], ast: &Ast, g: &LiveGuard<'_>) -> (usize, usize) {
    let start = g.stmt.init.1;
    let mut end = ast
        .blocks
        .get(g.stmt.block)
        .map_or(toks.len(), |b| b.close)
        .min(toks.len());
    let mut k = start;
    while k < end {
        if ident(&toks[k]) == Some("drop")
            && toks.get(k + 1).is_some_and(|t| punct(t, '('))
            && toks
                .get(k + 2)
                .and_then(ident)
                .is_some_and(|w| g.stmt.names.iter().any(|n| n == w))
        {
            end = k;
            break;
        }
        k += 1;
    }
    (start, end)
}

/// Within each function, flag blocking operations and second lock
/// acquisitions while a guard is live.
fn rule_lock_discipline(file: &str, toks: &[Token], ast: &Ast, out: &mut Vec<Finding>) {
    for g in guard_lets(toks, ast) {
        let gname = g.stmt.names.first().map_or("_", String::as_str);
        let (start, end) = guard_live_range(toks, ast, &g);
        let mut k = start;
        while k < end.min(toks.len()) {
            let line = toks[k].line;
            if acquisition_at(toks, k) {
                out.push(Finding {
                    file: file.to_string(),
                    line,
                    rule: "lock-discipline",
                    message: format!(
                        "second lock acquisition while guard `{gname}` (line {}) is live; \
                         narrow the first guard's scope with an inner block, or annotate \
                         the nesting with its lock-order justification",
                        g.stmt.line
                    ),
                });
                k += 1;
                continue;
            }
            if let Some(w) = ident(&toks[k]) {
                let dotted_call = k > 0
                    && punct(&toks[k - 1], '.')
                    && toks.get(k + 1).is_some_and(|t| punct(t, '('));
                if dotted_call && BLOCKING_METHODS.contains(&w) {
                    out.push(Finding {
                        file: file.to_string(),
                        line,
                        rule: "lock-discipline",
                        message: format!(
                            "`.{w}()` can block while guard `{gname}` (line {}) is live; \
                             drop the guard (inner block or explicit drop) before blocking",
                            g.stmt.line
                        ),
                    });
                } else if BLOCKING_TYPES.contains(&w) {
                    out.push(Finding {
                        file: file.to_string(),
                        line,
                        rule: "lock-discipline",
                        message: format!(
                            "socket I/O (`{w}`) while guard `{gname}` (line {}) is live; \
                             drop the guard before touching the network",
                            g.stmt.line
                        ),
                    });
                }
            }
            k += 1;
        }
    }
}

/// Lock-acquisition-order edges of one file: `(held, acquired, line)`
/// whenever a second lock is acquired while a guard on a *named* lock is
/// live. Collected independently of `allow` suppression — an annotated
/// nesting still constrains the global order graph.
pub fn lock_edges(src: &str) -> Vec<(String, String, u32)> {
    let (all_toks, _) = lex(src);
    let toks = strip_cfg_test(&all_toks);
    let ast = Ast::parse(&toks);
    let mut out = Vec::new();
    for g in guard_lets(&toks, &ast) {
        let Some(held) = g.field.clone() else {
            continue;
        };
        let (start, end) = guard_live_range(&toks, &ast, &g);
        for k in start..end.min(toks.len()) {
            if acquisition_at(&toks, k) {
                if let Some(acquired) = acquisition_target(&toks, k) {
                    out.push((held.clone(), acquired, toks[k].line));
                }
            }
        }
    }
    out
}

/// Named `Mutex`/`RwLock` fields declared in one file — the pattern
/// `name : Mutex <` / `name : RwLock <` (type position only; struct
/// literal initializers like `queue: Mutex::new(…)` do not match).
pub fn lock_fields(src: &str) -> Vec<(String, u32)> {
    let (all_toks, _) = lex(src);
    let toks = strip_cfg_test(&all_toks);
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(3) {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        if punct(&toks[i + 1], ':')
            && matches!(ident(&toks[i + 2]), Some("Mutex" | "RwLock"))
            && punct(&toks[i + 3], '<')
        {
            out.push((name.to_string(), toks[i].line));
        }
    }
    out
}

// ---------------------------------------------------------------------
// float-determinism
// ---------------------------------------------------------------------

/// `*` is multiplication (not a deref or glob) when the previous token
/// can end an operand.
fn span_has_mult(toks: &[Token]) -> bool {
    for i in 1..toks.len() {
        if punct(&toks[i], '*') {
            let prev_ends_operand = match &toks[i - 1].tok {
                Tok::Ident(_) => true,
                Tok::Punct(c) => matches!(c, ')' | ']'),
            };
            // `*=` is a compound assign, not a product inside the rhs.
            let next_is_eq = toks.get(i + 1).is_some_and(|t| punct(t, '='));
            if prev_ends_operand && !next_is_eq {
                return true;
            }
        }
    }
    false
}

/// Statement span from `start` to the `;` (exclusive) at nesting depth 0.
fn stmt_end(toks: &[Token], start: usize) -> usize {
    let mut depth = 0i64;
    let mut k = start;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            Tok::Punct(';') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    k
}

/// Flag `acc += a * b` and `acc = acc + a * b` shapes in the designated
/// numeric hot files — the canonical path is `vecops::fmadd(a, b, acc)`
/// (or `dot`/`axpy` for whole slices), which keeps the accumulation
/// order bitwise identical across the scalar/blocked/batched paths.
fn rule_float_determinism(file: &str, toks: &[Token], out: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        let Some(name) = ident(&toks[i]) else {
            i += 1;
            continue;
        };
        // `acc += <expr containing a product>`
        if toks.get(i + 1).is_some_and(|t| punct(t, '+'))
            && toks.get(i + 2).is_some_and(|t| punct(t, '='))
        {
            let end = stmt_end(toks, i + 3);
            if span_has_mult(&toks[i + 3..end.min(toks.len())]) {
                out.push(Finding {
                    file: file.to_string(),
                    line: toks[i].line,
                    rule: "float-determinism",
                    message: format!(
                        "raw fused accumulation into `{name}`; use vecops::fmadd(a, b, {name}) \
                         (or dot/axpy over the whole slice) so the canonical accumulation \
                         order is preserved"
                    ),
                });
            }
            i = end;
            continue;
        }
        // `acc = acc + <expr containing a product>`
        if toks.get(i + 1).is_some_and(|t| punct(t, '='))
            && !toks.get(i + 2).is_some_and(|t| punct(t, '='))
            && toks.get(i + 2).and_then(ident) == Some(name)
            && toks.get(i + 3).is_some_and(|t| punct(t, '+'))
        {
            let end = stmt_end(toks, i + 4);
            if span_has_mult(&toks[i + 4..end.min(toks.len())]) {
                out.push(Finding {
                    file: file.to_string(),
                    line: toks[i].line,
                    rule: "float-determinism",
                    message: format!(
                        "raw fused accumulation into `{name}`; use vecops::fmadd(a, b, {name}) \
                         (or dot/axpy over the whole slice) so the canonical accumulation \
                         order is preserved"
                    ),
                });
            }
            i = end;
            continue;
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// untrusted-len-alloc
// ---------------------------------------------------------------------

/// Does this span contain a size-sanitizing call: `.min(`, `.clamp(`,
/// `min(`, or `.len(` (a length of data actually in memory is a safe
/// capacity)?
fn span_sanitized(toks: &[Token]) -> bool {
    for i in 0..toks.len() {
        let Some(w) = ident(&toks[i]) else { continue };
        let called = toks.get(i + 1).is_some_and(|t| punct(t, '('));
        if !called {
            continue;
        }
        let dotted = i > 0 && punct(&toks[i - 1], '.');
        match w {
            "min" | "clamp" => return true,
            "len" if dotted => return true,
            _ => {}
        }
    }
    false
}

/// Does this span contain a decode/parse call (`from_be_bytes(`,
/// `parse::<…>`, …)?
fn span_has_decode(toks: &[Token]) -> bool {
    for i in 0..toks.len() {
        let Some(w) = ident(&toks[i]) else { continue };
        if !DECODE_TOKENS.contains(&w) {
            continue;
        }
        if toks
            .get(i + 1)
            .is_some_and(|t| punct(t, '(') || punct(t, '<') || punct(t, ':'))
        {
            return true;
        }
    }
    false
}

/// Was `name` bound-checked between tokens `from` and `to`? A check is
/// the ident adjacent (within two tokens) to a `<`/`>` comparison, or
/// directly followed by `.min(`/`.clamp(`.
fn is_bound_checked(toks: &[Token], name: &str, from: usize, to: usize) -> bool {
    let to = to.min(toks.len());
    for k in from..to {
        if ident(&toks[k]) != Some(name) {
            continue;
        }
        let lo = k.saturating_sub(2);
        let hi = (k + 3).min(toks.len());
        if toks[lo..hi].iter().any(|t| punct(t, '<') || punct(t, '>')) {
            return true;
        }
        if punct_at(toks, k + 1, '.')
            && matches!(toks.get(k + 2).and_then(ident), Some("min" | "clamp"))
        {
            return true;
        }
    }
    false
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| punct(t, c))
}

/// One allocation site: the token index of the pattern and the size
/// expression's token span.
fn alloc_sites(toks: &[Token]) -> Vec<(usize, (usize, usize))> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(w) = ident(&toks[i]) else { continue };
        match w {
            "with_capacity" if punct_at(toks, i + 1, '(') => {
                out.push((i, paren_span(toks, i + 1)));
            }
            "reserve" | "reserve_exact"
                if i > 0 && punct(&toks[i - 1], '.') && punct_at(toks, i + 1, '(') =>
            {
                out.push((i, paren_span(toks, i + 1)));
            }
            "vec" if punct_at(toks, i + 1, '!') && punct_at(toks, i + 2, '[') => {
                // `vec![elem; n]` — the size is everything after the `;`.
                let (s, e) = bracket_span(toks, i + 2);
                let mut depth = 0i64;
                for (k, t) in toks.iter().enumerate().take(e).skip(s) {
                    match &t.tok {
                        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                        Tok::Punct(';') if depth == 0 => {
                            out.push((i, (k + 1, e)));
                            break;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Span of the tokens inside the `(` at `open` (exclusive of the parens).
fn paren_span(toks: &[Token], open: usize) -> (usize, usize) {
    let mut depth = 0i64;
    let mut k = open;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return (open + 1, k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    (open + 1, k)
}

/// Span of the tokens inside the `[` at `open` (exclusive of the brackets).
fn bracket_span(toks: &[Token], open: usize) -> (usize, usize) {
    let mut depth = 0i64;
    let mut k = open;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (open + 1, k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    (open + 1, k)
}

/// On untrusted surfaces: an allocation whose size expression contains a
/// decode call, or a local binding tainted by one, without an
/// intervening bound check, is the `read_deltas` bug recurring.
fn rule_untrusted_len_alloc(file: &str, toks: &[Token], ast: &Ast, out: &mut Vec<Finding>) {
    // Per-function taint: binding name -> (def token index, def line).
    // Taint flows through local let chains only; a sanitized initializer
    // (`.min(`, `.len(`) or a bound check between def and use clears it.
    for f in &ast.fns {
        let Some(body) = f.body else { continue };
        let Some(b) = ast.blocks.get(body) else {
            continue;
        };
        let (bs, be) = (b.open.min(toks.len()), b.close.min(toks.len()));
        let mut tainted: Vec<(String, usize, u32)> = Vec::new();
        for l in &ast.lets {
            if l.let_idx < bs || l.let_idx >= be {
                continue;
            }
            let init = &toks[l.init.0.min(toks.len())..l.init.1.min(toks.len())];
            let sanitized = span_sanitized(init);
            let direct = !sanitized && span_has_decode(init);
            let via_chain = !sanitized
                && tainted.iter().any(|(name, def, _)| {
                    init.iter().any(|t| ident(t) == Some(name.as_str()))
                        && !is_bound_checked(toks, name, *def, l.let_idx)
                });
            // Shadowing: this `let` replaces any earlier binding of the
            // same names, so stale taint must not outlive it — a
            // sanitized (or simply clean) re-bind clears the name.
            tainted.retain(|(name, _, _)| !l.names.contains(name));
            if direct || via_chain {
                for n in &l.names {
                    tainted.push((n.clone(), l.init.1, l.line));
                }
            }
        }
        for (at, (s, e)) in alloc_sites(&toks[bs..be]) {
            let (at, s, e) = (bs + at, bs + s, bs + e);
            let size = &toks[s.min(toks.len())..e.min(toks.len())];
            if span_sanitized(size) {
                continue;
            }
            if span_has_decode(size) {
                out.push(Finding {
                    file: file.to_string(),
                    line: toks[at].line,
                    rule: "untrusted-len-alloc",
                    message: "allocation sized directly by a decoded value; bound it first \
                              (`.min(cap)` or an explicit comparison guard)"
                        .to_string(),
                });
                continue;
            }
            for (name, def, dline) in &tainted {
                let used = size.iter().any(|t| ident(t) == Some(name.as_str()));
                if used && !is_bound_checked(toks, name, *def, at) {
                    out.push(Finding {
                        file: file.to_string(),
                        line: toks[at].line,
                        rule: "untrusted-len-alloc",
                        message: format!(
                            "allocation sized by `{name}` (decoded at line {dline}) without an \
                             intervening bound check; compare it against a limit or `.min(cap)` \
                             it first"
                        ),
                    });
                    break;
                }
            }
        }
    }
}

/// Check one member crate's `Cargo.toml` opts into the workspace lint
/// table (`[lints] workspace = true`).
pub fn lint_member_manifest(rel_path: &str, text: &str) -> Vec<Finding> {
    let mut in_lints = false;
    let mut ok = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            ok = true;
        }
    }
    if ok {
        Vec::new()
    } else {
        vec![Finding {
            file: rel_path.to_string(),
            line: 1,
            rule: "lint-table",
            message: "missing `[lints] workspace = true`; every member crate inherits the \
                      workspace lint table"
                .to_string(),
        }]
    }
}

/// Check the workspace root manifest declares the shared lint table with
/// the two non-negotiable entries.
pub fn lint_workspace_manifest(text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_rust = false;
    let mut keys: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_rust = line == "[workspace.lints.rust]";
        } else if in_rust {
            if let Some((k, v)) = line.split_once('=') {
                keys.insert(k.trim().to_string(), v.trim().trim_matches('"').to_string());
            }
        }
    }
    let mut require = |key: &str, value: &str| {
        if keys.get(key).map(String::as_str) != Some(value) {
            out.push(Finding {
                file: "Cargo.toml".to_string(),
                line: 1,
                rule: "lint-table",
                message: format!("[workspace.lints.rust] must set `{key} = \"{value}\"`"),
            });
        }
    };
    require("unsafe_code", "deny");
    require("missing_docs", "warn");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_unwrap_is_reported_with_file_line_and_rule() {
        // The acceptance-criteria scenario: a deliberately planted
        // `unwrap()` in a library crate must be reported with file, line,
        // and rule name.
        let src = "//! doc\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let findings = lint_source("crates/query/src/engine.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.file, "crates/query/src/engine.rs");
        assert_eq!(f.line, 3);
        assert_eq!(f.rule, "no-panic");
        assert_eq!(
            f.to_string().split(':').take(3).collect::<Vec<_>>(),
            vec!["crates/query/src/engine.rs", "3", " no-panic"]
        );
    }

    #[test]
    fn panic_macros_reported() {
        for mac in [
            "panic!(\"x\")",
            "unreachable!()",
            "todo!()",
            "unimplemented!()",
        ] {
            let src = format!("fn f() {{ {mac}; }}");
            let findings = lint_source("crates/core/src/store.rs", &src);
            assert_eq!(findings.len(), 1, "{mac}: {findings:?}");
            assert_eq!(findings[0].rule, "no-panic");
        }
    }

    #[test]
    fn asserts_flagged_only_on_untrusted_surfaces() {
        // The metrics.rs bug class: an assert on externally supplied
        // dimensions aborts the process instead of returning AtsError.
        for mac in ["assert!(a == b)", "assert_eq!(a, b)", "assert_ne!(a, b)"] {
            let src = format!("pub fn f(a: usize, b: usize) {{ {mac}; }}");
            let untrusted = lint_source("crates/query/src/metrics.rs", &src);
            assert_eq!(untrusted.len(), 1, "{mac}: {untrusted:?}");
            assert_eq!(untrusted[0].rule, "no-panic");
            assert!(untrusted[0].message.contains("untrusted"), "{untrusted:?}");
            // Trusted library code may assert its own invariants.
            let trusted = lint_source("crates/linalg/src/matrix.rs", &src);
            assert!(trusted.is_empty(), "{mac}: {trusted:?}");
        }
    }

    #[test]
    fn debug_asserts_and_test_asserts_are_fine_everywhere() {
        let src = "pub fn f(a: usize) { debug_assert!(a > 0); debug_assert_eq!(a, a); }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(1, 1); }\n}\n";
        assert!(lint_source("crates/query/src/serve.rs", src).is_empty());
    }

    #[test]
    fn unwrap_inside_cfg_test_is_fine() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint_source("crates/core/src/store.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_string_or_comment_is_fine() {
        let src = "pub fn f() -> &'static str {\n    // .unwrap() in prose\n    \"call .unwrap() later\"\n}\n";
        assert!(lint_source("crates/core/src/store.rs", src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // ats-lint: allow(no-panic) — x is Some by construction two lines up\n    x.unwrap()\n}\n";
        assert!(lint_source("crates/core/src/store.rs", src).is_empty());
    }

    #[test]
    fn trailing_allow_on_same_line_suppresses() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // ats-lint: allow(no-panic) — checked above, cannot be None\n}\n";
        assert!(lint_source("crates/core/src/store.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    // ats-lint: allow(no-panic)\n    x.unwrap()\n}\n";
        let findings = lint_source("crates/core/src/store.rs", src);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "bad-allow" && f.message.contains("reason")),
            "{findings:?}"
        );
        // …and the unwrap is still reported: a reasonless allow suppresses nothing.
        assert!(
            findings.iter().any(|f| f.rule == "no-panic"),
            "{findings:?}"
        );
    }

    #[test]
    fn allow_with_unknown_rule_is_rejected() {
        let src = "// ats-lint: allow(no-such-rule) — because I said so\nfn f() {}\n";
        let findings = lint_source("crates/core/src/store.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "bad-allow");
        assert!(findings[0].message.contains("no-such-rule"));
    }

    #[test]
    fn unused_allow_is_rejected() {
        let src = "// ats-lint: allow(no-panic) — left over from a refactor long ago\nfn f() {}\n";
        let findings = lint_source("crates/core/src/store.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "bad-allow");
        assert!(findings[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn integer_casts_flagged_only_in_untrusted_files() {
        let src = "pub fn f(v: u64) -> usize { v as usize }\n";
        let untrusted = lint_source("crates/storage/src/format.rs", src);
        assert_eq!(untrusted.len(), 1, "{untrusted:?}");
        assert_eq!(untrusted[0].rule, "lossy-cast");
        let trusted = lint_source("crates/linalg/src/matrix.rs", src);
        assert!(trusted.is_empty(), "{trusted:?}");
    }

    #[test]
    fn float_casts_are_not_flagged() {
        let src = "pub fn f(v: usize) -> f64 { v as f64 }\n";
        assert!(lint_source("crates/storage/src/format.rs", src).is_empty());
    }

    #[test]
    fn slice_index_flagged_in_untrusted_files() {
        let src = "pub fn f(buf: &[u8]) -> u8 { buf[0] }\n";
        let findings = lint_source("crates/core/src/disk.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "slice-index");
        // Array literals, attributes, and slice patterns are not indexing.
        let ok = "#[derive(Debug)]\npub struct S;\npub fn g() -> [u8; 2] { let [a, b] = [1u8, 2]; [a, b] }\n";
        assert!(lint_source("crates/core/src/disk.rs", ok).is_empty());
    }

    #[test]
    fn error_type_rule_catches_string_and_io_results() {
        let bad1 = "pub fn f() -> Result<u32, String> { Ok(1) }\n";
        let f1 = lint_source("crates/query/src/workload.rs", bad1);
        assert_eq!(f1.len(), 1, "{f1:?}");
        assert_eq!(f1[0].rule, "error-type");
        let bad2 = "pub fn g(p: &Path) -> std::io::Result<Vec<u8>> { std::fs::read(p) }\n";
        let f2 = lint_source("crates/query/src/workload.rs", bad2);
        assert_eq!(f2.len(), 1, "{f2:?}");
        assert!(f2[0].message.contains("io::Result"));
        let good = "pub fn h() -> Result<u32> { Ok(1) }\npub fn k() -> Result<u32, AtsError> { Ok(1) }\npub fn tup() -> Result<(u64, usize)> { Ok((0, 0)) }\n";
        assert!(lint_source("crates/query/src/workload.rs", good).is_empty());
    }

    #[test]
    fn error_type_ignores_private_and_bin_fns() {
        let private = "fn f() -> Result<u32, String> { Ok(1) }\n";
        assert!(lint_source("crates/query/src/workload.rs", private).is_empty());
        let in_bin = "pub fn f() -> Result<u32, String> { Ok(1) }\n";
        assert!(lint_source("src/bin/ats.rs", in_bin).is_empty());
    }

    #[test]
    fn crate_level_lint_attr_flagged() {
        let src = "#![warn(missing_docs)]\npub fn f() {}\n";
        let findings = lint_source("crates/data/src/lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lint-table");
    }

    #[test]
    fn member_manifest_check() {
        assert!(lint_member_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        )
        .is_empty());
        let missing = lint_member_manifest("crates/x/Cargo.toml", "[package]\nname = \"x\"\n");
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].rule, "lint-table");
    }

    #[test]
    fn workspace_manifest_check() {
        let good = "[workspace]\n[workspace.lints.rust]\nunsafe_code = \"deny\"\nmissing_docs = \"warn\"\n";
        assert!(lint_workspace_manifest(good).is_empty());
        let bad = "[workspace]\n";
        assert_eq!(lint_workspace_manifest(bad).len(), 2);
    }

    #[test]
    fn rule_names_are_unique() {
        let mut names: Vec<&str> = RULES.iter().map(|&(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), RULES.len());
    }
}
