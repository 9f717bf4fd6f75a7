//! The lint rules, evaluated over spanned token streams.
//!
//! Each rule family has an ID (`D1`, `L1`, …) that diagnostics carry
//! and `allow.toml` entries reference. The full catalog — rationale,
//! scope, and suppression mechanics per rule — lives in DESIGN.md §9.
//!
//! Scopes used below:
//! - *everywhere*: every `.rs` file in the workspace, tests included
//! - *decision crates*: crates whose control flow steers the
//!   simulation ([`DECISION_CRATES`]), non-test code only
//! - *library code*: `crates/*/src/**` excluding `src/bin/` and
//!   `#[cfg(test)]` items — code that ships in a library target
//! - *protocol crates*: `crates/core/src/**` and
//!   `crates/pastry/src/**` (the L1 layering fence)

use crate::lexer::{lex, Lexed, Tok};
use crate::parse::{parse, ItemMap};
use std::collections::{BTreeMap, BTreeSet};

/// A spanned lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule ID, e.g. `"D4"`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 for workspace-level findings).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    pub msg: String,
}

/// Options for [`analyze_sources`].
pub struct AnalyzeOpts {
    /// Require every tracked message enum (M1) to exist somewhere in
    /// the input set. True for real workspace runs; fixture tests
    /// pass false so a one-file fixture isn't asked to define
    /// `PastMsg`.
    pub require_enums: bool,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts {
            require_enums: false,
        }
    }
}

/// Crates whose control flow steers the simulation: hash-order
/// iteration here (D3) changes results, not just aesthetics.
pub const DECISION_CRATES: &[&str] = &[
    "crates/pastry/",
    "crates/core/",
    "crates/netsim/",
    "crates/sim/",
    "crates/baselines/",
    "crates/invariants/",
];

/// Crates under the strict no-panic policy (P1).
pub const PANIC_POLICY_PATHS: &[&str] = &["crates/pastry/src/", "crates/core/src/"];

/// Protocol crates fenced off from engine internals (L1).
pub const L1_SCOPE: &[&str] = &["crates/core/src/", "crates/pastry/src/"];

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Integration tests, benches, and example binaries: exempt from
/// library-code rules.
fn is_test_file(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/") || path.starts_with("tests/")
}

/// Library code proper: `crates/*/src/**` minus binary entry points
/// (`src/bin/`, `src/main.rs`), which are allowed to print and own
/// their error handling.
fn is_library_code(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.contains("/src/bin/")
        && !path.ends_with("/src/main.rs")
}

/// Per-file context shared by the rule passes.
struct FileCx<'a> {
    path: &'a str,
    lx: &'a Lexed<'a>,
    items: &'a ItemMap,
    /// True when the whole file is test/bench/example code.
    test_file: bool,
}

impl<'a> FileCx<'a> {
    fn t(&self, i: usize) -> &'a str {
        self.lx.text(i)
    }

    /// Token `i` is exempt from non-test rules: the file is a test
    /// file, or the token sits inside a `#[cfg(test)]` item.
    fn in_test(&self, i: usize) -> bool {
        self.test_file || self.items.in_test(i)
    }

    /// Does the token sequence starting at `i` spell out `pat`?
    fn seq(&self, i: usize, pat: &[&str]) -> bool {
        pat.iter().enumerate().all(|(k, p)| self.t(i + k) == *p)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.lx.kind(i) == Some(Tok::Ident)
    }

    fn diag(&self, rule: &'static str, i: usize, msg: String) -> Diagnostic {
        let (line, col) = self
            .lx
            .toks
            .get(i)
            .map(|t| (t.line, t.col))
            .unwrap_or((0, 0));
        Diagnostic {
            rule,
            path: self.path.to_string(),
            line,
            col,
            msg,
        }
    }
}

/// Emit at most one diagnostic per (rule, line).
struct LineDedup {
    seen: BTreeSet<(&'static str, u32)>,
}

impl LineDedup {
    fn new() -> Self {
        LineDedup {
            seen: BTreeSet::new(),
        }
    }

    fn push(&mut self, out: &mut Vec<Diagnostic>, d: Diagnostic) {
        if self.seen.insert((d.rule, d.line)) {
            out.push(d);
        }
    }
}

// ---------------------------------------------------------------- D1/D2

const D1_PATHS: &[&[&str]] = &[
    &["std", ":", ":", "time", ":", ":", "Instant"],
    &["std", ":", ":", "time", ":", ":", "SystemTime"],
    &["time", ":", ":", "Instant"],
    &["time", ":", ":", "SystemTime"],
    &["Instant", ":", ":", "now"],
    &["SystemTime", ":", ":", "now"],
];

/// D1: wall-clock time. Applies everywhere; returns the set of token
/// indices claimed by a match so D4's bare-ident time check doesn't
/// double-report the same tokens.
fn rule_d1(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) -> BTreeSet<usize> {
    let mut claimed = BTreeSet::new();
    let mut dedup = LineDedup::new();
    for i in 0..cx.lx.len() {
        for pat in D1_PATHS {
            if cx.is_ident(i) && cx.seq(i, pat) {
                for k in 0..pat.len() {
                    claimed.insert(i + k);
                }
                dedup.push(
                    out,
                    cx.diag(
                        "D1",
                        i,
                        format!(
                            "wall-clock `{}` breaks determinism; use sim time \
                             (`past_netsim::SimTime`)",
                            pat.join("")
                        ),
                    ),
                );
            }
        }
    }
    claimed
}

const D2_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// D2: OS entropy. Applies everywhere.
fn rule_d2(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    let mut dedup = LineDedup::new();
    for i in 0..cx.lx.len() {
        if !cx.is_ident(i) {
            continue;
        }
        let t = cx.t(i);
        if D2_IDENTS.contains(&t) {
            dedup.push(
                out,
                cx.diag(
                    "D2",
                    i,
                    format!("OS entropy `{t}` breaks reproducibility; use the seeded sim RNG"),
                ),
            );
        } else if cx.seq(i, &["rand", ":", ":", "random"]) {
            dedup.push(
                out,
                cx.diag(
                    "D2",
                    i,
                    "OS entropy `rand::random` breaks reproducibility; use the seeded sim RNG"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- D3/D4 hash order

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// Names bound to `HashMap`/`HashSet` values in non-test code, found
/// via `name: HashMap<…>` annotations and
/// `name = HashMap::new()`-style initializers.
fn hash_bound_names(cx: &FileCx<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..cx.lx.len() {
        let t = cx.t(i);
        if (t != "HashMap" && t != "HashSet") || !cx.is_ident(i) || cx.items.in_test(i) {
            continue;
        }
        // `name : HashMap` (struct field or let annotation). Path
        // segments (`collections::HashMap`) don't match because the
        // token two back is another `:`, not an identifier.
        if i >= 2 && cx.t(i - 1) == ":" && cx.is_ident(i - 2) {
            names.insert(cx.t(i - 2).to_string());
        }
        // `name = HashMap::new()` / `with_capacity` / `default` /
        // `from`, walking back over an optional `mut`.
        if i >= 2 && cx.t(i - 1) == "=" {
            let mut j = i - 2;
            if cx.t(j) == "mut" && j >= 1 {
                j -= 1;
            }
            if cx.is_ident(j) {
                names.insert(cx.t(j).to_string());
            }
        }
    }
    names
}

/// Shared engine for D3 (decision crates) and D4 (other library
/// crates): flag order-dependent iteration over names bound to
/// std hash containers. Token-level, so multi-line method chains
/// (`self.map\n.values()\n.sum()`) are caught.
fn rule_hash_iteration(cx: &FileCx<'_>, rule: &'static str, out: &mut Vec<Diagnostic>) {
    let names = hash_bound_names(cx);
    if names.is_empty() {
        return;
    }
    let mut dedup = LineDedup::new();
    let remedy = "iterate a BTreeMap/BTreeSet (or sort first) so order is deterministic";
    for i in 0..cx.lx.len() {
        if cx.in_test(i) {
            continue;
        }
        // `name . method (`
        if cx.is_ident(i)
            && names.contains(cx.t(i))
            && cx.t(i + 1) == "."
            && HASH_ITER_METHODS.contains(&cx.t(i + 2))
            && cx.t(i + 3) == "("
        {
            dedup.push(
                out,
                cx.diag(
                    rule,
                    i,
                    format!(
                        "hash-order iteration `{}.{}()` is nondeterministic; {remedy}",
                        cx.t(i),
                        cx.t(i + 2)
                    ),
                ),
            );
        }
        // `for pat in [&][mut] [self.] name {`
        if cx.t(i) == "in" && cx.is_ident(i) {
            let mut j = i + 1;
            if cx.t(j) == "&" {
                j += 1;
            }
            if cx.t(j) == "mut" {
                j += 1;
            }
            if cx.t(j) == "self" && cx.t(j + 1) == "." {
                j += 2;
            }
            if cx.is_ident(j) && names.contains(cx.t(j)) && cx.t(j + 1) == "{" {
                dedup.push(
                    out,
                    cx.diag(
                        rule,
                        j,
                        format!(
                            "hash-order iteration `for … in {}` is nondeterministic; {remedy}",
                            cx.t(j)
                        ),
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- D4 float order / time

const ORDER_ADAPTERS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
    "select_nth_unstable_by",
];

/// D4 (float-keyed ordering): `partial_cmp` inside the argument of an
/// ordering adapter. `partial_cmp` returns `None` for NaN, so these
/// comparators either panic or — worse — silently produce
/// order-dependent results; `f64::total_cmp` is the deterministic
/// replacement.
fn rule_d4_float_order(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    let mut dedup = LineDedup::new();
    for i in 0..cx.lx.len() {
        if cx.in_test(i) || cx.t(i) != "." || !ORDER_ADAPTERS.contains(&cx.t(i + 1)) {
            continue;
        }
        if cx.t(i + 2) != "(" {
            continue;
        }
        // Scan the balanced argument span for `partial_cmp`.
        let mut depth = 0i64;
        let mut j = i + 2;
        while j < cx.lx.len() {
            match cx.t(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "partial_cmp" => {
                    dedup.push(
                        out,
                        cx.diag(
                            "D4",
                            i + 1,
                            format!(
                                "`partial_cmp` inside `{}` is not a total order (NaN); \
                                 use `f64::total_cmp`",
                                cx.t(i + 1)
                            ),
                        ),
                    );
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// D4 (wall-clock taint): bare `Instant`/`SystemTime` identifiers in
/// library code that D1's path patterns did not already claim — e.g.
/// a struct field of type `Instant` imported once at the top.
fn rule_d4_time(cx: &FileCx<'_>, claimed: &BTreeSet<usize>, out: &mut Vec<Diagnostic>) {
    let mut dedup = LineDedup::new();
    for i in 0..cx.lx.len() {
        if cx.in_test(i) || claimed.contains(&i) || !cx.is_ident(i) {
            continue;
        }
        let t = cx.t(i);
        if t == "Instant" || t == "SystemTime" {
            dedup.push(
                out,
                cx.diag(
                    "D4",
                    i,
                    format!(
                        "`{t}` in library code taints determinism; thread sim time through \
                         instead"
                    ),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- P1/U1/O1

const P1_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// P1: panics in the storage/routing core.
fn rule_p1(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    let mut dedup = LineDedup::new();
    let remedy = "return an error or document the invariant in an expect-free way";
    for i in 0..cx.lx.len() {
        if cx.in_test(i) {
            continue;
        }
        let t = cx.t(i);
        if t == "." && cx.t(i + 2) == "(" {
            let m = cx.t(i + 1);
            if m == "unwrap" || m == "expect" {
                dedup.push(
                    out,
                    cx.diag(
                        "P1",
                        i + 1,
                        format!("`.{m}()` can panic in the protocol core; {remedy}"),
                    ),
                );
            }
        } else if cx.is_ident(i) && P1_MACROS.contains(&t) && cx.t(i + 1) == "!" {
            dedup.push(
                out,
                cx.diag("P1", i, format!("`{t}!` in the protocol core; {remedy}")),
            );
        }
    }
}

/// U1: `unsafe` anywhere.
fn rule_u1(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    let mut dedup = LineDedup::new();
    for i in 0..cx.lx.len() {
        if cx.is_ident(i) && cx.t(i) == "unsafe" {
            dedup.push(
                out,
                cx.diag(
                    "U1",
                    i,
                    "`unsafe` is banned in this workspace (no FFI, no manual memory)".to_string(),
                ),
            );
        }
    }
}

const O1_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// O1: stdout/stderr noise from library code.
fn rule_o1(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    let mut dedup = LineDedup::new();
    for i in 0..cx.lx.len() {
        if cx.in_test(i) {
            continue;
        }
        let t = cx.t(i);
        if cx.is_ident(i) && O1_MACROS.contains(&t) && cx.t(i + 1) == "!" {
            dedup.push(
                out,
                cx.diag(
                    "O1",
                    i,
                    format!("`{t}!` in library code; return data or use the trace layer instead"),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- E1

/// E1: `let _ = some_call(…);` in library code silently discards a
/// result (typically a `#[must_use]` `Result`). Pure binds like
/// `let _ = (a, b);` are fine — only RHSes containing a call are
/// flagged.
fn rule_e1(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    let mut dedup = LineDedup::new();
    for i in 0..cx.lx.len() {
        if cx.in_test(i) || cx.t(i) != "let" || !cx.is_ident(i) {
            continue;
        }
        if cx.t(i + 1) != "_" || cx.t(i + 2) != "=" {
            continue;
        }
        // Scan the RHS to its terminating `;` (balanced, so closures
        // with `;` inside don't end the scan early) looking for a
        // call: `(` preceded by an ident, `!`, `)`, `]`, or `>`.
        let mut depth = 0i64;
        let mut j = i + 3;
        let mut has_call = false;
        while j < cx.lx.len() {
            match cx.t(j) {
                "(" | "[" | "{" => {
                    if cx.t(j) == "("
                        && j > 0
                        && (cx.is_ident(j - 1) || matches!(cx.t(j - 1), "!" | ")" | "]" | ">"))
                    {
                        has_call = true;
                    }
                    depth += 1;
                }
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if has_call {
            dedup.push(
                out,
                cx.diag(
                    "E1",
                    i,
                    "`let _ =` silently drops a call result in library code; handle the \
                     value or allowlist with a reason"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- L1

/// L1: protocol crates must stay sans-io. Everything they may name of
/// the outside world — `Addr`, `OpId`, `Io`, the `Message` and `Machine`
/// traits — lives in `past-wire`, so the fence is one token: the path
/// `past_netsim` does not appear, and nothing reaches through an
/// adapter's `engine` field. The two sim adapters are the explicit,
/// allowlisted exceptions.
fn rule_l1(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    let mut dedup = LineDedup::new();
    for i in 0..cx.lx.len() {
        if cx.in_test(i) {
            continue;
        }
        let t = cx.t(i);
        if cx.is_ident(i) && t == "past_netsim" {
            dedup.push(
                out,
                cx.diag(
                    "L1",
                    i,
                    "protocol crate names `past_netsim`; keep protocol logic sans-io (the \
                     vocabulary lives in `past_wire`) and drive the engine from the sim adapter"
                        .to_string(),
                ),
            );
            continue;
        }
        if t == "." && cx.t(i + 1) == "engine" {
            dedup.push(
                out,
                cx.diag(
                    "L1",
                    i + 1,
                    "reaching through the sim adapter's `engine` field from protocol code; \
                     add a typed accessor on the adapter instead"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- M1

/// What each tracked message enum must cover. `kinds` says a `KINDS`
/// label table with one entry per variant is required.
struct MsgSpec {
    enum_name: &'static str,
    cover_fns: &'static [&'static str],
    kinds: bool,
}

/// The wire-message enums under M1 hygiene. The byte codec is the
/// single source of wire truth (`wire_size()` is `encoded_len()`, which
/// is `encode` into a counting sink), so the covered fns are the codec
/// pair — `encode`/`read` — plus trace attribution (`op_id`) and engine
/// kind labels (`kind_id`, also the kind byte `encode` writes).
/// `PastryMsg` implements the engine's `Message` trait directly;
/// `PastMsg` rides inside it as a payload.
const MESSAGE_SPECS: &[MsgSpec] = &[
    MsgSpec {
        enum_name: "PastryMsg",
        cover_fns: &["kind_id", "encode", "read", "op_id"],
        kinds: true,
    },
    MsgSpec {
        enum_name: "PastMsg",
        cover_fns: &["encode", "read", "op_id"],
        kinds: false,
    },
    MsgSpec {
        enum_name: "ChordMsg",
        cover_fns: &["kind_id", "encode", "read"],
        kinds: true,
    },
    MsgSpec {
        enum_name: "CanMsg",
        cover_fns: &["kind_id", "encode", "read"],
        kinds: true,
    },
];

/// Cross-file index of tracked enums, their covering fns, and KINDS
/// tables, accumulated over all non-test library files.
#[derive(Default)]
pub struct MsgIndex {
    /// enum name -> (path, line, variant names in declaration order)
    enums: BTreeMap<String, (String, u32, Vec<(String, u32)>)>,
    /// (self_ty, fn name) -> (path, line, variants mentioned as
    /// `Ty::V` or `Self::V` in the body)
    fns: BTreeMap<(String, String), (String, u32, BTreeSet<String>)>,
    /// self_ty -> (path, line, label count)
    kinds: BTreeMap<String, (String, u32, usize)>,
}

fn tracked(name: &str) -> Option<&'static MsgSpec> {
    MESSAGE_SPECS.iter().find(|s| s.enum_name == name)
}

impl MsgIndex {
    fn collect(&mut self, path: &str, lx: &Lexed<'_>, items: &ItemMap) {
        if is_test_file(path) {
            return;
        }
        for e in &items.enums {
            if tracked(&e.name).is_none() {
                continue;
            }
            self.enums.entry(e.name.clone()).or_insert_with(|| {
                (
                    path.to_string(),
                    e.line,
                    e.variants
                        .iter()
                        .map(|v| (v.name.clone(), v.line))
                        .collect(),
                )
            });
        }
        for f in &items.impl_fns {
            let Some(spec) = tracked(&f.self_ty) else {
                continue;
            };
            if !spec.cover_fns.contains(&f.name.as_str()) {
                continue;
            }
            // Variants referenced in the body as `Ty::V` or `Self::V`.
            let mut mentioned = BTreeSet::new();
            for i in f.body.0..f.body.1 {
                let head = lx.text(i);
                if (head == f.self_ty || head == "Self")
                    && lx.text(i + 1) == ":"
                    && lx.text(i + 2) == ":"
                    && lx.kind(i + 3) == Some(Tok::Ident)
                    && i + 3 < f.body.1
                {
                    mentioned.insert(lx.text(i + 3).to_string());
                }
            }
            self.fns
                .entry((f.self_ty.clone(), f.name.clone()))
                .and_modify(|(_, _, set)| set.extend(mentioned.iter().cloned()))
                .or_insert_with(|| (path.to_string(), f.line, mentioned));
        }
        for k in &items.kinds {
            if tracked(&k.self_ty).is_some() {
                self.kinds
                    .entry(k.self_ty.clone())
                    .or_insert_with(|| (path.to_string(), k.line, k.strings));
            }
        }
    }
}

/// M1: every variant of a tracked wire-message enum must be named in
/// each covering fn (wildcard `_` arms hide new variants from size
/// accounting and trace attribution), and `KINDS` tables must have
/// exactly one label per variant.
fn check_messages(index: &MsgIndex, opts: &AnalyzeOpts, out: &mut Vec<Diagnostic>) {
    for spec in MESSAGE_SPECS {
        let Some((epath, eline, variants)) = index.enums.get(spec.enum_name) else {
            if opts.require_enums {
                out.push(Diagnostic {
                    rule: "M1",
                    path: "<workspace>".to_string(),
                    line: 0,
                    col: 0,
                    msg: format!(
                        "tracked message enum `{}` not found in any library crate; update \
                         MESSAGE_SPECS in crates/xtask/src/rules.rs if it moved or was renamed",
                        spec.enum_name
                    ),
                });
            }
            continue;
        };
        for fname in spec.cover_fns {
            match index
                .fns
                .get(&(spec.enum_name.to_string(), fname.to_string()))
            {
                None => out.push(Diagnostic {
                    rule: "M1",
                    path: epath.clone(),
                    line: *eline,
                    col: 1,
                    msg: format!(
                        "message enum `{}` has no `{fname}()` impl covering its variants",
                        spec.enum_name
                    ),
                }),
                Some((fpath, fline, mentioned)) => {
                    for (v, _) in variants {
                        if !mentioned.contains(v) {
                            out.push(Diagnostic {
                                rule: "M1",
                                path: fpath.clone(),
                                line: *fline,
                                col: 1,
                                msg: format!(
                                    "variant `{}::{v}` is not named in `{fname}()`; wildcard \
                                     or default arms hide new variants — name every variant \
                                     explicitly",
                                    spec.enum_name
                                ),
                            });
                        }
                    }
                }
            }
        }
        if spec.kinds {
            match index.kinds.get(spec.enum_name) {
                None => out.push(Diagnostic {
                    rule: "M1",
                    path: epath.clone(),
                    line: *eline,
                    col: 1,
                    msg: format!(
                        "message enum `{}` has no `KINDS` label table",
                        spec.enum_name
                    ),
                }),
                Some((kpath, kline, n)) if *n != variants.len() => out.push(Diagnostic {
                    rule: "M1",
                    path: kpath.clone(),
                    line: *kline,
                    col: 1,
                    msg: format!(
                        "`KINDS` has {n} labels but `{}` has {} variants",
                        spec.enum_name,
                        variants.len()
                    ),
                }),
                Some(_) => {}
            }
        }
    }
}

// ---------------------------------------------------------------- driver

/// Run every source rule over one file.
fn scan_file(path: &str, lx: &Lexed<'_>, items: &ItemMap, out: &mut Vec<Diagnostic>) {
    let cx = FileCx {
        path,
        lx,
        items,
        test_file: is_test_file(path),
    };
    let claimed = rule_d1(&cx, out);
    rule_d2(&cx, out);
    rule_u1(&cx, out);
    if in_any(path, DECISION_CRATES) && !cx.test_file {
        rule_hash_iteration(&cx, "D3", out);
    }
    if in_any(path, PANIC_POLICY_PATHS) {
        rule_p1(&cx, out);
    }
    if is_library_code(path) && !cx.test_file {
        rule_o1(&cx, out);
        rule_e1(&cx, out);
        rule_d4_float_order(&cx, out);
        rule_d4_time(&cx, &claimed, out);
        if !in_any(path, DECISION_CRATES) {
            // Decision crates already get the stricter D3 version.
            rule_hash_iteration(&cx, "D4", out);
        }
    }
    if in_any(path, L1_SCOPE) {
        rule_l1(&cx, out);
    }
}

/// Analyze a set of `(path, source)` pairs: per-file rules plus the
/// cross-file M1 message-hygiene pass. Diagnostics come back sorted
/// by (path, line, col, rule).
pub fn analyze_sources(files: &[(&str, &str)], opts: &AnalyzeOpts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut index = MsgIndex::default();
    for (path, src) in files {
        let lx = lex(src);
        let items = parse(&lx);
        scan_file(path, &lx, &items, &mut out);
        index.collect(path, &lx, &items);
    }
    check_messages(&index, opts, &mut out);
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    out
}
