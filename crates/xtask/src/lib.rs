//! The workspace's in-tree static-analysis pass (`cargo run -p xtask -- check`).
//!
//! v2: the rules run over a real token stream from an in-tree lexer
//! ([`lexer`]) plus a lightweight item parser ([`parse`]) — still
//! deliberately dependency-free (per rule H1, the analyzer must itself
//! be hermetic), but no longer fooled by multi-line constructs, and
//! able to reason across files (rule M1) and crate boundaries (rule
//! L1). Diagnostics are spanned (line *and* column) and can be
//! emitted as JSON for CI.
//!
//! | rule | scope                         | what it forbids |
//! |------|-------------------------------|-----------------|
//! | H1   | every `Cargo.toml`            | registry dependencies |
//! | D1   | every `.rs` file              | wall-clock reads (`std::time::Instant`, `SystemTime`) |
//! | D2   | every `.rs` file              | OS entropy (`thread_rng`, `OsRng`, `getrandom`, …) |
//! | D3   | decision-path crates          | `HashMap`/`HashSet` iteration (hash order steers decisions) |
//! | D4   | library crates                | determinism taint: hash iteration elsewhere, `partial_cmp` comparators, bare `Instant`/`SystemTime` |
//! | P1   | `pastry`/`core` non-test code | panics (`unwrap`, `expect`, `panic!`, …) |
//! | U1   | every `.rs` file              | `unsafe` |
//! | O1   | library crate code            | `println!`-family output |
//! | E1   | library crate code            | `let _ =` over a call (silently dropped `Result`s) |
//! | L1   | protocol crates (`core`, `pastry`) | naming `past_netsim` at all (the vocabulary is `past_wire`'s) |
//! | M1   | wire-message enums            | variants missing from `encode`/`read`/`kind_id`/`KINDS`/`op_id` coverage |
//!
//! The full catalog — rationale, scope, and suppression mechanics per
//! rule — lives in DESIGN.md §9. Justified exceptions go in
//! `crates/xtask/allow.toml` (see [`allowlist`]); a stale entry is
//! itself a check failure, and `--prune-allows` removes them.

pub mod allowlist;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod rules;

pub use allowlist::{parse_allowlist, prune_source, Allow};
pub use manifest::check_manifest;
pub use rules::{analyze_sources, AnalyzeOpts, Diagnostic};

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.msg
        )
    }
}

/// The outcome of a full workspace check.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned (`Cargo.toml` + `.rs`).
    pub files_scanned: usize,
    /// Diagnostics not covered by the allowlist.
    pub violations: Vec<Diagnostic>,
    /// Diagnostics suppressed by the allowlist.
    pub suppressed: usize,
    /// Allowlist entries that matched nothing. Stale suppressions are
    /// an error: the check fails until they are removed (or
    /// `--prune-allows` is run).
    pub stale_allows: Vec<Allow>,
}

impl Report {
    /// A clean check: nothing to fix, nothing stale.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }

    /// Serializes the report as a single JSON object (schema
    /// `xtask-check/v1`) for CI artifacts. Hand-rolled — the analyzer
    /// stays dependency-free.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"xtask-check/v1\"");
        s.push_str(&format!(",\"files_scanned\":{}", self.files_scanned));
        s.push_str(&format!(",\"suppressed\":{}", self.suppressed));
        s.push_str(",\"violations\":[");
        for (i, d) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"msg\":{}}}",
                json_str(d.rule),
                json_str(&d.path),
                d.line,
                d.col,
                json_str(&d.msg)
            ));
        }
        s.push_str("],\"stale_allows\":[");
        for (i, a) in self.stale_allows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let line = match a.line {
                Some(l) => l.to_string(),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"reason\":{}}}",
                json_str(&a.rule),
                json_str(&a.path),
                line,
                json_str(&a.reason)
            ));
        }
        s.push_str("],\"ok\":");
        s.push_str(if self.ok() { "true" } else { "false" });
        s.push('}');
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Recursively collects `Cargo.toml` and `.rs` files under `root`,
/// skipping `target/`, hidden directories, and VCS metadata. Sorted
/// for deterministic output.
fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if p.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(p);
            } else if name == "Cargo.toml" || name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full check over the workspace at `root`, applying the
/// allowlist at `crates/xtask/allow.toml` (absent file = empty list).
pub fn run_check(root: &Path) -> Result<Report, String> {
    let allow_path = root.join("crates/xtask/allow.toml");
    let allows = match fs::read_to_string(&allow_path) {
        Ok(s) => parse_allowlist(&s)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", allow_path.display())),
    };

    let files = collect_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut report = Report::default();
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            fs::read_to_string(file).map_err(|e| format!("reading {}: {e}", file.display()))?;
        report.files_scanned += 1;
        if rel.ends_with("Cargo.toml") {
            diags.extend(check_manifest(&rel, &src));
        } else {
            sources.push((rel, src));
        }
    }
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    diags.extend(analyze_sources(
        &refs,
        &AnalyzeOpts {
            require_enums: true,
        },
    ));
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });

    let mut used = vec![false; allows.len()];
    for d in diags {
        match allows.iter().position(|a| a.matches(&d)) {
            Some(i) => {
                used[i] = true;
                report.suppressed += 1;
            }
            None => report.violations.push(d),
        }
    }
    report.stale_allows = allows
        .into_iter()
        .zip(used)
        .filter_map(|(a, u)| if u { None } else { Some(a) })
        .collect();
    Ok(report)
}

/// Rewrites `crates/xtask/allow.toml` under `root` with the given
/// stale entries removed; returns how many were pruned.
pub fn prune_allow_file(root: &Path, stale: &[Allow]) -> Result<usize, String> {
    if stale.is_empty() {
        return Ok(0);
    }
    let allow_path = root.join("crates/xtask/allow.toml");
    let src =
        fs::read_to_string(&allow_path).map_err(|e| format!("{}: {e}", allow_path.display()))?;
    let pruned = prune_source(&src, stale);
    fs::write(&allow_path, pruned).map_err(|e| format!("{}: {e}", allow_path.display()))?;
    Ok(stale.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real workspace must pass its own gate: no violations, no
    /// stale allowlist entries. This is the check CI runs, executed
    /// as a unit test so `cargo test -p xtask` catches regressions
    /// without a separate invocation.
    #[test]
    fn current_tree_passes_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let report = run_check(root).expect("check runs");
        assert!(
            report.files_scanned > 80,
            "expected the whole workspace, scanned {}",
            report.files_scanned
        );
        assert!(
            report.violations.is_empty(),
            "violations in tree:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.stale_allows.is_empty(),
            "stale allowlist entries: {:?}",
            report.stale_allows
        );
    }

    #[test]
    fn report_json_is_stable_and_escaped() {
        let report = Report {
            files_scanned: 2,
            violations: vec![Diagnostic {
                rule: "O1",
                path: "crates/x/src/lib.rs".to_string(),
                line: 3,
                col: 5,
                msg: "a \"quoted\"\nmessage".to_string(),
            }],
            suppressed: 1,
            stale_allows: vec![Allow {
                rule: "D1".to_string(),
                path: "crates/y/src/lib.rs".to_string(),
                line: Some(9),
                reason: "why".to_string(),
                span: (1, 4),
            }],
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"schema\":\"xtask-check/v1\",\"files_scanned\":2,\"suppressed\":1,\
             \"violations\":[{\"rule\":\"O1\",\"path\":\"crates/x/src/lib.rs\",\
             \"line\":3,\"col\":5,\"msg\":\"a \\\"quoted\\\"\\nmessage\"}],\
             \"stale_allows\":[{\"rule\":\"D1\",\"path\":\"crates/y/src/lib.rs\",\
             \"line\":9,\"reason\":\"why\"}],\"ok\":false}"
        );
    }

    #[test]
    fn clean_report_is_ok() {
        let r = Report::default();
        assert!(r.ok());
        assert!(r.to_json().ends_with("\"ok\":true}"));
    }
}
