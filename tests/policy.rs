//! The policies no lint states faithfully (DESIGN.md §9). Every other
//! rule — wall clock, OS entropy, hash order, panics in protocol code,
//! `unsafe`, prints and dropped results in libraries, wildcard message
//! arms — is a rustc or clippy lint set in `Cargo.toml`, `clippy.toml`
//! and the crate roots. The checks themselves live in `tests/checks/`
//! and their fixtures in `tests/rules.rs`.

mod checks;

use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(path relative to the repository root, source)` of every `.rs` file
/// under `dir`.
fn rust_files(dir: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut stack = vec![root().join(dir)];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root()).expect("under the root");
                let src = fs::read_to_string(&path).expect("UTF-8 source");
                out.push((rel.to_string_lossy().replace('\\', "/"), src));
            }
        }
    }
    out
}

/// Fails with every `path:line` a check found, quoting each line.
fn assert_no_hits(path: &str, src: &str, hits: &[usize], what: &str) {
    let lines: Vec<&str> = src.lines().collect();
    let report: Vec<String> = hits
        .iter()
        .map(|&n| format!("{path}:{n}: {}", lines[n - 1]))
        .collect();
    assert!(report.is_empty(), "{what}:\n{}", report.join("\n"));
}

/// H1: the build needs no registry.
#[test]
fn lockfile_has_no_registry_or_git_package() {
    let lock = fs::read_to_string(root().join("Cargo.lock")).expect("Cargo.lock");
    let hits = checks::registry_packages(&lock);
    assert_no_hits("Cargo.lock", &lock, &hits, "non-path packages");
}

/// A new crate cannot slip out from under `[workspace.lints]`.
#[test]
fn every_package_inherits_the_workspace_lints() {
    let mut manifests = vec![root().join("Cargo.toml")];
    for entry in fs::read_dir(root().join("crates")).expect("crates/") {
        manifests.push(entry.expect("directory entry").path().join("Cargo.toml"));
    }
    for manifest in manifests {
        let src = fs::read_to_string(&manifest).expect("package manifest");
        assert!(
            src.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints",
            manifest.display()
        );
    }
}

/// L1: protocol code stays sans-io.
#[test]
fn only_the_sim_adapters_reach_the_engine() {
    for dir in ["crates/pastry/src", "crates/core/src"] {
        for (path, src) in rust_files(dir) {
            let hits = checks::engine_reaches(&path, &src);
            assert_no_hits(&path, &src, &hits, "protocol code reaches the engine");
        }
    }
}

/// D4: float order is total. The check and its fixtures spell the call
/// out as text, so those two files are the only ones not scanned.
#[test]
fn no_partial_cmp_calls() {
    let spelled_out = ["tests/checks/mod.rs", "tests/rules.rs"];
    for dir in ["crates", "src", "tests", "examples"] {
        for (path, src) in rust_files(dir) {
            if spelled_out.contains(&path.as_str()) {
                continue;
            }
            let hits = checks::partial_cmp_calls(&src);
            assert_no_hits(&path, &src, &hits, "use `total_cmp`");
        }
    }
}
