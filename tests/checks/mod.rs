//! The text checks behind `tests/policy.rs`, as functions of one file's
//! text. `tests/policy.rs` runs them over the tree; `tests/rules.rs`
//! pins each one down with a fixture that must trigger it and one that
//! must pass, so a check that silently stopped firing would fail there.

/// 1-based numbers of the lines of `src` that `hit` matches, in order.
pub fn lines_where(src: &str, hit: impl Fn(&str) -> bool) -> Vec<usize> {
    src.lines()
        .enumerate()
        .filter(|(_, line)| hit(line))
        .map(|(i, _)| i + 1)
        .collect()
}

/// H1: lines of a `Cargo.lock` that pin a registry or git package. Those
/// are the only lockfile entries that carry a `source`.
pub fn registry_packages(lock: &str) -> Vec<usize> {
    lines_where(lock, |l| l.starts_with("source ="))
}

/// L1: lines of the file at `path` (relative to the repository root)
/// where protocol code names the engine crate or reaches through an
/// adapter's `engine` field. Only `crates/{pastry,core}/src` is fenced,
/// and in it only the two simulator adapters may drive the engine.
pub fn engine_reaches(path: &str, src: &str) -> Vec<usize> {
    let adapters = ["crates/pastry/src/sim.rs", "crates/core/src/network.rs"];
    let fenced = ["crates/pastry/src/", "crates/core/src/"]
        .iter()
        .any(|dir| path.starts_with(dir));
    if !fenced || adapters.contains(&path) {
        return Vec::new();
    }
    lines_where(src, |l| l.contains("past_netsim") || l.contains(".engine"))
}

/// D4: lines that call `partial_cmp`. It answers `None` for NaN, so a
/// comparator built on it panics or orders by accident; `f64::total_cmp`
/// is the replacement. A `disallowed_methods` entry would also fire
/// inside every `#[derive(PartialOrd)]`, hence a text scan.
pub fn partial_cmp_calls(src: &str) -> Vec<usize> {
    lines_where(src, |l| l.contains(".partial_cmp("))
}
