//! Fixtures for the text checks in `tests/policy.rs`: for each rule one
//! fixture that must trigger it and one that must pass. The other rule
//! families are rustc and clippy lints (DESIGN.md §9); their fixtures
//! are the lint suites of the toolchain itself.

mod checks;

use checks::{engine_reaches, partial_cmp_calls, registry_packages};

// ------------------------------------------------------------------ H1

#[test]
fn h1_triggers_on_registry_dependency() {
    let lock = "version = 4\n\n\
                [[package]]\nname = \"demo\"\nversion = \"0.1.0\"\n\
                dependencies = [\n \"serde\",\n]\n\n\
                [[package]]\nname = \"serde\"\nversion = \"1.0.0\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(registry_packages(lock), vec![13]);
    let lock = "[[package]]\nname = \"demo\"\nversion = \"0.1.0\"\n\
                source = \"git+https://example.org/demo#0123abc\"\n";
    assert_eq!(registry_packages(lock), vec![4]);
}

#[test]
fn h1_passes_path_and_workspace_deps() {
    // Path and `workspace = true` dependencies lock with no `source`.
    let lock = "version = 4\n\n\
                [[package]]\nname = \"demo\"\nversion = \"0.1.0\"\n\
                dependencies = [\n \"past-core\",\n \"past-trace\",\n]\n\n\
                [[package]]\nname = \"past-core\"\nversion = \"0.1.0\"\n\n\
                [[package]]\nname = \"past-trace\"\nversion = \"0.1.0\"\n";
    assert!(registry_packages(lock).is_empty());
}

// ------------------------------------------------------------------ D4

#[test]
fn d4_triggers_on_partial_cmp_comparator() {
    let src = "fn f(mut v: Vec<f64>) -> Vec<f64> {\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   v\n\
               }\n";
    assert_eq!(partial_cmp_calls(src), vec![2]);
}

#[test]
fn d4_triggers_on_multiline_partial_cmp() {
    let src = "fn pick(v: &[(f64, u32)]) -> Option<&(f64, u32)> {\n\
                   v.iter().min_by(|a, b| {\n\
                       a.0\n\
                           .partial_cmp(&b.0)\n\
                           .unwrap()\n\
                   })\n\
               }\n";
    assert_eq!(partial_cmp_calls(src), vec![4]);
}

#[test]
fn d4_passes_total_cmp_and_btree() {
    let src = "use std::collections::BTreeMap;\n\
               fn f(mut v: Vec<f64>, m: &BTreeMap<u64, u64>) -> u64 {\n\
                   v.sort_by(f64::total_cmp);\n\
                   m.values().sum()\n\
               }\n";
    assert!(partial_cmp_calls(src).is_empty());
}

// ------------------------------------------------------------------ L1

#[test]
fn l1_triggers_on_engine_reach_through() {
    let src = "fn step(sim: &mut PastrySim<App, Mesh>) { sim.engine.step(); }\n";
    assert_eq!(engine_reaches("crates/core/src/x.rs", src), vec![1]);
}

#[test]
fn l1_triggers_on_engine_types_and_module_paths() {
    let src = "use past_netsim::engine::Engine;\n";
    assert_eq!(
        engine_reaches("crates/pastry/src/x.rs", src),
        vec![1],
        "one finding per line, not per pattern"
    );
    let src = "pub struct Sim { eng: past_netsim::Engine<Node, Mesh> }\n";
    assert_eq!(engine_reaches("crates/pastry/src/x.rs", src), vec![1]);
}

#[test]
fn l1_triggers_on_sharded_engine_and_wheel() {
    let src = "use past_netsim::shard::ShardConfig;\n";
    assert_eq!(engine_reaches("crates/pastry/src/x.rs", src), vec![1]);
    let src = "fn f(cfg: past_netsim::ShardConfig) -> past_netsim::ShardConfig { cfg }\n";
    assert_eq!(engine_reaches("crates/core/src/x.rs", src), vec![1]);
    let src = "use past_netsim::wheel::TimerWheel;\n";
    assert_eq!(engine_reaches("crates/pastry/src/x.rs", src), vec![1]);
}

#[test]
fn l1_triggers_on_shard_module_path() {
    let src = "use past_netsim::shard::WindowTooWide;\n";
    assert_eq!(engine_reaches("crates/pastry/src/x.rs", src), vec![1]);
    assert_eq!(engine_reaches("crates/core/src/x.rs", src), vec![1]);
}

/// The fence is the crate path itself: the engine crate's root
/// re-exports are as much a trigger as its modules, now that
/// `past-wire` holds everything a protocol file may name.
#[test]
fn l1_triggers_on_crate_root_reexports() {
    let src = "use past_netsim::Message;\n";
    assert_eq!(engine_reaches("crates/pastry/src/x.rs", src), vec![1]);
    let src = "use past_netsim::{Addr, OpId, SimTime};\n";
    assert_eq!(engine_reaches("crates/core/src/x.rs", src), vec![1]);
    let src = "use past_netsim::WindowTooWide;\n\
               fn f(e: WindowTooWide) -> u64 { e.window_us }\n";
    assert_eq!(engine_reaches("crates/pastry/src/x.rs", src), vec![1]);
}

/// A text scan has no notion of `#[cfg(test)]`, so unlike the token
/// scanner it replaced it fences a protocol file's test module too:
/// those test through the adapters, which are the exemption.
#[test]
fn l1_passes_vocabulary_types_and_other_crates() {
    // Addr/OpId/Message/Machine from the vocabulary crate are the
    // sanctioned sans-io surface; a local type that happens to be called
    // `Engine` is nobody's business.
    let src = "use past_wire::{Addr, Machine, Message, OpId};\n\
               fn f(a: Addr, e: &Engine) -> Addr { a }\n";
    assert!(engine_reaches("crates/pastry/src/x.rs", src).is_empty());
    // Engine-driving code is fine in the two adapters and outside the
    // protocol crates.
    let src = "use past_netsim::Engine;\n\
               fn step(sim: &mut Harness) { sim.engine.step(); }\n";
    assert!(engine_reaches("crates/pastry/src/sim.rs", src).is_empty());
    assert!(engine_reaches("crates/core/src/network.rs", src).is_empty());
    assert!(engine_reaches("crates/sim/src/x.rs", src).is_empty());
    assert!(engine_reaches("crates/pastry/tests/x.rs", src).is_empty());
}

// ---------------------------------------------------- spans & ordering

/// Every check reports 1-based line numbers in source order, so a
/// failure in `tests/policy.rs` names the same `path:line`s on every run.
#[test]
fn diagnostics_carry_spans_and_sort_stably() {
    let src = "use past_netsim::Engine;\n\
               fn f(v: &[f64]) -> bool {\n\
                   v[0].partial_cmp(&v[1]).is_some()\n\
               }\n\
               fn g(sim: &mut Harness) { sim.engine.step(); }\n";
    assert_eq!(engine_reaches("crates/core/src/x.rs", src), vec![1, 5]);
    assert_eq!(partial_cmp_calls(src), vec![3]);
    let lock = "source = \"registry+a\"\n\nsource = \"git+b\"\n";
    assert_eq!(registry_packages(lock), vec![1, 3]);
}
