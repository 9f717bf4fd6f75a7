//! Benchmark harness for the PAST reproduction.
//!
//! - [`timing`] is a minimal in-tree measurement harness (no external
//!   bench framework, so `cargo bench` needs no registry access).
//! - `src/bin/bench_micro.rs` times the hot primitives (hashing,
//!   signatures, routing steps, cache ops) into `BENCH_micro.json`.
//! - `src/bin/bench_macro.rs` and `src/bin/bench_loss.rs` time whole
//!   networks (build, route, churn; loss and retries) into
//!   `BENCH_macro.json` and `BENCH_loss.json`.
//!
//! The experiment tables (E1–E13) are `past-sim`'s: its `paper_tables`
//! bench and `exp` binary.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub use past_trace::json;
pub mod timing;

pub use timing::{Bench, Measurement};
