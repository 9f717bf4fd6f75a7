//! Benchmark harness for the PAST reproduction.
//!
//! - [`timing`] is a minimal in-tree measurement harness (no external
//!   bench framework, so `cargo bench` needs no registry access).
//! - `benches/paper_tables.rs` regenerates every experiment table
//!   (E1–E13) at bench scale; run with `cargo bench -p past-bench`.
//! - `src/bin/bench_micro.rs` times the hot primitives (hashing,
//!   signatures, routing steps, cache ops) into `BENCH_micro.json`.
//! - `src/bin/exp.rs` runs individual experiments at paper scale
//!   (`exp e7`, `exp all`).

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub use past_trace::json;
pub mod timing;

pub use timing::{Bench, Measurement};
