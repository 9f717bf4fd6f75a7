//! Experiment harness reproducing every quantitative claim of the PAST
//! paper.
//!
//! Each submodule of [`experiments`] implements one experiment (E1–E13 in
//! DESIGN.md): a `Params` struct with bench-scale defaults and a
//! `Params::paper()` variant, a `run` function returning a typed result,
//! and a `table()` renderer producing the row/series the paper reports.
//! [`experiments::ALL`] lists them; two thin runners loop over it: the
//! `paper_tables` bench at bench scale (`cargo bench -p past-sim --bench
//! paper_tables`) and the `exp` binary at paper scale
//! (`cargo run --release -p past-sim --bin exp -- e7`).

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod common;
pub mod experiments;
pub mod report;

pub use report::ExpTable;
