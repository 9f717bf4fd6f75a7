//! Experiment harness reproducing every quantitative claim of the PAST
//! paper.
//!
//! Each submodule of [`experiments`] implements one experiment (E1–E13 in
//! DESIGN.md): a `Params` struct with bench-scale defaults and a
//! `Params::paper()` variant, a `run` function returning a typed result,
//! and a `table()` renderer producing the row/series the paper reports.
//! The `past-bench` crate drives these from its in-tree `paper_tables`
//! bench and from the paper-scale `exp` binary.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod common;
pub mod experiments;
pub mod report;

pub use report::ExpTable;
