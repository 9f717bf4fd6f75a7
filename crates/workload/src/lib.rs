//! Synthetic workload generators for the PAST experiments.
//!
//! The authors evaluated PAST with proprietary web-proxy and filesystem
//! traces; this crate substitutes parametric equivalents (documented in
//! DESIGN.md): heavy-tailed file sizes ([`sizes::FileSizes`]), banded node
//! capacities ([`sizes::Capacities`]) and Zipf lookup popularity
//! ([`popularity::Zipf`]). Churn is not generated here: the experiments
//! kill, stabilize and rejoin nodes directly.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod popularity;
pub mod sizes;

pub use popularity::Zipf;
pub use sizes::{Capacities, FileSizes};
