//! Synthetic workload generators for the PAST experiments.
//!
//! The authors evaluated PAST with proprietary web-proxy and filesystem
//! traces; this crate substitutes parametric equivalents (documented in
//! DESIGN.md): heavy-tailed file sizes ([`sizes::FileSizes`]), banded node
//! capacities ([`sizes::Capacities`]), Zipf lookup popularity
//! ([`popularity::Zipf`]), churn schedules ([`churn`]), and deterministic
//! file names/contents ([`names`]).

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod churn;
pub mod names;
pub mod popularity;
pub mod sizes;

pub use churn::{exp_lifetime_us, schedule, ChurnEvent};
pub use names::{file_contents, file_name, owner_seed};
pub use popularity::Zipf;
pub use sizes::{Capacities, FileSizes};
