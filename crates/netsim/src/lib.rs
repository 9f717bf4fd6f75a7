//! Deterministic discrete-event network simulator.
//!
//! This crate is the substrate the PAST reproduction runs on: the paper's
//! own evaluation numbers are simulation results (the companion Pastry and
//! SOSP'01 papers simulate networks of up to 100 000 nodes), so a faithful
//! reproduction needs a simulator with:
//!
//! - pluggable [`topology`] models supplying the *proximity metric* the
//!   paper defines ("a scalar metric, such as the number of IP hops,
//!   geographic distance, or a combination of these"),
//! - a message [`engine`] with per-link latency, silent node failure and
//!   timeout notifications, per-kind traffic accounting, and
//! - full determinism (seeded per-node RNG streams, totally ordered event
//!   keys), so every experiment in EXPERIMENTS.md reproduces bit-for-bit.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod arena;
pub mod engine;
pub mod soa;
pub mod stats;
pub mod time;
pub mod topology;
pub mod wheel;

pub use engine::{Ctx, Engine, FaultConfig, Memory, NetStats, NodeLogic};
// Defined in the vocabulary crate so a protocol crate can implement it
// without an edge to the simulator; re-exported for engine users.
pub use past_wire::Message;
pub use soa::NodeIo;
pub use stats::{summarize, Summary};
pub use time::SimTime;
pub use topology::{Addr, Plane, Sphere, Topology, TransitStub, UniformRandom};
// The trace layer's core handles, re-exported so node logic written
// against this engine can name them without a separate dependency.
pub use past_trace::{OpId, SeriesConfig, TimeSeries, TraceConfig, Tracer};
