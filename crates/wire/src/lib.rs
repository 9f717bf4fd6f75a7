//! The wire layer: a versioned byte-level codec plus the sans-io
//! protocol substrate.
//!
//! Two halves, deliberately small and dependency-free (hermeticity rule
//! H1):
//!
//! - [`codec`]: the [`Wire`] trait — explicit field order, little-endian
//!   integers, `u32` length-prefixed vectors, a leading version byte on
//!   every top-level message — the [`wire_struct!`] and [`wire_enum!`]
//!   macros that generate an impl from one field list, and the typed
//!   [`DecodeError`] that makes malformed input a value, never a panic.
//!   DESIGN.md §13 is the normative spec.
//! - [`sansio`]: the [`StepIo`] effect sink and [`Input`] event type
//!   that protocol state machines are written against, the [`Machine`]
//!   trait they implement and the [`Message`] trait their frames
//!   implement, so the same `(state, input) → effects` transition
//!   functions run under the deterministic simulator today and real
//!   sockets later. The simulator and the engine-free pure tests step
//!   machines against the same `StepIo`.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod codec;
pub mod sansio;

pub use codec::{DecodeError, Reader, Sink, Wire, WIRE_VERSION};
pub use sansio::{btree_heap_bytes, Effect, Input, Machine, Message, StepIo};

// The handles node logic needs, re-exported so a sans-io protocol crate
// can name them without depending on the simulator.
pub use past_crypto::rng::Rng;
pub use past_trace::{OpId, TraceConfig, Tracer};

/// A network address. In the simulator this is a topology slot index; a
/// socket transport would map it to a peer table entry.
pub type Addr = usize;
