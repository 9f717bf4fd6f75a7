//! Pastry: scalable, self-organizing location and routing for PAST.
//!
//! Implements the overlay described in §2.2 of the PAST paper (and in the
//! companion Middleware 2001 Pastry paper): prefix routing over a 128-bit
//! circular id space with
//!
//! - a routing table of `⌈log_2^b N⌉` rows × `2^b − 1` proximity-chosen
//!   entries ([`table`]),
//! - a leaf set of the `l` numerically closest nodes ([`leafset`]),
//! - a neighborhood set of the `M` proximity-closest nodes
//!   ([`neighborhood`]),
//! - the routing rule with its leaf-set, table, and rare-case branches,
//!   plus the randomized fault-tolerant variant ([`route`]),
//! - the message-level join, failure-detection and repair protocols
//!   ([`node`], [`msg`]), and
//! - an application interface that PAST plugs into ([`app`]).
//!
//! The [`sim`] module binds nodes into the deterministic network simulator
//! and offers both protocol-accurate sequential joins and a fast static
//! builder for 10⁵-node experiments.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]
// Protocol code surfaces errors as values; it never aborts a node.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod app;
pub mod handle;
pub mod id;
pub mod leafset;
pub mod msg;
pub mod neighborhood;
pub mod node;
pub mod route;
pub mod sim;
pub mod state;
pub mod table;
pub mod wire;

pub use app::{App, AppCtx, NullApp, PastryOut, RouteInfo};
pub use handle::NodeHandle;
pub use id::{Config, Id, MAX_ROUTE_HOPS};
pub use leafset::{LeafInsert, LeafSet, Side};
pub use msg::{JoinReply, JoinRequest, PastryMsg, PayloadSize, RouteEnvelope};
pub use node::{
    Behavior, PastryNode, RecoveryConfig, APP_TIMER_BASE, HEARTBEAT_TIMEOUT_US, JOIN_ATTEMPTS,
    JOIN_TIMEOUT_US, MISSED_ACK_LIMIT,
};
pub use route::{next_hop, NextHop};
pub use sim::{
    populate_static, random_ids, static_build, DeliveryRecord, NodeSnapshot, OverlaySnapshot,
    PastrySim,
};
pub use state::PastryState;
// The codec and sans-io vocabulary node logic is written against, so
// dependents name one crate for the protocol surface.
pub use past_wire::{DecodeError, Effect, Input, Io, Proximity, StepIo, Wire, WIRE_VERSION};
