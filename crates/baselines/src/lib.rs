//! Baseline peer-to-peer lookup schemes for comparison with Pastry.
//!
//! The PAST paper's related-work section positions Pastry against Chord
//! ("no explicit effort to achieve good network locality") and CAN
//! ("the number of routing hops grows faster than log N"). Both are
//! implemented here on the same deterministic simulator and the same
//! topologies so experiment E11 compares hop counts and locality on equal
//! footing.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod can;
pub mod chord;
pub mod wire;

pub use can::{id_to_point, CanDelivery, CanSim};
pub use chord::{ChordDelivery, ChordSim};
