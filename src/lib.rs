//! PAST — a large-scale, persistent peer-to-peer storage utility.
//!
//! Reproduction of Druschel & Rowstron, *PAST: A large-scale, persistent
//! peer-to-peer storage utility* (HotOS-VIII, 2001), as a Rust workspace.
//! This facade crate re-exports the workspace so examples and downstream
//! users need a single dependency:
//!
//! - [`core`] — the PAST storage layer (certificates, smartcards, quotas,
//!   replication, diversion, caching, audits).
//! - [`pastry`] — the Pastry overlay (prefix routing, leaf sets, joins,
//!   failure recovery, randomized routing).
//! - [`netsim`] — the deterministic discrete-event network simulator.
//! - [`crypto`] — from-scratch SHA-1/SHA-256 and Schnorr signatures.
//! - [`baselines`] — Chord and CAN comparators.
//! - [`workload`] — trace-like synthetic workload generators.
//! - [`sim`] — the experiment harness reproducing the paper's numbers.
//!
//! # Examples
//!
//! ```
//! use past::core::{BuildMode, ContentRef, PastConfig, PastNetwork, PastOut};
//! use past::netsim::Sphere;
//! use past::crypto::rng::Rng;
//! use past::pastry::{random_ids, Config};
//!
//! let n = 24;
//! let mut rng = Rng::seed_from_u64(1);
//! let ids = random_ids(n, &mut rng);
//! let mut net = PastNetwork::build(
//!     Sphere::new(n, 1),
//!     Config { leaf_len: 8, neighborhood_len: 8, ..Config::default() },
//!     PastConfig::default(),
//!     1,
//!     &ids,
//!     &vec![64 << 20; n],
//!     &vec![1 << 30; n],
//!     BuildMode::ProtocolJoins,
//! );
//! let content = ContentRef::from_bytes(b"hello, PAST");
//! net.insert(0, "greeting.txt", content, 3).unwrap();
//! let stored = net
//!     .run()
//!     .iter()
//!     .any(|(_, _, e)| matches!(e, PastOut::InsertOk { .. }));
//! assert!(stored);
//! ```

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub use past_baselines as baselines;
pub use past_core as core;
pub use past_crypto as crypto;
pub use past_netsim as netsim;
pub use past_pastry as pastry;
pub use past_sim as sim;
pub use past_wire as wire;
pub use past_workload as workload;
