//! From-scratch cryptographic substrate for the PAST reproduction.
//!
//! The PAST paper (Druschel & Rowstron, HotOS 2001) assumes "it is
//! computationally infeasible to break the public-key cryptosystem and the
//! cryptographic hash function used in PAST" without naming either. This
//! crate supplies both, implemented from first principles so the repository
//! has no external cryptography dependencies:
//!
//! - [`sha256`] / [`sha1`]: FIPS 180-4 / RFC 3174 hash functions. SHA-256
//!   derives 128-bit nodeIds from public keys and content hashes; SHA-1
//!   produces the 160-bit fileIds the paper specifies.
//! - [`u256`] / [`modmath`]: fixed-width big-integer and modular arithmetic.
//!   `modmath` reduces by long division; it does the arithmetic mod `q`,
//!   and is the reference the faster walks are tested against. The
//!   private `fp` module multiplies mod `p` in Montgomery form, with no
//!   division: every multiply mod `p` of `sign`, `keygen`, `verify` and
//!   `AnchorKey::verify` runs there, and its `const fn` multiply builds
//!   the generator's fixed-base comb at compile time.
//! - [`schnorr`]: Schnorr signatures over a 256-bit safe-prime group, with
//!   deterministic nonces so simulations are reproducible. The prime `p`
//!   and the generator `g` are the group's only literals: the order `q`
//!   and `g`'s comb are derived from them at compile time.
//! - [`digest`]: digest newtypes shared by the higher layers.
//! - [`rng`]: the deterministic, seedable PRNG every other crate draws
//!   randomness from (no OS entropy anywhere in the workspace).
//!
//! Security disclaimer: parameters are sized for a research reproduction
//! (256-bit discrete log, SHA-1 identifiers) and must not be used to protect
//! real data.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod digest;
mod fp;
pub mod modmath;
pub mod rng;
pub mod schnorr;
pub mod sha1;
pub mod sha256;
pub mod stream;
pub mod u256;

pub use digest::{Digest160, Digest256};
pub use rng::Rng;
pub use schnorr::{AnchorKey, KeyPair, PublicKey, Signature};
pub use stream::StreamCipher;

/// Convenience: SHA-256 digest of `data` as a [`Digest256`].
pub fn digest256(data: &[u8]) -> Digest256 {
    Digest256(sha256::sha256(data))
}
