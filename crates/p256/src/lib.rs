//! P-256 (secp256r1) elliptic-curve arithmetic from scratch.
//!
//! The paper implements its protocols in C on top of *micro-ecc*, a small
//! self-contained secp256r1 library. This crate is the Rust counterpart:
//! everything from 256-bit limb arithmetic up to ECDSA is implemented
//! here with no external cryptographic dependencies.
//!
//! Layers, bottom-up:
//!
//! * [`u256`] — 256-bit unsigned integers over 4×u64 limbs,
//! * [`backend`] — the fixed-modulus Montgomery engine under both
//!   fields, with the constant-time safegcd inversion,
//! * [`field`] — arithmetic in GF(p), the curve's base field,
//! * [`scalar`] — arithmetic mod `n`, the group order,
//! * [`point`] — affine/Jacobian group operations and scalar
//!   multiplication, split into constant-schedule `*_ct` paths for
//!   secret scalars and explicit `*_vartime` paths for public ones
//!   (4-bit windows for `*_ct`, width-5 wNAF for the variable-base
//!   vartime multiplier),
//! * [`ct`] — the mask/select/table-scan primitives under the `*_ct`
//!   paths,
//! * [`precomp`] — the two fixed-base combs: the 4-bit one behind
//!   [`point::mul_generator_ct`] and the 8-bit one behind
//!   [`point::mul_generator_vartime`] (no doublings per `k·G`),
//! * [`encoding`] — SEC1 point (de)compression,
//! * [`ecdsa`] — deterministic ECDSA (RFC 6979 nonces),
//! * [`ecdh`] — Diffie–Hellman: the static `Sk = Prk_a·Puk_b` of §II-A
//!   and the ephemeral `KPM = X_A·XG_B` of the paper's eq. (3),
//! * [`keys`] — key-pair generation,
//! * `counters` — the operation counters behind the constant-schedule
//!   tests (only under `cfg(test)` or the `schedule-counters` feature),
//! * `mont` — the generic Montgomery engine the tests pin the backend
//!   against for every operation (only under `cfg(test)`).
//!
//! # Example
//!
//! ```
//! use ecq_crypto::HmacDrbg;
//! use ecq_p256::{ecdh, keys::KeyPair};
//!
//! let mut rng = HmacDrbg::from_seed(1);
//! let alice = KeyPair::generate(&mut rng);
//! let bob = KeyPair::generate(&mut rng);
//! let k_ab = ecdh::shared_secret(&alice.private, &bob.public).unwrap();
//! let k_ba = ecdh::shared_secret(&bob.private, &alice.public).unwrap();
//! assert_eq!(k_ab, k_ba);
//! ```

#![warn(missing_docs)]

pub mod backend;
#[cfg(any(test, feature = "schedule-counters"))]
pub mod counters;
pub mod ct;
pub mod ecdh;
pub mod ecdsa;
pub mod encoding;
pub mod field;
pub mod keys;
pub mod point;
pub mod precomp;
pub mod rfc6979;
pub mod scalar;
pub mod u256;

pub use field::FieldElement;
pub use point::{AffinePoint, JacobianPoint};
pub use scalar::Scalar;
pub use u256::U256;

/// Errors produced by curve-level operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveError {
    /// A point encoding was syntactically invalid or not on the curve.
    InvalidPoint,
    /// A scalar encoding was zero or not below the group order.
    InvalidScalar,
    /// An ECDSA signature failed structural validation.
    InvalidSignature,
    /// ECDH produced the point at infinity (invalid peer key).
    InfinityResult,
}

impl core::fmt::Display for CurveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CurveError::InvalidPoint => write!(f, "invalid curve point encoding"),
            CurveError::InvalidScalar => write!(f, "scalar out of range"),
            CurveError::InvalidSignature => write!(f, "malformed ECDSA signature"),
            CurveError::InfinityResult => write!(f, "operation produced the point at infinity"),
        }
    }
}

impl std::error::Error for CurveError {}

#[cfg(test)]
mod mont;
