//! ECDSA over P-256 with SHA-256.
//!
//! This is the authentication primitive of both the paper's STS design
//! (Algorithms 1 and 2) and the static S-ECDSA baseline. Signing is
//! deterministic (RFC 6979), which keeps simulations reproducible.
//!
//! Verification has one core, which derives `u1` and `u2`, takes
//! `u2·Q` from the key, refuses `u2·Q = O`, adds `u1·G` from the wide
//! comb and checks `x`. Only the source of `u2·Q` differs:
//!
//! * [`verify_prehashed_terms`] takes the key as one or two terms on
//!   one shared wNAF ladder. [`verify`] and [`verify_prehashed`] pass a
//!   plain key `[(1, Q)]`. An ECQV implicit key passes
//!   `[(e, P_X), (1, Q_CA)]`: Algorithm 2 first computes
//!   `Q_X = e·P_X + Q_CA` (eq. (1)) and then verifies against it, while
//!   the core folds eq. (1) into the verification sum and never forms
//!   `Q_X` (see `ecq_cert::verify_implicit`). The device cost model
//!   still bills both operations, because the op trace records both.
//! * A [`VerifyingKey`] holds a 4-tooth comb of `Q` (see
//!   [`crate::precomp`]), so `u2·Q` takes 63 doublings instead of
//!   ~255. Building the comb costs about half a verify, so
//!   it pays for a key that checks many signatures: the STS rekeys of
//!   one certificate session verify against the key that
//!   `ecq_sts::ReconstructionHint` caches. This is a host-only
//!   optimisation: the op trace still records one verify, so the
//!   device model, Table I and the figures do not move.
//!
//! `u1·G` stays a separate fixed-base multiplication on the wide comb,
//! and only the variable bases share a wNAF ladder. micro-ecc's
//! `uECC_verify` runs all of `u1·G + u2·Q` through Shamir's trick
//! instead; on the host the split form wins (see the decision record
//! in [`crate::precomp`]). Device timings come from the fitted Table I
//! costs in `ecq_devices`, not from this code, so the choice never
//! reaches the paper's numbers.

use crate::point::{
    mul_generator_ct, mul_generator_vartime_jacobian, mul_sum_vartime, AffinePoint, JacobianPoint,
};
use crate::precomp::KeyComb;
use crate::rfc6979;
use crate::scalar::Scalar;
use crate::CurveError;
use ecq_crypto::sha256::sha256;
use ecq_crypto::zeroize::Zeroizing;

/// A raw `r ‖ s` ECDSA signature (the paper's `Sign(64)` / `dsign`).
///
/// Both components are public: a signature is sent to the verifier.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The `r` component.
    // ct-public
    pub r: Scalar,
    /// The `s` component.
    // ct-public
    pub s: Scalar,
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.to_bytes();
        write!(
            f,
            "Signature({:02x}{:02x}…{:02x}{:02x})",
            b[0], b[1], b[62], b[63]
        )
    }
}

impl Signature {
    /// Serializes to 64 bytes (`r ‖ s`, big-endian).
    pub fn to_bytes(self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 64-byte `r ‖ s` signature.
    ///
    /// # Errors
    ///
    /// [`CurveError::InvalidSignature`] when either component is zero
    /// or out of range.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CurveError> {
        if bytes.len() != 64 {
            return Err(CurveError::InvalidSignature);
        }
        let mut rb = [0u8; 32];
        let mut sb = [0u8; 32];
        rb.copy_from_slice(&bytes[..32]);
        sb.copy_from_slice(&bytes[32..]);
        let r = Scalar::from_be_bytes(&rb).ok_or(CurveError::InvalidSignature)?;
        let s = Scalar::from_be_bytes(&sb).ok_or(CurveError::InvalidSignature)?;
        if r.is_zero() || s.is_zero() {
            return Err(CurveError::InvalidSignature);
        }
        Ok(Signature { r, s })
    }
}

/// Signs `msg` (hashed internally with SHA-256) with deterministic
/// RFC 6979 nonces. Produces a low-s normalized signature.
pub fn sign(private: &Scalar, msg: &[u8]) -> Signature {
    let h = sha256(msg);
    sign_prehashed(private, &h)
}

/// Signs a precomputed 32-byte message hash. The nonce is wiped on
/// return: with it, a signature gives away the private key.
pub fn sign_prehashed(private: &Scalar, hash: &[u8; 32]) -> Signature {
    let e = Scalar::from_be_bytes_reduced(hash);
    let mut k = Zeroizing::new(rfc6979::generate_k(private, hash));
    loop {
        if let Some(sig) = sign_with_k(private, &e, &k) {
            return sig;
        }
        // Astronomically unlikely; perturb k deterministically.
        *k = k.add(&Scalar::one());
    }
}

fn sign_with_k(private: &Scalar, e: &Scalar, k: &Scalar) -> Option<Signature> {
    // The nonce multiplication leaks the private key if its schedule
    // leaks k, so it runs on the constant-time fixed-base path.
    let point = mul_generator_ct(k);
    if point.infinity {
        return None;
    }
    let r = Scalar::from_reduced(&point.x.to_canonical());
    if r.is_zero() {
        return None;
    }
    let s = k.invert().mul(&e.add(&r.mul(private)));
    if s.is_zero() {
        return None;
    }
    // Low-s normalization (avoids signature malleability).
    let s = if s.is_high() { s.neg() } else { s };
    Some(Signature { r, s })
}

/// Verifies a signature on `msg` (hashed internally) under `public`.
pub fn verify(public: &AffinePoint, msg: &[u8], sig: &Signature) -> bool {
    verify_prehashed(public, &sha256(msg), sig)
}

/// Verifies a signature over a precomputed 32-byte hash.
pub fn verify_prehashed(public: &AffinePoint, hash: &[u8; 32], sig: &Signature) -> bool {
    public.is_on_curve()
        && verify_prehashed_terms([(Scalar::one(), *public)], hash, sig) == Ok(true)
}

/// Checks `sig` over `hash` under the public key `Q = Σ cᵢ·Pᵢ`, given
/// as one or two `(cᵢ, Pᵢ)` terms — `[(1, Q)]` for a plain key,
/// `[(e, P_X), (1, Q_CA)]` for the key eq. (1) implies for an ECQV
/// certificate.
///
/// `u2·Q = Σ (u2·cᵢ)·Pᵢ` runs on one shared wNAF ladder
/// ([`mul_sum_vartime`]), so an implicit key is never formed.
///
/// Every point must be on the curve; [`verify_prehashed`] and
/// `ecq_cert::verify_implicit` check theirs before calling.
///
/// # Errors
///
/// [`CurveError::InvalidPoint`] when the key is the identity. A
/// signature with a zero component, which [`Signature::from_bytes`]
/// never returns, is `Ok(false)` before the key is looked at.
pub fn verify_prehashed_terms<const N: usize>(
    key: [(Scalar, AffinePoint); N],
    hash: &[u8; 32],
    sig: &Signature,
) -> Result<bool, CurveError> {
    verify_core(Key::Terms(key), hash, sig)
}

/// A public key prepared for many verifications: a 4-tooth comb of `Q`
/// (see [`crate::precomp`]), built once, that every [`Self::verify`]
/// walks for `u2·Q` in 63 doublings. The verdict is the one [`verify`]
/// gives under the same `Q`.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    comb: KeyComb,
}

impl VerifyingKey {
    /// Builds the comb of `public`: 192 doublings, 11 additions and one
    /// inversion, about half the cost of one [`verify`].
    ///
    /// # Errors
    ///
    /// [`CurveError::InvalidPoint`] when `public` is the identity or
    /// off the curve.
    pub fn new(public: &AffinePoint) -> Result<Self, CurveError> {
        if public.infinity || !public.is_on_curve() {
            return Err(CurveError::InvalidPoint);
        }
        Ok(VerifyingKey {
            comb: KeyComb::build(public),
        })
    }

    /// Verifies a signature on `msg` (hashed internally).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.verify_prehashed(&sha256(msg), sig)
    }

    /// Verifies a signature over a precomputed 32-byte hash.
    pub fn verify_prehashed(&self, hash: &[u8; 32], sig: &Signature) -> bool {
        // The comb stands in for the terms, so there are none.
        verify_core::<0>(Key::Comb(&self.comb), hash, sig) == Ok(true)
    }
}

/// Where the verification core takes `u2·Q` from.
enum Key<'a, const N: usize> {
    /// `Q = Σ cᵢ·Pᵢ`, for one shared wNAF ladder.
    Terms([(Scalar, AffinePoint); N]),
    /// A [`VerifyingKey`]'s comb of `Q`.
    Comb(&'a KeyComb),
}

impl<const N: usize> Key<'_, N> {
    /// `u2·Q`, in variable time: `u2` and the key are public. The
    /// ladder's sum stays Jacobian, so a verification pays one field
    /// inversion for its tables (none on the comb) and one for the
    /// result.
    fn mul_vartime(self, u2: &Scalar) -> JacobianPoint {
        match self {
            Key::Terms(terms) => {
                mul_sum_vartime(&terms.map(|(c, p)| (u2.mul(&c), JacobianPoint::from_affine(&p))))
            }
            Key::Comb(comb) => comb.mul_vartime(u2),
        }
    }
}

/// The verification core under both key sources.
///
/// `u1·G` rides the wide fixed-base comb. Because `r, s ∈ [1, n−1]`
/// makes `u2 ≠ 0`, `u2·Q = O` exactly when `Q = O`; that key is
/// refused before `u1·G` is added, since `u1·G` alone would otherwise
/// verify a forgery. A zero signature component is `Ok(false)` before
/// the key is looked at.
fn verify_core<const N: usize>(
    key: Key<'_, N>,
    hash: &[u8; 32],
    sig: &Signature,
) -> Result<bool, CurveError> {
    if sig.r.is_zero() || sig.s.is_zero() {
        return Ok(false);
    }
    let e = Scalar::from_be_bytes_reduced(hash);
    let s_inv = sig.s.invert();
    let u1 = e.mul(&s_inv);
    let u2 = sig.r.mul(&s_inv);
    // u1/u2 derive from the public signature and hash, so verification
    // stays on the faster vartime paths.
    let u2q = key.mul_vartime(&u2);
    if u2q.is_identity() {
        return Err(CurveError::InvalidPoint);
    }
    let point = mul_generator_vartime_jacobian(&u1).add(&u2q).to_affine();
    if point.infinity {
        return Ok(false);
    }
    Ok(Scalar::from_reduced(&point.x.to_canonical()) == sig.r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldElement;
    use crate::keys::KeyPair;
    use crate::u256::U256;
    use ecq_crypto::HmacDrbg;

    fn rfc6979_key() -> Scalar {
        Scalar::from_canonical(&U256::from_be_hex(
            "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721",
        ))
        .unwrap()
    }

    // RFC 6979 A.2.5: P-256, SHA-256, message "sample".
    #[test]
    fn rfc6979_sample_signature() {
        let sig = sign(&rfc6979_key(), b"sample");
        assert_eq!(
            sig.r.to_canonical().to_string(),
            "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716"
        );
        // RFC 6979 reports a high-s signature; our signer normalizes to
        // low-s, so the expected value is n − s_ref.
        let s_ref = Scalar::from_canonical(&U256::from_be_hex(
            "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8",
        ))
        .unwrap();
        assert!(s_ref.is_high());
        assert_eq!(sig.s, s_ref.neg());

        // The signature must verify under the RFC 6979 public key.
        let ux = FieldElement::from_canonical(&U256::from_be_hex(
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6",
        ))
        .unwrap();
        let uy = FieldElement::from_canonical(&U256::from_be_hex(
            "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299",
        ))
        .unwrap();
        let public = AffinePoint::from_coords(ux, uy).expect("RFC key on curve");
        assert_eq!(public, mul_generator_ct(&rfc6979_key()));
        assert!(verify(&public, b"sample", &sig));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = HmacDrbg::from_seed(41);
        let kp = KeyPair::generate(&mut rng);
        let sig = sign(&kp.private, b"session transcript");
        assert!(verify(&kp.public, b"session transcript", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message_or_key() {
        let mut rng = HmacDrbg::from_seed(42);
        let kp = KeyPair::generate(&mut rng);
        let other = KeyPair::generate(&mut rng);
        let sig = sign(&kp.private, b"msg");
        assert!(!verify(&kp.public, b"msG", &sig));
        assert!(!verify(&other.public, b"msg", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let mut rng = HmacDrbg::from_seed(43);
        let kp = KeyPair::generate(&mut rng);
        let sig = sign(&kp.private, b"msg");
        let bad_r = Signature {
            r: sig.r.add(&Scalar::one()),
            s: sig.s,
        };
        let bad_s = Signature {
            r: sig.r,
            s: sig.s.add(&Scalar::one()),
        };
        assert!(!verify(&kp.public, b"msg", &bad_r));
        assert!(!verify(&kp.public, b"msg", &bad_s));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let sig = sign(&rfc6979_key(), b"abc");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(Signature::from_bytes(&[0u8; 64]).is_err()); // zero r/s
        assert!(Signature::from_bytes(&[0u8; 63]).is_err());
        assert!(Signature::from_bytes(&[0xffu8; 64]).is_err()); // out of range
    }

    #[test]
    fn low_s_normalization() {
        // RFC 6979 nonces are fixed per (key, message), so fresh keys
        // are what vary s. Recomputing the raw s shows the loop hits
        // the high half, where the signer must negate.
        let mut rng = HmacDrbg::from_seed(45);
        let hash = sha256(b"normalize");
        let e = Scalar::from_be_bytes_reduced(&hash);
        let mut normalized = 0;
        for _ in 0..8 {
            let kp = KeyPair::generate(&mut rng);
            let sig = sign(&kp.private, b"normalize");
            assert!(!sig.s.is_high());
            assert!(verify(&kp.public, b"normalize", &sig));
            let k = rfc6979::generate_k(&kp.private, &hash);
            let raw_s = k.invert().mul(&e.add(&sig.r.mul(&kp.private)));
            if raw_s.is_high() {
                assert_eq!(raw_s.neg(), sig.s);
                normalized += 1;
            }
        }
        assert!(normalized > 0, "no key exercised the high-s branch");
    }

    #[test]
    fn verify_rejects_infinity_public_key() {
        let sig = sign(&rfc6979_key(), b"x");
        assert!(!verify(&AffinePoint::identity(), b"x", &sig));
    }
}
