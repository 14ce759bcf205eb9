//! SEC4 ECQV implicit certificates.
//!
//! Implements the Elliptic Curve Qu–Vanstone implicit certificate
//! scheme (Certicom SEC4) that the paper's whole architecture rests on:
//!
//! 1. a device generates a request point `R_U = k_U·G`
//!    ([`requester::CertRequester`]);
//! 2. the CA blinds it (`P_U = R_U + k·G`), embeds `P_U` in a compact
//!    101-byte certificate, and returns the private-key reconstruction
//!    data `r = e·k + d_CA mod n` ([`ca::CertificateAuthority`]);
//! 3. the device reconstructs its key pair
//!    (`d_U = e·k_U + r`, `Q_U = e·P_U + Q_CA`);
//! 4. any peer that knows the CA public key can *implicitly* derive
//!    `Q_U = Hash(Cert_U)·Decode(Cert_U) + Q_CA` — the paper's eq. (1)
//!    ([`reconstruct_public_key`]), or check a signature under that
//!    key without forming it ([`verify_implicit`]).
//!
//! There is no signature on the certificate: authenticity is implied by
//! the fact that only the legitimate subject can know the private key
//! matching the derived public key — which is exactly why the session
//! protocols must prove possession (Algorithms 1–2 of the paper).
//!
//! # Example
//!
//! ```
//! use ecq_cert::{ca::CertificateAuthority, requester::CertRequester, DeviceId};
//! use ecq_cert::reconstruct_public_key;
//! use ecq_crypto::HmacDrbg;
//! use ecq_p256::point::mul_generator_ct;
//!
//! let mut rng = HmacDrbg::from_seed(7);
//! let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
//!
//! let req = CertRequester::generate(DeviceId::from_label("alice"), &mut rng);
//! let issued = ca.issue(&req.request(), 0, 3600, &mut rng).unwrap();
//! let keys = req.reconstruct(&issued, &ca.public_key()).unwrap();
//!
//! // Implicit derivation by a third party matches the subject's view.
//! let derived = reconstruct_public_key(&issued.certificate, &ca.public_key()).unwrap();
//! assert_eq!(derived, keys.public);
//! assert_eq!(mul_generator_ct(&keys.private), keys.public);
//! ```

#![deny(missing_docs)]

pub mod ca;
pub mod certificate;
pub mod id;
pub mod requester;
pub mod revocation;

pub use certificate::{ImplicitCert, CERT_LEN};
pub use id::DeviceId;
pub use revocation::RevocationList;

use ecq_crypto::sha256::sha256;
use ecq_p256::ecdsa::{self, Signature};
use ecq_p256::point::{mul_sum_vartime, AffinePoint, JacobianPoint};
use ecq_p256::scalar::Scalar;
use ecq_p256::CurveError;

/// Errors arising in certificate issuance and reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertError {
    /// A certificate encoding was malformed.
    InvalidEncoding,
    /// The embedded reconstruction point was invalid.
    InvalidPoint,
    /// Key reconstruction produced an inconsistent key pair.
    ReconstructionMismatch,
    /// The certificate is outside its validity window.
    Expired,
    /// The request point was invalid.
    InvalidRequest,
    /// The certificate's serial appears on the revocation list.
    Revoked,
}

impl core::fmt::Display for CertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CertError::InvalidEncoding => write!(f, "malformed certificate encoding"),
            CertError::InvalidPoint => write!(f, "invalid reconstruction point"),
            CertError::ReconstructionMismatch => {
                write!(f, "reconstructed key pair is inconsistent")
            }
            CertError::Expired => write!(f, "certificate outside validity window"),
            CertError::InvalidRequest => write!(f, "invalid certificate request"),
            CertError::Revoked => write!(f, "certificate serial is revoked"),
        }
    }
}

impl std::error::Error for CertError {}

impl From<CurveError> for CertError {
    fn from(_: CurveError) -> Self {
        CertError::InvalidPoint
    }
}

/// Computes the certificate hash `e = H_n(Cert_U)` used by both the CA
/// and every reconstructing party.
pub fn cert_hash(cert: &ImplicitCert) -> Scalar {
    Scalar::from_be_bytes_reduced(&sha256(&cert.to_bytes()))
}

/// The paper's eq. (1): `Q_X = Hash(Cert_X) · Decode(Cert_X) + Q_CA`.
///
/// Derives the subject's public key from its implicit certificate and
/// the CA public key. This is the operation the device cost model bills
/// as a "public-key reconstruction" (part of STS Op2).
///
/// # Errors
///
/// [`CertError::InvalidPoint`] when the certificate's embedded point or
/// the resulting public key is invalid (e.g. the point at infinity).
pub fn reconstruct_public_key(
    cert: &ImplicitCert,
    ca_public: &AffinePoint,
) -> Result<AffinePoint, CertError> {
    let q = reconstruct_public_key_jacobian(cert, ca_public)?.to_affine();
    if !q.is_on_curve() {
        return Err(CertError::InvalidPoint);
    }
    Ok(q)
}

/// Verifies an ECDSA signature on `msg` under the key eq. (1) implies
/// for `cert` and `ca_public`, without computing that key.
///
/// The answer is the one [`reconstruct_public_key`] followed by
/// [`ecdsa::verify`] gives: the same verdict, the same error. Eq. (1)
/// folds into the verification sum as
/// `u1·G + (u2·e)·P_X + u2·Q_CA`, whose two variable bases share one
/// wNAF ladder ([`ecdsa::verify_prehashed_terms`]). That saves one
/// variable-base multiplication and one field inversion against the
/// two-step path, which the hinted STS path keeps for a cached `Q_X`.
///
/// # Errors
///
/// [`CertError::InvalidPoint`] when the certificate's embedded point
/// does not decode, `ca_public` is off the curve, or the implied key is
/// the point at infinity — in which case `u1·G` alone would verify a
/// forged signature.
pub fn verify_implicit(
    cert: &ImplicitCert,
    ca_public: &AffinePoint,
    msg: &[u8],
    sig: &Signature,
) -> Result<bool, CertError> {
    let p_x = cert.reconstruction_point()?;
    if !ca_public.is_on_curve() {
        return Err(CertError::InvalidPoint);
    }
    let key = [(cert_hash(cert), p_x), (Scalar::one(), *ca_public)];
    Ok(ecdsa::verify_prehashed_terms(key, &sha256(msg), sig)?)
}

/// [`reconstruct_public_key`] without the final affine normalization,
/// for callers that amortize the inversion across a batch with
/// [`ecq_p256::point::batch_normalize`]. The curve-equation check of
/// the affine path runs after normalization, on the caller's side.
/// This is eq. (1)'s weighted batch sum over one certificate with
/// weight 1: `e·P_U` on the wNAF ladder plus one mixed addition of
/// `Q_CA`.
///
/// # Errors
///
/// [`CertError::InvalidPoint`] when the certificate's embedded point
/// is invalid or the derived key is the point at infinity.
pub fn reconstruct_public_key_jacobian(
    cert: &ImplicitCert,
    ca_public: &AffinePoint,
) -> Result<JacobianPoint, CertError> {
    let p_u = cert.reconstruction_point()?;
    let q = eq1_weighted_sum(&[(Scalar::one(), cert_hash(cert), p_u)], ca_public);
    if q.is_identity() {
        return Err(CertError::InvalidPoint);
    }
    Ok(q)
}

/// Eq. (1) summed over a batch of certificates with weights: `Σ wᵢ·Qᵢ`
/// for the keys `Qᵢ = eᵢ·Pᵢ + Q_CA`, each certificate given by its
/// weight `wᵢ`, hash `eᵢ` and decoded reconstruction point `Pᵢ`.
///
/// The sum regroups as `Σ (wᵢ·eᵢ)·Pᵢ + (Σ wᵢ)·Q_CA` and runs on one
/// wNAF ladder ([`mul_sum_vartime`]): one term per certificate plus
/// the CA key, sharing one doubling chain. `Q_CA` enters once as a
/// plain addition and `Σ wᵢ − 1` times on the ladder, so one
/// certificate of weight 1 costs a one-term ladder and one addition.
/// Every input is public (the weights of the batch possession check
/// derive from public data only), so the vartime ladder is sound here.
pub(crate) fn eq1_weighted_sum(
    certs: &[(Scalar, Scalar, AffinePoint)],
    ca_public: &AffinePoint,
) -> JacobianPoint {
    let mut ca_weight = Scalar::one().neg();
    let mut terms = Vec::with_capacity(certs.len() + 1);
    for (w, e, p) in certs {
        ca_weight = ca_weight.add(w);
        terms.push((w.mul(e), JacobianPoint::from_affine(p)));
    }
    terms.push((ca_weight, JacobianPoint::from_affine(ca_public)));
    mul_sum_vartime(&terms).add_affine(ca_public)
}
