//! The certificate requester (device side of SEC4).

use crate::ca::IssuedCert;
use crate::id::DeviceId;
use crate::{cert_hash, eq1_weighted_sum, reconstruct_public_key_jacobian, CertError};
use ecq_crypto::sha256::{sha256_concat, Sha256};
use ecq_crypto::zeroize::{Zeroize, Zeroizing};
use ecq_crypto::HmacDrbg;
use ecq_p256::keys::KeyPair;
use ecq_p256::point::{batch_normalize, mul_generator_ct, mul_generator_ct_jacobian, AffinePoint};
use ecq_p256::scalar::Scalar;

/// The public part of a certificate request: `(U, R_U)`.
#[derive(Clone, Copy, Debug)]
pub struct CertRequest {
    /// The requesting device's identity.
    pub subject: DeviceId,
    /// The request point `R_U = k_U · G`.
    pub point: AffinePoint,
}

/// Device-side state across the request/issue round trip. Holds the
/// secret `k_U` needed to reconstruct the private key after issuance.
#[derive(Clone, Debug)]
pub struct CertRequester {
    subject: DeviceId,
    k_u: Scalar,
    r_u: AffinePoint,
}

impl CertRequester {
    /// Generates a fresh request secret `k_U` and point `R_U`.
    pub fn generate(subject: DeviceId, rng: &mut HmacDrbg) -> Self {
        let k_u = Scalar::random(rng);
        CertRequester {
            subject,
            k_u,
            r_u: mul_generator_ct(&k_u),
        }
    }

    /// The public request to send to the CA.
    pub fn request(&self) -> CertRequest {
        CertRequest {
            subject: self.subject,
            point: self.r_u,
        }
    }

    /// Reconstructs the certified key pair from the CA's response
    /// (SEC4 §2.5 "Cert PK Extraction" + "Cert Reception"):
    ///
    /// * `e = H_n(Cert_U)`
    /// * `d_U = e·k_U + r mod n`
    /// * `Q_U = e·P_U + Q_CA`
    ///
    /// and validates `Q_U == d_U·G` before accepting. This is
    /// [`Self::reconstruct_batch`] over one certificate.
    ///
    /// # Errors
    ///
    /// * [`CertError::InvalidEncoding`] when the certificate names a
    ///   different subject;
    /// * [`CertError::InvalidPoint`] when the embedded point is bad;
    /// * [`CertError::ReconstructionMismatch`] when the possession check
    ///   fails (wrong CA key, corrupted `r`, tampered certificate).
    pub fn reconstruct(
        &self,
        issued: &IssuedCert,
        ca_public: &AffinePoint,
    ) -> Result<KeyPair, CertError> {
        Self::reconstruct_batch(
            core::slice::from_ref(self),
            core::slice::from_ref(issued),
            ca_public,
        )?
        .pop()
        .ok_or(CertError::InvalidEncoding)
    }

    /// Batch [`Self::reconstruct`], with one possession check for the
    /// whole batch instead of one eq. (1) per device.
    ///
    /// Each device's `e = H_n(Cert_U)` is computed once, its private key
    /// is `d_U = e·k_U + r`, and its public key `Q_U = d_U·G` comes from
    /// the constant-schedule comb; the public keys share one field
    /// inversion (Montgomery's trick, the device-side mirror of
    /// [`crate::ca::CertificateAuthority::issue_batch`]). The batch then
    /// checks every `d_U·G == e·P_U + Q_CA` at once with the
    /// small-exponent test (Bellare, Garay and Rabin, "Fast batch
    /// verification for modular exponentiation and digital
    /// signatures", EUROCRYPT 1998):
    ///
    /// `(Σ zᵢ·dᵢ)·G == Σ (zᵢ·eᵢ)·Pᵢ + (Σ zᵢ)·Q_CA`
    ///
    /// with `z₁ = 1` and every later `zᵢ` 128 bits of SHA-256 over a
    /// transcript of the batch's public inputs: `Q_CA` and each
    /// device's certificate and `Q_U`. P-256 has prime order, so a
    /// batch in which any device is off its equation passes with
    /// probability at most 2⁻¹²⁸. The left side is
    /// one more comb call, on the secret sum, which is wiped afterwards;
    /// the right side is eq. (1)'s weighted batch sum on one shared
    /// wNAF ladder. A batch of one needs no extra comb: `z₁ = 1` makes
    /// the left side `Q_U` itself, so it costs what a per-device check
    /// costs.
    ///
    /// If a per-device pre-check (subject, `d_U = 0`, decoding `P_U`,
    /// a CA key off the curve) or the batch equation fails, the batch
    /// reruns the per-device check, so an error is the first one in
    /// index order with [`Self::reconstruct`]'s classification. Keys
    /// are byte-identical to reconstructing each device as a batch of
    /// one.
    ///
    /// Every device's `d_U` stays in a wiping holder until its key pair
    /// is built, and no key pair is built before every `Q_U` has passed
    /// its on-curve check, so a failed batch frees no private key
    /// unwiped.
    ///
    /// `requesters` and `issued` must be index-aligned, as produced by
    /// requesting in order and issuing with `issue_batch`.
    ///
    /// # Errors
    ///
    /// The first per-device error in index order, with the same
    /// classification as [`Self::reconstruct`];
    /// [`CertError::InvalidEncoding`] when the slices are not the same
    /// length.
    pub fn reconstruct_batch(
        requesters: &[CertRequester],
        issued: &[IssuedCert],
        ca_public: &AffinePoint,
    ) -> Result<Vec<KeyPair>, CertError> {
        if requesters.len() != issued.len() {
            return Err(CertError::InvalidEncoding);
        }
        let (privates, publics) = match Self::check_batch(requesters, issued, ca_public) {
            Some(checked) => checked,
            None => Self::check_each(requesters, issued, ca_public)?,
        };
        // Group-law outputs of valid inputs are always on the curve; the
        // check is defense in depth against arithmetic faults.
        if publics.iter().any(|q| q.infinity || !q.is_on_curve()) {
            return Err(CertError::InvalidPoint);
        }
        Ok(privates
            .iter()
            .zip(publics)
            .map(|(&private, public)| KeyPair { private, public })
            .collect())
    }

    /// The batch possession check of [`Self::reconstruct_batch`]: every
    /// device's `(d_U, Q_U)`, or `None` when a pre-check or the batch
    /// equation fails.
    fn check_batch(
        requesters: &[CertRequester],
        issued: &[IssuedCert],
        ca_public: &AffinePoint,
    ) -> Option<(Zeroizing<Vec<Scalar>>, Vec<AffinePoint>)> {
        if ca_public.infinity || !ca_public.is_on_curve() {
            return None;
        }
        let mut privates = Zeroizing::new(Vec::with_capacity(requesters.len()));
        let mut combs = Vec::with_capacity(requesters.len());
        let mut certs = Vec::with_capacity(requesters.len());
        for (req, cert) in requesters.iter().zip(issued) {
            let (e, d_u) = req.derive(cert).ok()?;
            certs.push((e, cert.certificate.reconstruction_point().ok()?));
            combs.push(mul_generator_ct_jacobian(&d_u));
            privates.push(d_u);
        }
        let publics = batch_normalize(&combs);
        let terms: Vec<_> = randomizers(issued, ca_public, &publics)
            .into_iter()
            .zip(certs)
            .map(|(z, (e, p_u))| (z, e, p_u))
            .collect();
        let lhs = match combs.as_slice() {
            // z₁ = 1, so the secret sum is d₁, whose comb is Q₁.
            [q] => *q,
            _ => {
                let mut sum = Scalar::zero();
                for ((z, _, _), d) in terms.iter().zip(privates.iter()) {
                    sum = sum.add(&z.mul(d));
                }
                let lhs = mul_generator_ct_jacobian(&sum);
                sum.zeroize();
                lhs
            }
        };
        (lhs == eq1_weighted_sum(&terms, ca_public)).then_some((privates, publics))
    }

    /// The per-device possession check `d_U·G == e·P_U + Q_CA`, device
    /// by device: every device's `(d_U, Q_U)`, or the first error in
    /// index order.
    fn check_each(
        requesters: &[CertRequester],
        issued: &[IssuedCert],
        ca_public: &AffinePoint,
    ) -> Result<(Zeroizing<Vec<Scalar>>, Vec<AffinePoint>), CertError> {
        let mut privates = Zeroizing::new(Vec::with_capacity(requesters.len()));
        let mut publics = Vec::with_capacity(requesters.len());
        for (req, cert) in requesters.iter().zip(issued) {
            let (_, d_u) = req.derive(cert)?;
            let q_u = reconstruct_public_key_jacobian(&cert.certificate, ca_public)?;
            if mul_generator_ct_jacobian(&d_u) != q_u {
                return Err(CertError::ReconstructionMismatch);
            }
            privates.push(d_u);
            publics.push(q_u);
        }
        Ok((privates, batch_normalize(&publics)))
    }

    /// Checks that `cert` names this requester and derives
    /// `e = H_n(Cert_U)` and `d_U = e·k_U + r`, refusing `d_U = 0`.
    fn derive(&self, cert: &IssuedCert) -> Result<(Scalar, Scalar), CertError> {
        if cert.certificate.subject != self.subject {
            return Err(CertError::InvalidEncoding);
        }
        let e = cert_hash(&cert.certificate);
        let d_u = e.mul(&self.k_u).add(&cert.recon_private);
        if d_u.is_zero() {
            return Err(CertError::ReconstructionMismatch);
        }
        Ok((e, d_u))
    }
}

/// The batch possession check's randomizers, one per device: `z₁ = 1`,
/// and each later `zᵢ` is the first 128 bits of `SHA-256(T ‖ i)`, with
/// `i` counted from 1 as a big-endian `u64`. `T` is the SHA-256 of the
/// batch's public transcript: `Q_CA`, each device's reconstructed
/// `Q_U`, then each certificate. Everything an adversary can choose
/// enters `T` — the certificates directly and `r` through
/// `Q_U = d_U·G` — so no one can pick two errors that cancel under the
/// `zᵢ`. The randomizers are deterministic and draw from no DRBG
/// stream.
fn randomizers(
    issued: &[IssuedCert],
    ca_public: &AffinePoint,
    publics: &[AffinePoint],
) -> Vec<Scalar> {
    let mut z = vec![Scalar::one()];
    if issued.len() < 2 {
        return z;
    }
    let mut transcript = Sha256::new();
    transcript.update(b"ecqv-batch-possession");
    for q in std::iter::once(ca_public).chain(publics) {
        transcript.update(&q.x.to_be_bytes());
        transcript.update(&q.y.to_be_bytes());
    }
    for cert in issued {
        transcript.update(&cert.certificate.to_bytes());
    }
    let t = transcript.finalize();
    for i in 2..=issued.len() as u64 {
        let mut wide = [0u8; 32];
        wide[16..].copy_from_slice(&sha256_concat(&[&t, &i.to_be_bytes()])[..16]);
        z.push(Scalar::from_be_bytes_reduced(&wide));
    }
    z
}

impl Drop for CertRequester {
    /// Wipes the request secret `k_U`: together with the wire-visible
    /// `r` it determines the reconstructed private key.
    fn drop(&mut self) {
        self.k_u.zeroize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;

    #[test]
    fn full_flow_possession_check_passes() {
        let mut rng = HmacDrbg::from_seed(71);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("node"), &mut rng);
        let issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        let kp = req.reconstruct(&issued, &ca.public_key()).unwrap();
        assert!(kp.is_consistent());
    }

    #[test]
    fn tampered_certificate_fails_reconstruction() {
        let mut rng = HmacDrbg::from_seed(72);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("node"), &mut rng);
        let mut issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        issued.certificate.extensions[0] ^= 1; // any bit flip
        assert_eq!(
            req.reconstruct(&issued, &ca.public_key()).unwrap_err(),
            CertError::ReconstructionMismatch
        );
    }

    #[test]
    fn tampered_recon_data_fails() {
        let mut rng = HmacDrbg::from_seed(73);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("node"), &mut rng);
        let mut issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        issued.recon_private = issued.recon_private.add(&Scalar::one());
        assert_eq!(
            req.reconstruct(&issued, &ca.public_key()).unwrap_err(),
            CertError::ReconstructionMismatch
        );
    }

    #[test]
    fn subject_mismatch_rejected() {
        let mut rng = HmacDrbg::from_seed(74);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let alice = CertRequester::generate(DeviceId::from_label("alice"), &mut rng);
        let bob = CertRequester::generate(DeviceId::from_label("bob"), &mut rng);
        let issued = ca.issue(&alice.request(), 0, 100, &mut rng).unwrap();
        assert_eq!(
            bob.reconstruct(&issued, &ca.public_key()).unwrap_err(),
            CertError::InvalidEncoding
        );
    }

    #[test]
    fn batch_reconstruct_matches_sequential() {
        let mut rng = HmacDrbg::from_seed(76);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let requesters: Vec<CertRequester> = (0..7)
            .map(|i| CertRequester::generate(DeviceId::from_label(&format!("node-{i}")), &mut rng))
            .collect();
        let requests: Vec<_> = requesters.iter().map(|r| r.request()).collect();
        let issued = ca.issue_batch(&requests, 0, 100, &mut rng).unwrap();
        let batch =
            CertRequester::reconstruct_batch(&requesters, &issued, &ca.public_key()).unwrap();
        assert_eq!(batch.len(), 7);
        // An honest batch passes the one batch equation; the per-device
        // fallback would give the same keys, only slower.
        let (privates, publics) =
            CertRequester::check_batch(&requesters, &issued, &ca.public_key()).unwrap();
        assert_eq!(
            *privates,
            batch.iter().map(|k| k.private).collect::<Vec<_>>()
        );
        assert_eq!(publics, batch.iter().map(|k| k.public).collect::<Vec<_>>());
        for ((req, cert), kp) in requesters.iter().zip(&issued).zip(&batch) {
            let sequential = req.reconstruct(cert, &ca.public_key()).unwrap();
            assert_eq!(kp.private, sequential.private);
            assert_eq!(kp.public, sequential.public);
            assert!(kp.is_consistent());
        }
    }

    #[test]
    fn batch_reconstruct_propagates_first_error() {
        let mut rng = HmacDrbg::from_seed(77);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let requesters: Vec<CertRequester> = (0..4)
            .map(|i| CertRequester::generate(DeviceId::from_label(&format!("node-{i}")), &mut rng))
            .collect();
        let requests: Vec<_> = requesters.iter().map(|r| r.request()).collect();
        let mut issued = ca.issue_batch(&requests, 0, 100, &mut rng).unwrap();
        issued[2].recon_private = issued[2].recon_private.add(&Scalar::one());
        assert!(CertRequester::check_batch(&requesters, &issued, &ca.public_key()).is_none());
        assert_eq!(
            CertRequester::reconstruct_batch(&requesters, &issued, &ca.public_key()).unwrap_err(),
            CertError::ReconstructionMismatch
        );
        // Length mismatch fails closed before any work.
        assert_eq!(
            CertRequester::reconstruct_batch(&requesters, &issued[..3], &ca.public_key())
                .unwrap_err(),
            CertError::InvalidEncoding
        );
        // Swapped certificates surface the subject mismatch.
        issued.swap(0, 1);
        assert_eq!(
            CertRequester::reconstruct_batch(&requesters, &issued, &ca.public_key()).unwrap_err(),
            CertError::InvalidEncoding
        );
    }

    #[test]
    fn distinct_requests_distinct_keys() {
        let mut rng = HmacDrbg::from_seed(75);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("node"), &mut rng);
        let i1 = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        let i2 = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        let k1 = req.reconstruct(&i1, &ca.public_key()).unwrap();
        let k2 = req.reconstruct(&i2, &ca.public_key()).unwrap();
        // Same request secret, but fresh CA blinding ⇒ different keys.
        assert_ne!(k1.private, k2.private);
        assert_ne!(k1.public, k2.public);
    }
}
