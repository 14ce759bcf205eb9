//! The certificate requester (device side of SEC4).

use crate::ca::IssuedCert;
use crate::id::DeviceId;
use crate::{cert_hash, reconstruct_public_key_jacobian, CertError};
use ecq_crypto::zeroize::Zeroize;
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

    /// Batch [`Self::reconstruct`]: the whole enrollment batch shares
    /// one field inversion for the final affine normalization of the
    /// eq. (1) outputs (Montgomery's trick, the device-side mirror of
    /// [`crate::ca::CertificateAuthority::issue_batch`]'s amortized
    /// issuance), and every possession check compares in the projective
    /// equivalence class instead of normalizing. Results are
    /// byte-identical to reconstructing each device as a batch of one.
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
        let mut privates = Vec::with_capacity(requesters.len());
        let mut publics = Vec::with_capacity(requesters.len());
        for (req, cert) in requesters.iter().zip(issued) {
            if cert.certificate.subject != req.subject {
                return Err(CertError::InvalidEncoding);
            }
            let e = cert_hash(&cert.certificate);
            let d_u = e.mul(&req.k_u).add(&cert.recon_private);
            if d_u.is_zero() {
                return Err(CertError::ReconstructionMismatch);
            }
            let q_u = reconstruct_public_key_jacobian(&cert.certificate, ca_public)?;
            if mul_generator_ct_jacobian(&d_u) != q_u {
                return Err(CertError::ReconstructionMismatch);
            }
            privates.push(d_u);
            publics.push(q_u);
        }
        let publics = batch_normalize(&publics);
        privates
            .into_iter()
            .zip(publics)
            .map(|(private, public)| {
                // Group-law outputs of valid inputs are always on the
                // curve; the check is defense in depth against
                // arithmetic faults.
                if public.infinity || !public.is_on_curve() {
                    return Err(CertError::InvalidPoint);
                }
                Ok(KeyPair { private, public })
            })
            .collect()
    }
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
