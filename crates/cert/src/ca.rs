//! The certificate authority (the "Central Authority" of the paper's
//! Fig. 1, played by the Raspberry-Pi gateway in the prototype).

use crate::certificate::ImplicitCert;
use crate::id::DeviceId;
use crate::requester::CertRequest;
use crate::{cert_hash, CertError};
use ecq_crypto::zeroize::Zeroizing;
use ecq_crypto::HmacDrbg;
use ecq_p256::keys::KeyPair;
use ecq_p256::point::{batch_normalize, mul_generator_ct, mul_generator_ct_jacobian, AffinePoint};
use ecq_p256::scalar::Scalar;

/// The CA's response to a certificate request: the implicit certificate
/// plus the private-key reconstruction data `r`.
#[derive(Clone, Copy, Debug)]
pub struct IssuedCert {
    /// The implicit certificate (public; 101 bytes on the wire).
    pub certificate: ImplicitCert,
    /// Private-key reconstruction data `r = e·k + d_CA mod n` (SEC 4
    /// §2.4). It need not be confidential: the subject's private key
    /// `d_U = e·k_U + r` (SEC 4 §2.5) stays secret without the request
    /// secret `k_U`, which never leaves the subject, so the service's
    /// `EnrollIssued` frame sends `r` in clear.
    // ct-public
    pub recon_private: Scalar,
}

/// An ECQV certificate authority.
///
/// # Example
///
/// Single and batch issuance produce reconstructible credentials; the
/// batch path is byte-identical to sequential issuance:
///
/// ```
/// use ecq_cert::ca::CertificateAuthority;
/// use ecq_cert::requester::CertRequester;
/// use ecq_cert::DeviceId;
/// use ecq_crypto::HmacDrbg;
///
/// let mut rng = HmacDrbg::from_seed(3);
/// let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
///
/// let requesters: Vec<CertRequester> = (0..4)
///     .map(|i| CertRequester::generate(DeviceId::from_label(&format!("dev{i}")), &mut rng))
///     .collect();
/// let requests: Vec<_> = requesters.iter().map(|r| r.request()).collect();
///
/// let issued = ca.issue_batch(&requests, 0, 3_600, &mut rng)?;
/// for (requester, cert) in requesters.iter().zip(&issued) {
///     let keys = requester.reconstruct(cert, &ca.public_key())?;
///     assert!(keys.is_consistent());
/// }
/// # Ok::<(), ecq_cert::CertError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CertificateAuthority {
    id: DeviceId,
    keys: KeyPair,
}

impl CertificateAuthority {
    /// Creates a CA with a fresh key pair.
    pub fn new(id: DeviceId, rng: &mut HmacDrbg) -> Self {
        CertificateAuthority {
            id,
            keys: KeyPair::generate(rng),
        }
    }

    /// The CA identity.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The CA public key `Q_CA` every device must be provisioned with.
    pub fn public_key(&self) -> AffinePoint {
        self.keys.public
    }

    /// Signs a serialized revocation list with the CA's long-term key
    /// (deterministic RFC 6979 ECDSA), so relying parties fetching the
    /// CRL from an untrusted channel — the service daemon's
    /// `CrlResponse` frame — can authenticate it against `Q_CA`.
    pub fn sign_revocation_list(&self, crl_bytes: &[u8]) -> ecq_p256::ecdsa::Signature {
        ecq_p256::ecdsa::sign(&self.keys.private, crl_bytes)
    }

    /// Issues an implicit certificate for `request` (SEC4 §2.4 "Cert
    /// Generate"):
    ///
    /// 1. sample `k ∈ [1, n−1]`,
    /// 2. `P_U = R_U + k·G` — the public reconstruction point,
    /// 3. build `Cert_U` embedding `P_U`,
    /// 4. `e = H_n(Cert_U)`,
    /// 5. `r = e·k + d_CA mod n` — private reconstruction data.
    ///
    /// The certificate carries a random 64-bit serial (unique with
    /// overwhelming probability), so serial-based revocation
    /// distinguishes certificates. This is [`Self::issue_batch`] over
    /// one request, which pays one field inversion.
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidRequest`] when the request point is off-curve
    /// or the identity.
    pub fn issue(
        &self,
        request: &CertRequest,
        valid_from: u32,
        valid_to: u32,
        rng: &mut HmacDrbg,
    ) -> Result<IssuedCert, CertError> {
        self.issue_batch(core::slice::from_ref(request), valid_from, valid_to, rng)?
            .pop()
            .ok_or(CertError::InvalidRequest)
    }

    /// Issues certificates for a whole batch of requests, sharing the
    /// same validity window.
    ///
    /// Byte-identical to calling [`Self::issue`] once per request with
    /// the same starting RNG state — serials and blinding scalars are
    /// drawn in exactly the sequential order — but the per-request
    /// setup is amortized: every request point is validated before any
    /// RNG output is consumed, each blinded point `P_U = R_U + k·G`
    /// stays in Jacobian coordinates through the fixed-base
    /// multiplication, and a single shared field inversion
    /// ([`batch_normalize`]) normalizes the whole batch. Fleet-scale
    /// provisioning (`ecq_fleet`) enrolls thousands of devices through
    /// this API.
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidRequest`] when *any* request point is
    /// off-curve or the identity; no certificate is issued and no RNG
    /// output is consumed in that case.
    pub fn issue_batch(
        &self,
        requests: &[CertRequest],
        valid_from: u32,
        valid_to: u32,
        rng: &mut HmacDrbg,
    ) -> Result<Vec<IssuedCert>, CertError> {
        if requests
            .iter()
            .any(|r| r.point.infinity || !r.point.is_on_curve())
        {
            return Err(CertError::InvalidRequest);
        }
        // Phase 1: draw (serial, k) in the sequential order and keep
        // every blinded point in Jacobian form. Every copy of a
        // blinding `k` is wiped: `r = e·k + d_CA` goes out in clear, so
        // one leaked `k` gives away `d_CA`.
        let mut serials = Vec::with_capacity(requests.len());
        let mut blindings = Zeroizing::new(Vec::with_capacity(requests.len()));
        let mut points = Vec::with_capacity(requests.len());
        for request in requests {
            serials.push(rng.next_u64());
            loop {
                let k = Zeroizing::new(Scalar::random(rng));
                let p_u = mul_generator_ct_jacobian(&k).add_affine(&request.point);
                if p_u.is_identity() {
                    continue; // R_U = -kG; resample, as `issue` does
                }
                blindings.push(*k);
                points.push(p_u);
                break;
            }
        }
        // Phase 2: one shared inversion normalizes the whole batch.
        let affine = batch_normalize(&points);
        // Phase 3: certificates and reconstruction data.
        let mut out = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            let mut certificate = ImplicitCert::new(
                serials[i],
                self.id,
                request.subject,
                valid_from,
                valid_to,
                &affine[i],
            );
            let mut e = cert_hash(&certificate);
            let mut k = Zeroizing::new(blindings[i]);
            // e = 0 requires a fresh blinding (probability ≈ 2⁻²⁵⁶,
            // unreachable in practice; a batch of N would then draw in
            // a different order than N batches of one).
            while e.is_zero() {
                *k = Scalar::random(rng);
                let p_u = request.point.add(&mul_generator_ct(&k));
                if p_u.infinity {
                    continue;
                }
                certificate = ImplicitCert::new(
                    serials[i],
                    self.id,
                    request.subject,
                    valid_from,
                    valid_to,
                    &p_u,
                );
                e = cert_hash(&certificate);
            }
            out.push(IssuedCert {
                certificate,
                recon_private: e.mul(&k).add(&self.keys.private),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct_public_key;
    use crate::requester::CertRequester;
    use ecq_p256::field::FieldElement;

    #[test]
    fn issue_and_reconstruct() {
        let mut rng = HmacDrbg::from_seed(61);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let requester = CertRequester::generate(DeviceId::from_label("dev1"), &mut rng);
        let issued = ca.issue(&requester.request(), 0, 1000, &mut rng).unwrap();

        let keys = requester.reconstruct(&issued, &ca.public_key()).unwrap();
        assert!(keys.is_consistent());
        assert_eq!(
            reconstruct_public_key(&issued.certificate, &ca.public_key()).unwrap(),
            keys.public
        );
    }

    #[test]
    fn rejects_invalid_request_point() {
        let mut rng = HmacDrbg::from_seed(63);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let bad = CertRequest {
            subject: DeviceId::from_label("evil"),
            point: AffinePoint {
                x: FieldElement::from_u64(1),
                y: FieldElement::from_u64(2),
                infinity: false,
            },
        };
        assert_eq!(
            ca.issue(&bad, 0, 10, &mut rng).unwrap_err(),
            CertError::InvalidRequest
        );
        let infinity_req = CertRequest {
            subject: DeviceId::from_label("evil"),
            point: AffinePoint::identity(),
        };
        assert_eq!(
            ca.issue(&infinity_req, 0, 10, &mut rng).unwrap_err(),
            CertError::InvalidRequest
        );
    }

    #[test]
    fn batch_is_byte_identical_to_sequential() {
        let mut rng = HmacDrbg::from_seed(65);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let requesters: Vec<CertRequester> = (0..8)
            .map(|i| CertRequester::generate(DeviceId::from_label(&format!("dev{i}")), &mut rng))
            .collect();
        let requests: Vec<CertRequest> = requesters.iter().map(|r| r.request()).collect();

        let mut rng_batch = rng.clone();
        let mut rng_seq = rng;
        let batch = ca.issue_batch(&requests, 5, 500, &mut rng_batch).unwrap();
        for (requester, issued) in requesters.iter().zip(&batch) {
            let seq = ca
                .issue(&requester.request(), 5, 500, &mut rng_seq)
                .unwrap();
            assert_eq!(issued.certificate.to_bytes(), seq.certificate.to_bytes());
            assert_eq!(issued.recon_private, seq.recon_private);
            // And the issued certificates remain reconstructible.
            let keys = requester.reconstruct(issued, &ca.public_key()).unwrap();
            assert!(keys.is_consistent());
        }
    }

    #[test]
    fn batch_rejects_any_invalid_request_without_issuing() {
        let mut rng = HmacDrbg::from_seed(66);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let good = CertRequester::generate(DeviceId::from_label("good"), &mut rng).request();
        let bad = CertRequest {
            subject: DeviceId::from_label("bad"),
            point: AffinePoint::identity(),
        };
        let before = rng.clone().next_u64();
        assert_eq!(
            ca.issue_batch(&[good, bad], 0, 10, &mut rng).unwrap_err(),
            CertError::InvalidRequest
        );
        // Fail-fast: the RNG stream was left untouched.
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut rng = HmacDrbg::from_seed(67);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        assert!(ca.issue_batch(&[], 0, 10, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn different_cas_different_keys() {
        let mut rng = HmacDrbg::from_seed(64);
        let ca1 = CertificateAuthority::new(DeviceId::from_label("CA1"), &mut rng);
        let ca2 = CertificateAuthority::new(DeviceId::from_label("CA2"), &mut rng);
        let requester = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
        let i1 = ca1.issue(&requester.request(), 0, 10, &mut rng).unwrap();
        // Reconstructing against the wrong CA public key gives a key
        // pair that fails the consistency check.
        let wrong = requester.reconstruct(&i1, &ca2.public_key());
        assert_eq!(wrong.unwrap_err(), CertError::ReconstructionMismatch);
    }
}
