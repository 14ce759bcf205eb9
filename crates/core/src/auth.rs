//! Algorithms 1 and 2 of the paper: the STS implicit-certificate
//! authentication response and its verification.
//!
//! Algorithm 1 (response generation):
//!
//! ```text
//! dsign ← sign(Prk_own, XG_own ‖ XG_peer)
//! Resp  ← encrypt(KS, dsign)
//! ```
//!
//! Algorithm 2 (verification):
//!
//! ```text
//! dsign_X ← decrypt(KS, Resp_X)
//! Q_X     ← hash(Cert_X) · decode(Cert_X) + Q_CA     (eq. (1))
//! Status  ← verify(Q_X, dsign_X)
//! ```
//!
//! Encrypting the signature under the freshly derived `KS` proves key
//! confirmation in the same flight as authentication: a peer that
//! cannot derive `KS` cannot produce a decryptable response.
//!
//! Algorithm 2 computes `Q_X` explicitly. On a first contact the code
//! folds eq. (1) into the verification instead
//! ([`ecq_cert::verify_implicit`]: `u1·G + (u2·e)·P_X + u2·Q_CA`, with
//! one ladder for both variable bases), so `Q_X` is never formed. The
//! op trace still records a public-key reconstruction and a verify, so
//! the device cost model bills both operations as the paper does. A
//! [`ReconstructionHint`] that already holds `Q_X` keeps the plain
//! verify.

use ecq_cert::{reconstruct_public_key, verify_implicit, CertError, ImplicitCert};
use ecq_crypto::ctr::ctr_blocks;
use ecq_p256::ecdsa::{self, Signature};
use ecq_p256::point::AffinePoint;
use ecq_p256::scalar::Scalar;
use ecq_proto::{OpTrace, PrimitiveOp, ProtocolError, SessionKey, StsPhase};

/// Wire length of the encrypted response (`Resp(64)` in Table II).
pub const RESP_LEN: usize = 64;

/// CTR direction byte for the initiator's `Resp_A`.
pub const DIR_INITIATOR: u8 = 0x0A;
/// CTR direction byte for the responder's `Resp_B`.
pub const DIR_RESPONDER: u8 = 0x0B;

/// Algorithm 1: builds the encrypted authentication response.
///
/// Signs `xg_own ‖ xg_peer` with the ECQV-certified private key and
/// encrypts the 64-byte signature under `KS` (AES-128-CTR, direction-
/// separated keystream).
pub fn auth_response(
    ks: &SessionKey,
    private: &Scalar,
    xg_own: &[u8; 64],
    xg_peer: &[u8; 64],
    direction: u8,
    trace: &mut OpTrace,
) -> [u8; RESP_LEN] {
    let mut msg = [0u8; 128];
    msg[..64].copy_from_slice(xg_own);
    msg[64..].copy_from_slice(xg_peer);

    trace.record(StsPhase::Op3SignEncrypt, PrimitiveOp::EcdsaSign);
    let sig = ecdsa::sign(private, &msg);

    let mut resp = sig.to_bytes();
    trace.record(
        StsPhase::Op3SignEncrypt,
        PrimitiveOp::AesEncrypt {
            blocks: ctr_blocks(RESP_LEN),
        },
    );
    ks.apply_stream(direction, &mut resp);
    resp
}

/// A cached eq. (1) evaluation: an implicit certificate together with
/// the public key reconstructed from it under a specific CA key.
///
/// Reconstruction is a pure function of `(Cert_X, Q_CA)`, so a hint
/// computed once per *certificate* session (e.g. when a
/// [`crate::SessionManager`] first establishes) lets every later rekey
/// handshake of the same pair skip eq. (1) and verify against the
/// cached key directly.
///
/// Soundness: the fields are private and [`Self::compute`] is the only
/// constructor, so a hint always holds the genuine reconstruction for
/// the certificate and CA key it carries. [`verify_response_hinted`]
/// uses it only when both match the certificate received on the wire
/// and the verifier's own CA key, and falls back to the full path on
/// any mismatch — a stale, misrouted or foreign-CA hint can cost time,
/// never authentication soundness.
#[derive(Clone, Copy, Debug)]
pub struct ReconstructionHint {
    cert: ImplicitCert,
    ca_public: AffinePoint,
    public: AffinePoint,
}

impl ReconstructionHint {
    /// Evaluates eq. (1) for `cert` under `ca_public` and caches the
    /// result.
    ///
    /// # Errors
    ///
    /// [`CertError`] when the certificate's embedded point or the
    /// derived key is invalid.
    pub fn compute(cert: &ImplicitCert, ca_public: &AffinePoint) -> Result<Self, CertError> {
        Ok(ReconstructionHint {
            cert: *cert,
            ca_public: *ca_public,
            public: reconstruct_public_key(cert, ca_public)?,
        })
    }

    /// The cached public key, if the hint was computed for exactly
    /// `cert` under exactly `ca_public`.
    fn lookup(&self, cert: &ImplicitCert, ca_public: &AffinePoint) -> Option<AffinePoint> {
        (self.cert == *cert && self.ca_public == *ca_public).then_some(self.public)
    }
}

/// Algorithm 2: decrypts and verifies a peer's authentication response.
///
/// # Errors
///
/// * [`ProtocolError::AuthenticationFailed`] when the decrypted bytes
///   are not a valid signature over `xg_peer ‖ xg_own` under the
///   implicitly derived public key;
/// * certificate/point errors when eq. (1) cannot be evaluated.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's explicit inputs
pub fn verify_response(
    ks: &SessionKey,
    resp: &[u8],
    peer_cert: &ImplicitCert,
    ca_public: &AffinePoint,
    xg_peer: &[u8; 64],
    xg_own: &[u8; 64],
    direction: u8,
    trace: &mut OpTrace,
) -> Result<(), ProtocolError> {
    verify_response_hinted(
        ks, resp, peer_cert, ca_public, xg_peer, xg_own, direction, trace, None,
    )
}

/// [`verify_response`] with an optional cached eq. (1) result.
///
/// When `hint` matches both `peer_cert` and `ca_public`, the signature
/// is checked against the cached key and the public-key reconstruction
/// is not traced; any mismatch falls back to the full path, so a wrong
/// hint only costs the time it was meant to save.
///
/// # Errors
///
/// As [`verify_response`].
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's explicit inputs
pub fn verify_response_hinted(
    ks: &SessionKey,
    resp: &[u8],
    peer_cert: &ImplicitCert,
    ca_public: &AffinePoint,
    xg_peer: &[u8; 64],
    xg_own: &[u8; 64],
    direction: u8,
    trace: &mut OpTrace,
    hint: Option<&ReconstructionHint>,
) -> Result<(), ProtocolError> {
    if resp.len() != RESP_LEN {
        return Err(ProtocolError::Decode);
    }
    let mut dsign = [0u8; RESP_LEN];
    dsign.copy_from_slice(resp);
    trace.record(
        StsPhase::Op4DecryptVerify,
        PrimitiveOp::AesDecrypt {
            blocks: ctr_blocks(RESP_LEN),
        },
    );
    ks.apply_stream(direction, &mut dsign);

    let sig = Signature::from_bytes(&dsign).map_err(|_| ProtocolError::AuthenticationFailed)?;

    let mut msg = [0u8; 128];
    msg[..64].copy_from_slice(xg_peer);
    msg[64..].copy_from_slice(xg_own);

    let verified = match hint.and_then(|h| h.lookup(peer_cert, ca_public)) {
        Some(q_x) => ecdsa::verify(&q_x, &msg, &sig),
        // eq. (1) folded into the verification: Q_X is never formed,
        // but the trace still bills it ahead of the verify.
        None => {
            trace.record(
                StsPhase::Op2KeyDerivation,
                PrimitiveOp::PublicKeyReconstruction,
            );
            verify_implicit(peer_cert, ca_public, &msg, &sig)?
        }
    };
    trace.record(StsPhase::Op4DecryptVerify, PrimitiveOp::EcdsaVerify);
    if verified {
        Ok(())
    } else {
        Err(ProtocolError::AuthenticationFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;
    use ecq_cert::requester::CertRequester;
    use ecq_cert::{cert_hash, reconstruct_public_key_jacobian, DeviceId};
    use ecq_crypto::sha256::sha256;
    use ecq_crypto::HmacDrbg;
    use ecq_p256::point::{mul_generator_ct, mul_generator_vartime};
    use ecq_proto::Credentials;

    fn creds(seed: u64) -> (Credentials, AffinePoint) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let c = Credentials::provision(&ca, DeviceId::from_label("dev"), 0, 10, &mut rng).unwrap();
        (c, ca.public_key())
    }

    fn ks() -> SessionKey {
        SessionKey::derive(b"premaster", b"salt", b"test")
    }

    #[test]
    fn response_roundtrip() {
        let (c, ca_pub) = creds(111);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        verify_response(
            &ks(),
            &resp,
            &c.cert,
            &ca_pub,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        )
        .expect("valid response verifies");
        assert_eq!(trace.count_op(PrimitiveOp::EcdsaSign), 1);
        assert_eq!(trace.count_op(PrimitiveOp::EcdsaVerify), 1);
    }

    #[test]
    fn wrong_session_key_fails() {
        let (c, ca_pub) = creds(112);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        let other_ks = SessionKey::derive(b"different", b"salt", b"test");
        assert!(verify_response(
            &other_ks,
            &resp,
            &c.cert,
            &ca_pub,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace
        )
        .is_err());
    }

    #[test]
    fn swapped_points_fail() {
        // Signing XG_own ‖ XG_peer and verifying XG_peer ‖ XG_own is
        // order-sensitive: a reflected response must not verify.
        let (c, ca_pub) = creds(113);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        assert_eq!(
            verify_response(
                &ks(),
                &resp,
                &c.cert,
                &ca_pub,
                &xg_b,
                &xg_a,
                DIR_INITIATOR,
                &mut trace
            )
            .unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }

    #[test]
    fn wrong_direction_keystream_fails() {
        let (c, ca_pub) = creds(114);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        assert!(verify_response(
            &ks(),
            &resp,
            &c.cert,
            &ca_pub,
            &xg_a,
            &xg_b,
            DIR_RESPONDER,
            &mut trace
        )
        .is_err());
    }

    #[test]
    fn tampered_certificate_fails() {
        let (c, ca_pub) = creds(115);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        let mut cert = c.cert;
        cert.serial ^= 1;
        // Tampered cert ⇒ different hash ⇒ different implicit key ⇒
        // signature no longer verifies.
        assert_eq!(
            verify_response(
                &ks(),
                &resp,
                &cert,
                &ca_pub,
                &xg_a,
                &xg_b,
                DIR_INITIATOR,
                &mut trace
            )
            .unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }

    #[test]
    fn truncated_response_rejected() {
        let (c, ca_pub) = creds(116);
        let mut trace = OpTrace::new();
        assert_eq!(
            verify_response(
                &ks(),
                &[0u8; 32],
                &c.cert,
                &ca_pub,
                &[0u8; 64],
                &[1u8; 64],
                DIR_INITIATOR,
                &mut trace
            )
            .unwrap_err(),
            ProtocolError::Decode
        );
    }

    #[test]
    fn corrupt_reconstruction_point_fails_closed() {
        let mut rng = HmacDrbg::from_seed(117);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let ca_pub = ca.public_key();
        let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
        let issued = ca.issue(&req.request(), 0, 10, &mut rng).unwrap();
        let keys = req.reconstruct(&issued, &ca_pub).unwrap();

        // Two certificates whose `P_U` does not decode: a bad SEC1 tag,
        // and an `x` with no curve point (`x³ − 3x + b` a non-residue).
        let mut bad_tag = issued;
        bad_tag.certificate.point[0] = 0x05;
        let mut off_curve = issued;
        off_curve.certificate.point = [0u8; 33];
        off_curve.certificate.point[0] = 0x02;
        while AffinePoint::from_bytes_compressed(&off_curve.certificate.point).is_ok() {
            off_curve.certificate.point[32] += 1;
        }

        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        let hint = ReconstructionHint::compute(&issued.certificate, &ca_pub).unwrap();
        let invalid = CertError::InvalidPoint;
        for bad in [bad_tag, off_curve] {
            let cert = &bad.certificate;
            assert_eq!(reconstruct_public_key(cert, &ca_pub), Err(invalid));
            assert_eq!(
                reconstruct_public_key_jacobian(cert, &ca_pub).unwrap_err(),
                invalid
            );
            assert_eq!(req.reconstruct(&bad, &ca_pub).unwrap_err(), invalid);
            assert_eq!(
                CertRequester::reconstruct_batch(std::slice::from_ref(&req), &[bad], &ca_pub)
                    .unwrap_err(),
                invalid
            );
            assert_eq!(
                verify_response(
                    &ks(),
                    &resp,
                    cert,
                    &ca_pub,
                    &xg_a,
                    &xg_b,
                    DIR_INITIATOR,
                    &mut trace
                ),
                Err(ProtocolError::Cert(invalid))
            );
            assert_eq!(
                verify_response_hinted(
                    &ks(),
                    &resp,
                    cert,
                    &ca_pub,
                    &xg_a,
                    &xg_b,
                    DIR_INITIATOR,
                    &mut trace,
                    Some(&hint)
                ),
                Err(ProtocolError::Cert(invalid))
            );
        }
    }

    fn ops(trace: &OpTrace) -> Vec<PrimitiveOp> {
        trace.entries().iter().map(|e| e.op).collect()
    }

    #[test]
    fn trace_bills_eq1_and_verify_in_algorithm_2_order() {
        // The fused first contact records what Algorithm 2 computes:
        // the reconstruction, then the verify. A matching hint drops
        // only the reconstruction; a bad point stops after it.
        let (c, ca_pub) = creds(118);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut OpTrace::new(),
        );
        let decrypt = PrimitiveOp::AesDecrypt {
            blocks: ctr_blocks(RESP_LEN),
        };
        let hint = ReconstructionHint::compute(&c.cert, &ca_pub).unwrap();
        let mut bad = c.cert;
        bad.point[0] = 0x05;
        let cases = [
            (c.cert, None, Ok(())),
            (c.cert, Some(&hint), Ok(())),
            (bad, None, Err(ProtocolError::Cert(CertError::InvalidPoint))),
        ];
        for (cert, hint, expected) in cases {
            let mut trace = OpTrace::new();
            let got = verify_response_hinted(
                &ks(),
                &resp,
                &cert,
                &ca_pub,
                &xg_a,
                &xg_b,
                DIR_INITIATOR,
                &mut trace,
                hint,
            );
            assert_eq!(got, expected);
            let want = match (hint, expected) {
                (Some(_), _) => vec![decrypt, PrimitiveOp::EcdsaVerify],
                (None, Ok(())) => vec![
                    decrypt,
                    PrimitiveOp::PublicKeyReconstruction,
                    PrimitiveOp::EcdsaVerify,
                ],
                (None, Err(_)) => vec![decrypt, PrimitiveOp::PublicKeyReconstruction],
            };
            assert_eq!(ops(&trace), want);
        }
    }

    #[test]
    fn identity_implicit_key_refuses_a_forgery() {
        // A CA key of −(e·P_X) makes eq. (1) yield Q_X = O. Against
        // that key u1·G alone is the whole verification sum, so
        // r = x(k·G), s = H(m)·k⁻¹ would verify for any message.
        let (c, _) = creds(119);
        let e = cert_hash(&c.cert);
        let ca_pub = c.cert.reconstruction_point().unwrap().mul_vartime(&e).neg();
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut msg = [0u8; 128];
        msg[..64].copy_from_slice(&xg_a);
        msg[64..].copy_from_slice(&xg_b);
        let h = Scalar::from_be_bytes_reduced(&sha256(&msg));
        let k = Scalar::random(&mut HmacDrbg::from_seed(120));
        let sig = Signature {
            r: Scalar::from_reduced(&mul_generator_ct(&k).x.to_canonical()),
            s: h.mul(&k.invert()),
        };
        // The forgery is real: u1·G = H(m)·s⁻¹·G = k·G has x = r.
        let u1g = mul_generator_vartime(&h.mul(&sig.s.invert()));
        assert_eq!(Scalar::from_reduced(&u1g.x.to_canonical()), sig.r);

        let invalid = CertError::InvalidPoint;
        assert_eq!(reconstruct_public_key(&c.cert, &ca_pub), Err(invalid));
        assert_eq!(verify_implicit(&c.cert, &ca_pub, &msg, &sig), Err(invalid));
        let mut resp = sig.to_bytes();
        ks().apply_stream(DIR_INITIATOR, &mut resp);
        let mut trace = OpTrace::new();
        assert_eq!(
            verify_response(
                &ks(),
                &resp,
                &c.cert,
                &ca_pub,
                &xg_a,
                &xg_b,
                DIR_INITIATOR,
                &mut trace
            ),
            Err(ProtocolError::Cert(invalid))
        );
    }
}
