//! Property-based tests of the ECQV certificate layer: encoding
//! roundtrips over arbitrary metadata, tamper detection, the
//! reconstruction identity over random deployments, and fused
//! verification against eq. (1) followed by a plain verify.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::requester::CertRequester;
use ecq_cert::{
    cert_hash, reconstruct_public_key, verify_implicit, CertError, DeviceId, ImplicitCert,
    RevocationList,
};
use ecq_crypto::HmacDrbg;
use ecq_p256::ecdsa::{self, Signature};
use ecq_p256::keys::KeyPair;
use ecq_p256::point::{mul_generator_vartime, AffinePoint};
use ecq_p256::scalar::Scalar;
use proptest::prelude::*;

fn arb_cert() -> impl Strategy<Value = ImplicitCert> {
    (
        any::<u64>(),
        any::<[u8; 16]>(),
        any::<[u8; 16]>(),
        any::<u32>(),
        any::<u32>(),
        1u64..1_000_000,
    )
        .prop_map(|(serial, issuer, subject, from, to, k)| {
            ImplicitCert::new(
                serial,
                DeviceId::from_bytes(issuer),
                DeviceId::from_bytes(subject),
                from.min(to),
                from.max(to),
                &mul_generator_vartime(&Scalar::from_u64(k)),
            )
        })
}

/// The two-step path [`verify_implicit`] must agree with: eq. (1),
/// then a plain verify under the reconstructed key.
fn reconstruct_then_verify(
    cert: &ImplicitCert,
    ca_public: &AffinePoint,
    msg: &[u8],
    sig: &Signature,
) -> Result<bool, CertError> {
    let q = reconstruct_public_key(cert, ca_public)?;
    Ok(ecdsa::verify(&q, msg, sig))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encoding_roundtrips(cert in arb_cert()) {
        let bytes = cert.to_bytes();
        prop_assert_eq!(bytes.len(), 101);
        prop_assert_eq!(ImplicitCert::from_bytes(&bytes).unwrap(), cert);
    }

    #[test]
    fn any_byte_flip_changes_the_hash(cert in arb_cert(), pos in 3usize..101, bit in 0u8..8) {
        // Positions 0..3 (magic+version) are rejected at parse time;
        // any other flip must change e = H_n(Cert) and therefore the
        // implicitly derived key.
        let mut bytes = cert.to_bytes();
        bytes[pos] ^= 1 << bit;
        // Structural rejection (Err) is also fine (e.g. curve id byte).
        if let Ok(tampered) = ImplicitCert::from_bytes(&bytes) {
            prop_assert_ne!(cert_hash(&tampered), cert_hash(&cert));
        }
    }

    #[test]
    fn full_deployment_reconstruction_identity(seed in any::<u64>()) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
        let issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        let keys = req.reconstruct(&issued, &ca.public_key()).unwrap();
        // Q_U == d_U·G and eq. (1) agrees with the subject's view.
        prop_assert!(keys.is_consistent());
        prop_assert_eq!(
            reconstruct_public_key(&issued.certificate, &ca.public_key()).unwrap(),
            keys.public
        );
    }

    #[test]
    fn fused_verification_matches_reconstruct_then_verify(
        seed in any::<u64>(),
        msg in any::<[u8; 24]>(),
        pos in 3usize..101,
        bit in 0u8..8,
    ) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
        let issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        let keys = req.reconstruct(&issued, &ca.public_key()).unwrap();
        let (cert, ca_pub) = (issued.certificate, ca.public_key());
        let sig = ecdsa::sign(&keys.private, &msg);
        prop_assert_eq!(verify_implicit(&cert, &ca_pub, &msg, &sig), Ok(true));

        // Tampered certificates: one flipped bit anywhere past the
        // magic and version (a flip the parser refuses is skipped),
        // one in the x of P_X, and two P_X that do not decode — a bad
        // tag and an x with no curve point.
        let mut bytes = cert.to_bytes();
        bytes[pos] ^= 1 << bit;
        let mut x_flip = cert;
        x_flip.point[1 + pos % 32] ^= 1 << bit;
        let mut bad_tag = cert;
        bad_tag.point[0] = 0x05;
        let mut no_point = cert;
        while AffinePoint::from_bytes_compressed(&no_point.point).is_ok() {
            no_point.point[32] = no_point.point[32].wrapping_add(1);
        }
        let mut certs = vec![x_flip, bad_tag, no_point];
        certs.extend(ImplicitCert::from_bytes(&bytes).ok());

        let mut wrong_msg = msg;
        wrong_msg[0] ^= 1;
        let stranger = KeyPair::generate(&mut rng);
        let foreign = ecdsa::sign(&stranger.private, &msg);
        let swapped = Signature { r: sig.s, s: sig.r };
        let other_ca = CertificateAuthority::new(DeviceId::from_label("CA2"), &mut rng);

        let mut cases: Vec<(ImplicitCert, AffinePoint, &[u8], Signature)> = vec![
            (cert, other_ca.public_key(), &msg, sig),
            (cert, AffinePoint::identity(), &msg, sig),
            (cert, ca_pub, &wrong_msg, sig),
            (cert, ca_pub, &msg, foreign),
            (cert, ca_pub, &msg, swapped),
        ];
        cases.extend(certs.into_iter().map(|c| (c, ca_pub, &msg[..], sig)));
        for (i, (cert, ca_public, m, sig)) in cases.iter().enumerate() {
            let fused = verify_implicit(cert, ca_public, m, sig);
            let unfused = reconstruct_then_verify(cert, ca_public, m, sig);
            prop_assert_eq!(fused, unfused, "case {}: {:?} vs {:?}", i, fused, unfused);
            prop_assert!(fused != Ok(true), "case {} verified", i);
        }
    }

    #[test]
    fn issued_keys_are_unlinkable_to_request(seed in any::<u64>()) {
        // Two certificates from the same request secret have unrelated
        // reconstruction points (CA blinding).
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
        let i1 = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        let i2 = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        prop_assert_ne!(i1.certificate.point, i2.certificate.point);
        let k1 = req.reconstruct(&i1, &ca.public_key()).unwrap();
        let k2 = req.reconstruct(&i2, &ca.public_key()).unwrap();
        prop_assert_ne!(k1.private, k2.private);
    }

    #[test]
    fn validity_window_boundaries(cert in arb_cert(), t in any::<u32>()) {
        prop_assert_eq!(
            cert.is_valid_at(t),
            cert.valid_from <= t && t <= cert.valid_to
        );
    }

    #[test]
    fn batch_issuance_is_byte_identical_to_sequential(
        seed in any::<u64>(),
        n in 1usize..12,
        valid_from in 0u32..1000,
        span in 1u32..100_000,
    ) {
        // The fleet enrollment path leans on this: issue_batch with a
        // given RNG state must produce exactly the bytes (certificate
        // and recon_private) of n sequential issue() calls.
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let requests: Vec<_> = (0..n)
            .map(|i| {
                CertRequester::generate(DeviceId::from_label(&format!("d{i}")), &mut rng)
                    .request()
            })
            .collect();
        let valid_to = valid_from + span;

        let mut rng_batch = rng.clone();
        let mut rng_seq = rng;
        let batch = ca
            .issue_batch(&requests, valid_from, valid_to, &mut rng_batch)
            .unwrap();
        prop_assert_eq!(batch.len(), n);
        for (request, issued) in requests.iter().zip(&batch) {
            let seq = ca.issue(request, valid_from, valid_to, &mut rng_seq).unwrap();
            prop_assert_eq!(issued.certificate.to_bytes(), seq.certificate.to_bytes());
            prop_assert_eq!(
                issued.recon_private.to_be_bytes(),
                seq.recon_private.to_be_bytes()
            );
        }
        // Both paths consumed the identical RNG stream.
        prop_assert_eq!(rng_batch.next_u64(), rng_seq.next_u64());
    }

    #[test]
    fn revocation_list_roundtrips(serials in proptest::collection::vec(any::<u64>(), 0..24)) {
        let unique: std::collections::BTreeSet<u64> = serials.iter().copied().collect();
        let mut rl = RevocationList::new();
        for &s in &unique {
            prop_assert!(rl.revoke(s));
        }
        let bytes = rl.to_bytes();
        prop_assert_eq!(bytes.len(), 11 + 8 * unique.len());
        let parsed = RevocationList::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&parsed, &rl);
        prop_assert_eq!(parsed.len(), unique.len());
        for &s in &unique {
            prop_assert!(parsed.is_revoked(s));
        }
    }

    #[test]
    fn revocation_list_rejects_duplicated_serials(
        serials in proptest::collection::vec(any::<u64>(), 1..12),
        dup_pick in any::<u64>(),
    ) {
        // Append a repeat of an existing serial and patch the count:
        // parsing must fail rather than silently deduplicate, so len()
        // can never disagree with the wire count.
        let unique: Vec<u64> = serials
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut rl = RevocationList::new();
        for &s in &unique {
            rl.revoke(s);
        }
        let mut bytes = rl.to_bytes();
        let dup = unique[(dup_pick % unique.len() as u64) as usize];
        bytes.extend_from_slice(&dup.to_be_bytes());
        let count = (unique.len() as u32 + 1).to_be_bytes();
        bytes[7..11].copy_from_slice(&count);
        prop_assert_eq!(
            RevocationList::from_bytes(&bytes).unwrap_err(),
            CertError::InvalidEncoding
        );
    }
}
