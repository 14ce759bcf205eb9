//! Property-based tests of the ECQV certificate layer: encoding
//! roundtrips over arbitrary metadata, tamper detection, the
//! reconstruction identity over random deployments, fused
//! verification against eq. (1) followed by a plain verify, and the
//! batch possession check against a per-device SEC4 check.

use ecq_cert::ca::{CertificateAuthority, IssuedCert};
use ecq_cert::requester::CertRequester;
use ecq_cert::{
    cert_hash, reconstruct_public_key, verify_implicit, CertError, DeviceId, ImplicitCert,
    RevocationList,
};
use ecq_crypto::HmacDrbg;
use ecq_p256::ecdsa::{self, Signature};
use ecq_p256::keys::KeyPair;
use ecq_p256::point::{mul_generator_ct, mul_generator_vartime, AffinePoint};
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

/// The reference the batch possession check must agree with: SEC4
/// "Cert Reception" for one device, given its request secret `k_U` —
/// the subject check, `d_U = e·k_U + r`, eq. (1), and `d_U·G == Q_U`.
fn sec4_device(
    k_u: &Scalar,
    subject: DeviceId,
    issued: &IssuedCert,
    ca_public: &AffinePoint,
) -> Result<KeyPair, CertError> {
    if issued.certificate.subject != subject {
        return Err(CertError::InvalidEncoding);
    }
    let d_u = cert_hash(&issued.certificate)
        .mul(k_u)
        .add(&issued.recon_private);
    if d_u.is_zero() {
        return Err(CertError::ReconstructionMismatch);
    }
    let q_u = reconstruct_public_key(&issued.certificate, ca_public)?;
    if mul_generator_ct(&d_u) != q_u {
        return Err(CertError::ReconstructionMismatch);
    }
    Ok(KeyPair {
        private: d_u,
        public: q_u,
    })
}

/// [`sec4_device`] over a batch in index order; the first error wins.
fn sec4_batch(
    secrets: &[(Scalar, DeviceId)],
    issued: &[IssuedCert],
    ca_public: &AffinePoint,
) -> Result<Vec<KeyPair>, CertError> {
    secrets
        .iter()
        .zip(issued)
        .map(|((k_u, subject), cert)| sec4_device(k_u, *subject, cert, ca_public))
        .collect()
}

/// One per-device fault: `recon_private + 1`, a flipped certificate
/// bit (`bit` counts from the first bit past magic and version; a
/// flip the parser refuses moves to the extensions), a `P_U` with a
/// bad tag, a `P_U` with no curve point, or a swapped subject.
fn fault(kind: usize, issued: &mut IssuedCert, bit: usize) {
    let cert = &mut issued.certificate;
    match kind {
        0 => issued.recon_private = issued.recon_private.add(&Scalar::one()),
        1 => {
            let mut bytes = cert.to_bytes();
            bytes[3 + bit / 8] ^= 1 << (bit % 8);
            match ImplicitCert::from_bytes(&bytes) {
                Ok(flipped) => *cert = flipped,
                Err(_) => cert.extensions[0] ^= 1,
            }
        }
        2 => cert.point[0] = 0x05,
        3 => {
            while AffinePoint::from_bytes_compressed(&cert.point).is_ok() {
                cert.point[32] = cert.point[32].wrapping_add(1);
            }
        }
        _ => cert.subject = DeviceId::from_label("swapped"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_possession_check_matches_per_device(
        seed in any::<u64>(),
        kind in 0usize..7,
        second in 1usize..5,
        picks in any::<[u64; 2]>(),
        bit in 0usize..784,
        delta in any::<[u8; 32]>(),
    ) {
        // Every batch size, honest and faulted. The fault kind rotates
        // with the size: one fault at a random index, a wrong CA key,
        // or two faults of different kinds at i < j. Every batch of two
        // or more also gets r + δ at i with r − δ at j, which an
        // unweighted sum would cancel.
        for (s, size) in [1usize, 2, 16, 64, 65].into_iter().enumerate() {
            let mut rng = HmacDrbg::from_seed(seed ^ s as u64);
            let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
            let mut requesters = Vec::with_capacity(size);
            let mut secrets = Vec::with_capacity(size);
            for d in 0..size {
                let subject = DeviceId::from_label(&format!("dev-{d}"));
                // Replaying the requester's one DRBG draw recovers k_U.
                secrets.push((Scalar::random(&mut rng.clone()), subject));
                requesters.push(CertRequester::generate(subject, &mut rng));
            }
            let requests: Vec<_> = requesters.iter().map(CertRequester::request).collect();
            let issued = ca.issue_batch(&requests, 0, 100, &mut rng).unwrap();
            let ca_pub = ca.public_key();

            let honest = CertRequester::reconstruct_batch(&requesters, &issued, &ca_pub);
            prop_assert_eq!(&honest, &sec4_batch(&secrets, &issued, &ca_pub));
            prop_assert_eq!(honest.map(|keys| keys.len()), Ok(size));

            let at = (picks[0] % size as u64) as usize;
            let pair = (size > 1).then(|| {
                let i = (picks[0] % (size as u64 - 1)) as usize;
                (i, i + 1 + (picks[1] % (size - 1 - i) as u64) as usize)
            });
            let mut faulted = issued.clone();
            let mut ca_key = ca_pub;
            let kind = (kind + s) % 7;
            match (kind, pair) {
                (5, _) => {
                    ca_key = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng)
                        .public_key();
                }
                (6, Some((i, j))) => {
                    fault(s % 5, &mut faulted[i], bit);
                    fault((s + second) % 5, &mut faulted[j], bit);
                }
                _ => fault(kind % 5, &mut faulted[at], bit),
            }
            let mut cancelling = issued.clone();
            if let Some((i, j)) = pair {
                let mut delta = Scalar::from_be_bytes_reduced(&delta);
                if delta.is_zero() {
                    delta = Scalar::one();
                }
                cancelling[i].recon_private = cancelling[i].recon_private.add(&delta);
                cancelling[j].recon_private = cancelling[j].recon_private.sub(&delta);
            }
            let mut cases = vec![(kind, faulted, ca_key)];
            if pair.is_some() {
                cases.push((7, cancelling, ca_pub));
            }
            for (kind, faulted, ca_key) in cases {
                let expected = sec4_batch(&secrets, &faulted, &ca_key);
                prop_assert!(expected.is_err(), "size {}, kind {}: unnoticed", size, kind);
                prop_assert_eq!(
                    CertRequester::reconstruct_batch(&requesters, &faulted, &ca_key),
                    expected,
                    "size {}, kind {}", size, kind
                );
            }
        }
    }
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
