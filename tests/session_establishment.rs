//! Cross-crate integration: full session establishment for every
//! protocol, key agreement, and transcript invariants.

use dynamic_ecqv::baselines;
use dynamic_ecqv::prelude::*;
use dynamic_ecqv::proto::{ProtocolError, Role};

fn world(seed: u64) -> (Credentials, Credentials, HmacDrbg) {
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let a = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 1000, &mut rng).unwrap();
    let b = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 1000, &mut rng).unwrap();
    (a, b, rng)
}

#[test]
fn sts_agreement_and_freshness_over_many_sessions() {
    let (a, b, mut rng) = world(1);
    let mut keys = Vec::new();
    for _ in 0..10 {
        let s = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        assert_eq!(s.initiator_key, s.responder_key);
        keys.push(*s.initiator_key.as_bytes());
    }
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 10, "every session must derive a fresh key");
}

#[test]
fn all_protocols_agree_on_keys() {
    let (a, b, mut rng) = world(2);
    for kind in ProtocolKind::ALL {
        let o = baselines::establish(kind, &a, &b, 0, &mut rng).unwrap();
        assert_eq!(o.initiator_key, o.responder_key, "{kind}");
    }
}

#[test]
fn protocols_domain_separate_their_keys() {
    // Even if two protocols happened to reach the same premaster, the
    // KDF labels must separate the derived keys. With SKD protocols the
    // premaster IS shared — so this is a real cross-protocol check.
    let (a, b, mut rng) = world(3);
    let s_ecdsa = baselines::establish(ProtocolKind::SEcdsa, &a, &b, 0, &mut rng).unwrap();
    let scianc = baselines::establish(ProtocolKind::Scianc, &a, &b, 0, &mut rng).unwrap();
    assert_ne!(s_ecdsa.initiator_key, scianc.initiator_key);
}

#[test]
fn traces_are_complete_for_both_roles() {
    let (a, b, mut rng) = world(4);
    let s = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
    for role in [Role::Initiator, Role::Responder] {
        let trace = s.transcript.trace(role);
        assert!(!trace.is_empty(), "{role:?} must record primitives");
        use dynamic_ecqv::proto::PrimitiveOp;
        assert_eq!(trace.count_op(PrimitiveOp::EphemeralKeyGen), 1);
        assert_eq!(trace.count_op(PrimitiveOp::EcdsaSign), 1);
        assert_eq!(trace.count_op(PrimitiveOp::EcdsaVerify), 1);
        assert_eq!(trace.count_op(PrimitiveOp::EcdhDerive), 1);
        assert_eq!(trace.count_op(PrimitiveOp::PublicKeyReconstruction), 1);
    }
}

#[test]
fn sessions_between_unrelated_cas_always_fail() {
    let mut rng = HmacDrbg::from_seed(5);
    let ca1 = CertificateAuthority::new(DeviceId::from_label("CA1"), &mut rng);
    let ca2 = CertificateAuthority::new(DeviceId::from_label("CA2"), &mut rng);
    let a = Credentials::provision(&ca1, DeviceId::from_label("alice"), 0, 1000, &mut rng).unwrap();
    let b = Credentials::provision(&ca2, DeviceId::from_label("bob"), 0, 1000, &mut rng).unwrap();
    assert!(establish(&a, &b, &StsConfig::default(), &mut rng).is_err());
    assert!(baselines::establish(ProtocolKind::SEcdsa, &a, &b, 0, &mut rng).is_err());
    // SCIANC has no signature check — but key agreement itself fails
    // because each side reconstructs the peer key under its own CA,
    // yielding different premasters, so the MAC exchange breaks.
    assert_eq!(
        baselines::establish(ProtocolKind::Scianc, &a, &b, 0, &mut rng).unwrap_err(),
        ProtocolError::AuthenticationFailed
    );
}

#[test]
fn expired_certificates_rejected_everywhere() {
    let (a, b, mut rng) = world(6);
    for kind in ProtocolKind::ALL {
        assert!(
            baselines::establish(kind, &a, &b, 99_999, &mut rng).is_err(),
            "{kind}"
        );
    }
}

#[test]
fn deterministic_given_seed() {
    let (a1, b1, mut rng1) = world(7);
    let (a2, b2, mut rng2) = world(7);
    let s1 = establish(&a1, &b1, &StsConfig::default(), &mut rng1).unwrap();
    let s2 = establish(&a2, &b2, &StsConfig::default(), &mut rng2).unwrap();
    assert_eq!(s1.initiator_key, s2.initiator_key);
    assert_eq!(
        s1.transcript.messages()[1].bytes,
        s2.transcript.messages()[1].bytes
    );
}
