//! Dynamic companion to the static lint: drives real secret-bearing
//! paths — full STS handshakes from `ecq_sts` down through the curve,
//! batch enrollment, plus ECDH and scalar inversion in isolation —
//! under the `schedule-counters` feature's runtime operation counters
//! (`ecq_p256::counters`), and asserts the constant-time schedules are
//! value-independent end-to-end across crate boundaries (the static
//! analyzer proves no vartime call is *reachable*; this proves the ct
//! paths actually taken perform an input-independent operation
//! sequence).

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::requester::CertRequester;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_p256::counters::{self, Counts};
use ecq_p256::point::mul_generator_ct;
use ecq_p256::Scalar;
use ecq_proto::Credentials;
use ecq_sts::{establish, StsConfig};

fn setup(seed: u64) -> (Credentials, Credentials, HmacDrbg) {
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let a = Credentials::provision(&ca, DeviceId::from_label("A"), 0, 3600, &mut rng)
        .expect("provision A");
    let b = Credentials::provision(&ca, DeviceId::from_label("B"), 0, 3600, &mut rng)
        .expect("provision B");
    (a, b, rng)
}

/// The whole handshake, counted at the group-operation level and in
/// divsteps: however the secrets vary, the constant-schedule
/// add/double counts and the inversions' divstep total must not.
#[test]
fn handshake_ct_schedule_is_seed_independent() {
    let mut schedules = Vec::new();
    for seed in [0x1001u64, 0x2002, 0x3003, 0x4004] {
        let (a, b, mut rng) = setup(seed);
        let config = StsConfig::default();
        let (outcome, counts) = counters::measure(|| establish(&a, &b, &config, &mut rng));
        let outcome = outcome.expect("handshake");
        assert_eq!(outcome.initiator_key, outcome.responder_key);
        schedules.push((counts.ct_adds, counts.ct_doubles, counts.divsteps));
    }
    let first = schedules[0];
    assert!(
        first.0 > 0 && first.1 > 0,
        "handshake never touched the ct paths: {schedules:?}"
    );
    assert!(
        first.2 > 0 && first.2 % 590 == 0,
        "inversions ran a partial divstep schedule: {schedules:?}"
    );
    assert!(
        schedules.iter().all(|s| *s == first),
        "ct schedule varies with the handshake secrets: {schedules:?}"
    );
}

/// Batch enrollment, counted at the group-operation level: each
/// device's `d_U` and the possession check's secret sum `Σ zᵢ·dᵢ` only
/// ever enter the constant-schedule comb, so an 8-device batch costs
/// nine combs of 64 ct-additions whatever the request secrets are.
#[test]
fn enrollment_ct_schedule_is_secret_independent() {
    let mut ca_rng = HmacDrbg::from_seed(0xCA);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut ca_rng);
    let mut schedules = Vec::new();
    for seed in [0x5005u64, 0x6006, 0x7007, 0x8008] {
        let mut rng = HmacDrbg::from_seed(seed);
        let requesters: Vec<CertRequester> = (0..8)
            .map(|i| CertRequester::generate(DeviceId::from_label(&format!("dev-{i}")), &mut rng))
            .collect();
        let requests: Vec<_> = requesters.iter().map(CertRequester::request).collect();
        let issued = ca.issue_batch(&requests, 0, 3600, &mut rng).expect("issue");
        let (keys, counts) = counters::measure(|| {
            CertRequester::reconstruct_batch(&requesters, &issued, &ca.public_key())
        });
        assert_eq!(keys.expect("reconstruct").len(), 8);
        schedules.push((counts.ct_adds, counts.ct_doubles));
    }
    assert!(
        schedules.iter().all(|s| *s == schedules[0]),
        "enrollment ct schedule varies with the request secrets: {schedules:?}"
    );
    // Eight per-device combs plus the one comb of the secret sum: the
    // batch equation held, so the per-device fallback never ran.
    assert_eq!(schedules[0], (9 * 64, 0), "ct adds and doubles");
}

/// ECDH at field-multiplication granularity: the scalar ladder and the
/// final affine conversion must cost the same muls/squares for every
/// private key.
#[test]
fn ecdh_field_schedule_is_key_independent() {
    let mut rng = HmacDrbg::from_seed(0xECD4);
    let mut schedules = Vec::new();
    for _ in 0..4 {
        let private = Scalar::random(&mut rng);
        let peer = mul_generator_ct(&Scalar::random(&mut rng));
        let (shared, counts) = counters::measure(|| ecq_p256::ecdh::shared_secret(&private, &peer));
        shared.expect("ecdh");
        schedules.push((counts.fe_muls, counts.fe_squares));
    }
    let first = schedules[0];
    assert!(
        first.0 > 0 && first.1 > 0,
        "no field ops counted: {schedules:?}"
    );
    assert!(
        schedules.iter().all(|s| *s == first),
        "ECDH field schedule varies with the private key: {schedules:?}"
    );
}

/// Scalar inversion (the s-computation path in ECDSA signing) is one
/// safegcd and one correcting multiplication: exactly 590 divsteps,
/// one scalar multiplication, no squaring and no field or group
/// operation for every input.
#[test]
fn scalar_inversion_schedule_is_value_independent() {
    let mut rng = HmacDrbg::from_seed(0x15C4);
    let expected = Counts {
        scalar_muls: 1,
        divsteps: 590,
        ..Counts::default()
    };
    let mut schedules = Vec::new();
    for _ in 0..4 {
        let k = Scalar::random(&mut rng);
        let (inv, counts) = counters::measure(|| k.invert());
        assert_eq!(inv.mul(&k), Scalar::one());
        schedules.push(counts);
    }
    assert!(
        schedules.iter().all(|s| *s == expected),
        "scalar inversion schedule is not {expected:?}: {schedules:?}"
    );
}
