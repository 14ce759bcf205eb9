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
use ecq_proto::{Credentials, ProtocolKind};
use ecq_sts::{establish, establish_hinted, ReconstructionHint, StsConfig};

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

/// The variable-time census of one run: group adds and doubles, field
/// multiplications and squarings, scalar multiplications and divsteps.
fn census(c: &Counts) -> [u64; 6] {
    [
        c.adds,
        c.doubles,
        c.fe_muls,
        c.fe_squares,
        c.scalar_muls,
        c.divsteps,
    ]
}

/// A hinted rekey, the steady state of a certificate session: each side
/// checks its peer's signature against the comb of the key its hint
/// caches, in 63 doublings, where first contact runs the fused eq. (1)
/// ladder. The ct schedule must be first contact's; the variable-time
/// census of the rekey and of the two hints' build is pinned per seed.
#[test]
fn hinted_rekey_census_is_pinned() {
    // (seed, the two hints' build, the hinted establish), each as
    // `census`. The build is eq. (1) twice plus two combs of 192
    // doublings, 11 additions and one inversion each.
    let pinned = [
        (
            0x1001u64,
            [125, 889, 4994, 4531, 2, 3540],
            [199, 140, 7522, 4407, 12, 8260],
        ),
        (
            0x2002,
            [126, 889, 5002, 4534, 2, 3540],
            [194, 140, 7482, 4392, 12, 8260],
        ),
        (
            0x3003,
            [125, 894, 5014, 4551, 2, 3540],
            [198, 140, 7514, 4404, 12, 8260],
        ),
        (
            0x4004,
            [128, 894, 5038, 4560, 2, 3540],
            [197, 140, 7506, 4401, 12, 8260],
        ),
    ];
    for (seed, build_pin, rekey_pin) in pinned {
        let (a, b, rng) = setup(seed);
        let config = StsConfig::default();
        let (hints, build) = counters::measure(|| {
            (
                ReconstructionHint::compute(&b.cert, &a.ca_public).expect("hint for A"),
                ReconstructionHint::compute(&a.cert, &b.ca_public).expect("hint for B"),
            )
        });
        let (first, first_counts) =
            counters::measure(|| establish(&a, &b, &config, &mut rng.clone()));
        let (rekey, rekey_counts) = counters::measure(|| {
            let (hint_a, hint_b) = (Some(&hints.0), Some(&hints.1));
            establish_hinted(&a, &b, &config, &mut rng.clone(), hint_a, hint_b)
        });
        // The same stream gives the same ephemerals, so the same key.
        let (first, rekey) = (first.expect("first contact"), rekey.expect("rekey"));
        assert_eq!(rekey.initiator_key, first.initiator_key);
        assert_eq!(rekey.responder_key, rekey.initiator_key);

        let ct = |c: &Counts| (c.ct_adds, c.ct_doubles, c.scalar_squares);
        assert_eq!(ct(&rekey_counts), ct(&first_counts), "seed {seed:#x}");
        assert_eq!(ct(&build), (0, 0, 0), "seed {seed:#x}");
        assert_eq!(rekey_counts.divsteps % 590, 0, "seed {seed:#x}");
        // Two comb walks, plus the seven table doublings of each ECDH.
        assert_eq!(rekey_counts.doubles, 2 * 63 + 2 * 7, "seed {seed:#x}");
        assert_eq!(census(&rekey_counts), rekey_pin, "seed {seed:#x}");
        assert_eq!(census(&build), build_pin, "seed {seed:#x}");
    }
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

/// A census as one array, in `Counts` field order: `adds`, `doubles`,
/// `ct_adds`, `ct_doubles`, `fe_muls`, `fe_squares`, `scalar_muls`,
/// `scalar_squares`, `divsteps`.
fn counts(c: [u64; 9]) -> Counts {
    let [adds, doubles, ct_adds, ct_doubles, fe_muls, fe_squares, scalar_muls, scalar_squares, divsteps] =
        c;
    Counts {
        adds,
        doubles,
        ct_adds,
        ct_doubles,
        fe_muls,
        fe_squares,
        scalar_muls,
        scalar_squares,
        divsteps,
    }
}

/// One first-contact handshake of every Table I protocol, through the
/// protocol table, pinned in full: a refactor of the curve layer must
/// run the same group, field, scalar and divstep operations.
#[test]
fn first_contact_census_is_pinned_per_protocol() {
    let pinned = [
        (
            ProtocolKind::SEcdsa,
            [286, 1038, 256, 512, 11098, 8448, 16, 0, 10620],
        ),
        (
            ProtocolKind::SEcdsaExt,
            [286, 1038, 256, 512, 11098, 8448, 16, 0, 10620],
        ),
        (
            ProtocolKind::Sts,
            [282, 528, 384, 512, 10064, 6786, 16, 0, 9440],
        ),
        (
            ProtocolKind::StsOptI,
            [282, 528, 384, 512, 10064, 6786, 16, 0, 9440],
        ),
        (
            ProtocolKind::StsOptII,
            [282, 528, 384, 512, 10064, 6786, 16, 0, 9440],
        ),
        (
            ProtocolKind::Scianc,
            [118, 525, 128, 512, 6530, 5480, 2, 0, 4720],
        ),
        (
            ProtocolKind::Poramb,
            [236, 1050, 256, 1024, 13056, 10952, 4, 0, 9440],
        ),
    ];
    assert_eq!(pinned.map(|(kind, _)| kind), ProtocolKind::ALL);
    for (kind, pin) in pinned {
        let (a, b, mut rng) = setup(0x5151);
        let (outcome, census) =
            counters::measure(|| ecq_baselines::establish(kind, &a, &b, 0, &mut rng));
        let outcome = outcome.expect("handshake");
        assert_eq!(outcome.initiator_key, outcome.responder_key, "{kind:?}");
        assert_eq!(census, counts(pin), "{kind:?}");
    }
}

/// Batch enrollment at three sizes, pinned in full for each half: the
/// CA's `issue_batch` and the devices' `reconstruct_batch` (one batch
/// possession check, then one comb per device key).
#[test]
fn batch_enrollment_census_is_pinned() {
    let pinned = [
        (
            1usize,
            [1, 0, 64, 0, 528, 198, 1, 0, 590],
            [51, 256, 64, 0, 2037, 1645, 2, 0, 1180],
        ),
        (
            8,
            [8, 0, 512, 0, 4217, 1584, 8, 0, 590],
            [430, 264, 576, 0, 9917, 6290, 24, 0, 1180],
        ),
        (
            64,
            [64, 0, 4096, 0, 33729, 12672, 64, 0, 590],
            [3239, 321, 4160, 0, 66441, 41097, 192, 0, 1180],
        ),
    ];
    for (n, issue_pin, reconstruct_pin) in pinned {
        let mut rng = HmacDrbg::from_seed(0xE0 + n as u64);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let requesters: Vec<CertRequester> = (0..n)
            .map(|i| CertRequester::generate(DeviceId::from_label(&format!("dev-{i}")), &mut rng))
            .collect();
        let requests: Vec<_> = requesters.iter().map(CertRequester::request).collect();
        let (issued, issue) = counters::measure(|| ca.issue_batch(&requests, 0, 3600, &mut rng));
        let issued = issued.expect("issue");
        let (keys, reconstruct) = counters::measure(|| {
            CertRequester::reconstruct_batch(&requesters, &issued, &ca.public_key())
        });
        assert_eq!(keys.expect("reconstruct").len(), n);
        assert_eq!(issue, counts(issue_pin), "issue_batch of {n}");
        assert_eq!(
            reconstruct,
            counts(reconstruct_pin),
            "reconstruct_batch of {n}"
        );
    }
}
