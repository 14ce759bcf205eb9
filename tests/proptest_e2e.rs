//! End-to-end property tests: protocol invariants over arbitrary
//! seeds, and timing-model invariants over arbitrary cost tables.

use dynamic_ecqv::baselines;
use dynamic_ecqv::devices::profile::{DeviceProfile, PrimitiveCosts};
use dynamic_ecqv::devices::timing::{integrate, pair_total, pipelined_phases};
use dynamic_ecqv::prelude::*;
use dynamic_ecqv::proto::Role;
use proptest::prelude::*;

fn world(seed: u64) -> (Credentials, Credentials, HmacDrbg) {
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let a = Credentials::provision(&ca, DeviceId::from_label("a"), 0, 1000, &mut rng).unwrap();
    let b = Credentials::provision(&ca, DeviceId::from_label("b"), 0, 1000, &mut rng).unwrap();
    (a, b, rng)
}

fn arb_costs() -> impl Strategy<Value = PrimitiveCosts> {
    (
        1.0f64..5000.0, // keygen
        1.0f64..5000.0, // recon
        1.0f64..5000.0, // ecdh
        1.0f64..5000.0, // sign
        1.0f64..5000.0, // verify
        0.001f64..1.0,  // aes
        0.001f64..10.0, // mac
        0.001f64..30.0, // kdf
        0.001f64..3.0,  // rng
    )
        .prop_map(
            |(keygen, recon, ecdh, sign, verify, aes, mac, kdf, rng)| PrimitiveCosts {
                keygen_ms: keygen,
                recon_ms: recon,
                ecdh_ms: ecdh,
                sign_ms: sign,
                verify_ms: verify,
                aes_block_ms: aes,
                mac_ms: mac,
                kdf_ms: kdf,
                rng32_ms: rng,
                hash_block_ms: 0.01,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sts_always_agrees_and_is_fresh(seed in any::<u64>()) {
        let (a, b, mut rng) = world(seed);
        let s1 = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        let s2 = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        prop_assert_eq!(s1.initiator_key, s1.responder_key);
        prop_assert_eq!(s2.initiator_key, s2.responder_key);
        prop_assert_ne!(s1.initiator_key, s2.initiator_key);
        prop_assert_eq!(s1.transcript.total_bytes(), 491);
    }

    #[test]
    fn baselines_always_agree(seed in any::<u64>()) {
        let (a, b, mut rng) = world(seed);
        let o = baselines::establish(ProtocolKind::SEcdsa, &a, &b, 0, &mut rng).unwrap();
        prop_assert_eq!(o.initiator_key, o.responder_key);
        let o = baselines::establish(ProtocolKind::Scianc, &a, &b, 0, &mut rng).unwrap();
        prop_assert_eq!(o.initiator_key, o.responder_key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedule_ordering_holds_for_any_cost_table(costs_a in arb_costs(), costs_b in arb_costs()) {
        // For ANY pair of devices: opt II ≤ opt I ≤ conventional, and
        // the pipelining saving never exceeds the smaller side's work.
        let (a, b, mut rng) = world(42);
        let session = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        let dev_a = DeviceProfile { name: "A", class: "arb", costs: costs_a };
        let dev_b = DeviceProfile { name: "B", class: "arb", costs: costs_b };
        let ta = integrate(session.transcript.trace(Role::Initiator), &dev_a);
        let tb = integrate(session.transcript.trace(Role::Responder), &dev_b);
        let conv = pair_total(&ta, &tb, &[]);
        let opt1 = pair_total(&ta, &tb, pipelined_phases(ProtocolKind::StsOptI));
        let opt2 = pair_total(&ta, &tb, pipelined_phases(ProtocolKind::StsOptII));
        prop_assert!(opt2 <= opt1 + 1e-9);
        prop_assert!(opt1 <= conv + 1e-9);
        // eq. (7) for identical phases: saving == min side.
        prop_assert!((conv - opt1 - ta.op2.min(tb.op2)).abs() < 1e-9);
        prop_assert!(
            (conv - opt2 - ta.op2.min(tb.op2) - ta.op3.min(tb.op3)).abs() < 1e-9
        );
    }

    #[test]
    fn integration_is_linear_in_costs(costs in arb_costs(), factor in 1.0f64..10.0) {
        // Scaling every primitive cost scales every phase time.
        let (a, b, mut rng) = world(43);
        let session = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        let dev = DeviceProfile { name: "X", class: "arb", costs };
        let scaled = DeviceProfile {
            name: "X2",
            class: "arb",
            costs: PrimitiveCosts {
                keygen_ms: costs.keygen_ms * factor,
                recon_ms: costs.recon_ms * factor,
                ecdh_ms: costs.ecdh_ms * factor,
                sign_ms: costs.sign_ms * factor,
                verify_ms: costs.verify_ms * factor,
                aes_block_ms: costs.aes_block_ms * factor,
                mac_ms: costs.mac_ms * factor,
                kdf_ms: costs.kdf_ms * factor,
                rng32_ms: costs.rng32_ms * factor,
                hash_block_ms: costs.hash_block_ms * factor,
            },
        };
        let t1 = integrate(session.transcript.trace(Role::Initiator), &dev);
        let t2 = integrate(session.transcript.trace(Role::Initiator), &scaled);
        prop_assert!((t2.total() - t1.total() * factor).abs() < 1e-6 * t2.total().max(1.0));
    }
}
