//! The paper's quantitative claims, asserted end-to-end. Every table
//! and figure has at least one machine-checked invariant here.

use dynamic_ecqv::analysis::{security_matrix, Protection, Threat};
use dynamic_ecqv::baselines;
use dynamic_ecqv::bms::BmsScenario;
use dynamic_ecqv::devices::timing::{protocol_pair_time, sts_operation_times};
use dynamic_ecqv::prelude::*;
use ecq_bench::simulate_table1_cell;

// ───────────────────────── Table I ─────────────────────────

#[test]
fn table1_ecdsa_family_rows_match_paper_exactly() {
    // The fit inverts eqs. (5)–(8), so S-ECDSA/STS/opt. I/opt. II must
    // land within 0.5 % on every device.
    for preset in DevicePreset::ALL {
        let device = preset.profile();
        for kind in [
            ProtocolKind::SEcdsa,
            ProtocolKind::Sts,
            ProtocolKind::StsOptI,
            ProtocolKind::StsOptII,
        ] {
            let sim = simulate_table1_cell(kind, &device, 2);
            let paper = preset.paper_table1(kind);
            assert!(
                ((sim - paper) / paper).abs() < 0.005,
                "{preset:?}/{kind}: {sim:.2} vs {paper:.2}"
            );
        }
    }
}

#[test]
fn table1_baselines_within_ten_percent_and_ordered() {
    for preset in DevicePreset::ALL {
        let device = preset.profile();
        for kind in [ProtocolKind::Scianc, ProtocolKind::Poramb] {
            let sim = simulate_table1_cell(kind, &device, 2);
            let paper = preset.paper_table1(kind);
            assert!(
                ((sim - paper) / paper).abs() < 0.105,
                "{preset:?}/{kind}: {sim:.2} vs {paper:.2}"
            );
        }
        // PORAMB ≈ 2× SCIANC on every board (the paper's consistent ratio).
        let scianc = simulate_table1_cell(ProtocolKind::Scianc, &device, 2);
        let poramb = simulate_table1_cell(ProtocolKind::Poramb, &device, 2);
        let ratio = poramb / scianc;
        assert!((1.8..2.2).contains(&ratio), "{preset:?}: ratio {ratio}");
    }
}

#[test]
fn headline_sts_overhead_about_twenty_percent() {
    // Abstract: "a slight computational increase of 20 % compared to a
    // static ECDSA key derivation".
    let stm = DevicePreset::Stm32F767.profile();
    let sts = simulate_table1_cell(ProtocolKind::Sts, &stm, 2);
    let se = simulate_table1_cell(ProtocolKind::SEcdsa, &stm, 2);
    let overhead = sts / se - 1.0;
    assert!(
        (0.15..0.30).contains(&overhead),
        "overhead {:.1} %",
        overhead * 100.0
    );
}

#[test]
fn optimization_ii_beats_s_ecdsa_on_every_board() {
    // §V-A: "its optimization variants show the potential time similar
    // to or faster than the S-ECDSA".
    for preset in DevicePreset::ALL {
        let device = preset.profile();
        let opt2 = simulate_table1_cell(ProtocolKind::StsOptII, &device, 2);
        let se = simulate_table1_cell(ProtocolKind::SEcdsa, &device, 2);
        assert!(opt2 < se, "{preset:?}: {opt2:.2} !< {se:.2}");
    }
}

#[test]
fn run_time_scales_with_device_class() {
    // "The run time scalability is relatively consistent regarding the
    // devices' performances": ATmega ≫ S32K > STM32 ≫ RPi4.
    let order = [
        DevicePreset::ATmega2560,
        DevicePreset::S32K144,
        DevicePreset::Stm32F767,
        DevicePreset::RaspberryPi4,
    ];
    for kind in ProtocolKind::ALL {
        let times: Vec<f64> = order
            .iter()
            .map(|p| simulate_table1_cell(kind, &p.profile(), 1))
            .collect();
        for w in times.windows(2) {
            assert!(w[0] > w[1], "{kind}: {times:?}");
        }
    }
}

// ───────────────────────── Fig. 3 / Fig. 4 ─────────────────────────

#[test]
fn fig3_op_times_reproduce_fitted_values() {
    let ops = sts_operation_times(&DevicePreset::Stm32F767.profile());
    assert!((ops[0] - 320.15).abs() < 0.01);
    assert!((ops[1] - 344.05).abs() < 0.01);
    assert!((ops[2] - 598.77).abs() < 0.01);
    assert!((ops[3] - 318.065).abs() < 0.01);
}

#[test]
fn fig4_bar_ordering() {
    let device = DevicePreset::Stm32F767.profile();
    let t = |k| simulate_table1_cell(k, &device, 1);
    assert!(t(ProtocolKind::Scianc) < t(ProtocolKind::Poramb));
    assert!(t(ProtocolKind::Poramb) < t(ProtocolKind::StsOptII));
    assert!(t(ProtocolKind::StsOptII) < t(ProtocolKind::SEcdsa));
    assert!(t(ProtocolKind::SEcdsa) < t(ProtocolKind::StsOptI));
    assert!(t(ProtocolKind::StsOptI) < t(ProtocolKind::Sts));
}

// ───────────────────────── Table II ─────────────────────────

#[test]
fn table2_exact_byte_counts() {
    let (alice, bob, mut rng) = ecq_bench::deployment(42);
    let expect = [
        (ProtocolKind::SEcdsa, 4, 427),
        (ProtocolKind::SEcdsaExt, 5, 619),
        (ProtocolKind::Sts, 4, 491),
        (ProtocolKind::Scianc, 4, 362),
        (ProtocolKind::Poramb, 6, 820),
    ];
    for (kind, steps, bytes) in expect {
        let t = baselines::establish(kind, &alice, &bob, 0, &mut rng)
            .unwrap()
            .transcript;
        assert_eq!(t.step_count(), steps, "{kind} steps");
        assert_eq!(t.total_bytes(), bytes, "{kind} bytes");
    }
}

// ───────────────────────── Fig. 7 ─────────────────────────

#[test]
fn fig7_prototype_overhead_and_bus_negligibility() {
    let scenario = BmsScenario::new(777);
    let sts = scenario.run_handshake(ProtocolKind::Sts).unwrap();
    let se = scenario.run_handshake(ProtocolKind::SEcdsa).unwrap();
    // Paper: +21.67 %; our protocol-level model gives ~+25 %.
    let overhead = sts.total_ms / se.total_ms - 1.0;
    assert!(
        (0.15..0.32).contains(&overhead),
        "overhead {:.2} %",
        overhead * 100.0
    );
    // "CAN-FD transfer time … negligible": < 0.2 % of the session.
    assert!(sts.bus_ms / sts.total_ms < 0.002);
    // Totals in the seconds range on S32K144-class ECUs, like Fig. 7.
    assert!(sts.total_ms > 2000.0 && sts.total_ms < 5000.0);
}

// ───────────────────────── Table III ─────────────────────────

#[test]
fn table3_sts_column_is_the_paper_verdict() {
    let m = security_matrix();
    assert_eq!(
        m.lookup(ProtocolKind::Sts, Threat::PastDataExposure),
        Some(Protection::Full)
    );
    assert_eq!(
        m.lookup(ProtocolKind::Sts, Threat::NodeCapture),
        Some(Protection::Partial)
    );
    assert_eq!(
        m.lookup(ProtocolKind::Sts, Threat::KeyDataReuse),
        Some(Protection::Full)
    );
    assert_eq!(
        m.lookup(ProtocolKind::Sts, Threat::KeyDerivationExploit),
        Some(Protection::Full)
    );
    assert_eq!(
        m.lookup(ProtocolKind::Sts, Threat::Mitm),
        Some(Protection::Full)
    );
}

#[test]
fn table3_no_protocol_fully_survives_node_capture() {
    let m = security_matrix();
    for kind in m.columns.clone() {
        assert!(
            m.lookup(kind, Threat::NodeCapture).unwrap() < Protection::Full,
            "{kind}"
        );
    }
}

// ───────────────────────── eq. (6) ─────────────────────────

#[test]
fn heterogeneous_pipelining_saves_only_the_smaller_phase() {
    use dynamic_ecqv::proto::Role;
    let (alice, bob, mut rng) = ecq_bench::deployment(99);
    let transcript = baselines::establish(ProtocolKind::Sts, &alice, &bob, 0, &mut rng)
        .unwrap()
        .transcript;
    let fast = DevicePreset::RaspberryPi4.profile();
    let slow = DevicePreset::ATmega2560.profile();
    let conv = protocol_pair_time(ProtocolKind::Sts, &transcript, &slow, &fast);
    let opt2 = protocol_pair_time(ProtocolKind::StsOptII, &transcript, &slow, &fast);
    // The saving is bounded by the FAST device's Op2+Op3 (tiny).
    use dynamic_ecqv::devices::timing::integrate;
    let fast_phases = integrate(transcript.trace(Role::Responder), &fast);
    let max_saving = fast_phases.op2 + fast_phases.op3;
    assert!(conv - opt2 <= max_saving + 1e-9);
    assert!(conv - opt2 > 0.0);
}
