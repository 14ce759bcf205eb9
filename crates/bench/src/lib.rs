//! Shared harness for the table/figure regeneration binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I — execution time of 7 protocols × 4 boards |
//! | `table2` | Table II — communication steps and bytes |
//! | `table3` | Table III — security matrix |
//! | `fig3` | Fig. 3 — STS per-operation times on the STM32F767 |
//! | `fig4` | Fig. 4 — total KD processing time bars (STM32F767) |
//! | `fig7` | Fig. 7 — BMS↔EVCC prototype timeline |
//! | `fig8` | Fig. 8 — threat-model block diagram |
//! | `ablation` | design-choice ablations |
//! | `attacks` | executable §V-D attack experiments |
//!
//! A binary that runs a handshake by [`ProtocolKind`] gets it from the
//! one protocol table, [`ecq_baselines::establish`], at deployment time
//! 0 over a [`deployment`]. The eqs. (5)–(8) schedule arithmetic that
//! turns its transcript into device time lives in `ecq_devices::timing`.

#![warn(missing_docs)]

use ecq_baselines::establish;
use ecq_crypto::HmacDrbg;
use ecq_proto::{Credentials, ProtocolKind};

/// A reproducible two-device deployment for the harness.
pub fn deployment(seed: u64) -> (Credentials, Credentials, HmacDrbg) {
    use ecq_cert::{ca::CertificateAuthority, DeviceId};
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let a = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 1000, &mut rng)
        .expect("provision alice");
    let b = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 1000, &mut rng)
        .expect("provision bob");
    (a, b, rng)
}

/// Simulated Table I cell: protocol time on one device pair, averaged
/// over `runs` independent handshakes (the paper averages ten runs).
pub fn simulate_table1_cell(
    kind: ProtocolKind,
    device: &ecq_devices::DeviceProfile,
    runs: usize,
) -> f64 {
    let (alice, bob, mut rng) = deployment(0x7AB1E1 ^ kind as u64);
    let mut acc = 0.0;
    for _ in 0..runs {
        let out = establish(kind, &alice, &bob, 0, &mut rng).expect("handshake");
        acc += ecq_devices::timing::protocol_pair_time(kind, &out.transcript, device, device);
    }
    acc / runs as f64
}

/// Renders a simple horizontal ASCII bar.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_devices::DevicePreset;

    #[test]
    fn all_protocols_run_through_harness() {
        let (a, b, mut rng) = deployment(1);
        for kind in ProtocolKind::ALL {
            let out = establish(kind, &a, &b, 0, &mut rng).unwrap();
            assert!(out.transcript.total_bytes() > 0, "{kind}");
        }
    }

    #[test]
    fn table1_simulation_close_to_paper() {
        // The headline check: every simulated cell within 11 % of the
        // paper's Table I (S-ECDSA/STS rows essentially exact, SCIANC
        // and PORAMB within the documented band).
        for preset in DevicePreset::ALL {
            let device = preset.profile();
            for kind in ProtocolKind::ALL {
                let sim = simulate_table1_cell(kind, &device, 1);
                let paper = preset.paper_table1(kind);
                let rel = (sim - paper).abs() / paper;
                assert!(
                    rel < 0.11,
                    "{preset:?}/{kind}: sim {sim:.2} vs paper {paper:.2} ({:.1} %)",
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn table1_ordering_matches_paper() {
        let device = DevicePreset::Stm32F767.profile();
        let t = |k| simulate_table1_cell(k, &device, 1);
        let scianc = t(ProtocolKind::Scianc);
        let poramb = t(ProtocolKind::Poramb);
        let opt2 = t(ProtocolKind::StsOptII);
        let s_ecdsa = t(ProtocolKind::SEcdsa);
        let opt1 = t(ProtocolKind::StsOptI);
        let sts = t(ProtocolKind::Sts);
        assert!(scianc < poramb);
        assert!(poramb < opt2);
        assert!(opt2 < s_ecdsa);
        assert!(s_ecdsa < opt1);
        assert!(opt1 < sts);
        // The headline claim: ~20 % overhead of STS vs S-ECDSA.
        let ratio = sts / s_ecdsa;
        assert!(ratio > 1.15 && ratio < 1.35, "ratio {ratio}");
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(10.0, 10.0, 4), "████");
        assert_eq!(bar(0.0, 10.0, 4), "");
    }
}
