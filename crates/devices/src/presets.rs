//! The paper's four evaluation boards (§V-A) with fitted cost tables
//! and the original Table I values for paper-vs-measured reporting.

use crate::profile::{costs_from_op_times, DeviceProfile};
use ecq_proto::ProtocolKind;

/// The four hardware platforms of the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DevicePreset {
    /// Low-end: Arduino ATmega2560, 8-bit @ 16 MHz.
    ATmega2560,
    /// Mid-tier: NXP S32K144, Cortex-M4F 32-bit @ 80 MHz.
    S32K144,
    /// Mid-tier: STM32F767, Cortex-M7 32-bit @ 216 MHz.
    Stm32F767,
    /// High-end: Raspberry Pi 4, Cortex-A72 64-bit @ 1.5 GHz.
    RaspberryPi4,
}

impl DevicePreset {
    /// All presets in Table I column order.
    pub const ALL: [DevicePreset; 4] = [
        DevicePreset::ATmega2560,
        DevicePreset::S32K144,
        DevicePreset::Stm32F767,
        DevicePreset::RaspberryPi4,
    ];

    /// The fitted per-side STS operation times `[Op1, Op2, Op3, Op4]`
    /// in ms, inverted from the paper's Table I via eqs. (5)–(8)
    /// (derivation and residuals in the crate docs' Calibration
    /// section).
    pub fn fitted_op_times(&self) -> [f64; 4] {
        match self {
            DevicePreset::ATmega2560 => [4701.385, 4581.80, 9269.42, 4578.41],
            DevicePreset::S32K144 => [364.305, 376.16, 689.71, 381.18],
            DevicePreset::Stm32F767 => [320.15, 344.05, 598.77, 318.065],
            DevicePreset::RaspberryPi4 => [2.245, 2.39, 4.56, 2.435],
        }
    }

    /// Builds the cost table for this board.
    pub fn profile(&self) -> DeviceProfile {
        // Symmetric-primitive constants scale roughly with the board's
        // integer throughput; they are deliberately small relative to
        // the EC operations (the paper's Table I is EC-dominated).
        let (name, class, aes, mac, kdf, rng, hash) = match self {
            DevicePreset::ATmega2560 => (
                "ATMega2560",
                "Arduino, 8-bit AVR @ 16 MHz",
                0.55,
                6.0,
                24.0,
                1.6,
                0.9,
            ),
            DevicePreset::S32K144 => (
                "S32K144",
                "NXP, ARM Cortex-M4F 32-bit @ 80 MHz",
                0.03,
                0.45,
                1.8,
                0.12,
                0.07,
            ),
            DevicePreset::Stm32F767 => (
                "STM32F767",
                "ST, ARM Cortex-M7 32-bit @ 216 MHz",
                0.012,
                0.18,
                0.75,
                0.05,
                0.03,
            ),
            DevicePreset::RaspberryPi4 => (
                "RaspberryPi 4",
                "ARM Cortex-A72 64-bit @ 1.5 GHz",
                0.0001,
                0.0015,
                0.006,
                0.0005,
                0.00025,
            ),
        };
        DeviceProfile {
            name,
            class,
            costs: costs_from_op_times(self.fitted_op_times(), aes, mac, kdf, rng, hash),
        }
    }

    /// The paper's Table I value (ms) for a protocol on this board —
    /// the reference the benches compare the simulation against.
    pub fn paper_table1(&self, kind: ProtocolKind) -> f64 {
        use DevicePreset::*;
        use ProtocolKind::*;
        match (self, kind) {
            (ATmega2560, SEcdsa) => 36859.26,
            (ATmega2560, SEcdsaExt) => 36882.64,
            (ATmega2560, Sts) => 46262.03,
            (ATmega2560, StsOptI) => 41680.23,
            (ATmega2560, StsOptII) => 32410.81,
            (ATmega2560, Scianc) => 8990.49,
            (ATmega2560, Poramb) => 17932.17,
            (S32K144, SEcdsa) => 2894.1,
            (S32K144, SEcdsaExt) => 2976.2,
            (S32K144, Sts) => 3622.71,
            (S32K144, StsOptI) => 3246.55,
            (S32K144, StsOptII) => 2556.84,
            (S32K144, Scianc) => 721.67,
            (S32K144, Poramb) => 1471.66,
            (Stm32F767, SEcdsa) => 2521.77,
            (Stm32F767, SEcdsaExt) => 2602.69,
            (Stm32F767, Sts) => 3162.07,
            (Stm32F767, StsOptI) => 2818.02,
            (Stm32F767, StsOptII) => 2219.25,
            (Stm32F767, Scianc) => 628.1,
            (Stm32F767, Poramb) => 1263.0,
            (RaspberryPi4, SEcdsa) => 18.76,
            (RaspberryPi4, SEcdsaExt) => 18.68,
            (RaspberryPi4, Sts) => 23.26,
            (RaspberryPi4, StsOptI) => 20.87,
            (RaspberryPi4, StsOptII) => 16.31,
            (RaspberryPi4, Scianc) => 4.58,
            (RaspberryPi4, Poramb) => 8.98,
        }
    }
}

impl core::fmt::Display for DevicePreset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.profile().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_times_reconstruct_paper_s_ecdsa() {
        // 2·(Op2+Op3+Op4) must equal the paper's S-ECDSA column.
        for preset in DevicePreset::ALL {
            let [_, op2, op3, op4] = preset.fitted_op_times();
            let s_ecdsa = 2.0 * (op2 + op3 + op4);
            let paper = preset.paper_table1(ProtocolKind::SEcdsa);
            assert!(
                (s_ecdsa - paper).abs() / paper < 1e-3,
                "{preset:?}: {s_ecdsa} vs {paper}"
            );
        }
    }

    #[test]
    fn fitted_times_reconstruct_paper_sts_family() {
        for preset in DevicePreset::ALL {
            let [op1, op2, op3, op4] = preset.fitted_op_times();
            let sts = 2.0 * (op1 + op2 + op3 + op4);
            assert!((sts - preset.paper_table1(ProtocolKind::Sts)).abs() < 0.01);
            let opt1 = sts - op2;
            assert!((opt1 - preset.paper_table1(ProtocolKind::StsOptI)).abs() < 0.01);
            let opt2 = sts - op2 - op3;
            assert!((opt2 - preset.paper_table1(ProtocolKind::StsOptII)).abs() < 0.01);
        }
    }

    #[test]
    fn device_ordering_by_speed() {
        // ATmega ≫ S32K > STM32 ≫ RPi4 for every op class.
        let profiles: Vec<_> = DevicePreset::ALL.iter().map(|p| p.profile()).collect();
        for i in 0..3 {
            assert!(profiles[i].costs.sign_ms > profiles[i + 1].costs.sign_ms);
            assert!(profiles[i].costs.keygen_ms > profiles[i + 1].costs.keygen_ms);
        }
    }

    #[test]
    fn all_costs_positive() {
        for preset in DevicePreset::ALL {
            let c = preset.profile().costs;
            for v in [
                c.keygen_ms,
                c.recon_ms,
                c.ecdh_ms,
                c.sign_ms,
                c.verify_ms,
                c.aes_block_ms,
                c.mac_ms,
                c.kdf_ms,
                c.rng32_ms,
                c.hash_block_ms,
            ] {
                assert!(v > 0.0, "{preset:?} has non-positive cost {v}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DevicePreset::Stm32F767.to_string(), "STM32F767");
        assert_eq!(DevicePreset::RaspberryPi4.to_string(), "RaspberryPi 4");
    }
}
