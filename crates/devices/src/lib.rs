//! Embedded-device cost models for the paper's four evaluation boards.
//!
//! We cannot clock an 8-bit ATmega2560 on the host, so timing is
//! simulated: the protocols execute real cryptography and record a
//! [`ecq_proto::OpTrace`]; this crate integrates those traces against
//! per-board primitive cost tables.
//!
//! # Calibration
//!
//! The paper's Table I plus its optimization formulas (eqs. (5)–(8))
//! over-determine the per-side operation times, so the cost tables are
//! *inverted from the paper's own measurements*:
//!
//! ```text
//! Op1 = (STS − S-ECDSA) / 2        Op2 = STS − Opt.I
//! Op3 = Opt.I − Opt.II             Op4 = STS/2 − (Op1+Op2+Op3)
//! ```
//!
//! [`DevicePreset::fitted_op_times`] holds the result per board. With
//! those anchors the S-ECDSA row lands within 0.05 % of Table I and the
//! three STS rows reproduce it exactly. The other rows are out of
//! sample: their costs follow from each protocol's own operation
//! counts. Their residuals against the paper, as the `table1` binary
//! prints them:
//!
//! | Protocol       | ATmega2560 | S32K144 | STM32F767 | Raspberry Pi 4 |
//! |----------------|-----------:|--------:|----------:|---------------:|
//! | S-ECDSA (ext.) |     +0.12 % | −2.59 % |   −3.03 % |        +0.57 % |
//! | SCIANC         |     +2.23 % | +4.53 % |   +9.68 % |        +4.52 % |
//! | PORAMB         |     +2.51 % | +2.52 % |   +9.09 % |        +6.61 % |
//!
//! So SCIANC and PORAMB run 2–10 % slow, and S-ECDSA (ext.) runs 3 %
//! fast on the two Cortex-M boards. On each board the protocols rank as
//! in the paper, except S-ECDSA and its extended variant on the
//! Raspberry Pi 4, which the paper puts 0.4 % apart the other way.
//!
//! # Example
//!
//! ```
//! use ecq_devices::{DevicePreset, timing::sts_operation_times};
//!
//! let stm = DevicePreset::Stm32F767.profile();
//! let ops = sts_operation_times(&stm);
//! // Fig. 3: Op3 (sign + encrypt) dominates on the STM32F767.
//! assert!(ops[2] > ops[0] && ops[2] > ops[1] && ops[2] > ops[3]);
//! ```

#![warn(missing_docs)]

pub mod accelerator;
pub mod presets;
pub mod profile;
pub mod timing;

pub use accelerator::Accelerator;
pub use presets::DevicePreset;
pub use profile::{DeviceProfile, PrimitiveCosts};
pub use timing::{integrate, pair_total, protocol_pair_time, PhaseTimes};
