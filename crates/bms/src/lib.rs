//! The automotive prototype of the paper's §V-C: a battery management
//! system (BMS) controller establishing secure sessions with an
//! electric-vehicle charging controller (EVCC) over CAN-FD.
//!
//! Topology (paper Figs. 1 & 5):
//!
//! * **BMS** and **EVCC** — two S32K144-class ECUs running the session
//!   protocols;
//! * **CA gateway** — a Raspberry-Pi-4-class device handling initial
//!   device authentication and certificate distribution;
//! * a CAN-FD bus (0.5 / 2 Mbit/s) with ISO 15765-2 fragmentation and
//!   the Fig. 6 session header;
//! * a battery-cell emulator generating monitoring traffic through the
//!   established encrypted session.
//!
//! [`scenario::BmsScenario`] reproduces the Fig. 7 timeline: per-step
//! compute time from the device cost model interleaved with per-message
//! CAN-FD transfer time.
//!
//! # Example
//!
//! ```
//! use ecq_bms::scenario::BmsScenario;
//! use ecq_proto::ProtocolKind;
//!
//! let scenario = BmsScenario::new(42);
//! let sts = scenario.run_handshake(ProtocolKind::Sts).unwrap();
//! let s_ecdsa = scenario.run_handshake(ProtocolKind::SEcdsa).unwrap();
//! // The paper's headline: STS costs ~20 % more than static ECDSA.
//! let overhead = sts.total_ms / s_ecdsa.total_ms;
//! assert!(overhead > 1.10 && overhead < 1.40);
//! ```

#![warn(missing_docs)]

pub mod emulator;
pub mod scenario;
pub mod timeline;

pub use scenario::{BmsScenario, SessionReport};
pub use timeline::{EventKind, Timeline, TimelineEvent};
