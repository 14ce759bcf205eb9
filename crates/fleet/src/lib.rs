//! Fleet-scale provisioning and session management.
//!
//! The paper's pitch (§I) is that ECQV + STS dynamic key derivation
//! makes per-session rekeying cheap enough for *fleets* of constrained
//! devices — yet a single CA talking to a single device never exercises
//! that claim. This crate turns the reproduction into a throughput
//! system:
//!
//! * [`CaPool`] — a sharded pool of certificate authorities; devices
//!   route to a shard by a stable hash of their identity, and shards
//!   enroll their populations concurrently,
//! * [`FleetCoordinator`] — drives N simulated devices through the full
//!   lifecycle: batch ECQV enrollment
//!   ([`ecq_cert::ca::CertificateAuthority::issue_batch`], one shared
//!   field inversion per batch), concurrent STS establishment, and
//!   hourly rekey epochs (the paper's dynamic sessions). Every
//!   establishment shares one pipeline: one enrollment routine, one
//!   pairing, one sweep engine ([`interleave`]) and one in-order report
//!   fold. The sweeps differ only in whether the roster is enrolled up
//!   front and sessions are kept; a rekey epoch is one more round,
//! * [`VirtualTime`] — every duration comes from the `ecq_devices` cost
//!   models and no wall-clock time is ever read, so a `(config, seed)`
//!   pair reproduces a run bit-for-bit,
//! * [`FleetReport`] — enrollment/handshake/rekey counters plus
//!   virtual-time makespans for throughput accounting.
//!
//! Real cryptography runs on the host (every certificate is issued and
//! every handshake fully executed); only *time* is simulated, exactly
//! as in the rest of the workspace.
//!
//! # Example
//!
//! ```
//! use ecq_fleet::{FleetConfig, FleetCoordinator};
//!
//! let mut fleet =
//!     FleetCoordinator::new(FleetConfig::new().devices(32).ca_shards(4).enroll_batch(8));
//! let report = fleet.run_lifecycle(1).unwrap();
//! assert_eq!(report.enrolled, 32);
//! assert!(report.enrollments_per_virtual_sec() > 0.0);
//! ```

#![deny(missing_docs)]

pub mod coordinator;
pub mod device;
pub mod interleave;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod scheduler;

pub use coordinator::{FleetConfig, FleetCoordinator, PairSession};
pub use device::SimDevice;
pub use interleave::{DeliveryRecord, RevocationSpec, SweepOptions, TransportKind};
pub use pool::CaPool;
pub use report::FleetReport;
pub use scenario::{Expected, Scenario, ScenarioOutcome};
pub use scheduler::VirtualTime;

/// Errors surfaced by a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// Certificate issuance or reconstruction failed during enrollment.
    Cert(ecq_cert::CertError),
    /// An STS handshake or rekey failed.
    Protocol(ecq_proto::ProtocolError),
    /// A shared-bus sweep asked for more sessions per bus than one bus's
    /// arbitration-id space holds; the sweep was refused before it ran.
    BusGroupTooLarge {
        /// The requested sessions per bus.
        group: usize,
        /// Sessions one bus can carry (`ecq_simnet::SharedBus::MAX_SLOTS`).
        capacity: usize,
    },
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Cert(e) => write!(f, "enrollment failed: {e}"),
            FleetError::Protocol(e) => write!(f, "session failed: {e}"),
            FleetError::BusGroupTooLarge { group, capacity } => write!(
                f,
                "bus group of {group} sessions exceeds the {capacity} sessions one bus can carry"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ecq_cert::CertError> for FleetError {
    fn from(e: ecq_cert::CertError) -> Self {
        FleetError::Cert(e)
    }
}
