//! Named adversarial scenarios and their paper-predicted outcomes.
//!
//! Each [`Scenario`] is a small shared-bus fleet run under one
//! deliberately chosen fault schedule — a lost frame in the middle of
//! the four-message handshake, a corrupted authentication response, a
//! replayed first flight, a revocation landing between STS steps, a
//! babbling node hogging arbitration — together with the outcome the
//! protocol analysis (§IV of the paper) predicts for it. The
//! [`Scenario::verify`] contract is the security statement under test:
//!
//! * a completing handshake ends with **bit-equal session keys** on
//!   both endpoints,
//! * a non-completing handshake **fails closed** with the *specific*
//!   expected error — never a silent key mismatch
//!   ([`ProtocolError::KeyMismatch`] surfacing anywhere is a
//!   conformance failure), and never a session keyed against a peer
//!   whose revocation has propagated,
//! * uninvolved sessions sharing the bus still complete (faults are
//!   surgical; the medium itself stays live).
//!
//! The catalog is exercised by the `ecq_analysis` conformance suite and
//! runnable one-by-one via `fleet --scenario <name>`.

use crate::interleave::{RevocationSpec, SweepOptions, TransportKind};
use crate::{FleetConfig, FleetCoordinator, FleetError, FleetReport};
use ecq_cert::CertError;
use ecq_proto::ProtocolError;
use ecq_simnet::{BabbleSpec, FaultAction, FaultSpec, TargetedFault};

/// Virtual-time deadline every scenario runs under: generous against
/// the ~3 s worst-case handshake, tight enough to bound a faulted run.
pub const SCENARIO_DEADLINE_US: u64 = 30_000_000;

/// The paper-predicted outcome of a scenario's *target* session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The handshake completes with matching keys despite the fault.
    Completes,
    /// The handshake completes with matching keys, but the sweep's
    /// makespan must exceed the fault-free baseline (the fault costs
    /// time, not correctness — e.g. an arbitration storm).
    CompletesSlower,
    /// The handshake fails closed with exactly this error and no
    /// session key on record.
    FailsClosed(ProtocolError),
}

/// One named adversarial scenario.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Stable CLI/conformance identifier (kebab-case).
    pub name: &'static str,
    /// One-line description of the attack or fault.
    pub summary: &'static str,
    /// Predicted outcome of the target session.
    pub expected: Expected,
    /// Fault schedule applied to the shared bus.
    pub faults: FaultSpec,
    /// Optional mid-handshake revocation.
    pub revocation: Option<RevocationSpec>,
    /// Session index the fault targets (outcome asserted there).
    pub target: usize,
}

/// What actually happened when a scenario ran.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Failure of the target session, if any.
    pub target_failure: Option<ProtocolError>,
    /// Whether the target session holds an established key.
    pub target_keyed: bool,
    /// Per-session failures, session-index order.
    pub session_failures: Vec<Option<ProtocolError>>,
    /// Handshake makespan of the faulted run, µs.
    pub makespan_us: u64,
    /// Handshake makespan of the fault-free baseline, µs.
    pub baseline_makespan_us: u64,
    /// Full report of the faulted run.
    pub report: FleetReport,
}

/// Devices per scenario fleet: two sessions sharing one bus, so every
/// fault plays out against live competing traffic.
const DEVICES: usize = 4;
/// Sessions per shared bus (both sessions ride bus 0).
const GROUP: usize = 2;

impl Scenario {
    /// Runs the scenario (plus a fault-free baseline of the same fleet)
    /// and returns what happened. Handshake failures are expected here,
    /// so the sweep's error return is folded into the outcome rather
    /// than propagated.
    ///
    /// # Panics
    ///
    /// Panics when the *baseline* run fails — the fleet must be sound
    /// before a fault schedule means anything.
    pub fn run(&self) -> ScenarioOutcome {
        let baseline = match run_fleet(self.seed(), FaultSpec::none(), None) {
            Ok(fleet) => fleet,
            Err((_, e)) => panic!("fault-free baseline must complete: {e}"),
        };
        let baseline_makespan_us = baseline.report().handshake_makespan_us;

        let mut faults = self.faults;
        faults.deadline_us = SCENARIO_DEADLINE_US;
        let fleet = match run_fleet(self.seed(), faults, self.revocation) {
            Ok(fleet) | Err((fleet, _)) => fleet,
        };
        let session_failures: Vec<Option<ProtocolError>> = fleet
            .sessions()
            .iter()
            .map(|s| match s.failure() {
                Some(FleetError::Protocol(e)) => Some(*e),
                Some(FleetError::Cert(e)) => Some(ProtocolError::Cert(*e)),
                // A refused sweep records nothing on its sessions.
                Some(FleetError::BusGroupTooLarge { .. }) | None => None,
            })
            .collect();
        // A target outside the fleet reads as unkeyed with no failure,
        // which fails every expectation in `verify`.
        ScenarioOutcome {
            target_failure: session_failures.get(self.target).copied().flatten(),
            target_keyed: fleet
                .sessions()
                .get(self.target)
                .is_some_and(|s| s.last_key().is_some()),
            session_failures,
            makespan_us: fleet.report().handshake_makespan_us,
            baseline_makespan_us,
            report: fleet.report().clone(),
        }
    }

    /// Runs the scenario and asserts the conformance contract (see the
    /// module docs). Returns the outcome for further inspection.
    ///
    /// # Panics
    ///
    /// Panics — with the scenario name in the message — when any part
    /// of the contract is violated.
    pub fn verify(&self) -> ScenarioOutcome {
        let name = self.name;
        let out = self.run();
        for (i, failure) in out.session_failures.iter().enumerate() {
            assert_ne!(
                *failure,
                Some(ProtocolError::KeyMismatch),
                "{name}: session {i} silently derived mismatched keys"
            );
        }
        match self.expected {
            Expected::Completes => {
                assert_eq!(
                    out.target_failure, None,
                    "{name}: target session must complete"
                );
                assert!(out.target_keyed, "{name}: completed without a session key");
            }
            Expected::CompletesSlower => {
                assert_eq!(
                    out.target_failure, None,
                    "{name}: target session must complete"
                );
                assert!(out.target_keyed, "{name}: completed without a session key");
                assert!(
                    out.makespan_us > out.baseline_makespan_us,
                    "{name}: fault must cost time ({} µs vs baseline {} µs)",
                    out.makespan_us,
                    out.baseline_makespan_us
                );
            }
            Expected::FailsClosed(err) => {
                assert_eq!(
                    out.target_failure,
                    Some(err),
                    "{name}: expected fail-closed outcome {err:?}"
                );
                assert!(
                    !out.target_keyed,
                    "{name}: a failed session must not retain a key"
                );
            }
        }
        // A revoked peer whose CRL has propagated within the run must
        // never end the sweep holding a session key.
        if let Some(rv) = self.revocation {
            if rv.at_us.saturating_add(rv.propagation_us) <= out.makespan_us
                && matches!(self.expected, Expected::FailsClosed(_))
            {
                assert!(
                    !out.target_keyed,
                    "{name}: session keyed against a revoked certificate"
                );
            }
        }
        // Surgical faults must not take down bystander sessions.
        for (i, failure) in out.session_failures.iter().enumerate() {
            if i != self.target {
                assert_eq!(
                    *failure, None,
                    "{name}: bystander session {i} must complete"
                );
            }
        }
        out
    }

    /// Per-scenario fleet seed: derived from the name so scenarios
    /// don't share wire traffic, stable across runs.
    fn seed(&self) -> u64 {
        self.name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
}

/// Runs one 4-device, one-bus fleet under `faults`. On handshake
/// failure the coordinator is returned alongside the error so callers
/// can inspect per-session outcomes.
#[allow(clippy::result_large_err)]
fn run_fleet(
    seed: u64,
    faults: FaultSpec,
    revocation: Option<RevocationSpec>,
) -> Result<FleetCoordinator, (FleetCoordinator, FleetError)> {
    let mut fleet = FleetCoordinator::new(
        FleetConfig::new()
            .devices(DEVICES)
            .ca_shards(1)
            .enroll_batch(DEVICES)
            .seed(seed),
    );
    // The paper's prototype board on every endpoint (§V-C).
    fleet.set_preset_all(ecq_devices::DevicePreset::S32K144);
    if let Err(e) = fleet.enroll_all() {
        return Err((fleet, e));
    }
    let mut opts = SweepOptions::new()
        .threads(1)
        .transport(TransportKind::SharedBus { group: GROUP })
        .faults(faults);
    if let Some(spec) = revocation {
        opts = opts.revocation(spec);
    }
    match fleet.interleaved_sweep(&opts) {
        Ok(()) => Ok(fleet),
        Err(e) => Err((fleet, e)),
    }
}

/// A targeted fault on session 0's bus slot.
const fn hit(
    sender: ecq_proto::Role,
    message: usize,
    frame: usize,
    action: FaultAction,
) -> FaultSpec {
    FaultSpec::targeted_only(
        TargetedFault {
            session: 0,
            sender,
            message,
            frame,
            action,
        },
        SCENARIO_DEADLINE_US,
    )
}

use ecq_proto::Role::{Initiator, Responder};

/// The scenario catalog. Message indices follow the wire protocol:
/// initiator sends A1 (message 0, 2 frames) and A2 (message 1,
/// 3 frames); responder sends B1 (message 0, FF + 3 CFs) and B2
/// (message 1, 1 SF).
pub const CATALOG: &[Scenario] = &[
    Scenario {
        name: "frame-loss-mid-handshake",
        summary: "a CF of B1 is lost on the wire; the certificate never reassembles",
        expected: Expected::FailsClosed(ProtocolError::Timeout),
        faults: hit(Responder, 0, 1, FaultAction::Drop),
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "truncated-isotp-tail",
        summary: "the final CF of B1 is lost; reassembly hangs one frame short",
        expected: Expected::FailsClosed(ProtocolError::Timeout),
        faults: hit(Responder, 0, 3, FaultAction::Drop),
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "ack-loss",
        summary: "B2 (the closing ack) is lost; the initiator never finishes",
        expected: Expected::FailsClosed(ProtocolError::Timeout),
        faults: hit(Responder, 1, 0, FaultAction::Drop),
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "corrupt-b1-auth",
        summary: "one byte of B1's signed response flips in flight; STS authentication rejects it",
        expected: Expected::FailsClosed(ProtocolError::AuthenticationFailed),
        faults: hit(Responder, 0, 3, FaultAction::Corrupt { offset: 10 }),
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "corrupt-b1-pci",
        summary: "B1's first-frame PCI byte flips; ISO-TP discards the whole transfer",
        expected: Expected::FailsClosed(ProtocolError::Timeout),
        faults: hit(Responder, 0, 0, FaultAction::Corrupt { offset: 0 }),
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "reorder-b1-segments",
        summary: "B1's first CF is held back past its successors; sequence check drops the transfer",
        expected: Expected::FailsClosed(ProtocolError::Timeout),
        faults: hit(Responder, 0, 1, FaultAction::HoldBack { ns: 800_000 }),
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "duplicate-b1-segment",
        summary: "a CF of B1 arrives twice; the duplicate violates the ISO-TP sequence",
        expected: Expected::FailsClosed(ProtocolError::Timeout),
        faults: hit(Responder, 0, 1, FaultAction::Duplicate),
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "replayed-first-flight",
        summary: "A1 is captured and replayed after the handshake advances; the stale flight is rejected",
        expected: Expected::FailsClosed(ProtocolError::Decode),
        faults: hit(
            Initiator,
            0,
            0,
            FaultAction::ReplayMessage {
                delay_ns: 5_000_000,
            },
        ),
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "revocation-mid-handshake",
        summary: "the peer is revoked between STS steps with an already-propagated CRL",
        expected: Expected::FailsClosed(ProtocolError::Cert(CertError::Revoked)),
        faults: FaultSpec {
            deadline_us: SCENARIO_DEADLINE_US,
            ..FaultSpec::none()
        },
        revocation: Some(RevocationSpec {
            session: 0,
            at_us: 1,
            propagation_us: 0,
        }),
        target: 0,
    },
    Scenario {
        name: "stale-crl-accept-window",
        summary: "revocation lands mid-handshake but the CRL propagates too slowly: the stale window accepts the peer",
        expected: Expected::Completes,
        faults: FaultSpec {
            deadline_us: SCENARIO_DEADLINE_US,
            ..FaultSpec::none()
        },
        revocation: Some(RevocationSpec {
            session: 0,
            at_us: 1,
            propagation_us: 60_000_000,
        }),
        target: 0,
    },
    Scenario {
        name: "arbitration-storm",
        summary: "a babbling low-ID node floods arbitration; handshakes slow down but stay sound",
        expected: Expected::CompletesSlower,
        faults: FaultSpec {
            // The S32K144 handshake runs ~3.6 s; the storm must cover
            // the window its frames actually hit the wire in. A 500 µs
            // period against ~360 µs babble frames keeps the bus ~70 %
            // occupied by the low-ID babbler.
            babble: Some(BabbleSpec {
                id: 0x010,
                start_us: 0,
                end_us: 4_000_000,
                period_us: 500,
                payload_len: 64,
            }),
            deadline_us: SCENARIO_DEADLINE_US,
            ..FaultSpec::none()
        },
        revocation: None,
        target: 0,
    },
    Scenario {
        name: "clock-skew-responder",
        summary: "the responder's clock runs 5% fast; frames arrive late but the handshake survives",
        expected: Expected::Completes,
        faults: FaultSpec {
            skew_ppm: [0, 50_000],
            deadline_us: SCENARIO_DEADLINE_US,
            ..FaultSpec::none()
        },
        revocation: None,
        target: 0,
    },
];

/// All scenarios, catalog order.
pub fn catalog() -> &'static [Scenario] {
    CATALOG
}

/// Looks a scenario up by its CLI name.
pub fn by_name(name: &str) -> Option<&'static Scenario> {
    CATALOG.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for s in CATALOG {
            assert!(seen.insert(s.name), "duplicate scenario {}", s.name);
            assert!(
                s.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "scenario name {} is not kebab-case",
                s.name
            );
        }
        assert!(CATALOG.len() >= 8, "catalog must stay adversarially broad");
    }

    #[test]
    fn catalog_targets_are_sessions_of_the_fleet() {
        for s in CATALOG {
            assert!(
                s.target < DEVICES / GROUP,
                "scenario {} targets session {} of {}",
                s.name,
                s.target,
                DEVICES / GROUP
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("ack-loss").map(|s| s.name), Some("ack-loss"));
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn seeds_differ_across_scenarios() {
        let a = by_name("ack-loss").unwrap().seed();
        let b = by_name("corrupt-b1-auth").unwrap().seed();
        assert_ne!(a, b);
    }
}
