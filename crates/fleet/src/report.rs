//! Aggregated results of a fleet run.

use crate::interleave::Outcome;
use crate::scheduler::VirtualTime;
use ecq_devices::DevicePreset;
use ecq_proto::ProtocolError;
use std::collections::BTreeMap;

/// Counters and simulated-time totals for one fleet lifecycle.
///
/// Counters sum over first contact and every rekey epoch. All times
/// are *virtual*, integrated from the `ecq_devices` cost models by the
/// sweep engine, so two runs with the same seed agree. Wall-clock
/// throughput of the host is measured separately by the `fleet` bench
/// binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Devices in the roster.
    pub devices: usize,
    /// CA shards provisioning the roster.
    pub shards: usize,
    /// Devices that completed ECQV enrollment.
    pub enrolled: usize,
    /// `issue_batch` calls that served those enrollments.
    pub enroll_batches: usize,
    /// Virtual makespan of the enrollment phase in microseconds
    /// (shards work concurrently; this is the slowest shard's total).
    pub enroll_makespan_us: VirtualTime,
    /// Pair sessions created by the first-contact sweep.
    pub sessions: usize,
    /// Completed STS handshakes (initial establishments + rekeys).
    pub handshakes: usize,
    /// Rekeys beyond each session's initial establishment.
    pub rekeys: u64,
    /// Virtual makespan of the first-contact sweep in microseconds, as
    /// the sweep engine simulated it (pairs run concurrently).
    pub handshake_makespan_us: VirtualTime,
    /// Virtual end of the last rekey epoch (its start plus makespan), µs.
    pub epoch_end_us: VirtualTime,
    /// Wire messages delivered as individual scheduler events, first
    /// contacts and rekeys alike.
    pub messages: u64,
    /// Handshake payload bytes those messages carried.
    pub wire_bytes: u64,
    /// Link-layer CAN-FD frames moved, first contacts and rekeys alike.
    pub can_frames: u64,
    /// Handshakes denied because a participant's certificate was on the
    /// coordinator's revocation list.
    pub denied_revoked: u64,
    /// Sessions that failed closed with `ProtocolError::Timeout` at the
    /// sweep deadline (fault-injected sweeps only; 0 on a clean wire).
    pub timeouts: u64,
    /// Sessions that failed closed with `ProtocolError::Poisoned`
    /// because the simulation lost their state mid-sweep (broken
    /// scheduler invariant or crashed worker; 0 on a healthy run).
    pub poisoned: u64,
    /// Fault-engine activity summed over every bus in the sweep. Every
    /// event loop owns one bus, and a Simnet bus is group 1 under an
    /// inert plan, so under Simnet (or an inactive fault spec) every
    /// fault class stays zero and only `messages_lost` can move: it
    /// counts messages a deadline cut off in flight.
    pub faults: ecq_simnet::FaultCounters,
    /// SHA-256 over every session's outcome (key bytes or failure
    /// marker) of the latest round, in session-index order — the cheap
    /// cross-run and cross-thread-count determinism witness.
    pub key_digest: Option<[u8; 32]>,
    /// Enrolled devices per evaluation board.
    pub per_preset: BTreeMap<DevicePreset, usize>,
}

impl FleetReport {
    /// Counts one session outcome: the only place that moves
    /// `handshakes`, `denied_revoked`, `timeouts` and `poisoned`.
    pub(crate) fn count(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Keyed(_) => self.handshakes += 1,
            Outcome::Denied => self.denied_revoked += 1,
            Outcome::Failed(ProtocolError::Timeout) => self.timeouts += 1,
            Outcome::Failed(ProtocolError::Poisoned) => self.poisoned += 1,
            Outcome::Failed(_) => {}
        }
    }

    /// Enrollments per simulated second of CA-gateway time.
    pub fn enrollments_per_virtual_sec(&self) -> f64 {
        per_sec(self.enrolled, self.enroll_makespan_us)
    }

    /// Initial handshakes per simulated second.
    pub fn handshakes_per_virtual_sec(&self) -> f64 {
        per_sec(self.sessions, self.handshake_makespan_us)
    }
}

fn per_sec(count: usize, span_us: VirtualTime) -> f64 {
    if span_us == 0 {
        return 0.0;
    }
    count as f64 / (span_us as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_handles_empty_runs() {
        let r = FleetReport::default();
        assert_eq!(r.enrollments_per_virtual_sec(), 0.0);
        let r = FleetReport {
            enrolled: 500,
            enroll_makespan_us: 2_000_000,
            ..FleetReport::default()
        };
        assert!((r.enrollments_per_virtual_sec() - 250.0).abs() < 1e-9);
    }
}
