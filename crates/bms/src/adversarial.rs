//! Adversarial BMS ↔ EVCC runs: the prototype charging scenario under
//! the shared-bus fault catalog.
//!
//! [`crate::scenario::BmsScenario`] reproduces the paper's *benign*
//! measurement (Fig. 7): two S32K144 ECUs, one handshake, an idle bus.
//! This module asks the question §IV of the paper only argues on paper:
//! what happens to that charging-session handshake when the CAN-FD bus
//! misbehaves — frames lost mid-certificate, a corrupted STS response,
//! a replayed first flight, a revocation racing the handshake, a
//! babbling node. Each named scenario from
//! [`ecq_fleet::scenario`] runs on a shared bus carrying the BMS pair
//! *plus* live bystander traffic, and the outcome is reported in the
//! charging-session vocabulary: does the EV start charging, how much
//! later, or which error refused it.

use ecq_fleet::scenario::{by_name, Scenario};
use ecq_proto::ProtocolError;
use ecq_simnet::FaultCounters;

/// Outcome of one adversarial charging-session run.
#[derive(Clone, Debug)]
pub struct AdversarialReport {
    /// Scenario name (stable CLI identifier).
    pub name: &'static str,
    /// One-line description of the injected fault.
    pub summary: &'static str,
    /// Whether the BMS ↔ EVCC session established (charging can start).
    pub charging_authorized: bool,
    /// The fail-closed error when charging was refused.
    pub refusal: Option<ProtocolError>,
    /// Virtual handshake makespan under the fault, ms.
    pub handshake_ms: f64,
    /// Fault-free makespan of the same fleet, ms.
    pub baseline_ms: f64,
    /// What the fault engine injected on the bus.
    pub faults: FaultCounters,
}

impl AdversarialReport {
    /// Extra latency the fault cost a *successful* session, ms
    /// (0 when the session was refused outright).
    pub fn added_latency_ms(&self) -> f64 {
        if self.charging_authorized {
            (self.handshake_ms - self.baseline_ms).max(0.0)
        } else {
            0.0
        }
    }
}

/// Runs one named scenario against the BMS prototype fleet.
/// Returns `None` for an unknown name.
pub fn run(name: &str) -> Option<AdversarialReport> {
    by_name(name).map(run_scenario)
}

fn run_scenario(scenario: &Scenario) -> AdversarialReport {
    let out = scenario.run();
    AdversarialReport {
        name: scenario.name,
        summary: scenario.summary,
        charging_authorized: out.target_keyed,
        refusal: out.target_failure,
        handshake_ms: out.makespan_us as f64 / 1e3,
        baseline_ms: out.baseline_makespan_us as f64 / 1e3,
        faults: out.report.faults,
    }
}

/// Renders one report as a log line (the `fleet --scenario` output).
pub fn render(report: &AdversarialReport) -> String {
    let verdict = if report.charging_authorized {
        format!(
            "charging authorized (+{:.1} ms over baseline)",
            report.added_latency_ms()
        )
    } else {
        match report.refusal {
            Some(e) => format!("charging refused: {e}"),
            None => "charging refused".to_string(),
        }
    };
    format!(
        "{name}: {verdict} [handshake {hs:.1} ms, baseline {base:.1} ms]",
        name = report.name,
        hs = report.handshake_ms,
        base = report.baseline_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_fleet::scenario::{catalog, Expected};

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run("definitely-not-a-scenario").is_none());
        assert!(catalog().len() >= 8);
    }

    #[test]
    fn corrupted_response_refuses_charging() {
        let report = run("corrupt-b1-auth").expect("catalog scenario");
        assert!(!report.charging_authorized);
        assert_eq!(report.refusal, Some(ProtocolError::AuthenticationFailed));
        assert!(report.faults.corrupted >= 1);
        let line = render(&report);
        assert!(line.contains("refused"), "{line}");
    }

    #[test]
    fn storm_delays_but_authorizes_charging() {
        let report = run("arbitration-storm").expect("catalog scenario");
        assert!(report.charging_authorized);
        assert!(report.refusal.is_none());
        assert!(report.added_latency_ms() > 0.0);
        assert!(report.faults.storm_frames > 0);
        let report = by_name_expected_matches();
        assert!(report, "catalog expectations must stay in sync");
    }

    /// The BMS view and the conformance catalog agree on which
    /// scenarios authorize charging.
    fn by_name_expected_matches() -> bool {
        catalog().iter().all(|s| {
            let authorized = matches!(s.expected, Expected::Completes | Expected::CompletesSlower);
            run(s.name).map(|r| r.charging_authorized) == Some(authorized)
        })
    }
}
