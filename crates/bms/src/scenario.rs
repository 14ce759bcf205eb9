//! The BMS ↔ EVCC session scenario (paper §V-C, Fig. 7).

use crate::timeline::{EventKind, Timeline};
use ecq_baselines::endpoints;
use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_devices::timing::{integrate, pair_total, pipelined_phases};
use ecq_devices::{DevicePreset, DeviceProfile};
use ecq_proto::{Credentials, Message, ProtocolError, ProtocolKind, SessionKey};
use ecq_simnet::app::AppMessage;
use ecq_simnet::canfd::BitTiming;
use ecq_simnet::isotp::{transfer_time_ns, IsoTpConfig};
use ecq_simnet::ns_to_ms;

/// Report of one simulated session establishment.
#[derive(Debug)]
pub struct SessionReport {
    /// The protocol that ran.
    pub kind: ProtocolKind,
    /// Total wall time in ms, honouring the variant's pipelining
    /// schedule (eqs. (5)–(8)); for pipelined variants this is less
    /// than the sequential `timeline.total_ms()`.
    pub total_ms: f64,
    /// Total CAN-FD bus time in ms.
    pub bus_ms: f64,
    /// Application-layer handshake bytes (Table II accounting).
    pub handshake_bytes: usize,
    /// The sequential event log (Fig. 7 view).
    pub timeline: Timeline,
    /// Session key derived by the BMS (initiator).
    pub bms_key: SessionKey,
    /// Session key derived by the EVCC (responder).
    pub evcc_key: SessionKey,
}

/// The prototype test bench: two S32K144 ECUs, an RPi4 CA gateway, a
/// CAN-FD bus.
#[derive(Debug)]
pub struct BmsScenario {
    seed: u64,
    /// Device profile of both ECUs (S32K144 in the paper).
    pub ecu_device: DeviceProfile,
    /// CAN-FD bit timing (0.5 / 2 Mbit/s in the paper).
    pub timing: BitTiming,
    /// ISO-TP configuration.
    pub isotp: IsoTpConfig,
    /// Deployment timestamp for certificate validity.
    pub now: u32,
}

impl BmsScenario {
    /// Creates the scenario with the paper's prototype configuration.
    pub fn new(seed: u64) -> Self {
        BmsScenario {
            seed,
            ecu_device: DevicePreset::S32K144.profile(),
            timing: BitTiming::default(),
            isotp: IsoTpConfig::default(),
            now: 10,
        }
    }

    /// Runs the deployment phases (1)–(2): the RPi4 gateway issues
    /// implicit certificates to both ECUs.
    ///
    /// # Errors
    ///
    /// Propagates certificate errors from provisioning.
    pub fn provision(&self) -> Result<(Credentials, Credentials), ecq_cert::CertError> {
        let mut rng = HmacDrbg::from_seed(self.seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA-gateway"), &mut rng);
        let bms = Credentials::provision(&ca, DeviceId::from_label("BMS"), 0, 1_000_000, &mut rng)?;
        let evcc =
            Credentials::provision(&ca, DeviceId::from_label("EVCC"), 0, 1_000_000, &mut rng)?;
        Ok((bms, evcc))
    }

    /// Runs a full session establishment and returns the Fig. 7-style
    /// report.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] from the handshake.
    pub fn run_handshake(&self, kind: ProtocolKind) -> Result<SessionReport, ProtocolError> {
        let (bms_creds, evcc_creds) = self.provision().map_err(ProtocolError::Cert)?;
        let mut rng = HmacDrbg::from_seed(self.seed ^ 0xB145_0000);
        let (bms, evcc) = endpoints(kind, bms_creds, evcc_creds, self.now, &mut rng);
        // Per side, BMS first: the endpoint and the trace entries
        // already charged.
        let mut sides = [bms, evcc];
        let mut traced = [0usize; 2];
        const ACTORS: [&str; 2] = ["BMS", "EVCC"];

        let mut timeline = Timeline::new();
        let mut handshake_bytes = 0usize;
        let session_id = 0x0001;

        // The BMS kicks off; then each message crosses the bus and the
        // other side steps on it, until a step sends nothing.
        let mut incoming: Option<Message> = None;
        let mut turn = 0;
        loop {
            let label = match &incoming {
                None => step_label(kind, "A1", true),
                Some(msg) => step_label(kind, msg.step, false),
            };
            let out = sides[turn].step(incoming.as_ref())?;

            // Charge the primitives this step traced.
            let entries = sides[turn].trace().entries();
            let mut slice = ecq_proto::OpTrace::new();
            for e in &entries[traced[turn]..] {
                slice.record(e.phase, e.op);
            }
            traced[turn] = entries.len();
            let times = integrate(&slice, &self.ecu_device);
            if times.total() > 0.0 {
                timeline.push(ACTORS[turn], &label, times.total(), EventKind::Compute);
            }

            let Some(msg) = out.into_sent() else {
                break;
            };
            // Bus transfer through the Fig. 6 stack.
            let app = AppMessage::handshake(session_id, msg.encode());
            handshake_bytes += msg.wire_len();
            let t_ns = transfer_time_ns(app.wire_len(), &self.timing, &self.isotp);
            timeline.push(
                "bus",
                &format!("{} ({} B)", msg.step, msg.wire_len()),
                ns_to_ms(t_ns),
                EventKind::Transfer,
            );
            incoming = Some(msg);
            turn = 1 - turn;
        }

        let [bms, evcc] = sides;
        if !bms.is_established() || !evcc.is_established() {
            return Err(ProtocolError::Stalled);
        }

        // Device time under the variant's schedule (eqs. (5)–(8)),
        // plus the sequential bus transfers.
        let [bms_times, evcc_times] = [&bms, &evcc].map(|e| integrate(e.trace(), &self.ecu_device));
        let total_ms =
            timeline.transfer_ms() + pair_total(&bms_times, &evcc_times, pipelined_phases(kind));

        Ok(SessionReport {
            kind,
            total_ms,
            bus_ms: timeline.transfer_ms(),
            handshake_bytes,
            timeline,
            bms_key: bms.session_key()?,
            evcc_key: evcc.session_key()?,
        })
    }
}

/// Fig. 7-style labels for the processing that follows each step.
fn step_label(kind: ProtocolKind, step: &str, is_sender_setup: bool) -> String {
    let sts = matches!(
        kind,
        ProtocolKind::Sts | ProtocolKind::StsOptI | ProtocolKind::StsOptII
    );
    match (sts, step, is_sender_setup) {
        (true, "A1", true) => "Request gen. (XG gen.)".into(),
        (true, "A1", false) => "XG gen. & Sign. gen. (Derive Key)".into(),
        (true, "B1", false) => "Calc. Keys & Verify, Create and Enc. Sign.".into(),
        (true, "A2", false) => "Calc. PubK & Verify".into(),
        (true, "B2", false) => "ACK".into(),
        (false, "A1", true) => "Request gen.".into(),
        (false, "A1", false) => "Resp. Sign. gen.".into(),
        (false, "B1", false) => "Verify Resp., Derive Key & Sign. gen.".into(),
        (false, "A2", false) => "Verify Resp. & Derive Key".into(),
        (false, "B2", false) => "ACK".into(),
        _ => format!("{step} processing"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sts_vs_s_ecdsa_overhead_near_paper() {
        // Fig. 7: 3.257 s vs 2.677 s ⇒ +21.67 %. Our model lands in
        // the same band (~+25 % at the protocol level, slightly diluted
        // by shared bus/app overheads).
        let scenario = BmsScenario::new(7);
        let sts = scenario.run_handshake(ProtocolKind::Sts).unwrap();
        let se = scenario.run_handshake(ProtocolKind::SEcdsa).unwrap();
        let ratio = sts.total_ms / se.total_ms;
        assert!(ratio > 1.15 && ratio < 1.35, "ratio {ratio}");
        assert_eq!(sts.bms_key, sts.evcc_key);
    }

    #[test]
    fn bus_time_negligible() {
        // §V-C: "The CAN-FD transfer time over the physical link was
        // negligible (<1 ms)" per message; in total a handful of ms
        // against a 3.6 s handshake.
        let scenario = BmsScenario::new(8);
        let sts = scenario.run_handshake(ProtocolKind::Sts).unwrap();
        assert!(sts.bus_ms < 10.0);
        assert!(sts.bus_ms / sts.total_ms < 0.01);
    }

    #[test]
    fn handshake_bytes_match_table2() {
        let scenario = BmsScenario::new(9);
        assert_eq!(
            scenario
                .run_handshake(ProtocolKind::Sts)
                .unwrap()
                .handshake_bytes,
            491
        );
        assert_eq!(
            scenario
                .run_handshake(ProtocolKind::SEcdsa)
                .unwrap()
                .handshake_bytes,
            427
        );
        assert_eq!(
            scenario
                .run_handshake(ProtocolKind::Poramb)
                .unwrap()
                .handshake_bytes,
            820
        );
    }

    #[test]
    fn opt_variants_cut_total_not_timeline() {
        let scenario = BmsScenario::new(10);
        let sts = scenario.run_handshake(ProtocolKind::Sts).unwrap();
        let opt2 = scenario.run_handshake(ProtocolKind::StsOptII).unwrap();
        assert!(opt2.total_ms < sts.total_ms);
        // The sequential view is unchanged; only the schedule differs.
        assert!(opt2.timeline.total_ms() > opt2.total_ms);
    }

    #[test]
    fn all_protocols_complete() {
        let scenario = BmsScenario::new(11);
        for kind in ProtocolKind::ALL {
            let report = scenario.run_handshake(kind).unwrap();
            assert_eq!(report.bms_key, report.evcc_key, "{kind}");
            assert!(report.total_ms > 0.0);
        }
    }
}
