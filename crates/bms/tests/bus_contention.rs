//! Bus-level integration: handshake frames share the CAN-FD bus with
//! higher-priority battery telemetry, exercising arbitration and
//! occupancy accounting.

use ecq_bms::BmsScenario;
use ecq_proto::{FieldKind, Message, ProtocolKind, Role, WireField};
use ecq_simnet::isotp::{segment, IsoTpConfig};
use ecq_simnet::{BabbleSpec, FaultPlan, FaultSpec, SharedBus};

/// Telemetry uses a lower CAN id (higher priority) than the handshake,
/// which the initiator of bus slot 0 sends on `0x100`.
const TELEMETRY_ID: u16 = 0x050;
const HANDSHAKE_ID: u16 = 0x100;

#[test]
fn handshake_frames_yield_to_priority_telemetry() {
    let scenario = BmsScenario::new(0xB05);
    let report = scenario.run_handshake(ProtocolKind::Sts).unwrap();

    // Three 8-byte telemetry frames, ready within the first 3 µs, play
    // a babbling node on a bus where a B1-sized handshake message
    // (245 B: FF + 3 CFs) is submitted at the same instant.
    let telemetry = BabbleSpec {
        id: TELEMETRY_ID,
        start_us: 0,
        end_us: 3,
        period_us: 1,
        payload_len: 8,
    };
    let spec = FaultSpec {
        babble: Some(telemetry),
        ..FaultSpec::none()
    };
    let mut bus = SharedBus::new(FaultPlan::new(spec, 0));
    let slot = bus.add_slot(0, [0, 0]);
    let b1 = Message::new(
        "B1",
        vec![
            WireField::new(FieldKind::Id, vec![0xAB; 16]),
            WireField::new(FieldKind::Cert, vec![0xAB; 101]),
            WireField::new(FieldKind::EphemeralPoint, vec![0xAB; 64]),
            WireField::new(FieldKind::Response, vec![0xAB; 64]),
        ],
    );
    bus.send(slot, Role::Initiator, b1.clone(), 0);
    let mut due = Vec::new();
    while let Some(at) = bus.next_activity_us() {
        due.extend(bus.process(at));
    }

    let log = bus.take_frame_log();
    assert_eq!(log.len(), 4 + 3);
    // All telemetry wins arbitration over every handshake frame that
    // was simultaneously pending.
    let first_three: Vec<u16> = log.iter().take(3).map(|r| r.id).collect();
    assert_eq!(first_three, vec![TELEMETRY_ID; 3]);
    assert!(log.iter().skip(3).all(|r| r.id == HANDSHAKE_ID));
    assert_eq!(bus.counters().storm_frames, 3);
    // The handshake still completes afterwards, strictly serialized.
    let mut last = 0;
    for r in &log {
        assert!(r.start_ns >= last && r.completed_ns > r.start_ns);
        last = r.completed_ns;
    }
    assert_eq!(due.len(), 1);
    assert_eq!(bus.recv(slot, Role::Responder, due[0].at_us), Some(b1));

    // Occupancy sanity: the entire contended exchange still fits in
    // ~3 ms of bus time — invisible next to the 3.6 s handshake.
    assert!(last < 3_000_000, "{last}");
    assert!(report.total_ms > 1000.0);
}

#[test]
fn corrupted_handshake_frame_detected_at_transport() {
    // Failure injection: a bit flip inside a consecutive frame's PCI
    // produces a sequence error at the receiver, not silent corruption.
    use ecq_simnet::isotp::{IsoTpError, Reassembler};
    let config = IsoTpConfig::default();
    let frames = segment(&vec![0x42; 300], &config).unwrap();
    let mut r = Reassembler::new();
    r.accept(&frames[0]).unwrap();
    let mut corrupted = frames[1].clone();
    corrupted.payload[0] ^= 0x01; // flips the CF sequence number
    assert_eq!(r.accept(&corrupted).unwrap_err(), IsoTpError::SequenceError);
}

#[test]
fn corrupted_handshake_payload_detected_at_protocol() {
    // A payload corruption that survives the transport layer must be
    // caught by the protocol's authentication (bit flip inside Resp_B).
    use ecq_crypto::HmacDrbg;
    use ecq_proto::{Endpoint as _, FieldKind, ProtocolError};
    use ecq_sts::{StsConfig, StsInitiator, StsResponder};

    let scenario = BmsScenario::new(0xC0);
    let (bms, evcc) = scenario.provision().unwrap();
    let mut rng_a = HmacDrbg::from_seed(1);
    let mut rng_b = HmacDrbg::from_seed(2);
    let cfg = StsConfig {
        now: 10,
        ..StsConfig::default()
    };
    let mut alice = StsInitiator::new(bms, cfg, &mut rng_a);
    let mut bob = StsResponder::new(evcc, cfg, &mut rng_b);
    let a1 = alice.step(None).unwrap().into_sent().unwrap();
    let mut b1 = bob.step(Some(&a1)).unwrap().into_sent().unwrap();
    for f in &mut b1.fields {
        if f.kind == FieldKind::Response {
            f.bytes[30] ^= 0x10;
        }
    }
    assert_eq!(
        alice.step(Some(&b1)).unwrap_err(),
        ProtocolError::AuthenticationFailed
    );
}
