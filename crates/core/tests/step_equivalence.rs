//! Equivalence of the two ways to drive an STS handshake:
//!
//! 1. the poll-style [`Endpoint::step`] state machine fed through a
//!    virtual-time link with a fixed per-message latency,
//! 2. the [`run_handshake`] convenience driver.
//!
//! Both must produce byte-identical transcripts and the same session
//! key for identically seeded endpoints — the message-granular
//! scheduler path changes *when* messages move, never *what* they say.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_proto::{run_handshake, Credentials, Endpoint, Message, Role, SessionKey, StepOutput};
use ecq_sts::{StsConfig, StsInitiator, StsResponder, StsVariant};
use std::collections::VecDeque;

fn endpoints(seed: u64, variant: StsVariant) -> (StsInitiator, StsResponder) {
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let a = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 1000, &mut rng).unwrap();
    let b = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 1000, &mut rng).unwrap();
    let config = StsConfig { now: 0, variant };
    let mut rng_a = HmacDrbg::new(&rng.bytes32(), b"sts-initiator");
    let mut rng_b = HmacDrbg::new(&rng.bytes32(), b"sts-responder");
    (
        StsInitiator::new(a, config, &mut rng_a),
        StsResponder::new(b, config, &mut rng_b),
    )
}

/// The run-to-completion driver's wire bytes and initiator key.
fn drive_to_completion(
    alice: &mut StsInitiator,
    bob: &mut StsResponder,
) -> (Vec<Vec<u8>>, SessionKey) {
    let outcome = run_handshake(alice, bob).unwrap();
    assert_eq!(outcome.initiator_key, outcome.responder_key);
    let wire = outcome
        .transcript
        .messages()
        .iter()
        .map(|m| m.bytes.clone())
        .collect();
    (wire, outcome.initiator_key)
}

/// The message-granularity driver: every `step` output is queued on a
/// link with a fixed latency, and each delivery is consumed at its own
/// virtual timestamp.
fn drive_transport(
    alice: &mut StsInitiator,
    bob: &mut StsResponder,
    latency_us: u64,
) -> (Vec<Vec<u8>>, SessionKey, u64) {
    // In flight: (delivery time, receiver, message).
    let mut link: VecDeque<(u64, Role, Message)> = VecDeque::new();
    let mut wire = Vec::new();
    let mut now = 0u64;

    let StepOutput::Send(a1) = alice.step(None).unwrap() else {
        panic!("initiator must open");
    };
    wire.push(a1.encode());
    link.push_back((now + latency_us, Role::Responder, a1));

    while let Some((at, to, msg)) = link.pop_front() {
        now = at;
        let endpoint: &mut dyn Endpoint = match to {
            Role::Initiator => &mut *alice,
            Role::Responder => &mut *bob,
        };
        if let StepOutput::Send(reply) = endpoint.step(Some(&msg)).unwrap() {
            wire.push(reply.encode());
            link.push_back((now + latency_us, to.peer(), reply));
        }
    }
    assert!(alice.is_established() && bob.is_established());
    (wire, alice.session_key().unwrap(), now)
}

#[test]
fn step_transcripts_match_run_to_completion_bytes() {
    for variant in [
        StsVariant::Conventional,
        StsVariant::OptimizationI,
        StsVariant::OptimizationII,
    ] {
        for seed in [1u64, 2, 99, 0xFEED] {
            let (mut a1, mut b1) = endpoints(seed, variant);
            let (old_wire, old_key) = drive_to_completion(&mut a1, &mut b1);

            let (mut a2, mut b2) = endpoints(seed, variant);
            let (new_wire, new_key, end) = drive_transport(&mut a2, &mut b2, 1500);

            assert_eq!(old_wire, new_wire, "seed {seed}: bytes must be identical");
            assert_eq!(old_key, new_key, "seed {seed}: keys must agree");
            // 4 messages × 1.5 ms of link latency actually elapsed.
            assert!(end >= 4 * 1500);
        }
    }
}

#[test]
fn run_handshake_driver_matches_both() {
    let (mut a1, mut b1) = endpoints(7, StsVariant::Conventional);
    let outcome = run_handshake(&mut a1, &mut b1).unwrap();
    let driver_wire: Vec<Vec<u8>> = outcome
        .transcript
        .messages()
        .iter()
        .map(|m| m.bytes.clone())
        .collect();

    let (mut a2, mut b2) = endpoints(7, StsVariant::Conventional);
    let (manual_wire, key, _) = drive_transport(&mut a2, &mut b2, 0);
    assert_eq!(driver_wire, manual_wire);
    assert_eq!(outcome.initiator_key, key);
    assert_eq!(a1.session_key().unwrap(), key);
    assert_eq!(outcome.transcript.total_bytes(), 491); // Table II
}

#[test]
fn latency_does_not_change_bytes() {
    let runs: Vec<Vec<Vec<u8>>> = [0u64, 10, 100_000]
        .iter()
        .map(|&lat| {
            let (mut a, mut b) = endpoints(31, StsVariant::Conventional);
            drive_transport(&mut a, &mut b, lat).0
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}
