//! The endpoint contract, table-driven over all eight handshake state
//! machines (the STS pair and one initiator/responder pair each for
//! S-ECDSA, SCIANC and PORAMB) across every distinct wire format of
//! Table II. Every pair comes from `ecq_baselines::endpoints`, the
//! protocol table the production callers use.
//!
//! Every machine is driven only through `Endpoint::step`, and its
//! fail-closed rules live in the shared `EndpointCore`:
//!
//! * a responder answers a kickoff with `Wait`;
//! * an endpoint that holds its derived key but still waits for the
//!   peer fails closed on a malformed message: no establishment, no
//!   key, and every later message is refused;
//! * a repeated kickoff fails an initiator, so it refuses the honest
//!   reply that follows;
//! * an established endpoint refuses any further step and drops its key.

use dynamic_ecqv::baselines::endpoints;
use dynamic_ecqv::prelude::*;
use dynamic_ecqv::proto::{Endpoint, Message, ProtocolError, Role, StepOutput};
use std::collections::BTreeSet;

/// The type names of the two machines that implement `kind`.
fn machine_names(kind: ProtocolKind) -> [&'static str; 2] {
    match kind {
        ProtocolKind::Sts | ProtocolKind::StsOptI | ProtocolKind::StsOptII => {
            ["StsInitiator", "StsResponder"]
        }
        ProtocolKind::SEcdsa | ProtocolKind::SEcdsaExt => ["SEcdsaInitiator", "SEcdsaResponder"],
        ProtocolKind::Scianc => ["SciancInitiator", "SciancResponder"],
        ProtocolKind::Poramb => ["PorambInitiator", "PorambResponder"],
    }
}

/// One honest pair for `kind` from the protocol table, with the type
/// names of its two machines.
fn pair(
    kind: ProtocolKind,
    seed: u64,
) -> (Box<dyn Endpoint>, Box<dyn Endpoint>, [&'static str; 2]) {
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let a = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 1000, &mut rng).unwrap();
    let b = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 1000, &mut rng).unwrap();
    let (initiator, responder) = endpoints(kind, a, b, 0, &mut rng);
    (initiator, responder, machine_names(kind))
}

fn side<'a>(
    role: Role,
    initiator: &'a mut dyn Endpoint,
    responder: &'a mut dyn Endpoint,
) -> &'a mut dyn Endpoint {
    match role {
        Role::Initiator => initiator,
        Role::Responder => responder,
    }
}

/// The honest wire messages of one handshake, in order; message `k`
/// goes to the responder when `k` is even.
fn honest_messages(kind: ProtocolKind, seed: u64) -> Vec<Message> {
    let (mut a, mut b, _) = pair(kind, seed);
    let mut messages = Vec::new();
    let mut pending = a.step(None).unwrap().into_sent();
    let mut to = Role::Responder;
    while let Some(msg) = pending {
        pending = side(to, a.as_mut(), b.as_mut())
            .step(Some(&msg))
            .unwrap()
            .into_sent();
        messages.push(msg);
        to = to.peer();
    }
    assert!(a.is_established() && b.is_established(), "{kind}");
    messages
}

fn receiver_of(k: usize) -> Role {
    if k.is_multiple_of(2) {
        Role::Responder
    } else {
        Role::Initiator
    }
}

#[test]
fn responders_answer_a_kickoff_with_wait() {
    for kind in ProtocolKind::WIRE_DISTINCT {
        let (mut a, mut b, _) = pair(kind, 1);
        assert_eq!(b.step(None).unwrap(), StepOutput::Wait, "{kind}");
        // The kickoff leaves the responder running: the honest
        // handshake still completes with agreeing keys.
        let outcome = dynamic_ecqv::proto::run_handshake(a.as_mut(), b.as_mut()).unwrap();
        assert_eq!(outcome.initiator_key, outcome.responder_key, "{kind}");
    }
}

#[test]
fn a_keyed_endpoint_fails_closed_on_an_empty_message() {
    let mut covered = BTreeSet::new();
    for kind in ProtocolKind::WIRE_DISTINCT {
        let honest = honest_messages(kind, 2);
        for (k, next) in honest.iter().enumerate() {
            let (mut a, mut b, names) = pair(kind, 2);
            // Replay the honest prefix; the same seed gives the same bytes.
            assert_eq!(a.step(None).unwrap().into_sent().as_ref(), honest.first());
            for (j, msg) in honest[..k].iter().enumerate() {
                let reply = side(receiver_of(j), a.as_mut(), b.as_mut())
                    .step(Some(msg))
                    .unwrap()
                    .into_sent();
                assert_eq!(reply.as_ref(), honest.get(j + 1), "{kind} message {j}");
            }
            let to = receiver_of(k);
            let endpoint = side(to, a.as_mut(), b.as_mut());
            if endpoint.is_established() || endpoint.core().derived_key().is_err() {
                continue;
            }
            covered.insert(names[usize::from(to == Role::Responder)]);

            let empty = Message::new(next.step, Vec::new());
            assert!(
                endpoint.step(Some(&empty)).is_err(),
                "{kind} at {}",
                next.step
            );
            assert!(!endpoint.is_established(), "{kind} at {}", next.step);
            assert_eq!(
                endpoint.session_key().unwrap_err(),
                ProtocolError::NotEstablished,
                "{kind} at {}",
                next.step
            );
            assert!(endpoint.core().derived_key().is_err(), "key survived");
            assert_eq!(
                endpoint.step(Some(next)).unwrap_err(),
                ProtocolError::UnexpectedMessage,
                "{kind} at {}",
                next.step
            );
        }
    }
    assert_eq!(
        covered.len(),
        8,
        "machines reached holding a key: {covered:?}"
    );
}

#[test]
fn a_repeated_kickoff_fails_the_initiator_closed() {
    for kind in ProtocolKind::WIRE_DISTINCT {
        let (mut a, mut b, _) = pair(kind, 3);
        let a1 = a.step(None).unwrap().into_sent().expect("A1");
        assert_eq!(
            a.step(None).unwrap_err(),
            ProtocolError::UnexpectedMessage,
            "{kind}"
        );
        let b1 = b.step(Some(&a1)).unwrap().into_sent().expect("B1");
        assert_eq!(
            a.step(Some(&b1)).unwrap_err(),
            ProtocolError::UnexpectedMessage,
            "{kind}"
        );
        assert!(!a.is_established(), "{kind}");
    }
}

#[test]
fn an_established_endpoint_refuses_further_steps() {
    for kind in ProtocolKind::WIRE_DISTINCT {
        for role in [Role::Initiator, Role::Responder] {
            let (mut a, mut b, _) = pair(kind, 4);
            dynamic_ecqv::proto::run_handshake(a.as_mut(), b.as_mut()).unwrap();
            let endpoint = side(role, a.as_mut(), b.as_mut());
            assert!(endpoint.session_key().is_ok(), "{kind} {role:?}");
            assert_eq!(
                endpoint.step(None).unwrap_err(),
                ProtocolError::UnexpectedMessage,
                "{kind} {role:?}"
            );
            assert!(!endpoint.is_established(), "{kind} {role:?}");
            assert_eq!(
                endpoint.session_key().unwrap_err(),
                ProtocolError::NotEstablished,
                "{kind} {role:?}"
            );
        }
    }
}
