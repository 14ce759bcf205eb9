//! The two-party endpoint abstraction and handshake driver.
//!
//! * [`Endpoint`] — one side of a handshake, driven only through
//!   [`Endpoint::step`];
//! * [`EndpointCore`] — the role, op trace, session key and phase every
//!   state machine shares, with the fail-closed rules in one place;
//! * [`run_handshake`] — the run-to-completion driver, returning a
//!   [`SessionOutcome`].

use crate::error::ProtocolError;
use crate::session::{SessionKey, SESSION_KEY_LEN};
use crate::trace::{OpTrace, PrimitiveOp, StsPhase};
use crate::transcript::{LoggedMessage, Transcript};
use crate::wire::Message;
use ecq_crypto::zeroize::Zeroize;

/// The two handshake roles — the paper's ALICE (initiator) and BOB
/// (responder) of Fig. 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// The party that opens the session (ALICE / device A).
    Initiator,
    /// The party that answers (BOB / device B).
    Responder,
}

impl Role {
    /// The opposite role.
    pub fn peer(&self) -> Role {
        match self {
            Role::Initiator => Role::Responder,
            Role::Responder => Role::Initiator,
        }
    }

    /// The paper's step-label prefix for this role ("A" or "B").
    pub fn prefix(&self) -> &'static str {
        match self {
            Role::Initiator => "A",
            Role::Responder => "B",
        }
    }
}

/// What a poll-style endpoint asks of its driver after one step.
///
/// [`Endpoint::step`] advances the state machine one wire message at a
/// time: feed an incoming message (or `None` to kick off an
/// initiator), get back the transport action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutput {
    /// Hand this message to the transport for delivery to the peer.
    Send(Message),
    /// Nothing to send; the endpoint waits for the next incoming
    /// message.
    Wait,
    /// The handshake completed on this side and no further message is
    /// owed. (A side that completes *while* sending its last message
    /// reports `Send` first; the completion is visible through
    /// [`Endpoint::is_established`].)
    Established,
}

impl StepOutput {
    /// The message to send, if this step produced one.
    pub fn into_sent(self) -> Option<Message> {
        match self {
            StepOutput::Send(msg) => Some(msg),
            StepOutput::Wait | StepOutput::Established => None,
        }
    }
}

/// Where a handshake stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Running,
    Established,
    Failed,
}

/// The bookkeeping every [`Endpoint`] shares: its role, its op trace,
/// its session key and whether the handshake is running, established
/// or failed.
///
/// The core is where the fail-closed rules live, once for every state
/// machine. [`Endpoint::session_key`] releases the key only once the
/// handshake is established. [`Endpoint::step`] fails the core on any
/// error, and the core wipes the key when it fails; the key wipes
/// itself when the core drops (the node-capture row of Table III).
/// Both wipes zeroize the same 32 bytes whether or not a key was ever
/// derived, so they never branch on secret state.
#[derive(Debug)]
pub struct EndpointCore {
    role: Role,
    trace: OpTrace,
    key: SessionKey,
    keyed: bool,
    phase: Phase,
}

impl EndpointCore {
    /// A running core with an empty trace and no key.
    pub fn new(role: Role) -> Self {
        EndpointCore {
            role,
            trace: OpTrace::new(),
            key: SessionKey::from_bytes([0; SESSION_KEY_LEN]),
            keyed: false,
            phase: Phase::Running,
        }
    }

    /// Records a primitive in the op trace.
    pub fn record(&mut self, phase: StsPhase, op: PrimitiveOp) {
        self.trace.record(phase, op);
    }

    /// The op trace, for helpers that record into it.
    pub fn trace_mut(&mut self) -> &mut OpTrace {
        &mut self.trace
    }

    /// Stores the session key the handshake derived.
    pub fn set_key(&mut self, key: SessionKey) {
        self.key = key;
        self.keyed = true;
    }

    /// The derived key, for the state machine's own later steps
    /// (confirmation MACs, response checks). It is not yet
    /// authenticated; drivers read [`Endpoint::session_key`] instead.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnexpectedMessage`] when no key is held.
    pub fn derived_key(&self) -> Result<SessionKey, ProtocolError> {
        match (self.phase, self.keyed) {
            (Phase::Failed, _) | (_, false) => Err(ProtocolError::UnexpectedMessage),
            _ => Ok(self.key.clone()),
        }
    }

    /// Marks the handshake complete on this side.
    pub fn establish(&mut self) {
        self.phase = Phase::Established;
    }

    fn fail(&mut self) {
        self.key.zeroize();
        self.keyed = false;
        self.phase = Phase::Failed;
    }
}

/// A protocol endpoint: one side of a two-party key-derivation
/// handshake, driven one message at a time through [`Endpoint::step`].
///
/// A state machine supplies its [`EndpointCore`] and one protocol hook,
/// [`Endpoint::advance`]; every other method is provided on top of the
/// core, so all machines fail closed the same way.
pub trait Endpoint {
    /// The shared bookkeeping.
    fn core(&self) -> &EndpointCore;

    /// Mutable access to the shared bookkeeping.
    fn core_mut(&mut self) -> &mut EndpointCore;

    /// The protocol hook: runs the machine's next transition on a
    /// kickoff (`None`) or an incoming message and returns the reply,
    /// if any. [`Endpoint::step`] calls it only while the handshake is
    /// running; a transition that completes the handshake calls
    /// [`EndpointCore::establish`].
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] aborting the handshake (authentication
    /// failure, decode error, a message the current state does not
    /// expect).
    fn advance(&mut self, incoming: Option<&Message>) -> Result<Option<Message>, ProtocolError>;

    /// This endpoint's role.
    fn role(&self) -> Role {
        self.core().role
    }

    /// Whether the handshake has completed on this side.
    fn is_established(&self) -> bool {
        self.core().phase == Phase::Established
    }

    /// The derived session key.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotEstablished`] before completion and after a
    /// failure.
    fn session_key(&self) -> Result<SessionKey, ProtocolError> {
        let core = self.core();
        match (core.phase, core.keyed) {
            (Phase::Established, true) => Ok(core.key.clone()),
            _ => Err(ProtocolError::NotEstablished),
        }
    }

    /// The primitive-operation trace accumulated so far.
    fn trace(&self) -> &OpTrace {
        &self.core().trace
    }

    /// Advances the state machine by one message: `None` kicks off an
    /// initiator (a running responder answers [`StepOutput::Wait`]),
    /// `Some` feeds an incoming wire message. Every driver uses this
    /// method; [`run_handshake`] is a run-to-completion loop over it.
    ///
    /// A step on an established or failed endpoint is refused with
    /// [`ProtocolError::UnexpectedMessage`]. Any error leaves the
    /// endpoint failed, with its session key wiped.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] aborting the handshake.
    fn step(&mut self, incoming: Option<&Message>) -> Result<StepOutput, ProtocolError> {
        let outgoing = match self.core().phase {
            Phase::Running => self.advance(incoming),
            Phase::Established | Phase::Failed => Err(ProtocolError::UnexpectedMessage),
        };
        match outgoing {
            Ok(Some(msg)) => Ok(StepOutput::Send(msg)),
            Ok(None) if self.is_established() => Ok(StepOutput::Established),
            Ok(None) => Ok(StepOutput::Wait),
            Err(e) => {
                self.core_mut().fail();
                Err(e)
            }
        }
    }
}

/// Result of a completed handshake between two local endpoints.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Key derived by the initiator.
    pub initiator_key: SessionKey,
    /// Key derived by the responder (equal on success).
    pub responder_key: SessionKey,
    /// Full wire + trace transcript.
    pub transcript: Transcript,
}

/// Maximum message exchanges before the driver declares a stall.
const MAX_ROUNDS: usize = 16;

/// Drives a full handshake between two endpoints, alternating messages
/// until both report establishment, and returns both session keys with
/// the complete [`Transcript`] (messages with byte accounting + both op
/// traces).
///
/// This is the run-to-completion convenience driver: it is a plain loop
/// over [`Endpoint::step`], so its transcripts are byte-identical to
/// what a message-granularity scheduler produces when it delivers the
/// same messages one event at a time.
///
/// # Errors
///
/// Propagates endpoint errors; [`ProtocolError::Stalled`] if the
/// exchange exceeds an internal round budget without completing.
pub fn run_handshake(
    initiator: &mut dyn Endpoint,
    responder: &mut dyn Endpoint,
) -> Result<SessionOutcome, ProtocolError> {
    debug_assert_eq!(initiator.role(), Role::Initiator);
    debug_assert_eq!(responder.role(), Role::Responder);

    let mut messages = Vec::new();
    let mut pending = initiator.step(None)?.into_sent();
    let mut sender = Role::Initiator;

    let mut rounds = 0;
    while let Some(msg) = pending {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(ProtocolError::Stalled);
        }
        messages.push(LoggedMessage::from_message(sender, &msg));
        let receiver: &mut dyn Endpoint = match sender {
            Role::Initiator => responder,
            Role::Responder => initiator,
        };
        pending = receiver.step(Some(&msg))?.into_sent();
        sender = sender.peer();
    }

    if !initiator.is_established() || !responder.is_established() {
        return Err(ProtocolError::Stalled);
    }

    Ok(SessionOutcome {
        initiator_key: initiator.session_key()?,
        responder_key: responder.session_key()?,
        transcript: Transcript::new(
            messages,
            initiator.trace().clone(),
            responder.trace().clone(),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FieldKind, WireField};

    /// A minimal ping/pong endpoint pair for driver tests.
    struct PingPong {
        core: EndpointCore,
        hang: bool,
    }

    impl PingPong {
        fn new(role: Role, hang: bool) -> Self {
            PingPong {
                core: EndpointCore::new(role),
                hang,
            }
        }
    }

    impl Endpoint for PingPong {
        fn core(&self) -> &EndpointCore {
            &self.core
        }
        fn core_mut(&mut self) -> &mut EndpointCore {
            &mut self.core
        }
        fn advance(
            &mut self,
            incoming: Option<&Message>,
        ) -> Result<Option<Message>, ProtocolError> {
            let Some(msg) = incoming else {
                return Ok(match self.core.role {
                    Role::Initiator => {
                        self.core
                            .record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 1 });
                        Some(Message::new(
                            "A1",
                            vec![WireField::new(FieldKind::Ack, vec![1])],
                        ))
                    }
                    Role::Responder => None,
                });
            };
            if self.hang {
                // Echo forever: never establishes.
                return Ok(Some(msg.clone()));
            }
            if msg.field(FieldKind::Ack)? == [0xFF] {
                return Err(ProtocolError::AuthenticationFailed);
            }
            self.core
                .set_key(SessionKey::from_bytes([7; SESSION_KEY_LEN]));
            self.core.establish();
            Ok(match self.core.role {
                Role::Responder => Some(Message::new(
                    "B1",
                    vec![WireField::new(FieldKind::Ack, vec![2])],
                )),
                Role::Initiator => None,
            })
        }
    }

    fn ack(byte: u8) -> Message {
        Message::new("X", vec![WireField::new(FieldKind::Ack, vec![byte])])
    }

    #[test]
    fn driver_completes_pingpong() {
        let mut a = PingPong::new(Role::Initiator, false);
        let mut b = PingPong::new(Role::Responder, false);
        let outcome = run_handshake(&mut a, &mut b).unwrap();
        assert_eq!(outcome.transcript.messages().len(), 2);
        assert_eq!(outcome.transcript.total_bytes(), 2);
        assert_eq!(outcome.transcript.trace(Role::Initiator).len(), 1);
        assert_eq!(outcome.initiator_key, outcome.responder_key);
    }

    #[test]
    fn driver_detects_stall() {
        let mut a = PingPong::new(Role::Initiator, true);
        let mut b = PingPong::new(Role::Responder, true);
        assert_eq!(
            run_handshake(&mut a, &mut b).unwrap_err(),
            ProtocolError::Stalled
        );
    }

    #[test]
    fn step_machine_mirrors_callback_interface() {
        // `step` turns the hook's reply into the driver's action.
        let mut a = PingPong::new(Role::Initiator, false);
        let mut b = PingPong::new(Role::Responder, false);
        // Kickoff: the initiator's first step takes no message.
        let StepOutput::Send(a1) = a.step(None).unwrap() else {
            panic!("initiator must open with a message");
        };
        assert_eq!(b.step(None).unwrap(), StepOutput::Wait);
        // The responder replies and completes in the same step: Send
        // wins, completion shows through is_established().
        let StepOutput::Send(b1) = b.step(Some(&a1)).unwrap() else {
            panic!("responder must reply to A1");
        };
        assert!(b.is_established());
        assert_eq!(a.step(Some(&b1)).unwrap(), StepOutput::Established);
        assert!(a.is_established());
        assert_eq!(a.role(), Role::Initiator);
        assert_eq!(b.role(), Role::Responder);
    }

    #[test]
    fn key_is_released_only_once_established() {
        let mut core = EndpointCore::new(Role::Initiator);
        assert_eq!(
            core.derived_key().unwrap_err(),
            ProtocolError::UnexpectedMessage
        );
        core.set_key(SessionKey::from_bytes([7; SESSION_KEY_LEN]));
        let mut a = PingPong { core, hang: false };
        assert!(a.core().derived_key().is_ok());
        assert_eq!(a.session_key().unwrap_err(), ProtocolError::NotEstablished);
        a.core_mut().establish();
        assert_eq!(
            a.session_key().unwrap(),
            SessionKey::from_bytes([7; SESSION_KEY_LEN])
        );
    }

    #[test]
    fn an_error_fails_closed_and_wipes_the_key() {
        let mut b = PingPong::new(Role::Responder, false);
        b.core.set_key(SessionKey::from_bytes([7; SESSION_KEY_LEN]));
        assert_eq!(
            b.step(Some(&ack(0xFF))).unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
        assert!(!b.is_established());
        assert_eq!(b.core.key.as_bytes(), &[0; SESSION_KEY_LEN]);
        assert_eq!(b.session_key().unwrap_err(), ProtocolError::NotEstablished);
        assert!(b.core().derived_key().is_err());
        // A failed endpoint refuses every later step, kickoff included.
        assert_eq!(
            b.step(Some(&ack(1))).unwrap_err(),
            ProtocolError::UnexpectedMessage
        );
        assert_eq!(b.step(None).unwrap_err(), ProtocolError::UnexpectedMessage);
    }

    #[test]
    fn a_step_after_establishment_fails_closed() {
        let mut b = PingPong::new(Role::Responder, false);
        b.step(Some(&ack(1))).unwrap();
        assert!(b.session_key().is_ok());
        assert_eq!(b.step(None).unwrap_err(), ProtocolError::UnexpectedMessage);
        assert!(!b.is_established());
        assert_eq!(b.session_key().unwrap_err(), ProtocolError::NotEstablished);
        assert_eq!(b.core.key.as_bytes(), &[0; SESSION_KEY_LEN]);
    }

    #[test]
    fn role_helpers() {
        assert_eq!(Role::Initiator.peer(), Role::Responder);
        assert_eq!(Role::Responder.peer(), Role::Initiator);
        assert_eq!(Role::Initiator.prefix(), "A");
        assert_eq!(Role::Responder.prefix(), "B");
    }
}
