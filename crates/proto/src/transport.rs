//! Message-granularity transports between two handshake endpoints.
//!
//! A [`Transport`] carries one link's wire messages between the
//! [`crate::endpoint::Role::Initiator`] and the
//! [`crate::endpoint::Role::Responder`] with explicit virtual-time
//! latency, so a discrete-event scheduler can deliver each handshake
//! message as its own event instead of running a handshake to
//! completion in one step. Its one implementation is
//! `ecq_simnet::transport::CanLink`: one pair's messages routed through
//! the CAN-FD bus and ISO 15765-2 segmentation models with per-link
//! latency from the `ecq_devices` cost tables, which the `perfbench`
//! replay drives message by message.
//!
//! The fleet sweep engine does not use it: every event loop there owns
//! one `ecq_simnet::SharedBus`, and each session rides a slot of it.
//! The bus keeps each slot's deliveries in [`DirectionalQueues`].
//!
//! The contract every implementation upholds:
//!
//! 1. **Determinism** — delivery times are a pure function of the
//!    submitted messages and their timestamps; no wall clock, no
//!    randomness.
//! 2. **FIFO per direction** — messages from one role arrive in the
//!    order they were sent (a CAN link cannot reorder one sender's
//!    ISO-TP messages).
//! 3. **Positive progress** — `send_frame` never returns a time earlier
//!    than `now`, so an event scheduler driving the link always
//!    advances.
//! 4. **Fail closed** — a frame the link cannot carry or decode is
//!    surfaced as a typed [`TransportError`], never delivered partially
//!    and never panicked on.

use crate::endpoint::Role;
use crate::error::TransportError;
use crate::wire::Message;
use std::collections::VecDeque;

/// Virtual time in microseconds (the fleet scheduler's clock).
pub type TransportTime = u64;

/// A bidirectional link carrying wire messages between the two roles of
/// one handshake, with virtual-time delivery accounting.
///
/// The API is framed: one handshake [`Message`] in, one frame on the
/// link, one [`Message`] out. `ecq_simnet::transport::CanLink` returns
/// a typed [`TransportError`] if its bus ever loses a message.
pub trait Transport {
    /// Submits `message` from `from` at virtual time `now_us`. Returns
    /// the virtual time at which the peer can receive it.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] when the frame cannot be carried
    /// (encoding failure, oversized frame, a lost message).
    fn send_frame(
        &mut self,
        from: Role,
        message: Message,
        now_us: TransportTime,
    ) -> Result<TransportTime, TransportError>;

    /// Delivers the earliest message queued for `to` whose delivery
    /// time is `<= now_us`, or `Ok(None)` when nothing has arrived yet.
    ///
    /// `deadline_us` is the caller's receive deadline. It is advisory:
    /// no implementation blocks, so each returns `Ok(None)` when
    /// nothing is due at `now_us`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] when a frame arrives but cannot be
    /// decoded, or when the link itself fails.
    fn recv_frame(
        &mut self,
        to: Role,
        now_us: TransportTime,
        deadline_us: TransportTime,
    ) -> Result<Option<Message>, TransportError>;

    /// The earliest pending delivery time for `to`, if any message is
    /// in flight toward it.
    fn next_delivery(&self, to: Role) -> Option<TransportTime>;

    /// Link-layer frames moved so far (0 for transports that do not
    /// segment messages into frames).
    fn frames_carried(&self) -> u64 {
        0
    }
}

/// The per-direction FIFO delivery queues every transport
/// implementation shares. `push` clamps each delivery to no earlier
/// than the last one queued toward the same receiver, so the
/// FIFO-per-direction contract holds by construction even when a
/// transport's latency model would otherwise let a small late message
/// overtake a large earlier one.
#[derive(Debug, Default)]
pub struct DirectionalQueues {
    to_initiator: VecDeque<(TransportTime, Message)>,
    to_responder: VecDeque<(TransportTime, Message)>,
    /// Last queued delivery time per receiver (`[initiator, responder]`).
    floor: [TransportTime; 2],
}

fn receiver_index(receiver: Role) -> usize {
    match receiver {
        Role::Initiator => 0,
        Role::Responder => 1,
    }
}

impl DirectionalQueues {
    /// Empty queues.
    pub fn new() -> Self {
        Self::default()
    }

    fn queue_mut(&mut self, receiver: Role) -> &mut VecDeque<(TransportTime, Message)> {
        match receiver {
            Role::Initiator => &mut self.to_initiator,
            Role::Responder => &mut self.to_responder,
        }
    }

    fn queue(&self, receiver: Role) -> &VecDeque<(TransportTime, Message)> {
        match receiver {
            Role::Initiator => &self.to_initiator,
            Role::Responder => &self.to_responder,
        }
    }

    /// Queues a delivery toward `receiver`; returns the effective
    /// delivery time (clamped so one direction never reorders).
    pub fn push(&mut self, receiver: Role, at: TransportTime, message: Message) -> TransportTime {
        let idx = receiver_index(receiver);
        let at = at.max(self.floor[idx]);
        self.floor[idx] = at;
        self.queue_mut(receiver).push_back((at, message));
        at
    }

    /// Pops the earliest message for `receiver` that is due by `now`.
    pub fn pop_due(&mut self, receiver: Role, now: TransportTime) -> Option<Message> {
        let queue = self.queue_mut(receiver);
        match queue.front() {
            Some((at, _)) if *at <= now => queue.pop_front().map(|(_, m)| m),
            _ => None,
        }
    }

    /// The earliest pending delivery time for `receiver`.
    pub fn next_delivery(&self, receiver: Role) -> Option<TransportTime> {
        self.queue(receiver).front().map(|(at, _)| *at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FieldKind, WireField};

    fn msg(step: &'static str, byte: u8) -> Message {
        Message::new(step, vec![WireField::new(FieldKind::Ack, vec![byte])])
    }

    #[test]
    fn directions_are_independent() {
        let mut q = DirectionalQueues::new();
        q.push(Role::Responder, 0, msg("A1", 1));
        q.push(Role::Initiator, 0, msg("B1", 2));
        assert_eq!(q.pop_due(Role::Initiator, 0).unwrap().step, "B1");
        assert_eq!(q.pop_due(Role::Responder, 0).unwrap().step, "A1");
    }

    #[test]
    fn fifo_within_a_direction() {
        let mut q = DirectionalQueues::new();
        q.push(Role::Responder, 10, msg("A1", 1));
        q.push(Role::Responder, 15, msg("A2", 2));
        assert!(q.pop_due(Role::Responder, 9).is_none(), "not due yet");
        assert_eq!(q.pop_due(Role::Responder, 100).unwrap().step, "A1");
        assert_eq!(q.pop_due(Role::Responder, 100).unwrap().step, "A2");
        assert!(q.pop_due(Role::Responder, 100).is_none());
        assert_eq!(q.next_delivery(Role::Responder), None);
    }

    #[test]
    fn queues_clamp_out_of_order_deliveries() {
        // A latency model that would let a later, smaller message
        // overtake an earlier large one gets clamped to FIFO order.
        let mut q = DirectionalQueues::new();
        assert_eq!(q.push(Role::Responder, 500, msg("B1", 1)), 500);
        assert_eq!(q.push(Role::Responder, 200, msg("B2", 2)), 500);
        // The other direction is unaffected.
        assert_eq!(q.push(Role::Initiator, 200, msg("A1", 3)), 200);
        assert_eq!(q.next_delivery(Role::Responder), Some(500));
        assert_eq!(q.pop_due(Role::Responder, 500).unwrap().step, "B1");
        assert_eq!(q.pop_due(Role::Responder, 500).unwrap().step, "B2");
    }
}
