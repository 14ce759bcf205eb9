//! An `ecq_proto` transport over the simulated CAN-FD stack.
//!
//! [`CanLink`] carries one handshake's wire messages across the Fig. 6
//! stack. It is slot 0 of a private [`SharedBus`] under
//! [`FaultPlan::inert`], so a private link and an arbitrated, faulted
//! bus are one model: each [`Message`] is wrapped in the session-layer
//! [`AppMessage`](crate::app::AppMessage) header, segmented into CAN-FD
//! frames by the ISO 15765-2 layer, and the frames are *actually
//! routed* through the bus — so the two directions contend for the
//! medium, bus occupancy delays later messages, and every payload is
//! reassembled back from the delivered frames before the typed message
//! is handed to the receiver (a byte-level integrity check of the whole
//! path, every send).
//!
//! Per-link latency therefore has three components:
//!
//! 1. frame transmission time from the
//!    [`BitTiming`](crate::canfd::BitTiming) bit-level model (nominal +
//!    data phase, stuffing estimate),
//! 2. the ISO-TP flow-control round (one FC frame after the FF, plus
//!    STmin gaps when configured),
//! 3. per-frame driver overhead on each endpoint's board, taken from
//!    the `ecq_devices` cost tables ([`CanLink::for_pair`]): moving a
//!    64-byte frame through an ISR and a copy is charged as one SHA-256
//!    block time on that board — a deliberately small, board-scaled
//!    stand-in (the paper's point stands: transfer time is negligible
//!    against the EC arithmetic).
//!
//! The fleet sweep engine does not go through this link: every event
//! loop there owns one [`SharedBus`] directly, and a Simnet sweep is
//! bus group 1 under [`FaultPlan::inert`] — the same one-slot model as
//! this link. `CanLink` remains the `Transport` for callers that drive
//! one pair message by message, such as the `perfbench` replay.

use crate::fault::FaultPlan;
use crate::sharedbus::SharedBus;
use crate::{ms_to_ns, SimNanos};
use ecq_devices::DeviceProfile;
use ecq_proto::transport::{Transport, TransportTime};
use ecq_proto::{Message, Role, TransportError};

/// The link's one slot on its private bus.
const SLOT: usize = 0;

/// A point-to-point CAN-FD link between one handshake's initiator and
/// responder, implementing the `ecq_proto` [`Transport`] contract on
/// virtual microseconds.
#[derive(Debug)]
pub struct CanLink {
    bus: SharedBus,
}

impl CanLink {
    /// Creates a link with the paper's prototype bit timing, default
    /// ISO-TP parameters and no per-frame driver overhead.
    pub fn new(session_id: u16) -> Self {
        CanLink::with_overheads(session_id, [0, 0])
    }

    /// Creates a link whose per-frame driver overhead comes from the
    /// two endpoints' board cost tables (one SHA-256 block time per
    /// frame on each side — ISR plus copy).
    pub fn for_pair(session_id: u16, initiator: &DeviceProfile, responder: &DeviceProfile) -> Self {
        CanLink::with_overheads(
            session_id,
            [
                ms_to_ns(initiator.costs.hash_block_ms),
                ms_to_ns(responder.costs.hash_block_ms),
            ],
        )
    }

    fn with_overheads(session_id: u16, overhead_ns: [SimNanos; 2]) -> Self {
        // Slot 0 transmits on 0x100 (initiator, winning arbitration like
        // the opening ECU of the prototype) and 0x102 (responder).
        let mut bus = SharedBus::new(FaultPlan::inert());
        bus.add_slot(session_id, overhead_ns);
        CanLink { bus }
    }
}

impl Transport for CanLink {
    /// Pushes `message` through app-header encapsulation, ISO-TP
    /// segmentation and the bus, and drains the bus; the returned
    /// delivery time includes frame times, bus occupancy, the
    /// flow-control round and both boards' per-frame driver overhead.
    ///
    /// # Errors
    ///
    /// [`TransportError::Malformed`] if the delivered frames do not
    /// reassemble into the submitted message — a transport-stack bug,
    /// never an input condition, since the bus injects no faults.
    fn send_frame(
        &mut self,
        from: Role,
        message: Message,
        now_us: TransportTime,
    ) -> Result<TransportTime, TransportError> {
        self.bus.send(SLOT, from, message, now_us);
        let due = self.bus.process(TransportTime::MAX);
        // The schedule log is the shared bus's forensic record; a link
        // keeps no frames across sends.
        self.bus.take_frame_log();
        due.first()
            .map(|d| d.at_us)
            .ok_or(TransportError::Malformed)
    }

    fn recv_frame(
        &mut self,
        to: Role,
        now_us: TransportTime,
        _deadline_us: TransportTime,
    ) -> Result<Option<Message>, TransportError> {
        Ok(self.bus.recv(SLOT, to, now_us))
    }

    fn next_delivery(&self, to: Role) -> Option<TransportTime> {
        self.bus.next_delivery(SLOT, to)
    }

    /// CAN-FD data frames moved across the bus so far.
    fn frames_carried(&self) -> u64 {
        self.bus.slot_stats(SLOT).frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_proto::{FieldKind, WireField};

    fn sts_b1() -> Message {
        // The largest STS handshake message (245 B, Table II).
        Message::new(
            "B1",
            vec![
                WireField::new(FieldKind::Id, vec![7; 16]),
                WireField::new(FieldKind::Cert, vec![8; 101]),
                WireField::new(FieldKind::EphemeralPoint, vec![9; 64]),
                WireField::new(FieldKind::Response, vec![10; 64]),
            ],
        )
    }

    fn ack() -> Message {
        Message::new("B2", vec![WireField::new(FieldKind::Ack, vec![1])])
    }

    #[test]
    fn typed_message_survives_the_byte_path() {
        let mut link = CanLink::new(42);
        let msg = sts_b1();
        let at = link.send_frame(Role::Responder, msg.clone(), 0).unwrap();
        assert!(at > 0, "frame time must be positive");
        assert!(link
            .recv_frame(Role::Initiator, at - 1, at - 1)
            .unwrap()
            .is_none());
        assert_eq!(
            link.recv_frame(Role::Initiator, at, at).unwrap().unwrap(),
            msg
        );
        // 245 B + 4 B app header → FF + 3 CFs.
        assert_eq!(link.frames_carried(), 4);
    }

    #[test]
    fn largest_message_crosses_in_about_a_millisecond() {
        // The paper: CAN-FD transfer was "negligible (<1 ms)"; our
        // model with the FC round lands under 2 ms for the 245 B B1.
        let mut link = CanLink::new(1);
        let at = link.send_frame(Role::Responder, sts_b1(), 0).unwrap();
        assert!(at < 2_000, "B1 took {at} µs");
        let mut link = CanLink::new(1);
        let at = link.send_frame(Role::Responder, ack(), 0).unwrap();
        assert!(at < 500, "ACK took {at} µs");
    }

    #[test]
    fn bus_occupancy_serializes_directions() {
        let mut link = CanLink::new(1);
        let t1 = link.send_frame(Role::Initiator, sts_b1(), 0).unwrap();
        // Submitted while the bus is still moving the first message:
        // the second must wait for the medium.
        let mut exclusive = CanLink::new(1);
        let t2_alone = exclusive.send_frame(Role::Responder, sts_b1(), 0).unwrap();
        let t2_contended = link.send_frame(Role::Responder, sts_b1(), 0).unwrap();
        assert!(t2_contended > t2_alone);
        assert!(t2_contended > t1);
    }

    #[test]
    fn device_overhead_slows_the_link() {
        use ecq_devices::DevicePreset;
        let fast = DevicePreset::RaspberryPi4.profile();
        let slow = DevicePreset::ATmega2560.profile();
        let mut plain = CanLink::new(1);
        let mut loaded = CanLink::for_pair(1, &fast, &slow);
        let t_plain = plain.send_frame(Role::Initiator, sts_b1(), 0).unwrap();
        let t_loaded = loaded.send_frame(Role::Initiator, sts_b1(), 0).unwrap();
        assert!(t_loaded > t_plain);
    }

    #[test]
    fn small_message_cannot_overtake_a_large_one() {
        // The FC round and receiver overhead of a multi-frame message
        // are charged off-bus, so a single-frame message submitted
        // right behind it would otherwise compute an earlier delivery;
        // the queue clamps it to FIFO order.
        use ecq_devices::DevicePreset;
        let slow = DevicePreset::ATmega2560.profile();
        let mut link = CanLink::for_pair(1, &slow, &slow);
        let t_big = link.send_frame(Role::Initiator, sts_b1(), 0).unwrap();
        let t_small = link.send_frame(Role::Initiator, ack(), 0).unwrap();
        assert!(t_small >= t_big, "FIFO per direction: {t_small} < {t_big}");
        assert_eq!(
            link.recv_frame(Role::Responder, t_small, t_small)
                .unwrap()
                .unwrap()
                .step,
            "B1"
        );
        assert_eq!(
            link.recv_frame(Role::Responder, t_small, t_small)
                .unwrap()
                .unwrap()
                .step,
            "B2"
        );
    }

    #[test]
    fn link_is_deterministic() {
        let run = || {
            let mut link = CanLink::new(9);
            let a = link.send_frame(Role::Initiator, ack(), 10).unwrap();
            let b = link.send_frame(Role::Responder, sts_b1(), a).unwrap();
            (a, b)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fifo_and_next_delivery() {
        let mut link = CanLink::new(3);
        let t1 = link.send_frame(Role::Initiator, ack(), 0).unwrap();
        let t2 = link.send_frame(Role::Initiator, sts_b1(), t1).unwrap();
        assert_eq!(link.next_delivery(Role::Responder), Some(t1));
        assert_eq!(
            link.recv_frame(Role::Responder, t2, t2)
                .unwrap()
                .unwrap()
                .step,
            "B2"
        );
        assert_eq!(link.next_delivery(Role::Responder), Some(t2));
        assert_eq!(
            link.recv_frame(Role::Responder, t2, t2)
                .unwrap()
                .unwrap()
                .step,
            "B1"
        );
        assert_eq!(link.next_delivery(Role::Responder), None);
    }
    /// Runs a fixed script over `for_pair(initiator, responder)`: B1 and
    /// an ACK each way on an idle bus, then a B1 followed at the same
    /// instant by the peer's ACK, once in each direction (the ACK waits
    /// for the B1 to clear the bus).
    fn scripted_arrivals(
        initiator: ecq_devices::DevicePreset,
        responder: ecq_devices::DevicePreset,
    ) -> Vec<TransportTime> {
        let mut link = CanLink::for_pair(5, &initiator.profile(), &responder.profile());
        let script = [
            (Role::Responder, sts_b1(), 0),
            (Role::Initiator, ack(), 10_000),
            (Role::Initiator, sts_b1(), 20_000),
            (Role::Responder, ack(), 30_000),
            (Role::Initiator, sts_b1(), 40_000),
            (Role::Responder, ack(), 40_000),
            (Role::Responder, sts_b1(), 50_000),
            (Role::Initiator, ack(), 50_000),
        ];
        let arrivals = script
            .into_iter()
            .map(|(from, msg, now)| link.send_frame(from, msg, now).unwrap())
            .collect();
        assert!(
            link.bus.take_frame_log().is_empty(),
            "a link keeps no frame records across sends"
        );
        assert_eq!(link.frames_carried(), 4 * 5);
        arrivals
    }

    #[test]
    fn arrival_times_are_pinned() {
        // Exact virtual arrival times (µs) of the link model; a change
        // to arbitration, frame timing, the FC round or driver overhead
        // moves them.
        use ecq_devices::DevicePreset;
        assert_eq!(
            scripted_arrivals(DevicePreset::S32K144, DevicePreset::ATmega2560),
            [4334, 11080, 25211, 31080, 45211, 41699, 54334, 54972]
        );
        assert_eq!(
            scripted_arrivals(DevicePreset::RaspberryPi4, DevicePreset::Stm32F767),
            [1572, 10140, 21661, 30140, 41661, 41559, 51572, 51619]
        );
    }
}
