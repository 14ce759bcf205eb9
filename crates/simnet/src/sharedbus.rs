//! The crate's one CAN-FD bus model: deterministic arbitration, the
//! ISO-TP delivery formula and fault injection.
//!
//! [`SharedBus`] carries one or many sessions' ISO-TP traffic over a
//! single arbitrated medium, processed incrementally so an external
//! event loop can interleave bus time with endpoint compute:
//!
//! * every session gets a **slot** with its own arbitration-id block
//!   (`0x100 + 4·slot`), so earlier slots win arbitration exactly like
//!   lower-ID ECUs on a bench harness;
//! * [`SharedBus::send`] segments a typed handshake [`Message`] and
//!   queues its frames with sender-side driver overhead and any
//!   fault-plan effects (drop/corrupt/duplicate/hold-back/delay/
//!   replay/skew) already decided — decisions are pure functions of
//!   `(spec.seed, bus id, sequence numbers)`, so the schedule is
//!   reproducible for any caller interleaving;
//! * [`SharedBus::process`] advances arbitration up to a virtual time:
//!   whenever the bus is free, the lowest-ID ready frame (ties by
//!   submission order) transmits and occupies the medium — including
//!   frames from a babbling node, which are counted and discarded;
//! * reassembled payloads are matched back to the *typed* message that
//!   produced them: byte-identical payloads deliver the original
//!   message, corrupted-but-well-formed payloads are re-decoded
//!   through the original field layout (so corruption surfaces as the
//!   protocol-level error the paper predicts, e.g. a bad `Resp` fails
//!   authentication), and everything else — truncated reassembly,
//!   sequence errors, PCI damage — is counted and *lost*, never
//!   misdelivered.
//!
//! Every transmitted frame is appended to a [`FrameRecord`] log; the
//! fleet layer pins a two-session interleaving of this log as a golden
//! fixture.
//!
//! One pair alone is the one-slot case under [`FaultPlan::inert`]. The
//! fleet sweep engine gives every event loop one bus, and a Simnet
//! sweep is bus group 1 under that inert plan;
//! [`CanLink`](crate::CanLink) wraps the same case behind the
//! `ecq_proto` transport trait, draining the bus after every send.

use crate::app::AppMessage;
use crate::canfd::{BitTiming, CanFdFrame, MAX_PAYLOAD};
use crate::fault::{FaultAction, FaultPlan, FrameFate};
use crate::isotp::{flow_control_frame, segment, IsoTpConfig, Reassembler};
use crate::SimNanos;
use ecq_proto::transport::{DirectionalQueues, TransportTime};
use ecq_proto::{FieldKind, Message, Role};
use std::collections::BTreeMap;

/// Marks the replayed copy of a message in the pending-message keyspace.
const REPLAY_BIT: u64 = 1 << 63;

fn role_index(role: Role) -> usize {
    match role {
        Role::Initiator => 0,
        Role::Responder => 1,
    }
}

/// A delivery that became due during [`SharedBus::process`]: the typed
/// message is queued on the slot's receive queue and can be read with
/// [`SharedBus::recv`] from `at_us` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryDue {
    /// Bus slot the message belongs to.
    pub slot: usize,
    /// Receiving role.
    pub to: Role,
    /// Virtual delivery time, µs.
    pub at_us: TransportTime,
}

/// One transmitted frame in the bus schedule log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameRecord {
    /// Bus-wide submission sequence number.
    pub seq: u64,
    /// Arbitration identifier.
    pub id: u16,
    /// Originating slot (`None` for babble-storm frames).
    pub slot: Option<usize>,
    /// Sending role (`None` for babble-storm frames).
    pub sender: Option<Role>,
    /// N_PDU kind (`SF`/`FF`/`CF`) or `RAW` for storm frames.
    pub kind: &'static str,
    /// What the fault engine did to the frame.
    pub fate: &'static str,
    /// Transmission start, ns.
    pub start_ns: SimNanos,
    /// Transmission end, ns.
    pub completed_ns: SimNanos,
}

/// Aggregate fault-engine activity, summed into the fleet report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Frames transmitted but discarded by the receiver.
    pub dropped: u64,
    /// Frames delivered with a corrupted payload byte.
    pub corrupted: u64,
    /// Extra frame copies injected by duplication.
    pub duplicated: u64,
    /// Frames whose readiness was deferred past their successors.
    pub held_back: u64,
    /// Messages shifted whole by the delay class.
    pub delayed: u64,
    /// Messages retransmitted in full by a replay fault.
    pub replayed: u64,
    /// Babble frames that occupied the bus.
    pub storm_frames: u64,
    /// ISO-TP reassembly errors observed at receivers.
    pub isotp_errors: u64,
    /// Messages sent but never delivered (final accounting — only
    /// meaningful once the bus has drained).
    pub messages_lost: u64,
}

impl std::ops::AddAssign for FaultCounters {
    /// Sums another bus's counters into these, class by class.
    fn add_assign(&mut self, other: Self) {
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.held_back += other.held_back;
        self.delayed += other.delayed;
        self.replayed += other.replayed;
        self.storm_frames += other.storm_frames;
        self.isotp_errors += other.isotp_errors;
        self.messages_lost += other.messages_lost;
    }
}

/// Per-slot traffic totals: one session's share of the bus, read back
/// into its fleet report line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Typed messages submitted by the session's endpoints.
    pub messages: u64,
    /// Payload bytes of those messages.
    pub bytes: u64,
    /// Data frames queued for them (excluding fault-injected copies).
    pub frames: u64,
}

/// A typed message awaiting reassembly confirmation at the receiver.
#[derive(Debug)]
struct PendingTyped {
    original: Message,
    encoded: Vec<u8>,
    frames: u64,
}

/// One frame queued for (or awaiting) bus arbitration.
#[derive(Debug)]
struct QueuedFrame {
    ready_ns: SimNanos,
    seq: u64,
    frame: CanFdFrame,
    origin: Option<FrameOrigin>,
    fate: FrameFate,
    kind: &'static str,
}

#[derive(Clone, Copy, Debug)]
struct FrameOrigin {
    slot: usize,
    sender: Role,
    msg_key: u64,
}

#[derive(Debug)]
struct SlotState {
    session_id: u16,
    /// ISO-TP configs per *sending* role.
    isotp: [IsoTpConfig; 2],
    /// Per-frame driver overhead per role, ns.
    overhead_ns: [SimNanos; 2],
    /// Reassemblers per *receiving* role.
    reassembler: [Reassembler; 2],
    /// In-flight typed messages per *receiving* role, keyed by the
    /// per-direction message counter.
    pending_typed: [BTreeMap<u64, PendingTyped>; 2],
    /// The message key the receiver's reassembler is currently working
    /// on (set by the SF/FF that opened it).
    current_key: [Option<u64>; 2],
    /// Messages sent per direction (also the next message key).
    msg_seq: [u64; 2],
    queues: DirectionalQueues,
    stats: SlotStats,
    delivered: u64,
}

/// The shared, fault-injected, incrementally processed CAN-FD bus.
#[derive(Debug)]
pub struct SharedBus {
    plan: FaultPlan,
    timing: BitTiming,
    slots: Vec<SlotState>,
    pending: Vec<QueuedFrame>,
    busy_until_ns: SimNanos,
    next_seq: u64,
    /// Bus-wide message counter (the delay-class dice key).
    msg_counter: u64,
    counters: FaultCounters,
    log: Vec<FrameRecord>,
}

impl SharedBus {
    /// Creates a bus under `plan`, materializing any babble-storm
    /// frames up front (they contend for arbitration like any node).
    ///
    /// # Panics
    ///
    /// Panics when the babble spec names an id outside 11 bits, a
    /// payload above 64 bytes, or a zero period over a non-empty
    /// window.
    pub fn new(plan: FaultPlan) -> Self {
        let mut bus = SharedBus {
            plan,
            timing: BitTiming::default(),
            slots: Vec::new(),
            pending: Vec::new(),
            busy_until_ns: 0,
            next_seq: 0,
            msg_counter: 0,
            counters: FaultCounters::default(),
            log: Vec::new(),
        };
        if let Some(b) = plan.spec().babble {
            assert!(b.id < 0x800, "babble id must fit 11 bits");
            assert!(b.payload_len <= MAX_PAYLOAD, "babble payload too large");
            assert!(
                b.period_us > 0 || b.start_us >= b.end_us,
                "babble period must be positive"
            );
            let payload = vec![0x55u8; b.payload_len];
            let mut t = b.start_us;
            while t < b.end_us {
                let seq = bus.next_seq;
                bus.next_seq += 1;
                bus.pending.push(QueuedFrame {
                    ready_ns: t.saturating_mul(1_000),
                    seq,
                    frame: CanFdFrame::new(b.id, &payload),
                    origin: None,
                    fate: FrameFate::Deliver,
                    kind: "RAW",
                });
                t += b.period_us;
            }
        }
        bus
    }

    /// Sessions one bus can carry: slot `s` takes the 4-id arbitration
    /// block at `0x100 + 4·s`, and the blocks must fit the 11-bit id
    /// space.
    pub const MAX_SLOTS: usize = (0x800 - 0x100) / 4;

    /// Registers a session on the bus; returns its slot index. Each
    /// slot gets a 4-id arbitration block at `0x100 + 4·slot`
    /// (initiator data/FC, responder data/FC), so slot order is
    /// arbitration priority.
    ///
    /// # Panics
    ///
    /// Panics when the bus already holds [`Self::MAX_SLOTS`] sessions.
    pub fn add_slot(&mut self, session_id: u16, overhead_ns: [SimNanos; 2]) -> usize {
        let slot = self.slots.len();
        assert!(slot < Self::MAX_SLOTS, "arbitration id space exhausted");
        let base = 0x100u16 + 4 * slot as u16;
        self.slots.push(SlotState {
            session_id,
            isotp: [
                IsoTpConfig {
                    tx_id: base,
                    fc_id: base + 3,
                    ..IsoTpConfig::default()
                },
                IsoTpConfig {
                    tx_id: base + 2,
                    fc_id: base + 1,
                    ..IsoTpConfig::default()
                },
            ],
            overhead_ns,
            reassembler: [Reassembler::new(), Reassembler::new()],
            pending_typed: [BTreeMap::new(), BTreeMap::new()],
            current_key: [None, None],
            msg_seq: [0, 0],
            queues: DirectionalQueues::new(),
            stats: SlotStats::default(),
            delivered: 0,
        });
        slot
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Submits a typed handshake message from `from` on `slot` at
    /// virtual time `now_us`. Frames are queued for arbitration with
    /// all fault-plan effects applied; deliveries surface later from
    /// [`SharedBus::process`]. Nothing is queued for an unregistered
    /// slot. A message too long for ISO-TP counts as sent and is never
    /// delivered, so its session times out.
    pub fn send(&mut self, slot: usize, from: Role, message: Message, now_us: TransportTime) {
        let tx = role_index(from);
        let rx = role_index(from.peer());
        let Some(state) = self.slots.get_mut(slot) else {
            return;
        };
        state.stats.messages += 1;
        state.stats.bytes += message.wire_len() as u64;
        let encoded = message.encode();
        let payload = AppMessage::handshake(state.session_id, encoded.clone()).encode();
        let Ok(frames) = segment(&payload, &state.isotp[tx]) else {
            return;
        };
        state.stats.frames += frames.len() as u64;
        let tx_overhead = state.overhead_ns[tx];
        let msg_index = state.msg_seq[tx];
        state.msg_seq[tx] += 1;
        let bus_msg = self.msg_counter;
        self.msg_counter += 1;

        let now_ns = now_us.saturating_mul(1_000);
        let delay = self.plan.message_delay_ns(bus_msg);
        if delay > 0 {
            self.counters.delayed += 1;
        }
        let base_ns = now_ns + delay + self.plan.skew_delay_ns(from, now_ns);

        let replay = self.plan.replay_delay_ns(slot, from, msg_index as usize);
        if replay.is_some() {
            self.counters.replayed += 1;
            state.pending_typed[rx].insert(
                msg_index | REPLAY_BIT,
                PendingTyped {
                    original: message.clone(),
                    encoded: encoded.clone(),
                    frames: frames.len() as u64,
                },
            );
        }
        state.pending_typed[rx].insert(
            msg_index,
            PendingTyped {
                original: message,
                encoded,
                frames: frames.len() as u64,
            },
        );

        for (k, frame) in frames.iter().enumerate() {
            let seq = self.alloc_seq();
            let mut ready = base_ns + tx_overhead * (k as SimNanos + 1);
            let mut fate = self.plan.frame_fate(seq);
            let mut duplicate = self.plan.duplicates(seq);
            let hold = self.plan.hold_back_ns(seq);
            if hold > 0 {
                self.counters.held_back += 1;
                ready += hold;
            }
            match self.plan.targeted(slot, from, msg_index as usize, k) {
                Some(FaultAction::Drop) => fate = FrameFate::Drop,
                Some(FaultAction::Corrupt { offset }) => fate = FrameFate::Corrupt { offset },
                Some(FaultAction::Duplicate) => duplicate = true,
                Some(FaultAction::HoldBack { ns }) => {
                    self.counters.held_back += 1;
                    ready += ns;
                }
                // Message-level actions are excluded by `targeted`.
                Some(FaultAction::ReplayMessage { .. }) | None => {}
            }
            let kind = pci_kind(frame);
            let origin = Some(FrameOrigin {
                slot,
                sender: from,
                msg_key: msg_index,
            });
            self.pending.push(QueuedFrame {
                ready_ns: ready,
                seq,
                frame: frame.clone(),
                origin,
                fate,
                kind,
            });
            if duplicate {
                self.counters.duplicated += 1;
                let seq = self.alloc_seq();
                self.pending.push(QueuedFrame {
                    ready_ns: ready,
                    seq,
                    frame: frame.clone(),
                    origin,
                    fate: FrameFate::Deliver,
                    kind,
                });
            }
        }
        if let Some(replay_ns) = replay {
            for (k, frame) in frames.iter().enumerate() {
                let seq = self.alloc_seq();
                self.pending.push(QueuedFrame {
                    ready_ns: base_ns + tx_overhead * (k as SimNanos + 1) + replay_ns,
                    seq,
                    frame: frame.clone(),
                    origin: Some(FrameOrigin {
                        slot,
                        sender: from,
                        msg_key: msg_index | REPLAY_BIT,
                    }),
                    fate: FrameFate::Deliver,
                    kind: pci_kind(frame),
                });
            }
        }
    }

    /// Advances bus arbitration up to `now_us`: while the medium is
    /// free before `now`, the lowest-ID ready frame (ties broken by
    /// submission order) transmits and occupies it. Returns the typed
    /// deliveries that completed.
    pub fn process(&mut self, now_us: TransportTime) -> Vec<DeliveryDue> {
        let now_ns = now_us.saturating_mul(1_000);
        let mut due = Vec::new();
        while let Some(min_ready) = self.pending.iter().map(|f| f.ready_ns).min() {
            let start = min_ready.max(self.busy_until_ns);
            if start > now_ns {
                break;
            }
            // The min-ready frame always qualifies.
            let Some(winner) = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, f)| f.ready_ns <= start)
                .min_by_key(|(_, f)| (f.frame.id, f.seq))
                .map(|(i, _)| i)
            else {
                break;
            };
            let queued = self.pending.remove(winner);
            let completed = start + queued.frame.frame_time_ns(&self.timing);
            self.busy_until_ns = completed;
            self.log.push(FrameRecord {
                seq: queued.seq,
                id: queued.frame.id,
                slot: queued.origin.map(|o| o.slot),
                sender: queued.origin.map(|o| o.sender),
                kind: queued.kind,
                fate: fate_label(&queued),
                start_ns: start,
                completed_ns: completed,
            });
            match queued.origin {
                None => self.counters.storm_frames += 1,
                Some(origin) => match queued.fate {
                    FrameFate::Drop => self.counters.dropped += 1,
                    fate => {
                        let mut frame = queued.frame;
                        if let FrameFate::Corrupt { offset } = fate {
                            frame.corrupt_byte(offset);
                            self.counters.corrupted += 1;
                        }
                        if let Some(d) = self.feed(origin, &frame, completed) {
                            due.push(d);
                        }
                    }
                },
            }
        }
        due
    }

    /// Feeds one transmitted frame to its receiver's reassembler and,
    /// on message completion, resolves the bytes back to a typed
    /// message (original, re-decoded-corrupt, or lost).
    fn feed(
        &mut self,
        origin: FrameOrigin,
        frame: &CanFdFrame,
        completed_ns: SimNanos,
    ) -> Option<DeliveryDue> {
        let receiver = origin.sender.peer();
        let rx = role_index(receiver);
        let slot = self.slots.get_mut(origin.slot)?;
        // An SF/FF names the in-flight message the reassembler is now
        // working on; CFs inherit it. A scrambled interleaving (frame
        // of message N landing mid-reassembly of message N+1) shows up
        // as a reassembly error below, never as a misdelivery.
        if let Some(&pci) = frame.payload.first() {
            if matches!(pci >> 4, 0x0 | 0x1) {
                slot.current_key[rx] = Some(origin.msg_key);
            }
        }
        match slot.reassembler[rx].accept(frame) {
            Err(_) => {
                slot.current_key[rx] = None;
                self.counters.isotp_errors += 1;
                None
            }
            Ok(None) => None,
            Ok(Some(payload)) => {
                let key = slot.current_key[rx].take()?;
                let entry = slot.pending_typed[rx].remove(&key)?;
                let app = AppMessage::decode(&payload)?;
                let message = if app.data == entry.encoded {
                    entry.original
                } else if app.data.len() == entry.encoded.len() {
                    // Well-formed but corrupted: rebuild through the
                    // original field layout so the damage surfaces at
                    // the protocol layer (bad Resp → auth failure).
                    let kinds: Vec<FieldKind> =
                        entry.original.fields.iter().map(|f| f.kind).collect();
                    Message::decode(entry.original.step, &kinds, &app.data).ok()?
                } else {
                    return None;
                };
                let cfg = slot.isotp[role_index(origin.sender)];
                let mut last = completed_ns;
                if entry.frames > 1 {
                    last += flow_control_frame(&cfg).frame_time_ns(&self.timing);
                    last += cfg.st_min_us as SimNanos * 1_000 * (entry.frames - 1);
                }
                last += slot.overhead_ns[rx] * entry.frames;
                let at = slot.queues.push(receiver, last.div_ceil(1_000), message);
                slot.delivered += 1;
                Some(DeliveryDue {
                    slot: origin.slot,
                    to: receiver,
                    at_us: at,
                })
            }
        }
    }

    /// Delivers the earliest queued message for `(slot, to)` due by
    /// `now_us` (none for an unregistered slot).
    pub fn recv(&mut self, slot: usize, to: Role, now_us: TransportTime) -> Option<Message> {
        self.slots.get_mut(slot)?.queues.pop_due(to, now_us)
    }

    /// The delivery time of the earliest message queued for
    /// `(slot, to)`, due or not.
    pub fn next_delivery(&self, slot: usize, to: Role) -> Option<TransportTime> {
        self.slots.get(slot)?.queues.next_delivery(to)
    }

    /// The next virtual time (µs) at which the bus can make progress,
    /// or `None` when no frames are queued. Processing at this time is
    /// guaranteed to transmit at least one frame.
    pub fn next_activity_us(&self) -> Option<TransportTime> {
        let min_ready = self.pending.iter().map(|f| f.ready_ns).min()?;
        Some(min_ready.max(self.busy_until_ns).div_ceil(1_000))
    }

    /// Fault-engine totals. `messages_lost` is computed as
    /// sent-minus-delivered per slot, so it is only final once the bus
    /// has drained and all due deliveries were consumed.
    pub fn counters(&self) -> FaultCounters {
        let mut c = self.counters;
        for s in &self.slots {
            c.messages_lost += s.stats.messages.saturating_sub(s.delivered);
        }
        c
    }

    /// Per-slot traffic totals (zero for an unregistered slot).
    pub fn slot_stats(&self, slot: usize) -> SlotStats {
        self.slots.get(slot).map(|s| s.stats).unwrap_or_default()
    }

    /// Takes the transmitted-frame schedule logged since the last take.
    pub fn take_frame_log(&mut self) -> Vec<FrameRecord> {
        std::mem::take(&mut self.log)
    }
}

fn pci_kind(frame: &CanFdFrame) -> &'static str {
    match frame.payload.first().map(|b| b >> 4) {
        Some(0x0) => "SF",
        Some(0x1) => "FF",
        Some(0x2) => "CF",
        _ => "RAW",
    }
}

fn fate_label(queued: &QueuedFrame) -> &'static str {
    match (&queued.origin, queued.fate) {
        (None, _) => "storm",
        (Some(o), _) if o.msg_key & REPLAY_BIT != 0 => "replay",
        (_, FrameFate::Deliver) => "ok",
        (_, FrameFate::Drop) => "drop",
        (_, FrameFate::Corrupt { .. }) => "corrupt",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BabbleSpec, FaultSpec, TargetedFault};
    use ecq_proto::WireField;

    fn a1() -> Message {
        Message::new(
            "A1",
            vec![
                WireField::new(FieldKind::Id, vec![1; 16]),
                WireField::new(FieldKind::EphemeralPoint, vec![2; 64]),
            ],
        )
    }

    fn b1() -> Message {
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

    fn drain(bus: &mut SharedBus) -> Vec<DeliveryDue> {
        let mut out = Vec::new();
        while let Some(at) = bus.next_activity_us() {
            out.extend(bus.process(at + 1));
        }
        out
    }

    #[test]
    fn fault_free_bus_delivers_typed_messages() {
        let mut bus = SharedBus::new(FaultPlan::inert());
        let s0 = bus.add_slot(0, [0, 0]);
        let s1 = bus.add_slot(1, [0, 0]);
        bus.send(s0, Role::Initiator, a1(), 0);
        bus.send(s1, Role::Responder, b1(), 0);
        let due = drain(&mut bus);
        assert_eq!(due.len(), 2);
        let m0 = bus.recv(s0, Role::Responder, due[0].at_us.max(due[1].at_us));
        let m1 = bus.recv(s1, Role::Initiator, due[0].at_us.max(due[1].at_us));
        assert_eq!(m0.unwrap(), a1());
        assert_eq!(m1.unwrap(), b1());
        assert_eq!(bus.counters(), FaultCounters::default());
        assert_eq!(bus.slot_stats(s0).frames, 2);
        assert_eq!(bus.slot_stats(s1).frames, 4);
    }

    #[test]
    fn lower_slot_wins_arbitration() {
        let mut bus = SharedBus::new(FaultPlan::inert());
        let s0 = bus.add_slot(0, [0, 0]);
        let s1 = bus.add_slot(1, [0, 0]);
        // Both ready at t=0; slot 0's id block is lower.
        bus.send(s1, Role::Initiator, a1(), 0);
        bus.send(s0, Role::Initiator, a1(), 0);
        drain(&mut bus);
        let log = bus.take_frame_log();
        assert_eq!(log[0].slot, Some(s0));
        // The two sessions' frames interleave by priority: every slot-0
        // frame precedes every slot-1 frame here (all ready at once).
        let slots: Vec<_> = log.iter().map(|r| r.slot).collect();
        assert_eq!(slots, vec![Some(0), Some(0), Some(1), Some(1)]);
    }

    #[test]
    fn targeted_cf_drop_loses_the_message_with_isotp_errors() {
        let spec = FaultSpec::targeted_only(
            TargetedFault {
                session: 0,
                sender: Role::Responder,
                message: 0,
                frame: 1, // CF #1 of the 4-frame B1
                action: FaultAction::Drop,
            },
            u64::MAX,
        );
        let mut bus = SharedBus::new(FaultPlan::new(spec, 0));
        let s0 = bus.add_slot(0, [0, 0]);
        bus.send(s0, Role::Responder, b1(), 0);
        let due = drain(&mut bus);
        assert!(due.is_empty(), "dropped CF must kill the message");
        let c = bus.counters();
        assert_eq!(c.dropped, 1);
        // CF2 arrives out of sequence, CF3 lands with no FF context.
        assert_eq!(c.isotp_errors, 2);
        assert_eq!(c.messages_lost, 1);
    }

    #[test]
    fn corrupted_pci_loses_the_message() {
        let spec = FaultSpec::targeted_only(
            TargetedFault {
                session: 0,
                sender: Role::Initiator,
                message: 0,
                frame: 0,
                action: FaultAction::Corrupt { offset: 0 },
            },
            u64::MAX,
        );
        let mut bus = SharedBus::new(FaultPlan::new(spec, 0));
        let s0 = bus.add_slot(0, [0, 0]);
        bus.send(s0, Role::Initiator, a1(), 0);
        let due = drain(&mut bus);
        assert!(due.is_empty());
        let c = bus.counters();
        assert_eq!(c.corrupted, 1);
        assert_eq!(c.messages_lost, 1);
    }

    #[test]
    fn corrupted_body_delivers_a_rebuilt_typed_message() {
        // Corrupt a payload byte of B1's last CF: reassembly succeeds,
        // the typed message is re-decoded from the damaged bytes, and
        // the receiver gets a B1 whose Resp field differs.
        let spec = FaultSpec::targeted_only(
            TargetedFault {
                session: 0,
                sender: Role::Responder,
                message: 0,
                frame: 3,
                action: FaultAction::Corrupt { offset: 10 },
            },
            u64::MAX,
        );
        let mut bus = SharedBus::new(FaultPlan::new(spec, 0));
        let s0 = bus.add_slot(0, [0, 0]);
        bus.send(s0, Role::Responder, b1(), 0);
        let due = drain(&mut bus);
        assert_eq!(due.len(), 1);
        let got = bus.recv(s0, Role::Initiator, due[0].at_us).unwrap();
        assert_eq!(got.step, "B1");
        assert_ne!(got, b1(), "corruption must reach the typed layer");
        assert_eq!(
            got.field(FieldKind::Id).unwrap(),
            b1().field(FieldKind::Id).unwrap()
        );
        assert_ne!(
            got.field(FieldKind::Response).unwrap(),
            b1().field(FieldKind::Response).unwrap()
        );
    }

    #[test]
    fn duplicated_cf_breaks_reassembly() {
        let spec = FaultSpec::targeted_only(
            TargetedFault {
                session: 0,
                sender: Role::Responder,
                message: 0,
                frame: 1,
                action: FaultAction::Duplicate,
            },
            u64::MAX,
        );
        let mut bus = SharedBus::new(FaultPlan::new(spec, 0));
        let s0 = bus.add_slot(0, [0, 0]);
        bus.send(s0, Role::Responder, b1(), 0);
        let due = drain(&mut bus);
        assert!(
            due.is_empty(),
            "repeated CF sequence number must reset reassembly"
        );
        let c = bus.counters();
        assert_eq!(c.duplicated, 1);
        assert!(c.isotp_errors >= 1);
        assert_eq!(c.messages_lost, 1);
    }

    #[test]
    fn replayed_message_is_delivered_twice() {
        let spec = FaultSpec::targeted_only(
            TargetedFault {
                session: 0,
                sender: Role::Initiator,
                message: 0,
                frame: 0,
                action: FaultAction::ReplayMessage {
                    delay_ns: 5_000_000,
                },
            },
            u64::MAX,
        );
        let mut bus = SharedBus::new(FaultPlan::new(spec, 0));
        let s0 = bus.add_slot(0, [0, 0]);
        bus.send(s0, Role::Initiator, a1(), 0);
        let due = drain(&mut bus);
        assert_eq!(due.len(), 2, "original + replayed copy");
        assert!(due[1].at_us >= due[0].at_us + 5_000);
        let first = bus.recv(s0, Role::Responder, due[0].at_us).unwrap();
        let second = bus.recv(s0, Role::Responder, due[1].at_us).unwrap();
        assert_eq!(first, a1());
        assert_eq!(second, a1());
        assert_eq!(bus.counters().replayed, 1);
    }

    #[test]
    fn babble_storm_occupies_the_bus_and_delays_traffic() {
        let mut quiet = SharedBus::new(FaultPlan::inert());
        let q0 = quiet.add_slot(0, [0, 0]);
        quiet.send(q0, Role::Responder, b1(), 0);
        let quiet_due = drain(&mut quiet);

        let spec = FaultSpec {
            babble: Some(BabbleSpec {
                id: 0x010,
                start_us: 0,
                end_us: 5_000,
                period_us: 300,
                payload_len: 64,
            }),
            ..FaultSpec::none()
        };
        let mut stormy = SharedBus::new(FaultPlan::new(spec, 0));
        let s0 = stormy.add_slot(0, [0, 0]);
        stormy.send(s0, Role::Responder, b1(), 0);
        let stormy_due = drain(&mut stormy);

        assert_eq!(quiet_due.len(), 1);
        assert_eq!(stormy_due.len(), 1);
        assert!(
            stormy_due[0].at_us > quiet_due[0].at_us,
            "storm must delay delivery: {} vs {}",
            stormy_due[0].at_us,
            quiet_due[0].at_us
        );
        assert!(stormy.counters().storm_frames > 0);
    }

    #[test]
    fn schedule_is_deterministic() {
        let run = || {
            let spec = FaultSpec {
                seed: 77,
                drop_per_mille: 120,
                corrupt_per_mille: 80,
                duplicate_per_mille: 60,
                reorder_per_mille: 60,
                ..FaultSpec::none()
            };
            let mut bus = SharedBus::new(FaultPlan::new(spec, 4));
            let s0 = bus.add_slot(0, [100, 200]);
            let s1 = bus.add_slot(1, [100, 200]);
            bus.send(s0, Role::Initiator, a1(), 0);
            bus.send(s1, Role::Responder, b1(), 10);
            bus.send(s0, Role::Responder, b1(), 500);
            let due = drain(&mut bus);
            (due, bus.take_frame_log(), bus.counters())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn interleaved_processing_matches_one_shot() {
        // Processing in many small time steps must produce the same
        // schedule as draining in one call — the property the fleet
        // scheduler's incremental pumping relies on.
        let spec = FaultSpec {
            seed: 3,
            drop_per_mille: 100,
            ..FaultSpec::none()
        };
        let build = || {
            let mut bus = SharedBus::new(FaultPlan::new(spec, 1));
            let s0 = bus.add_slot(0, [0, 0]);
            let s1 = bus.add_slot(1, [0, 0]);
            bus.send(s0, Role::Initiator, a1(), 0);
            bus.send(s1, Role::Responder, b1(), 0);
            bus
        };
        let mut one_shot = build();
        let mut all = one_shot.process(1_000_000);
        let mut stepped = build();
        let mut acc = Vec::new();
        for t in (0..=1_000_000).step_by(137) {
            acc.extend(stepped.process(t));
        }
        acc.extend(stepped.process(1_000_000));
        all.sort_by_key(|d| (d.at_us, d.slot));
        acc.sort_by_key(|d| (d.at_us, d.slot));
        assert_eq!(all, acc);
        assert_eq!(one_shot.take_frame_log(), stepped.take_frame_log());
    }

    #[test]
    fn unsendable_messages_fail_closed() {
        let mut bus = SharedBus::new(FaultPlan::inert());
        let s0 = bus.add_slot(0, [0, 0]);
        // An unregistered slot queues nothing.
        bus.send(s0 + 1, Role::Initiator, a1(), 0);
        assert_eq!(bus.next_activity_us(), None);
        assert_eq!(bus.slot_stats(s0 + 1), SlotStats::default());
        // 41 certificates are 4141 bytes, over ISO-TP's 4095: the
        // message counts as sent, queues no frame and is lost.
        let oversized = Message::new(
            "B1",
            vec![WireField::new(FieldKind::Cert, vec![8; 101]); 41],
        );
        assert_eq!(oversized.wire_len(), 4141);
        bus.send(s0, Role::Responder, oversized, 0);
        assert_eq!(bus.next_activity_us(), None);
        assert!(drain(&mut bus).is_empty());
        assert_eq!(bus.recv(s0, Role::Initiator, TransportTime::MAX), None);
        assert_eq!(bus.slot_stats(s0).messages, 1);
        assert_eq!(bus.counters().messages_lost, 1);
    }
}
