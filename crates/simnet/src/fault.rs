//! Deterministic fault injection for the shared CAN-FD bus.
//!
//! A [`FaultSpec`] describes *what* an adversarial (or merely lossy)
//! bus does — random per-mille rates for frame drop / corruption /
//! duplication / reordering / delay, surgically targeted faults on
//! specific frames of specific handshake messages, an arbitration
//! storm from a babbling low-ID node, and per-role clock skew. A
//! [`FaultPlan`] turns the spec into *decisions*: every random choice
//! is a pure function of `(spec.seed, bus id, frame/message sequence
//! number)` via a splitmix64 hash, so the schedule of faults is stable
//! across runs, thread counts and shard layouts — the whole
//! fault-injected sweep stays bit-reproducible from `(config, seed)`.

use ecq_proto::Role;

/// One surgically targeted fault: applied to the `frame`-th CAN-FD
/// frame of the `message`-th ISO-TP message sent by `sender` on bus
/// slot `session`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetedFault {
    /// Bus slot (session position on the shared bus) to attack.
    pub session: usize,
    /// Which endpoint's transmissions to attack.
    pub sender: Role,
    /// Zero-based index of the message within that direction
    /// (initiator: 0 = A1, 1 = A2; responder: 0 = B1, 1 = B2).
    pub message: usize,
    /// Zero-based frame index within the message's ISO-TP segmentation
    /// (0 = SF/FF, 1.. = CFs). Ignored by message-level actions
    /// ([`FaultAction::ReplayMessage`]).
    pub frame: usize,
    /// What happens to the selected frame (or message).
    pub action: FaultAction,
}

/// The effect of a targeted fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The frame occupies the bus but the receiver discards it
    /// (models a CRC error on the receiving controller).
    Drop,
    /// XOR a payload byte (index reduced modulo the frame's used
    /// length) so the receiver reassembles corrupted content.
    Corrupt {
        /// Byte offset into the frame payload (0 hits the ISO-TP PCI).
        offset: usize,
    },
    /// Retransmit the frame immediately after the original.
    Duplicate,
    /// Defer the frame's readiness by `ns` nanoseconds so later frames
    /// of the same message overtake it (a reordering attack).
    HoldBack {
        /// How long the frame is held back.
        ns: u64,
    },
    /// Replay the *entire message* (all its frames) `delay_ns` after
    /// the original transmission — the classic captured-first-flight
    /// replay.
    ReplayMessage {
        /// Delay between the original frames and the replayed copy.
        delay_ns: u64,
    },
}

/// A babbling-idiot node: periodically transmits frames on a low
/// arbitration ID, preempting legitimate traffic for the window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BabbleSpec {
    /// Arbitration ID of the babbler (low = wins arbitration).
    pub id: u16,
    /// Window start, virtual microseconds.
    pub start_us: u64,
    /// Window end, virtual microseconds.
    pub end_us: u64,
    /// Period between babble frames, microseconds.
    pub period_us: u64,
    /// Payload length of each babble frame (≤ 64).
    pub payload_len: usize,
}

/// A complete, declarative fault schedule for one shared bus.
///
/// `..FaultSpec::none()` is the idiom for building a spec with a few
/// fields set; the default injects nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for all random fault decisions (independent of the fleet
    /// seed so the same traffic can be replayed under different fault
    /// schedules).
    pub seed: u64,
    /// Per-mille probability that a data frame is dropped (transmitted
    /// but discarded by the receiver).
    pub drop_per_mille: u16,
    /// Per-mille probability that a data frame has one payload byte
    /// corrupted.
    pub corrupt_per_mille: u16,
    /// Per-mille probability that a data frame is duplicated.
    pub duplicate_per_mille: u16,
    /// Per-mille probability that a data frame is held back by
    /// [`FaultSpec::reorder_hold_ns`] (reordering it behind its
    /// successors).
    pub reorder_per_mille: u16,
    /// Per-mille probability that a whole message is delayed by
    /// [`FaultSpec::delay_ns`] (all frames shifted together — pure
    /// latency, no reordering).
    pub delay_per_mille: u16,
    /// Message-level delay applied when the delay dice hits.
    pub delay_ns: u64,
    /// Frame hold-back applied when the reorder dice hits (default two
    /// full frame times, enough for a successor CF to overtake).
    pub reorder_hold_ns: u64,
    /// Sender-side clock skew in parts-per-million per role
    /// (`[initiator, responder]`): a skewed endpoint's frames reach
    /// the bus `now · ppm / 10⁶` late.
    pub skew_ppm: [u32; 2],
    /// Optional arbitration storm.
    pub babble: Option<BabbleSpec>,
    /// Up to four surgically targeted faults.
    pub targeted: [Option<TargetedFault>; 4],
    /// Virtual-time deadline (µs) after which unfinished sessions fail
    /// closed with `ProtocolError::Timeout`. `u64::MAX` disables it.
    pub deadline_us: u64,
}

impl FaultSpec {
    /// A spec that injects nothing: the shared bus behaves as a
    /// fault-free medium (arbitration and occupancy still apply).
    pub const fn none() -> Self {
        FaultSpec {
            seed: 0,
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            delay_per_mille: 0,
            delay_ns: 0,
            reorder_hold_ns: 800_000,
            skew_ppm: [0, 0],
            babble: None,
            targeted: [None; 4],
            deadline_us: u64::MAX,
        }
    }

    /// A spec with one targeted fault and nothing random.
    pub const fn targeted_only(fault: TargetedFault, deadline_us: u64) -> Self {
        let mut spec = FaultSpec::none();
        spec.targeted[0] = Some(fault);
        spec.deadline_us = deadline_us;
        spec
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// The receiver-side fate of one transmitted frame, decided at submit
/// time by the [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Delivered intact.
    Deliver,
    /// Transmitted but discarded by the receiver (CRC-error model).
    Drop,
    /// Delivered with one payload byte XORed.
    Corrupt {
        /// Byte offset into the frame payload, reduced modulo the
        /// frame's used length at application time.
        offset: usize,
    },
}

/// Random-decision classes, hashed separately so the dice are
/// independent per class.
const CLASS_DROP: u64 = 1;
const CLASS_CORRUPT: u64 = 2;
const CLASS_DUPLICATE: u64 = 3;
const CLASS_REORDER: u64 = 4;
const CLASS_DELAY: u64 = 5;
const CLASS_OFFSET: u64 = 6;

/// sebastiano vigna's splitmix64 — a tiny, high-quality, dependency-free
/// mixer; every fault decision is one evaluation of it.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`FaultSpec`] bound to one bus: answers per-frame and per-message
/// fault queries as pure functions of the spec seed, the bus id and
/// the stable sequence numbers the bus assigns.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    stream: u64,
}

impl FaultPlan {
    /// Binds `spec` to bus `bus_id` (distinct buses draw independent
    /// decision streams from the same spec seed).
    pub fn new(spec: FaultSpec, bus_id: u64) -> Self {
        FaultPlan {
            spec,
            stream: splitmix64(spec.seed ^ bus_id.wrapping_mul(0xA24B_AED4_963E_E407)),
        }
    }

    /// A plan that injects nothing.
    pub fn inert() -> Self {
        FaultPlan::new(FaultSpec::none(), 0)
    }

    /// The bound spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    fn dice(&self, seq: u64, class: u64) -> u64 {
        splitmix64(
            self.stream
                ^ seq.wrapping_mul(0x9FB2_1C65_1E98_DF25)
                ^ class.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    fn hits(&self, seq: u64, class: u64, per_mille: u16) -> bool {
        per_mille > 0 && self.dice(seq, class) % 1000 < u64::from(per_mille)
    }

    /// Receiver-side fate of the frame with bus submit sequence `seq`
    /// (drop wins over corrupt when both dice hit).
    pub fn frame_fate(&self, seq: u64) -> FrameFate {
        if self.hits(seq, CLASS_DROP, self.spec.drop_per_mille) {
            FrameFate::Drop
        } else if self.hits(seq, CLASS_CORRUPT, self.spec.corrupt_per_mille) {
            FrameFate::Corrupt {
                offset: (self.dice(seq, CLASS_OFFSET) % 64) as usize,
            }
        } else {
            FrameFate::Deliver
        }
    }

    /// Whether the frame with submit sequence `seq` is retransmitted.
    pub fn duplicates(&self, seq: u64) -> bool {
        self.hits(seq, CLASS_DUPLICATE, self.spec.duplicate_per_mille)
    }

    /// Extra readiness delay for the frame with submit sequence `seq`
    /// (the random reordering class).
    pub fn hold_back_ns(&self, seq: u64) -> u64 {
        if self.hits(seq, CLASS_REORDER, self.spec.reorder_per_mille) {
            self.spec.reorder_hold_ns
        } else {
            0
        }
    }

    /// Message-level delay for the `msg_seq`-th message on the bus
    /// (all frames shifted together).
    pub fn message_delay_ns(&self, msg_seq: u64) -> u64 {
        if self.hits(msg_seq, CLASS_DELAY, self.spec.delay_per_mille) {
            self.spec.delay_ns
        } else {
            0
        }
    }

    /// Sender-side clock-skew lateness at sender-local time `now_ns`.
    pub fn skew_delay_ns(&self, sender: Role, now_ns: u64) -> u64 {
        let ppm = match sender {
            Role::Initiator => self.spec.skew_ppm[0],
            Role::Responder => self.spec.skew_ppm[1],
        };
        ((u128::from(now_ns) * u128::from(ppm)) / 1_000_000) as u64
    }

    /// The targeted *frame-level* fault for `(slot, sender, message,
    /// frame)`, if any ([`FaultAction::ReplayMessage`] entries are
    /// message-level and excluded — see [`FaultPlan::replay_delay_ns`]).
    pub fn targeted(
        &self,
        slot: usize,
        sender: Role,
        message: usize,
        frame: usize,
    ) -> Option<FaultAction> {
        self.spec.targeted.iter().flatten().find_map(|t| {
            let frame_level = !matches!(t.action, FaultAction::ReplayMessage { .. });
            (frame_level
                && t.session == slot
                && t.sender == sender
                && t.message == message
                && t.frame == frame)
                .then_some(t.action)
        })
    }

    /// Whether `(slot, sender, message)` is replayed, and after how
    /// long.
    pub fn replay_delay_ns(&self, slot: usize, sender: Role, message: usize) -> Option<u64> {
        self.spec
            .targeted
            .iter()
            .flatten()
            .find_map(|t| match t.action {
                FaultAction::ReplayMessage { delay_ns }
                    if t.session == slot && t.sender == sender && t.message == message =>
                {
                    Some(delay_ns)
                }
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_schedule_stable() {
        let spec = FaultSpec {
            seed: 42,
            drop_per_mille: 100,
            corrupt_per_mille: 100,
            duplicate_per_mille: 100,
            reorder_per_mille: 100,
            ..FaultSpec::none()
        };
        let a = FaultPlan::new(spec, 3);
        let b = FaultPlan::new(spec, 3);
        for seq in 0..500 {
            assert_eq!(a.frame_fate(seq), b.frame_fate(seq));
            assert_eq!(a.duplicates(seq), b.duplicates(seq));
            assert_eq!(a.hold_back_ns(seq), b.hold_back_ns(seq));
        }
    }

    #[test]
    fn buses_draw_independent_streams() {
        let spec = FaultSpec {
            seed: 7,
            drop_per_mille: 500,
            ..FaultSpec::none()
        };
        let a = FaultPlan::new(spec, 0);
        let b = FaultPlan::new(spec, 1);
        let same = (0..200)
            .filter(|&s| a.frame_fate(s) == b.frame_fate(s))
            .count();
        assert!(same < 200, "bus id must decorrelate the fault streams");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let spec = FaultSpec {
            seed: 9,
            drop_per_mille: 250,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, 0);
        let drops = (0..4000)
            .filter(|&s| plan.frame_fate(s) == FrameFate::Drop)
            .count();
        // 250‰ of 4000 = 1000 expected; accept a generous band.
        assert!((700..1300).contains(&drops), "{drops} drops of 4000");
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let plan = FaultPlan::inert();
        assert_eq!(
            *plan.spec(),
            FaultSpec {
                seed: plan.spec().seed,
                deadline_us: plan.spec().deadline_us,
                ..FaultSpec::none()
            }
        );
        for seq in 0..100 {
            assert_eq!(plan.frame_fate(seq), FrameFate::Deliver);
            assert!(!plan.duplicates(seq));
            assert_eq!(plan.hold_back_ns(seq), 0);
            assert_eq!(plan.message_delay_ns(seq), 0);
        }
        assert_eq!(plan.skew_delay_ns(Role::Initiator, 1_000_000_000), 0);
    }

    #[test]
    fn targeted_lookup_distinguishes_frame_and_message_level() {
        let spec = FaultSpec::targeted_only(
            TargetedFault {
                session: 0,
                sender: Role::Responder,
                message: 0,
                frame: 2,
                action: FaultAction::Drop,
            },
            30_000_000,
        );
        let plan = FaultPlan::new(spec, 0);
        assert_eq!(
            plan.targeted(0, Role::Responder, 0, 2),
            Some(FaultAction::Drop)
        );
        assert_eq!(plan.targeted(0, Role::Responder, 0, 1), None);
        assert_eq!(plan.targeted(1, Role::Responder, 0, 2), None);
        assert_eq!(plan.replay_delay_ns(0, Role::Responder, 0), None);

        let spec = FaultSpec::targeted_only(
            TargetedFault {
                session: 1,
                sender: Role::Initiator,
                message: 0,
                frame: 0,
                action: FaultAction::ReplayMessage { delay_ns: 5_000 },
            },
            30_000_000,
        );
        let plan = FaultPlan::new(spec, 0);
        assert_eq!(plan.targeted(1, Role::Initiator, 0, 0), None);
        assert_eq!(plan.replay_delay_ns(1, Role::Initiator, 0), Some(5_000));
    }

    #[test]
    fn skew_scales_with_time() {
        let spec = FaultSpec {
            skew_ppm: [0, 50_000],
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, 0);
        assert_eq!(plan.skew_delay_ns(Role::Initiator, 1_000_000), 0);
        assert_eq!(plan.skew_delay_ns(Role::Responder, 1_000_000), 50_000);
        assert_eq!(plan.skew_delay_ns(Role::Responder, 2_000_000), 100_000);
    }
}
