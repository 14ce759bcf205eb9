//! Message-granularity handshake sweeps: every wire message is its own
//! scheduler event, device populations shard across host threads, and
//! every session rides a slot of its event loop's one CAN-FD bus.
//!
//! This engine runs every establishment of the fleet, first contact and
//! rekey epoch alike, and decomposes each STS establishment into its
//! four wire messages (`A1 B1 A2 B2`): an endpoint's
//! [`ecq_proto::Endpoint::step`] runs when its message *arrives*, its
//! compute time is integrated from the primitive-operation trace it
//! recorded during that step (against the board's `ecq_devices` cost
//! table), and the reply goes back to the bus, which decides the next
//! delivery time. Sessions sharing a bus genuinely interleave on the
//! virtual timeline, at message granularity.
//!
//! # One bus per event loop
//!
//! Every event loop owns one [`SharedBus`] and simulates exactly one
//! bus group on it. [`TransportKind::SharedBus`] puts `group`
//! consecutive sessions on the bus under the sweep's fault plan.
//! [`TransportKind::Simnet`] is group 1 under [`FaultPlan::inert`]:
//! each pair alone on its bus, the sweep's fault classes ignored, its
//! deadline still honoured, and the bus's frame log dropped in the
//! worker rather than handed to the report fold.
//!
//! # Parallelism / determinism contract
//!
//! A bus — not a session — is the unit of independence: a group's
//! sessions share no simulation state with any other group. Three rules
//! keep the `(config, seed)` report bit-identical for any worker count:
//!
//! 1. **Shard by bus, never by pair.** `run_sweep` hands each bus group
//!    whole to one event loop; a loop *hard-errors* if its work is not
//!    exactly one complete group (a split bus would change arbitration).
//! 2. **Lane-ordered events.** Each event loop owns one bus and
//!    orders same-time events by a lane key (the global session index;
//!    the bus after every session), not by insertion order, so every
//!    same-time endpoint step and its sends land before the bus
//!    arbitrates and the pop order is a function of the virtual
//!    timeline alone.
//! 3. **Pure fault decisions.** Every random fault choice is a
//!    splitmix64 hash of `(fault seed, bus id, sequence number)` (see
//!    [`ecq_simnet::fault`]), never a draw from mutable RNG state.
//!
//! Session state is prepared serially and *moved* into the workers, so
//! no worker clones a certificate or a key.
//!
//! # How a session ends
//!
//! Each event loop keeps one table of slot states: a live session, a
//! session the CRL pre-check denied, or one whose state was lost. When
//! the loop ends, every slot becomes one typed outcome: keyed (both
//! endpoints established with keys that compare equal), failed closed
//! with a named [`ProtocolError`] (a live session unfinished at the
//! deadline times out; a lost slot is poisoned), or denied. The report
//! fold digests and counts exactly that outcome.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::scheduler::{micros_from_ms, VirtualTime};
use ecq_cert::CertError;
use ecq_crypto::{ct, HmacDrbg};
use ecq_devices::{DevicePreset, DeviceProfile};
use ecq_proto::{
    Credentials, Endpoint, Message, OpTrace, ProtocolError, Role, SessionKey, StepOutput,
};
use ecq_simnet::{ms_to_ns, FaultCounters, FaultPlan, FaultSpec, FrameRecord, SharedBus};
use ecq_sts::{StsConfig, StsInitiator, StsResponder};

use crate::FleetError;

/// How the sweep lays its sessions onto CAN-FD buses. Both kinds run
/// the one bus model (`ecq_simnet::SharedBus`, the Fig. 6 stack with
/// per-frame driver overhead from each pair's board cost tables); every
/// event loop owns one bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// One bus per pair: bus group 1 under [`FaultPlan::inert`]. The
    /// sweep's fault classes are ignored, its `deadline_us` is honoured,
    /// and the bus's frame schedule is not logged for the caller.
    Simnet,
    /// One arbitrated CAN-FD bus per `group` consecutive sessions: their
    /// frames compete for the wire, the sweep's [`FaultSpec`] applies
    /// and the frame schedule is logged. `group = 1` gives each pair a
    /// bus of its own under the fault plan.
    SharedBus {
        /// Sessions per bus; session `i` rides bus `i / group`. At most
        /// `ecq_simnet::SharedBus::MAX_SLOTS`: a wider group is refused
        /// with [`FleetError::BusGroupTooLarge`].
        group: usize,
    },
}

impl TransportKind {
    /// Sessions per bus.
    fn group(self) -> usize {
        match self {
            TransportKind::Simnet => 1,
            TransportKind::SharedBus { group } => group.max(1),
        }
    }
}

/// Revocation arriving *during* the sweep: from `at_us`, session
/// `session`'s peer is considered revoked, but endpoints only learn of
/// it once the CRL propagates — `propagation_us` is the stale-CRL
/// acceptance window during which the revoked peer is still honored
/// (the paper's §IV-C lifecycle caveat, made measurable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RevocationSpec {
    /// Global session index whose handshake the revocation targets.
    pub session: usize,
    /// Virtual time (µs) the certificate is revoked at the CA.
    pub at_us: u64,
    /// CRL propagation delay (µs): deliveries to the targeted session
    /// strictly before `at_us + propagation_us` still succeed.
    pub propagation_us: u64,
}

/// Options for an interleaved sweep.
///
/// The struct is `#[non_exhaustive]`: build one with
/// [`SweepOptions::new`] (or `default()`) and refine it with the
/// builder methods, e.g.
/// `SweepOptions::new().threads(8).transport(TransportKind::Simnet)`.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct SweepOptions {
    /// Host worker threads to shard the session population across
    /// (clamped to at least 1 and at most one per bus group). The report
    /// is identical for any value.
    pub threads: usize,
    /// How sessions are laid onto buses.
    pub transport: TransportKind,
    /// Fault schedule applied to [`TransportKind::SharedBus`] sweeps
    /// ([`FaultSpec::none`] injects nothing). Every event loop owns one
    /// bus, and a [`TransportKind::Simnet`] bus is group 1 under an
    /// inert plan, so Simnet ignores the spec's fault classes; the
    /// spec's `deadline_us` bounds every sweep: sessions unfinished at
    /// the deadline fail closed with [`ProtocolError::Timeout`].
    pub faults: FaultSpec,
    /// Optional mid-sweep revocation with a stale-CRL window.
    pub revocation: Option<RevocationSpec>,
    /// Chaos hook: the worker drops the state of the session with this
    /// global index before its kickoff. The session must fail closed
    /// with [`ProtocolError::Poisoned`] (counted in
    /// [`crate::FleetReport::poisoned`]) while the rest of the fleet
    /// completes — the regression harness for the sweep's
    /// no-panic contract.
    pub poison: Option<usize>,
    /// Admission window of the sweep engine: at most this many
    /// sessions are resident (queued in worker channels, simulating, or
    /// awaiting in-order aggregation) at any moment, so peak memory
    /// scales with the window instead of the fleet. `usize::MAX` (the
    /// default) admits every session at once. The report is bit-identical
    /// for any window value — sessions (and whole bus groups) are pure
    /// functions of their own work items, so admission timing cannot
    /// change their outcome.
    pub max_inflight: usize,
}

impl Default for SweepOptions {
    /// One worker over the simnet transport, no faults.
    fn default() -> Self {
        SweepOptions {
            threads: 1,
            transport: TransportKind::Simnet,
            faults: FaultSpec::none(),
            revocation: None,
            poison: None,
            max_inflight: usize::MAX,
        }
    }
}

impl SweepOptions {
    /// The default options, as a builder starting point.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the host worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets how sessions are laid onto buses.
    #[must_use]
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the fault schedule.
    #[must_use]
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Schedules a mid-sweep revocation.
    #[must_use]
    pub fn revocation(mut self, revocation: RevocationSpec) -> Self {
        self.revocation = Some(revocation);
        self
    }

    /// Poisons the session with this global index (chaos hook).
    #[must_use]
    pub fn poison(mut self, poison: usize) -> Self {
        self.poison = Some(poison);
        self
    }

    /// Bounds the number of sessions resident in the sweep engine at
    /// once (clamped up to one bus group).
    #[must_use]
    pub fn max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }
}

/// One delivered wire message (diagnostic evidence of interleaving; not
/// part of the report). A session's deliveries are a pure function of
/// its own work item — of its whole bus group on a shared bus — so the
/// log does not depend on the shard layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Global session index the message belongs to.
    pub session: usize,
    /// The paper's step label ("A1", "B1", "A2", "B2").
    pub step: &'static str,
    /// Virtual time the message was delivered to its endpoint.
    pub at_us: VirtualTime,
}

/// Everything a worker needs to run one session, prepared serially by
/// the coordinator so RNG streams derive in session-index order.
pub(crate) struct SessionWork {
    pub index: usize,
    pub preset_a: DevicePreset,
    pub preset_b: DevicePreset,
    pub pair: Pair,
}

/// How a worker gets a session's STS endpoint pair.
pub(crate) enum Pair {
    /// First contact: `(credentials [initiator, responder], wire seed,
    /// config)`. The worker draws the pair from the seed's
    /// `fleet-pair-wire` stream, off the producer thread, which may be
    /// enrolling.
    Seeded(Box<[Credentials; 2]>, [u8; 32], StsConfig),
    /// A pair the coordinator built from the session's own stream.
    Built(Box<(StsInitiator, StsResponder)>),
    /// Denied by the coordinator's revocation-list pre-check: never run.
    Denied,
}

/// How a session ended. The fold digests and counts exactly this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Both endpoints established and their keys compared equal.
    Keyed(SessionKey),
    /// The session failed closed with this error.
    Failed(ProtocolError),
    /// A participant was on the revocation list: the session never ran.
    Denied,
}

/// Per-session result, aggregated in index order.
pub(crate) struct SessionResult {
    pub outcome: Outcome,
    pub end_us: VirtualTime,
    pub messages: u64,
    pub wire_bytes: u64,
    pub frames: u64,
    /// The session's delivered messages, in delivery order.
    pub deliveries: Vec<DeliveryRecord>,
}

/// Fault-engine evidence from one event loop's bus: aggregate counters
/// for the report and the frame-schedule log for fixtures/forensics
/// (empty for a [`TransportKind::Simnet`] bus).
pub(crate) struct BusTrace {
    pub bus: usize,
    pub counters: FaultCounters,
    pub frames: Vec<FrameRecord>,
}

/// One bus slot of an event loop.
enum Slot {
    Live(Box<Live>),
    /// Denied by the CRL pre-check; nothing is scheduled for it.
    Denied,
    /// Its state is gone (the poison hook): events for it are skipped
    /// and it fails closed with [`ProtocolError::Poisoned`].
    Lost,
}

/// A live session inside one event loop.
struct Live {
    /// Global session index (delivery log, revocation target).
    index: usize,
    initiator: StsInitiator,
    responder: StsResponder,
    profiles: [DeviceProfile; 2],
    cursors: [usize; 2],
    /// Set once the session ends; no event touches it afterwards.
    outcome: Option<Outcome>,
    end_us: VirtualTime,
    /// Last virtual time anything happened to this session (timeout
    /// stamping when no deadline is set).
    last_event_us: VirtualTime,
    deliveries: Vec<DeliveryRecord>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The initiator opens its handshake (draws no message).
    Kickoff { slot: usize },
    /// A wire message arrives at one endpoint.
    Deliver { slot: usize, to: Role },
    /// The loop's bus may have frames to arbitrate/complete.
    BusAdvance,
}

/// Event lanes order same-time events: session events ride their
/// global session index and bus events ride `LANE_BUS`, so every
/// same-time endpoint step (and its sends) lands before the bus
/// arbitrates — the pop order is shard-layout-independent.
const LANE_BUS: u64 = 1 << 32;

/// A deterministic min-heap over `(at, lane, seq)`: time first, then
/// the global lane, then insertion order as the final tiebreak. `seq`
/// is unique, so the event in the last place never decides the order.
struct LaneScheduler {
    queue: BinaryHeap<Reverse<(VirtualTime, u64, u64, Event)>>,
    now: VirtualTime,
    seq: u64,
}

impl LaneScheduler {
    fn new() -> Self {
        LaneScheduler {
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// Schedules `event` at `at` (clamped to now) on `lane`.
    fn schedule(&mut self, at: VirtualTime, lane: u64, event: Event) {
        let at = at.max(self.now);
        self.queue.push(Reverse((at, lane, self.seq, event)));
        self.seq += 1;
    }

    fn next(&mut self) -> Option<(VirtualTime, Event)> {
        let Reverse((at, _, _, event)) = self.queue.pop()?;
        self.now = at;
        Some((at, event))
    }
}

/// Integrates the primitives an endpoint recorded since the last step.
fn delta_cost_ms(trace: &OpTrace, cursor: &mut usize, profile: &DeviceProfile) -> f64 {
    let entries = trace.entries();
    let cost = entries[*cursor..]
        .iter()
        .map(|e| profile.cost_of(&e.op))
        .sum();
    *cursor = entries.len();
    cost
}

impl Live {
    /// Runs one endpoint step and returns `(output, completion time)`;
    /// the completion time charges the step's traced primitives against
    /// the endpoint's board.
    fn step(
        &mut self,
        role: Role,
        incoming: Option<&Message>,
        now: VirtualTime,
    ) -> Result<(StepOutput, VirtualTime), ProtocolError> {
        let (endpoint, idx): (&mut dyn Endpoint, usize) = match role {
            Role::Initiator => (&mut self.initiator, 0),
            Role::Responder => (&mut self.responder, 1),
        };
        let out = endpoint.step(incoming)?;
        let cost = delta_cost_ms(
            endpoint.trace(),
            &mut self.cursors[idx],
            &self.profiles[idx],
        );
        Ok((out, now + micros_from_ms(cost)))
    }

    /// Closes a session whose endpoint sent nothing back. Both sides
    /// claiming establishment is *not* trusted: the keys are compared
    /// (in constant time) and a disagreement surfaces as
    /// [`ProtocolError::KeyMismatch`] — a faulted wire must never yield
    /// a silently mismatched session. Waiting with nothing in flight
    /// cannot happen in a two-party alternating handshake, so a session
    /// that is not established on both sides has stalled.
    fn finalize(&mut self, end: VirtualTime) {
        let outcome = if self.initiator.is_established() && self.responder.is_established() {
            match (self.initiator.session_key(), self.responder.session_key()) {
                (Ok(a), Ok(b)) if ct::eq(a.as_bytes(), b.as_bytes()) => Outcome::Keyed(a),
                _ => Outcome::Failed(ProtocolError::KeyMismatch),
            }
        } else {
            Outcome::Failed(ProtocolError::Stalled)
        };
        self.end(outcome, end);
    }

    fn end(&mut self, outcome: Outcome, at: VirtualTime) {
        self.outcome = Some(outcome);
        self.end_us = at;
    }
}

/// Runs bus group `g` on the event loop's one bus, under a single
/// virtual clock, delivering messages as events. A
/// [`TransportKind::Simnet`] group is one pair on a bus under
/// [`FaultPlan::inert`]; a [`TransportKind::SharedBus`] group runs
/// under the sweep's fault plan. `total` is the sweep's session count
/// (it bounds the width of the last bus). Takes its sessions by value
/// so the prepared credentials move straight into the endpoints — the
/// sweep performs no per-session certificate/key cloning inside the
/// timed region. Returns the per-session results in the order `work`
/// was given, plus the trace of the group's bus.
///
/// # Panics
///
/// Panics unless `work` is exactly bus group `g`: a bus split across
/// sweep shards would arbitrate different traffic per layout and break
/// the determinism contract, so it is rejected loudly rather than
/// simulated wrong.
pub(crate) fn run_worker(
    g: usize,
    work: Vec<SessionWork>,
    opts: SweepOptions,
    total: usize,
) -> (Vec<SessionResult>, BusTrace) {
    assert_one_bus_group(&work, g, opts.transport.group(), total);
    let plan = match opts.transport {
        TransportKind::Simnet => FaultPlan::inert(),
        TransportKind::SharedBus { .. } => FaultPlan::new(opts.faults, g as u64),
    };
    let mut bus = SharedBus::new(plan);
    // A session's bus slot is its position in `work`, so slot `s` is
    // global session `first + s`.
    let first = work.first().map_or(0, |w| w.index);

    let mut slots: Vec<Slot> = Vec::with_capacity(work.len());
    let mut scheduler = LaneScheduler::new();

    for (slot, w) in work.into_iter().enumerate() {
        // Register *every* session on the bus — including denied ones —
        // so slot numbering (and thus arbitration priority) is the
        // session's position in its group.
        bus.add_slot(
            (w.index & 0xFFFF) as u16,
            [
                ms_to_ns(w.preset_a.profile().costs.hash_block_ms),
                ms_to_ns(w.preset_b.profile().costs.hash_block_ms),
            ],
        );
        let (initiator, responder) = match w.pair {
            Pair::Denied => {
                slots.push(Slot::Denied);
                continue;
            }
            Pair::Seeded(creds, wire_seed, config) => {
                let [creds_a, creds_b] = *creds;
                let mut rng = HmacDrbg::new(&wire_seed, b"fleet-pair-wire");
                ecq_sts::endpoint_pair(creds_a, creds_b, config, &mut rng)
            }
            Pair::Built(pair) => *pair,
        };
        let lane = w.index as u64;
        scheduler.schedule(0, lane, Event::Kickoff { slot });
        if opts.poison == Some(w.index) {
            // Test hook: the session's state is gone but its kickoff
            // still fires, driving the skip below.
            slots.push(Slot::Lost);
            continue;
        }
        slots.push(Slot::Live(Box::new(Live {
            index: w.index,
            initiator,
            responder,
            profiles: [w.preset_a.profile(), w.preset_b.profile()],
            cursors: [0, 0],
            outcome: None,
            end_us: 0,
            last_event_us: 0,
            deliveries: Vec::new(),
        })));
    }

    let deadline = opts.faults.deadline_us;
    while let Some((now, event)) = scheduler.next() {
        if now > deadline {
            break;
        }
        let (slot, role) = match event {
            Event::Kickoff { slot } => (slot, Role::Initiator),
            Event::Deliver { slot, to } => (slot, to),
            Event::BusAdvance => {
                for d in bus.process(now) {
                    scheduler.schedule(
                        d.at_us,
                        (first + d.slot) as u64,
                        Event::Deliver {
                            slot: d.slot,
                            to: d.to,
                        },
                    );
                }
                // `next_activity_us` is strictly beyond `now` once
                // `process(now)` ran, so this re-arm terminates;
                // redundant advances are idempotent.
                if let Some(at) = bus.next_activity_us() {
                    scheduler.schedule(at, LANE_BUS, Event::BusAdvance);
                }
                continue;
            }
        };
        // Events for a lost, denied or finished session are skipped:
        // a lost slot fails closed below instead of aborting the worker.
        let Some(Slot::Live(session)) = slots.get_mut(slot) else {
            continue;
        };
        if session.outcome.is_some() {
            continue;
        }
        session.last_event_us = now;
        let incoming = match event {
            Event::Deliver { .. } => {
                // Revocation lifecycle: once the CRL has propagated, the
                // targeted session refuses its peer — whatever the
                // handshake state. Deliveries inside the stale-CRL
                // window still succeed (the measurable exposure).
                if opts.revocation.is_some_and(|rv| {
                    session.index == rv.session && now >= rv.at_us.saturating_add(rv.propagation_us)
                }) {
                    bus.recv(slot, role, now);
                    let revoked = ProtocolError::Cert(CertError::Revoked);
                    session.end(Outcome::Failed(revoked), now);
                    continue;
                }
                // A delivery can evaporate: the message was lost to
                // faults after its sibling scheduled this event, or a
                // replay already consumed it.
                let Some(msg) = bus.recv(slot, role, now) else {
                    continue;
                };
                session.deliveries.push(DeliveryRecord {
                    session: session.index,
                    step: msg.step,
                    at_us: now,
                });
                Some(msg)
            }
            _ => None,
        };
        match session.step(role, incoming.as_ref(), now) {
            // A responder that just sent B2 is established; the session
            // finishes when the initiator consumes it.
            Ok((StepOutput::Send(reply), done_at)) => {
                bus.send(slot, role, reply, done_at);
                scheduler.schedule(done_at, LANE_BUS, Event::BusAdvance);
            }
            Ok((_, done_at)) => session.finalize(done_at),
            Err(e) => session.end(Outcome::Failed(e), now),
        }
    }

    // Fail-closed sweep boundary: anything unfinished at the deadline
    // (lost frames, withheld messages, storms that never relented)
    // times out — it must never linger as a half-open session. A
    // finished session never sends again, so every slot's traffic
    // totals are final once the loop has ended (zero for a slot that
    // never ran).
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(slot, state)| {
            let (outcome, end_us, deliveries) = match state {
                Slot::Live(live) => match live.outcome {
                    Some(outcome) => (outcome, live.end_us, live.deliveries),
                    None => {
                        let at = if deadline < u64::MAX {
                            deadline
                        } else {
                            live.last_event_us
                        };
                        (Outcome::Failed(ProtocolError::Timeout), at, live.deliveries)
                    }
                },
                Slot::Denied => (Outcome::Denied, 0, Vec::new()),
                Slot::Lost => (Outcome::Failed(ProtocolError::Poisoned), 0, Vec::new()),
            };
            let stats = bus.slot_stats(slot);
            SessionResult {
                outcome,
                end_us,
                messages: stats.messages,
                wire_bytes: stats.bytes,
                frames: stats.frames,
                deliveries,
            }
        })
        .collect();
    let trace = BusTrace {
        bus: g,
        counters: bus.counters(),
        // A Simnet bus is one pair's link, whose schedule no caller
        // reads: dropping its log here keeps it off the result channel,
        // where a streaming window's worth of logs would raise peak
        // memory.
        frames: match opts.transport {
            TransportKind::Simnet => Vec::new(),
            TransportKind::SharedBus { .. } => bus.take_frame_log(),
        },
    };
    (results, trace)
}

/// Hard-errors unless `work` is exactly bus group `g`: the global
/// indices `g·group .. min((g+1)·group, total)`, all present and in
/// order, so a session's bus slot is its position in `work`.
fn assert_one_bus_group(work: &[SessionWork], g: usize, group: usize, total: usize) {
    let start = g * group;
    let expected: Vec<usize> = (start..(start + group).min(total)).collect();
    let present: Vec<usize> = work.iter().map(|w| w.index).collect();
    assert!(
        present == expected,
        "bus split across sweep shards: bus {g} needs sessions {expected:?} \
         in one worker but got {present:?} (shard whole buses, not pairs)"
    );
}

/// Refuses a bus group wider than one bus's arbitration-id space up
/// front, before a sweep consumes the coordinator (the bus would
/// otherwise abort a worker thread when the group's slots run out).
pub(crate) fn check_transport(transport: TransportKind) -> Result<(), FleetError> {
    match transport {
        TransportKind::SharedBus { group } if group > SharedBus::MAX_SLOTS => {
            Err(FleetError::BusGroupTooLarge {
                group,
                capacity: SharedBus::MAX_SLOTS,
            })
        }
        _ => Ok(()),
    }
}

/// The sweep engine: streams `work` through `opts.threads` workers with
/// at most `opts.max_inflight` sessions resident at once, handing each
/// group's results and bus trace to `consume` in **strict session-index
/// order**, with the index of the group's first session (so the caller
/// folds the report incrementally).
///
/// # Architecture
///
/// The calling thread is the producer: it pulls `work` (which may run
/// real enrollment cryptography per pull), chunks it into bus groups —
/// `group` consecutive sessions, the sweep's unit of independence — and
/// deals group `g` to worker `g % threads` over a bounded channel, so a
/// bus is never split across workers and Simnet's one-pair groups,
/// whose presets rotate through the roster, give every worker the same
/// board mix. Workers are clamped to the number of bus groups. Each worker
/// simulates one group at a time in its own [`run_worker`] event loop
/// and sends `(group, results, trace)` back; a reorder buffer releases
/// them to `consume` in group order.
///
/// # Why the report cannot depend on the window
///
/// A bus group interacts with nothing outside its own work item: the worker event
/// loop's virtual clock never advances an event past its scheduled
/// time (the `schedule` clamp is vacuous because every follow-up is
/// scheduled at or after the event that produced it), so co-residence
/// of other sessions cannot shift a timeline. Each group's results are
/// therefore a pure function of `(config, seed, group)` — identical
/// whether the group ran alone or in a window of 64 — and in-order
/// delivery makes the aggregate report bit-identical for any `threads`
/// and any `max_inflight`.
///
/// # Deadlock freedom
///
/// The producer only blocks in two places: a full worker channel (then
/// it drains one result first — a full channel means that worker holds
/// work and will emit), and the final drain (workers hold the only
/// remaining results). The reorder buffer is bounded by the number of
/// admitted-but-undelivered groups, which the channels bound by
/// construction.
pub(crate) fn run_sweep<I, F>(work: I, total: usize, opts: &SweepOptions, mut consume: F)
where
    I: Iterator<Item = SessionWork>,
    F: FnMut(usize, Vec<SessionResult>, BusTrace),
{
    use std::sync::mpsc::{channel, sync_channel, TrySendError};

    let group = opts.transport.group();
    let opts = *opts;
    let threads = opts.threads.max(1).min(total.div_ceil(group).max(1));
    // Per-worker queue depth in groups: the window split across
    // workers, at least one so every worker can hold work — and never
    // more groups than the sweep has (`sync_channel` preallocates its
    // ring, so an unbounded window must not allocate an unbounded one).
    let groups_per_worker = total.div_ceil(group).div_ceil(threads).max(1);
    let cap = (opts.max_inflight.max(group) / threads / group).clamp(1, groups_per_worker);

    let mut work = work;
    std::thread::scope(|scope| {
        let (res_tx, res_rx) = channel::<(usize, Vec<SessionResult>, BusTrace)>();
        let mut feeds = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = sync_channel::<(usize, Vec<SessionWork>)>(cap);
            let worker_tx = res_tx.clone();
            scope.spawn(move || {
                while let Ok((g, batch)) = rx.recv() {
                    let (results, trace) = run_worker(g, batch, opts, total);
                    if worker_tx.send((g, results, trace)).is_err() {
                        return;
                    }
                }
            });
            feeds.push(tx);
        }
        drop(res_tx);

        // Reorder buffer: completed groups awaiting in-order delivery.
        let mut pending = BTreeMap::new();
        let mut next_out = 0usize;
        let mut retire = |(done, results, trace)| {
            pending.insert(done, (results, trace));
            while let Some((results, trace)) = pending.remove(&next_out) {
                consume(next_out * group, results, trace);
                next_out += 1;
            }
        };

        let mut g = 0usize;
        loop {
            let mut batch = Vec::with_capacity(group);
            while batch.len() < group {
                match work.next() {
                    Some(w) => batch.push(w),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            let Some(feed) = feeds.get(g % threads) else {
                break; // unreachable: g % threads < threads
            };
            // Retire everything already finished before admitting more:
            // when workers outpace the producer (enrollment runs on this
            // thread), finished results must fold into `consume` now, not
            // pile up in the unbounded result channel until the final
            // drain — that would grow resident state with fleet size and
            // void the bounded-memory contract.
            while let Ok(done) = res_rx.try_recv() {
                retire(done);
            }
            let mut msg = (g, batch);
            loop {
                match feed.try_send(msg) {
                    Ok(()) => break,
                    Err(TrySendError::Full(back)) => {
                        msg = back;
                        // Admission is at the window: retire one group
                        // before admitting another.
                        match res_rx.recv() {
                            Ok(done) => retire(done),
                            Err(_) => break, // workers gone; scope will surface the panic
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            g += 1;
        }
        drop(feeds);
        // A group lost to a dead worker leaves a gap the buffer never
        // passes; the scope then re-raises the worker's panic.
        res_rx.iter().for_each(retire);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::pool::CaPool;
    use ecq_cert::requester::CertRequester;

    /// Builds real enrolled credentials for `pairs` sessions against a
    /// one-shard CA (the coordinator's enrollment path, condensed).
    fn session_work(pairs: usize) -> Vec<SessionWork> {
        let mut master = HmacDrbg::from_seed(0x7E57_0001);
        let pool = CaPool::new(1, &mut master);
        let mut ca_rng = HmacDrbg::new(&master.bytes32(), b"test-ca");
        let mut ids = Vec::new();
        let mut requesters = Vec::new();
        for i in 0..2 * pairs {
            let device = SimDevice::new(i, 0);
            let mut rng = HmacDrbg::new(&master.bytes32(), b"test-dev");
            requesters.push(CertRequester::generate(device.id, &mut rng));
            ids.push(device.id);
        }
        let requests: Vec<_> = requesters.iter().map(|r| r.request()).collect();
        let ca = &pool.shards()[0];
        let issued = ca
            .issue_batch(&requests, 0, 86_400, &mut ca_rng)
            .expect("test CA issues");
        let creds: Vec<Credentials> = requesters
            .iter()
            .zip(&issued)
            .zip(&ids)
            .map(|((requester, cert), &id)| {
                let keys = requester
                    .reconstruct(cert, &ca.public_key())
                    .expect("test reconstruction");
                Credentials {
                    id,
                    cert: cert.certificate,
                    keys,
                    ca_public: ca.public_key(),
                }
            })
            .collect();
        let mut creds = creds.into_iter();
        (0..pairs)
            .map(|p| {
                let mut wire_seed = [0u8; 32];
                wire_seed[0] = p as u8;
                SessionWork {
                    index: p,
                    preset_a: DevicePreset::S32K144,
                    preset_b: DevicePreset::S32K144,
                    pair: Pair::Seeded(
                        Box::new([
                            creds.next().expect("one credential per endpoint"),
                            creds.next().expect("one credential per endpoint"),
                        ]),
                        wire_seed,
                        StsConfig {
                            now: 1,
                            ..StsConfig::default()
                        },
                    ),
                }
            })
            .collect()
    }

    fn shared_bus(group: usize) -> SweepOptions {
        SweepOptions::new().transport(TransportKind::SharedBus { group })
    }

    #[test]
    #[should_panic(expected = "bus split across sweep shards")]
    fn split_bus_group_is_rejected() {
        let mut work = session_work(2);
        work.remove(1); // bus 0 = sessions {0, 1}; hand the worker only 0
        let _ = run_worker(0, work, shared_bus(2), 2);
    }

    #[test]
    fn poisoned_session_fails_closed_while_siblings_complete() {
        let mut work = session_work(4);
        work[3].pair = Pair::Denied;
        let (results, _trace) = run_worker(0, work, shared_bus(4).poison(1), 4);
        assert_eq!(results.len(), 4);
        assert_eq!(results[1].outcome, Outcome::Failed(ProtocolError::Poisoned));
        assert_eq!(results[3].outcome, Outcome::Denied);
        for i in [1usize, 3] {
            let r = &results[i];
            assert_eq!((r.end_us, r.messages, r.frames), (0, 0, 0), "slot {i}");
            assert!(r.deliveries.is_empty(), "slot {i} never ran");
        }
        for i in [0usize, 2] {
            assert!(
                matches!(results[i].outcome, Outcome::Keyed(_)),
                "sibling {i} completes"
            );
        }
    }

    #[test]
    fn shared_bus_sessions_complete_with_equal_keys() {
        let work = session_work(2);
        let (results, trace) = run_worker(0, work, shared_bus(2), 2);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(
                matches!(r.outcome, Outcome::Keyed(_)),
                "unexpected outcome: {:?}",
                r.outcome
            );
            assert_eq!(r.messages, 4);
            assert_eq!(r.frames, 10);
            assert_eq!(r.deliveries.len(), 4, "4 deliveries per session");
        }
        assert_eq!(trace.counters, FaultCounters::default());
    }

    #[test]
    fn lane_scheduler_pops_by_time_then_lane_then_insertion() {
        let mut s = LaneScheduler::new();
        s.schedule(5, 2, Event::Kickoff { slot: 0 });
        s.schedule(5, 1, Event::Kickoff { slot: 1 });
        s.schedule(3, LANE_BUS, Event::BusAdvance);
        s.schedule(5, 1, Event::Kickoff { slot: 2 });
        let popped: Vec<_> = std::iter::from_fn(|| s.next()).collect();
        assert_eq!(
            popped,
            [
                (3, Event::BusAdvance),
                (5, Event::Kickoff { slot: 1 }),
                (5, Event::Kickoff { slot: 2 }),
                (5, Event::Kickoff { slot: 0 }),
            ]
        );
    }

    #[test]
    fn streaming_pump_matches_materialized_for_any_window() {
        let transport = TransportKind::SharedBus { group: 2 };
        let faults = FaultSpec {
            seed: 11,
            drop_per_mille: 60,
            corrupt_per_mille: 40,
            deadline_us: 30_000_000,
            ..FaultSpec::none()
        };
        let outcome = |r: &SessionResult| (r.outcome.clone(), r.end_us, r.deliveries.clone());
        // The reference: each bus group alone in one event loop, in
        // group order.
        let base = SweepOptions::new().transport(transport).faults(faults);
        let mut work = session_work(4).into_iter();
        let (mut base_outcomes, mut base_counters) = (Vec::new(), Vec::new());
        for g in 0..2 {
            let (results, trace) = run_worker(g, work.by_ref().take(2).collect(), base, 4);
            base_outcomes.extend(results.iter().map(outcome));
            base_counters.push((trace.bus, trace.counters));
        }
        for (threads, window) in [(1, 1), (2, 2), (3, 5), (2, usize::MAX), (8, usize::MAX)] {
            let opts = SweepOptions::new()
                .threads(threads)
                .transport(transport)
                .faults(faults)
                .max_inflight(window);
            let mut delivered: Vec<usize> = Vec::new();
            let mut outcomes: Vec<_> = Vec::new();
            let mut counters: Vec<_> = Vec::new();
            run_sweep(
                session_work(4).into_iter(),
                4,
                &opts,
                |first, results, trace| {
                    delivered.extend(first..first + results.len());
                    outcomes.extend(results.iter().map(outcome));
                    counters.push((trace.bus, trace.counters));
                },
            );
            assert_eq!(
                delivered,
                vec![0, 1, 2, 3],
                "strict in-order delivery (threads {threads}, window {window})"
            );
            assert_eq!(
                outcomes, base_outcomes,
                "streamed results match the lone loops (threads {threads}, window {window})"
            );
            assert_eq!(counters, base_counters);
        }
    }
}
