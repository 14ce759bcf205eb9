//! The fleet coordinator: batch enrollment, concurrent handshakes and
//! rekey epochs on a virtual timeline, through one establishment
//! pipeline: one enrollment routine (`Enroller`), one pairing
//! (`PairProducer`), one sweep engine (`interleave::run_sweep`) and one
//! report fold (`sweep_and_fold`). First contact and every rekey are
//! rounds of that engine.

use crate::device::SimDevice;
use crate::interleave::{self, DeliveryRecord, Outcome, Pair, SessionWork, SweepOptions};
use crate::pool::CaPool;
use crate::report::FleetReport;
use crate::scheduler::{micros_from_ms, VirtualTime};
use crate::FleetError;
use ecq_cert::ca::CertificateAuthority;
use ecq_cert::requester::CertRequester;
use ecq_cert::{CertError, RevocationList};
use ecq_crypto::sha256::Sha256;
use ecq_crypto::HmacDrbg;
use ecq_devices::DevicePreset;
use ecq_proto::{Credentials, ProtocolError, SessionKey};
use ecq_simnet::FrameRecord;
use ecq_sts::{ReconstructionHint, RekeyPolicy, StsConfig};

/// Parameters of a fleet run. Everything — device count, sharding,
/// batching, validity — is explicit so a `(config, seed)` pair fully
/// determines the run.
///
/// The struct is `#[non_exhaustive]`: build one with
/// [`FleetConfig::new`] (or `default()`) and refine it with the
/// builder methods, e.g. `FleetConfig::new().devices(64).seed(7)`.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Devices in the roster.
    pub devices: usize,
    /// Independent CA shards provisioning the roster.
    pub ca_shards: usize,
    /// Certificates per [`ecq_cert::ca::CertificateAuthority::issue_batch`] call.
    pub enroll_batch: usize,
    /// Certificate validity start (deployment seconds).
    pub valid_from: u32,
    /// Certificate validity end (deployment seconds).
    pub valid_to: u32,
    /// Master seed; all shard, device and session DRBGs derive from it.
    pub seed: u64,
}

impl Default for FleetConfig {
    /// 1024 devices over 4 shards, 64-certificate batches, one-day
    /// certificates.
    fn default() -> Self {
        FleetConfig {
            devices: 1024,
            ca_shards: 4,
            enroll_batch: 64,
            valid_from: 0,
            valid_to: 86_400,
            seed: 0xF1EE7,
        }
    }
}

impl FleetConfig {
    /// The default configuration, as a builder starting point.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the roster size.
    #[must_use]
    pub fn devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// Sets the number of independent CA shards.
    #[must_use]
    pub fn ca_shards(mut self, ca_shards: usize) -> Self {
        self.ca_shards = ca_shards;
        self
    }

    /// Sets the issuance batch size.
    #[must_use]
    pub fn enroll_batch(mut self, enroll_batch: usize) -> Self {
        self.enroll_batch = enroll_batch;
        self
    }

    /// Sets the certificate validity window.
    #[must_use]
    pub fn validity(mut self, valid_from: u32, valid_to: u32) -> Self {
        self.valid_from = valid_from;
        self.valid_to = valid_to;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One pair session between two enrolled devices of the same shard.
pub struct PairSession {
    /// Roster index of the initiating device.
    pub a: usize,
    /// Roster index of the responding device.
    pub b: usize,
    /// The session's own `fleet-pair` stream of endpoint pairs.
    rng: HmacDrbg,
    /// Eq. (1) for each side's peer, computed before the first rekey.
    hints: Option<(ReconstructionHint, ReconstructionHint)>,
    keyed: u64,
    last_key: Option<SessionKey>,
    failure: Option<FleetError>,
}

impl PairSession {
    /// Completed handshakes of this session: its first contact and
    /// every rekey, whichever sweep or epoch ran them.
    pub fn rekey_count(&self) -> u64 {
        self.keyed
    }

    /// The most recent session key, once established.
    pub fn last_key(&self) -> Option<&SessionKey> {
        self.last_key.as_ref()
    }

    /// Why this session most recently failed (e.g.
    /// [`ecq_cert::CertError::Revoked`] after a mid-run revocation),
    /// if it did.
    pub fn failure(&self) -> Option<&FleetError> {
        self.failure.as_ref()
    }

    /// Records how an establishment of this session ended: a key
    /// replaces [`Self::last_key`]; a failure or a denial sets
    /// [`Self::failure`] and leaves any key the session already held.
    fn record_outcome(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Keyed(key) => {
                self.last_key = Some(key);
                self.keyed += 1;
            }
            Outcome::Failed(e) => self.failure = Some(FleetError::Protocol(e)),
            Outcome::Denied => {
                self.failure = Some(FleetError::Protocol(ProtocolError::Cert(
                    CertError::Revoked,
                )));
            }
        }
    }

    /// This session's work in a round: the pair [`ecq_sts::endpoint_pair`]
    /// draws from its stream, hinted when `hinted`. A participant that
    /// is revoked, or cannot be checked for lack of a roster entry or
    /// credentials, denies the session (fail closed).
    fn work(
        &mut self,
        index: usize,
        devices: &[SimDevice],
        crl: &RevocationList,
        config: StsConfig,
        hinted: bool,
    ) -> SessionWork {
        let creds = |i: usize| {
            let d = devices.get(i)?.credentials.as_deref()?;
            (!crl.is_revoked(d.cert.serial)).then_some(d)
        };
        let pair = match (creds(self.a), creds(self.b)) {
            (Some(a), Some(b)) => {
                let (mut initiator, mut responder) =
                    ecq_sts::endpoint_pair(a.clone(), b.clone(), config, &mut self.rng);
                let hint = |cert, ca| ReconstructionHint::compute(cert, ca).ok();
                if hinted && self.hints.is_none() {
                    self.hints = hint(&b.cert, &a.ca_public).zip(hint(&a.cert, &b.ca_public));
                }
                // Without hints (a failed reconstruction) the handshake
                // re-evaluates eq. (1) and fails closed in Algorithm 2.
                if let (true, Some((for_a, for_b))) = (hinted, &self.hints) {
                    initiator = initiator.with_peer_hint(for_a.clone());
                    responder = responder.with_peer_hint(for_b.clone());
                }
                Pair::Built(Box::new((initiator, responder)))
            }
            _ => Pair::Denied,
        };
        // A denied slot never transmits: a missing device's board is moot.
        let preset = |i: usize| {
            devices
                .get(i)
                .map_or(DevicePreset::RaspberryPi4, |d| d.preset)
        };
        SessionWork {
            index,
            preset_a: preset(self.a),
            preset_b: preset(self.b),
            pair,
        }
    }
}

/// Drives N simulated devices through the full paper lifecycle —
/// sharded batch ECQV enrollment, concurrent STS establishment, rekey
/// epochs — on a virtual timeline.
///
/// # Example
///
/// ```
/// use ecq_fleet::{FleetConfig, FleetCoordinator};
///
/// let config = FleetConfig::new().devices(16).ca_shards(2);
/// let mut fleet = FleetCoordinator::new(config);
/// let report = fleet.run_lifecycle(2).unwrap();
/// assert_eq!(report.enrolled, 16);
/// assert!(report.rekeys > 0);
/// ```
pub struct FleetCoordinator {
    config: FleetConfig,
    pool: CaPool,
    devices: Vec<SimDevice>,
    device_seeds: Vec<[u8; 32]>,
    shard_rngs: Vec<HmacDrbg>,
    session_rng: HmacDrbg,
    sessions: Vec<PairSession>,
    /// Whether the one establishment sweep already ran.
    swept: bool,
    /// Rekey epochs already run, failed ones included: the next epoch
    /// continues the deployment clock from here.
    epochs_run: u32,
    crl: RevocationList,
    last_deliveries: Vec<DeliveryRecord>,
    last_frame_logs: Vec<(usize, Vec<FrameRecord>)>,
    report: FleetReport,
}

impl FleetCoordinator {
    /// Builds the roster and CA pool; no work happens until
    /// [`Self::enroll_all`].
    pub fn new(config: FleetConfig) -> Self {
        let mut master = HmacDrbg::from_seed(config.seed);
        let pool = CaPool::new(config.ca_shards, &mut master);
        let shard_rngs = (0..pool.shard_count())
            .map(|_| HmacDrbg::new(&master.bytes32(), b"fleet-shard"))
            .collect();
        let mut devices = Vec::with_capacity(config.devices);
        let mut device_seeds = Vec::with_capacity(config.devices);
        for i in 0..config.devices {
            let mut device = SimDevice::new(i, 0);
            device.shard = pool.shard_for(&device.id);
            devices.push(device);
            device_seeds.push(master.bytes32());
        }
        let mut report = FleetReport {
            devices: config.devices,
            shards: pool.shard_count(),
            ..FleetReport::default()
        };
        for d in &devices {
            *report.per_preset.entry(d.preset).or_insert(0) += 1;
        }
        FleetCoordinator {
            config,
            pool,
            devices,
            device_seeds,
            shard_rngs,
            session_rng: HmacDrbg::new(&master.bytes32(), b"fleet-sessions"),
            sessions: Vec::new(),
            swept: false,
            epochs_run: 0,
            crl: RevocationList::new(),
            last_deliveries: Vec::new(),
            last_frame_logs: Vec::new(),
            report,
        }
    }

    /// The device roster.
    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }

    /// Overrides every roster entry to simulate `preset` (homogeneous
    /// fleet). Presets only drive the virtual cost model, so this is
    /// safe at any point; call it before [`Self::enroll_all`] for the
    /// makespans to be consistent across phases.
    pub fn set_preset_all(&mut self, preset: DevicePreset) {
        for d in &mut self.devices {
            d.preset = preset;
        }
        self.report.per_preset.clear();
        self.report.per_preset.insert(preset, self.devices.len());
    }

    /// The pair sessions created by [`Self::handshake_sweep`] or
    /// [`Self::interleaved_sweep`] (none after [`Self::streaming_sweep`]).
    pub fn sessions(&self) -> &[PairSession] {
        &self.sessions
    }

    /// The running report.
    pub fn report(&self) -> &FleetReport {
        &self.report
    }

    /// Virtual CA-side cost of issuing one certificate on the gateway
    /// (a Raspberry Pi 4): the `k·G` blinding (keygen), the serial
    /// draw, and the two-block certificate hash.
    fn issue_cost_ms() -> f64 {
        let c = DevicePreset::RaspberryPi4.profile().costs;
        c.keygen_ms + c.rng32_ms + 2.0 * c.hash_block_ms
    }

    /// Virtual device-side cost of finishing an enrollment on `preset`:
    /// request keygen, eq. (1) public-key reconstruction, and the
    /// `d_U·G` possession check.
    fn reconstruct_cost_ms(preset: DevicePreset) -> f64 {
        let c = preset.profile().costs;
        2.0 * c.keygen_ms + c.recon_ms
    }

    /// Batch-enrolls every device against its CA shard: within a shard
    /// the CA serializes `issue_batch` calls of `enroll_batch`
    /// certificates each, shards run concurrently on the virtual
    /// timeline, and a device's enrollment completes when its batch is
    /// issued *and* the device finished its own key reconstruction.
    ///
    /// # Errors
    ///
    /// [`FleetError::Cert`] when issuance or reconstruction fails
    /// (impossible for well-formed rosters).
    pub fn enroll_all(&mut self) -> Result<(), FleetError> {
        let mut enroller = Enroller::new(
            self.config,
            &self.pool,
            &mut self.shard_rngs,
            &self.devices,
            &self.device_seeds,
        );
        let enrolled: Vec<Enrolled> = enroller.by_ref().collect();
        if let Some(e) = enroller.error {
            return Err(e);
        }
        self.report.enrolled += enroller.enrolled;
        self.report.enroll_batches += enroller.batches;
        self.report.enroll_makespan_us = enroller.makespan;
        for d in enrolled {
            if let Some(device) = self.devices.get_mut(d.index) {
                device.credentials = Some(Box::new(d.creds));
            }
        }
        Ok(())
    }

    /// The guard every establishment sweep passes first.
    ///
    /// # Panics
    ///
    /// Panics when an establishment sweep (handshake, interleaved or
    /// streaming) already ran: a second one would overwrite the first
    /// one's sessions and report.
    fn claim_sweep(&mut self) {
        assert!(
            !self.swept,
            "an establishment sweep runs once per coordinator"
        );
        self.swept = true;
    }

    /// Pairs consecutive enrolled devices within each shard (see
    /// [`PairProducer`]), creating one session per pair, and returns
    /// the pairs' first-contact work in session order. Pairing stays
    /// intra-shard because the shards are independent trust roots: a
    /// cross-shard handshake would (correctly) fail authentication.
    ///
    /// # Panics
    ///
    /// Panics when an establishment sweep already ran.
    fn create_sessions(&mut self) -> Vec<SessionWork> {
        self.claim_sweep();
        // Shard by shard, roster order within a shard: the sort is stable.
        let mut roster: Vec<&SimDevice> = self.devices.iter().collect();
        roster.sort_by_key(|d| d.shard);
        let enrolled = roster.into_iter().filter_map(|d| {
            let creds = d.credentials.as_deref()?.clone();
            Some(Enrolled {
                index: d.index,
                shard: d.shard,
                creds,
                preset: d.preset,
            })
        });
        let pairs = PairProducer::new(enrolled, &mut self.session_rng, &self.crl, self.config);
        let mut work = Vec::new();
        for (a, b, wire_seed, w) in pairs {
            self.sessions.push(PairSession {
                a,
                b,
                rng: HmacDrbg::new(&wire_seed, b"fleet-pair"),
                hints: None,
                keyed: 0,
                last_key: None,
                failure: None,
            });
            work.push(w);
        }
        self.report.sessions = self.sessions.len();
        work
    }

    /// Pairs consecutive enrolled devices within each shard and
    /// establishes every pair's first session at **message
    /// granularity**: each STS wire message is delivered as its own
    /// scheduler event over the configured transport, so handshakes on
    /// a shared bus interleave on the virtual timeline, and bus groups
    /// shard across [`SweepOptions::threads`] host workers (the report is
    /// bit-identical for any thread count and any
    /// [`SweepOptions::max_inflight`] — see [`crate::interleave`]).
    /// This is [`Self::streaming_sweep`]'s engine run over the enrolled
    /// roster as one establishment round, which records each outcome on
    /// its [`PairSession`] and keeps the round's diagnostic logs.
    ///
    /// Sessions whose participants are on the revocation list are
    /// denied ([`ecq_cert::CertError::Revoked`] recorded on the
    /// session, [`FleetReport::denied_revoked`] counted) while the
    /// rest of the fleet completes.
    ///
    /// # Errors
    ///
    /// [`FleetError::BusGroupTooLarge`] when a shared-bus group exceeds
    /// one bus's capacity (refused before anything runs, so the
    /// coordinator can still sweep); [`FleetError::Protocol`] when a
    /// non-revocation handshake failure occurs (impossible for
    /// well-formed rosters).
    ///
    /// # Panics
    ///
    /// Panics when called after another establishment sweep.
    pub fn interleaved_sweep(&mut self, opts: &SweepOptions) -> Result<(), FleetError> {
        interleave::check_transport(opts.transport)?;
        let work = self.create_sessions();
        self.run_round(work, opts).first_contact(&mut self.report)
    }

    /// The bounded-memory establishment sweep for million-device
    /// fleets: enrollment, pairing and handshake simulation run as one
    /// pipeline. Pair work is *produced lazily* — each pull
    /// batch-enrolls just enough devices to emit the next pair — and
    /// streamed through the sweep engine with at most
    /// [`SweepOptions::max_inflight`] sessions resident, so peak memory
    /// scales with the admission window and the roster skeleton, never
    /// with `devices × credentials`.
    ///
    /// The resulting [`FleetReport`] (including the key digest) is
    /// **bit-identical** to [`Self::enroll_all`] +
    /// [`Self::interleaved_sweep`] on the same `(config, seed)`, for
    /// any thread count and any window: both run the same enrollment
    /// routine, pairing, engine and fold. What the streaming path does
    /// *not* keep is the materialized state: the roster stays
    /// un-enrolled in memory, [`Self::sessions`] stays empty, and the
    /// diagnostic delivery and frame logs are dropped.
    ///
    /// # Errors
    ///
    /// [`FleetError::BusGroupTooLarge`] when a shared-bus group exceeds
    /// one bus's capacity (refused before anything runs),
    /// [`FleetError::Cert`] when enrollment fails,
    /// [`FleetError::Protocol`] when a non-revocation handshake failure
    /// occurs (both impossible for well-formed rosters).
    ///
    /// # Panics
    ///
    /// Panics when called after another establishment sweep or after
    /// [`Self::enroll_all`] (this sweep enrolls the roster itself).
    pub fn streaming_sweep(&mut self, opts: &SweepOptions) -> Result<(), FleetError> {
        interleave::check_transport(opts.transport)?;
        self.claim_sweep();
        assert!(
            self.report.enrolled == 0,
            "streaming_sweep enrolls the roster itself; do not call enroll_all first"
        );
        let enroller = Enroller::new(
            self.config,
            &self.pool,
            &mut self.shard_rngs,
            &self.devices,
            &self.device_seeds,
        );
        let total = enroller.queues.iter().map(|q| q.devices.len() / 2).sum();
        let mut pairs = PairProducer::new(enroller, &mut self.session_rng, &self.crl, self.config);
        let swept = sweep_and_fold(
            &mut self.report,
            &mut [],
            pairs.by_ref().map(|(_, _, _, work)| work),
            total,
            opts,
            |_| {},
            |_, _| {},
        )
        .first_contact(&mut self.report);
        self.report.sessions = pairs.next_index;
        let enroller = pairs.devices;
        self.report.enrolled = enroller.enrolled;
        self.report.enroll_batches = enroller.batches;
        self.report.enroll_makespan_us = enroller.makespan;
        match enroller.error {
            Some(e) => Err(e),
            None => swept,
        }
    }

    /// Every delivered message of the last establishment round, session
    /// by session in session-index order and, within a session, in
    /// delivery order (diagnostic: shows cross-session interleaving
    /// through the delivery times; not part of the report, but the same
    /// for any thread count). Empty after [`Self::streaming_sweep`].
    pub fn last_deliveries(&self) -> &[DeliveryRecord] {
        &self.last_deliveries
    }

    /// The per-bus frame-schedule logs of the last establishment round
    /// over a shared-bus transport, sorted by bus id, one entry per bus
    /// that transmitted a frame. The frame schedule is deterministic —
    /// it is pinned line-by-line by the golden shared-bus fixture. Empty
    /// after a [`TransportKind::Simnet`](crate::TransportKind::Simnet)
    /// round, whose one-pair buses hand over no log, and after
    /// [`Self::streaming_sweep`], which folds each bus's fault counters
    /// into the report and drops its frames.
    pub fn last_frame_logs(&self) -> &[(usize, Vec<FrameRecord>)] {
        &self.last_frame_logs
    }

    /// Revokes the certificate of roster device `index` on the
    /// coordinator's revocation list. Subsequent handshakes involving
    /// the device are denied with [`ecq_cert::CertError::Revoked`];
    /// established keys stay valid until their epoch ends (revocation
    /// stops *future* sessions — Table III, node capture).
    ///
    /// Returns `false` when the device is not enrolled or was already
    /// revoked.
    pub fn revoke_device(&mut self, index: usize) -> bool {
        match self.devices.get(index).and_then(|d| d.credentials.as_ref()) {
            Some(creds) => self.crl.revoke(creds.cert.serial),
            None => false,
        }
    }

    /// Mutable access to the revocation list, for revoking by serial
    /// before a [`Self::streaming_sweep`] (whose roster never holds the
    /// credentials [`Self::revoke_device`] would look up).
    pub fn revocation_list_mut(&mut self) -> &mut RevocationList {
        &mut self.crl
    }

    /// Pairs devices like [`Self::interleaved_sweep`] and runs every
    /// pair's first contact as an unhinted establishment round at t = 0
    /// under default [`SweepOptions`], denying revoked pairs. Unlike
    /// that sweep, each pair comes from the session's own stream, the
    /// one [`Self::run_epochs`] continues.
    ///
    /// # Errors
    ///
    /// [`FleetError::Protocol`] when a handshake fails.
    ///
    /// # Panics
    ///
    /// Panics when called after another establishment sweep.
    pub fn handshake_sweep(&mut self) -> Result<(), FleetError> {
        self.create_sessions();
        let work = self.session_work(0, false);
        self.run_round(work, &SweepOptions::default())
            .first_contact(&mut self.report)
    }

    /// Runs `epochs` more rekey epochs an hour of deployment time apart
    /// (the default [`RekeyPolicy::max_age_secs`]): epoch `e` is a
    /// hinted establishment round at `e` hours under default
    /// [`SweepOptions`], denying revoked pairs while the rest of the
    /// fleet rekeys; its keyed sessions count as
    /// [`FleetReport::rekeys`]. Epochs are numbered across calls, so
    /// `run_epochs(1)` twice runs what `run_epochs(2)` runs; a failed
    /// epoch counts too, since its deployment time has passed.
    ///
    /// # Errors
    ///
    /// The first failure of the first epoch that has one, e.g.
    /// [`ecq_cert::CertError::Expired`] after the certificates' validity
    /// ended. Every session of that epoch is attempted and records its
    /// outcome (a failed one keeps its last good key); no later epoch
    /// of this call runs.
    pub fn run_epochs(&mut self, epochs: u32) -> Result<(), FleetError> {
        let epoch_us = VirtualTime::from(RekeyPolicy::default().max_age_secs) * 1_000_000;
        for _ in 0..epochs {
            self.epochs_run += 1;
            let at = VirtualTime::from(self.epochs_run) * epoch_us;
            let handshakes = self.report.handshakes;
            let work = self.session_work(at, true);
            let round = self.run_round(work, &SweepOptions::default());
            self.report.rekeys += (self.report.handshakes - handshakes) as u64;
            self.report.key_digest = Some(round.digest);
            self.report.epoch_end_us = at + round.makespan;
            if let Some(e) = round.failure {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Every session's work for a round `at` µs into the run, at the
    /// matching deployment second: see [`PairSession::work`].
    fn session_work(&mut self, at: VirtualTime, hinted: bool) -> Vec<SessionWork> {
        let config = StsConfig {
            now: self
                .config
                .valid_from
                .saturating_add((at / 1_000_000) as u32),
            ..StsConfig::default()
        };
        let (devices, crl) = (&self.devices, &self.crl);
        (0..)
            .zip(&mut self.sessions)
            .map(|(index, s)| s.work(index, devices, crl, config, hinted))
            .collect()
    }

    /// One establishment round over every pair session: `work` runs
    /// through the sweep engine and fold on a clock that starts at 0,
    /// and its diagnostic logs replace the previous round's.
    fn run_round(&mut self, work: Vec<SessionWork>, opts: &SweepOptions) -> Round {
        let total = work.len();
        let (deliveries, frame_logs) = (&mut self.last_deliveries, &mut self.last_frame_logs);
        deliveries.clear();
        frame_logs.clear();
        sweep_and_fold(
            &mut self.report,
            &mut self.sessions,
            work.into_iter(),
            total,
            opts,
            |log| deliveries.extend(log),
            |bus, frames| frame_logs.push((bus, frames)),
        )
    }

    /// Convenience driver: enrollment, handshake sweep, then `epochs`
    /// rekey rounds. Returns the final report.
    ///
    /// # Errors
    ///
    /// Propagates any phase failure.
    pub fn run_lifecycle(&mut self, epochs: u32) -> Result<FleetReport, FleetError> {
        self.enroll_all()?;
        self.handshake_sweep()?;
        self.run_epochs(epochs)?;
        Ok(self.report.clone())
    }
}

/// What a round leaves besides the report's counters: the SHA-256 over
/// every session's outcome in session-index order, the makespan on the
/// round's own clock, and the first failure (a denial is not one).
struct Round {
    digest: [u8; 32],
    makespan: VirtualTime,
    failure: Option<FleetError>,
}

impl Round {
    /// Records a first contact's digest and makespan on `report` and
    /// returns its first failure.
    fn first_contact(self, report: &mut FleetReport) -> Result<(), FleetError> {
        report.key_digest = Some(self.digest);
        report.handshake_makespan_us = self.makespan;
        self.failure.map_or(Ok(()), Err)
    }
}

/// The one establishment engine and report fold: runs `work` through
/// [`interleave::run_sweep`] and folds every session result into
/// `report` in session-index order — counters, traffic and every bus's
/// fault counters — recording each outcome on its session in
/// `sessions` (none for a streaming sweep), each session's deliveries
/// with `record` and each non-empty bus frame log with `record_frames`.
fn sweep_and_fold(
    report: &mut FleetReport,
    sessions: &mut [PairSession],
    work: impl Iterator<Item = SessionWork>,
    total: usize,
    opts: &SweepOptions,
    mut record: impl FnMut(Vec<DeliveryRecord>),
    mut record_frames: impl FnMut(usize, Vec<FrameRecord>),
) -> Round {
    let mut digest = Sha256::new();
    let mut makespan: VirtualTime = 0;
    let mut first_failure: Option<FleetError> = None;
    interleave::run_sweep(work, total, opts, |first, results, trace| {
        for (index, result) in (first..).zip(results) {
            digest.update(&(index as u64).to_be_bytes());
            report.count(&result.outcome);
            match &result.outcome {
                Outcome::Keyed(key) => digest.update(key.as_bytes()),
                Outcome::Denied => digest.update(b"denied:revoked"),
                Outcome::Failed(err) => {
                    first_failure.get_or_insert(FleetError::Protocol(*err));
                    // The failure *mode* is part of the determinism
                    // witness: a run that times out where another saw an
                    // authentication failure must not digest equal.
                    digest.update(b"failed:");
                    digest.update(err.to_string().as_bytes());
                }
            }
            makespan = makespan.max(result.end_us);
            report.messages += result.messages;
            report.wire_bytes += result.wire_bytes;
            report.can_frames += result.frames;
            if let Some(session) = sessions.get_mut(index) {
                session.record_outcome(result.outcome);
            }
            record(result.deliveries);
        }
        report.faults += trace.counters;
        if !trace.frames.is_empty() {
            record_frames(trace.bus, trace.frames);
        }
    });
    Round {
        digest: digest.finalize(),
        makespan,
        failure: first_failure,
    }
}

/// A device whose enrollment completed, on its way into a pair.
struct Enrolled {
    index: usize,
    shard: usize,
    creds: Credentials,
    preset: DevicePreset,
}

/// The fleet's one enrollment routine, as an iterator over enrolled
/// devices — shard by shard, roster order within a shard — that enrolls
/// one batch per refill. [`FleetCoordinator::enroll_all`] drains it;
/// [`FleetCoordinator::streaming_sweep`] pulls it lazily through a
/// [`PairProducer`], so only one batch of credentials is resident.
///
/// Each shard's CA serializes its batches on its own virtual-time chain
/// starting at t = 0, so shards run concurrently on the virtual
/// timeline although the walk visits them one after another: chains
/// never interact, every DRBG is per shard or per device, the makespan
/// is a max and the counts are sums, so the walk order changes no
/// credential and no report field.
struct Enroller<'a> {
    config: FleetConfig,
    /// One queue per shard, and the walk's position.
    queues: Vec<ShardQueue<'a>>,
    shard: usize,
    cursor: usize,
    /// Virtual time the current shard's CA becomes free.
    shard_time: VirtualTime,
    per_cert_us: VirtualTime,
    /// The enrolled batch being handed out.
    batch: std::vec::IntoIter<Enrolled>,
    enrolled: usize,
    batches: usize,
    makespan: VirtualTime,
    /// First enrollment failure; the iterator fuses once set.
    error: Option<FleetError>,
}

/// One shard's enrollment queue: its CA, the CA's issuance DRBG, and
/// the shard's devices with their request seeds, in roster order.
struct ShardQueue<'a> {
    ca: &'a CertificateAuthority,
    rng: &'a mut HmacDrbg,
    devices: Vec<(&'a SimDevice, &'a [u8; 32])>,
}

impl<'a> Enroller<'a> {
    fn new(
        config: FleetConfig,
        pool: &'a CaPool,
        shard_rngs: &'a mut [HmacDrbg],
        devices: &'a [SimDevice],
        device_seeds: &'a [[u8; 32]],
    ) -> Self {
        let mut queues: Vec<ShardQueue<'a>> = pool
            .shards()
            .iter()
            .zip(shard_rngs)
            .map(|(ca, rng)| ShardQueue {
                ca,
                rng,
                devices: Vec::new(),
            })
            .collect();
        for (device, seed) in devices.iter().zip(device_seeds) {
            if let Some(queue) = queues.get_mut(device.shard) {
                queue.devices.push((device, seed));
            }
        }
        Enroller {
            config,
            queues,
            shard: 0,
            cursor: 0,
            shard_time: 0,
            per_cert_us: micros_from_ms(FleetCoordinator::issue_cost_ms()),
            batch: Vec::new().into_iter(),
            enrolled: 0,
            batches: 0,
            makespan: 0,
            error: None,
        }
    }

    /// One enrollment round for the current shard's next
    /// `enroll_batch` devices: fresh request secrets from per-device
    /// DRBGs, one amortized `issue_batch` on the shard's CA, then one
    /// shared inversion for the whole batch's eq. (1) reconstructions
    /// (`reconstruct_batch`, the device-side mirror). A device is done
    /// when its batch is issued *and* its own reconstruction finished.
    /// Returns an empty batch once every shard is enrolled.
    fn enroll_batch(&mut self) -> Result<Vec<Enrolled>, FleetError> {
        while self
            .queues
            .get(self.shard)
            .is_some_and(|queue| self.cursor >= queue.devices.len())
        {
            self.shard += 1;
            self.cursor = 0;
            self.shard_time = 0;
        }
        let Some(queue) = self.queues.get_mut(self.shard) else {
            return Ok(Vec::new());
        };
        let end = (self.cursor + self.config.enroll_batch.max(1)).min(queue.devices.len());
        let chunk = &queue.devices[self.cursor..end];
        self.cursor = end;

        let requesters: Vec<CertRequester> = chunk
            .iter()
            .map(|&(device, seed)| {
                let mut rng = HmacDrbg::new(seed, b"fleet-requester");
                CertRequester::generate(device.id, &mut rng)
            })
            .collect();
        let requests: Vec<_> = requesters.iter().map(|r| r.request()).collect();
        let ca = queue.ca;
        let issued = ca.issue_batch(
            &requests,
            self.config.valid_from,
            self.config.valid_to,
            queue.rng,
        )?;
        let ca_done = self.shard_time + self.per_cert_us * chunk.len() as VirtualTime;
        let keys = CertRequester::reconstruct_batch(&requesters, &issued, &ca.public_key())?;
        self.shard_time = ca_done;
        self.batches += 1;
        let mut batch = Vec::with_capacity(chunk.len());
        for ((&(device, _), cert), keys) in chunk.iter().zip(&issued).zip(keys) {
            let done =
                ca_done + micros_from_ms(FleetCoordinator::reconstruct_cost_ms(device.preset));
            self.makespan = self.makespan.max(done);
            self.enrolled += 1;
            batch.push(Enrolled {
                index: device.index,
                shard: self.shard,
                creds: Credentials {
                    id: device.id,
                    cert: cert.certificate,
                    keys,
                    ca_public: ca.public_key(),
                },
                preset: device.preset,
            });
        }
        Ok(batch)
    }
}

impl Iterator for Enroller<'_> {
    type Item = Enrolled;

    fn next(&mut self) -> Option<Enrolled> {
        loop {
            if let Some(device) = self.batch.next() {
                return Some(device);
            }
            if self.error.is_some() {
                return None;
            }
            match self.enroll_batch() {
                Ok(batch) if !batch.is_empty() => self.batch = batch.into_iter(),
                Ok(_) => return None,
                Err(e) => self.error = Some(e),
            }
        }
    }
}

/// Pairs consecutive devices of each shard into session work, in
/// session-index order: as each pair forms, its seed is drawn from the
/// session DRBG and both serials are checked against the revocation
/// list, so RNG streams do not depend on how a sweep shards the work.
/// `devices` yields shard by shard, roster order within a shard — the
/// enrolled roster for the materialized sweeps, an [`Enroller`] for the
/// streaming one — and a shard's odd last device stays unpaired. Items
/// are `(a, b, wire_seed, work)` with the pair's roster indices.
struct PairProducer<'a, I> {
    devices: I,
    /// The device waiting for its partner.
    held: Option<Enrolled>,
    /// Next session index to emit.
    next_index: usize,
    session_rng: &'a mut HmacDrbg,
    crl: &'a RevocationList,
    config: FleetConfig,
}

impl<'a, I> PairProducer<'a, I> {
    fn new(
        devices: I,
        session_rng: &'a mut HmacDrbg,
        crl: &'a RevocationList,
        config: FleetConfig,
    ) -> Self {
        PairProducer {
            devices,
            held: None,
            next_index: 0,
            session_rng,
            crl,
            config,
        }
    }
}

impl<I: Iterator<Item = Enrolled>> Iterator for PairProducer<'_, I> {
    type Item = (usize, usize, [u8; 32], SessionWork);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let b = self.devices.next()?;
            let Some(a) = self.held.take().filter(|a| a.shard == b.shard) else {
                self.held = Some(b);
                continue;
            };
            let index = self.next_index;
            self.next_index += 1;
            let wire_seed = self.session_rng.bytes32();
            let denied = self.crl.is_revoked(a.creds.cert.serial)
                || self.crl.is_revoked(b.creds.cert.serial);
            let work = SessionWork {
                index,
                preset_a: a.preset,
                preset_b: b.preset,
                pair: if denied {
                    Pair::Denied
                } else {
                    let config = StsConfig {
                        now: self.config.valid_from,
                        ..StsConfig::default()
                    };
                    Pair::Seeded(Box::new([a.creds, b.creds]), wire_seed, config)
                },
            };
            return Some((a.index, b.index, wire_seed, work));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig::new()
            .devices(24)
            .ca_shards(3)
            .enroll_batch(5)
            .seed(0xABCD)
    }

    #[test]
    fn enrollment_covers_every_device() {
        let mut fleet = FleetCoordinator::new(small_config());
        fleet.enroll_all().unwrap();
        assert_eq!(fleet.report().enrolled, 24);
        assert!(fleet.devices().iter().all(|d| d.credentials.is_some()));
        assert!(fleet.report().enroll_makespan_us > 0);
        // 24 devices over 3 shards in batches of ≤5 needs ≥ 5 batches.
        assert!(fleet.report().enroll_batches >= 5);
        for d in fleet.devices() {
            let creds = d.credentials.as_ref().unwrap();
            assert!(creds.keys.is_consistent());
            assert_eq!(creds.cert.subject, d.id);
            // Each device's certificate chains to its own shard's CA.
            assert_eq!(creds.ca_public, fleet.pool.shards()[d.shard].public_key());
        }
    }

    #[test]
    fn handshakes_agree_within_shards_with_distinct_keys() {
        let mut fleet = FleetCoordinator::new(small_config());
        fleet.enroll_all().unwrap();
        fleet.handshake_sweep().unwrap();
        assert!(!fleet.sessions().is_empty());
        assert_eq!(fleet.report().handshakes, fleet.sessions().len());
        let mut keys: Vec<[u8; 32]> = fleet
            .sessions()
            .iter()
            .map(|s| *s.last_key().unwrap().as_bytes())
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "every pair derives an independent key");
        for s in fleet.sessions() {
            assert_eq!(fleet.devices[s.a].shard, fleet.devices[s.b].shard);
            assert_eq!(s.rekey_count(), 1);
        }
    }

    #[test]
    fn epochs_rekey_every_session() {
        let mut fleet = FleetCoordinator::new(small_config());
        let report = fleet.run_lifecycle(3).unwrap();
        let sessions = fleet.sessions().len();
        assert_eq!(report.rekeys, 3 * sessions as u64);
        assert_eq!(report.handshakes, 4 * sessions);
        for s in fleet.sessions() {
            assert_eq!(s.rekey_count(), 4); // initial + 3 aged epochs
        }
        assert!(report.epoch_end_us > report.handshake_makespan_us);
    }

    #[test]
    fn runs_are_reproducible_from_the_seed() {
        let run = |seed| {
            let mut fleet = FleetCoordinator::new(small_config().seed(seed));
            fleet.run_lifecycle(1).unwrap();
            let keys: Vec<[u8; 32]> = fleet
                .sessions()
                .iter()
                .map(|s| *s.last_key().unwrap().as_bytes())
                .collect();
            (fleet.report().enroll_makespan_us, keys)
        };
        let (t1, k1) = run(7);
        let (t2, k2) = run(7);
        assert_eq!(t1, t2);
        assert_eq!(k1, k2);
        let (_, k3) = run(8);
        assert_ne!(k1, k3, "different seed must derive different keys");
    }

    #[test]
    fn sharding_speeds_up_virtual_enrollment() {
        let run = |shards| {
            let mut fleet = FleetCoordinator::new(
                FleetConfig::new()
                    .devices(32)
                    .ca_shards(shards)
                    .enroll_batch(4)
                    .seed(1),
            );
            fleet.enroll_all().unwrap();
            fleet.report().enroll_makespan_us
        };
        // More gateways working concurrently ⇒ shorter virtual makespan.
        assert!(run(4) < run(1));
    }
}
