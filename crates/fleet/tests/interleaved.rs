//! Integration tests for the message-granularity interleaved sweep:
//! thread-count determinism, cross-session interleaving, transport
//! accounting and fleet-level revocation.

use ecq_cert::CertError;
use ecq_fleet::{FleetConfig, FleetCoordinator, FleetError, SweepOptions, TransportKind};
use ecq_proto::ProtocolError;
use ecq_simnet::{FaultCounters, FaultSpec, SharedBus};

fn config(devices: usize, seed: u64) -> FleetConfig {
    FleetConfig::new()
        .devices(devices)
        .ca_shards(3)
        .enroll_batch(8)
        .seed(seed)
}

fn sweep(devices: usize, seed: u64, opts: &SweepOptions) -> FleetCoordinator {
    let mut fleet = FleetCoordinator::new(config(devices, seed));
    fleet.enroll_all().unwrap();
    fleet.interleaved_sweep(opts).unwrap();
    fleet
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let fleet = sweep(
                48,
                0xD15C,
                &SweepOptions::new()
                    .threads(threads)
                    .transport(TransportKind::Simnet),
            );
            fleet.report().clone()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 workers");
    assert_eq!(reports[0], reports[2], "1 vs 8 workers");
    assert!(reports[0].key_digest.is_some());
    assert_eq!(reports[0].handshakes, reports[0].sessions);
}

#[test]
fn poisoned_session_fails_closed_and_counts_in_report() {
    let mut fleet = FleetCoordinator::new(config(16, 0xB015));
    fleet.enroll_all().unwrap();
    let err = fleet
        .interleaved_sweep(&SweepOptions::new().poison(2))
        .expect_err("a poisoned session surfaces as a sweep failure");
    assert_eq!(
        err,
        FleetError::Protocol(ProtocolError::Poisoned),
        "the typed fail-closed error, not a panic"
    );
    let r = fleet.report();
    assert_eq!(r.poisoned, 1);
    assert_eq!(r.handshakes, r.sessions - 1, "siblings complete");
    assert!(r.key_digest.is_some(), "the report still finalizes");
}

#[test]
fn same_seed_reproduces_and_seeds_differ() {
    let opts = SweepOptions::default();
    let a = sweep(24, 7, &opts);
    let b = sweep(24, 7, &opts);
    let c = sweep(24, 8, &opts);
    assert_eq!(a.report(), b.report());
    assert_ne!(
        a.report().key_digest,
        c.report().key_digest,
        "different seed must derive different keys"
    );
}

#[test]
fn messages_are_delivered_at_wire_granularity() {
    let fleet = sweep(24, 0xBEEF, &SweepOptions::default());
    let r = fleet.report();
    let sessions = r.sessions as u64;
    assert!(sessions > 0);
    // Four STS messages per handshake, 491 B total (Table II).
    assert_eq!(r.messages, 4 * sessions);
    assert_eq!(r.wire_bytes, 491 * sessions);
    // A1(80+4)→2 frames, B1(245+4)→4, A2(165+4)→3, B2(1+4)→1.
    assert_eq!(r.can_frames, 10 * sessions);
    assert!(r.handshake_makespan_us > 0);
}

#[test]
fn handshakes_interleave_across_sessions() {
    // Four sessions per arbitrated bus: their messages interleave on the
    // virtual timeline, and the delivery log — session by session, in
    // session order — is the same for any worker count.
    let log = |threads: usize| {
        let opts = SweepOptions::new()
            .threads(threads)
            .transport(TransportKind::SharedBus { group: 4 });
        sweep(24, 0xCAFE, &opts).last_deliveries().to_vec()
    };
    let one = log(1);
    assert!(one.windows(2).all(|w| w[0].session <= w[1].session));
    let times = |session: usize| -> Vec<u64> {
        one.iter()
            .filter(|d| d.session == session)
            .map(|d| d.at_us)
            .collect()
    };
    let s0 = times(0);
    assert_eq!(s0.len(), 4);
    assert!(s0.windows(2).all(|w| w[0] <= w[1]), "delivery order");
    // Session 1 shares session 0's bus and is delivered to while
    // session 0's handshake is still open.
    assert!(
        times(1).iter().any(|&t| s0[0] < t && t < s0[3]),
        "session 0 ran atomically: {s0:?} vs {:?}",
        times(1)
    );
    assert_eq!(one, log(2), "1 vs 2 workers");
    assert_eq!(one, log(8), "1 vs 8 workers");
}

#[test]
fn keys_are_transport_independent_but_makespan_is_not() {
    // The derived keys depend only on the endpoint RNG streams; the bus
    // layout only decides *when* messages move.
    let simnet = sweep(24, 0xF00D, &SweepOptions::default());
    let shared = sweep(
        24,
        0xF00D,
        &SweepOptions::new()
            .threads(1)
            .transport(TransportKind::SharedBus { group: 4 }),
    );
    assert_eq!(simnet.report().key_digest, shared.report().key_digest);
    assert_eq!(simnet.report().can_frames, shared.report().can_frames);
    assert!(shared.report().handshake_makespan_us > simnet.report().handshake_makespan_us);
    // Simnet's buses run under an inert plan whatever the sweep's fault
    // spec says: drop/corrupt rates change nothing in the report.
    let faulted = sweep(
        24,
        0xF00D,
        &SweepOptions::new().faults(FaultSpec {
            seed: 9,
            drop_per_mille: 200,
            corrupt_per_mille: 200,
            ..FaultSpec::none()
        }),
    );
    assert_eq!(faulted.report(), simnet.report());
    assert_eq!(faulted.report().faults, FaultCounters::default());
}

#[test]
fn simnet_is_bus_group_one_under_an_inert_plan() {
    // Every event loop owns one bus, and Simnet is group 1 under an
    // inert plan: without faults both layouts give equal reports from
    // both sweep engines. Only the frame log differs.
    let group_one = TransportKind::SharedBus { group: 1 };
    let opts = |transport| SweepOptions::new().threads(2).transport(transport);
    let simnet = sweep(24, 0x1B05, &opts(TransportKind::Simnet));
    let bus = sweep(24, 0x1B05, &opts(group_one));
    assert_eq!(simnet.report(), bus.report());
    assert_eq!(simnet.last_deliveries(), bus.last_deliveries());
    assert!(
        simnet.last_frame_logs().is_empty(),
        "Simnet buses hand over no frame log"
    );
    assert_eq!(bus.last_frame_logs().len(), bus.report().sessions);
    for transport in [TransportKind::Simnet, group_one] {
        let mut fleet = FleetCoordinator::new(config(24, 0x1B05));
        fleet
            .streaming_sweep(&opts(transport).max_inflight(3))
            .unwrap();
        assert_eq!(fleet.report(), simnet.report(), "streaming {transport:?}");
    }
    // The sweep's deadline still binds a Simnet bus: cut short, both
    // layouts time out the same sessions and count the same messages
    // lost in flight.
    let cut = FaultSpec {
        deadline_us: simnet.report().handshake_makespan_us / 2,
        ..FaultSpec::none()
    };
    let cut_short = |transport| {
        let mut fleet = FleetCoordinator::new(config(24, 0x1B05));
        fleet.enroll_all().unwrap();
        let outcome = fleet.interleaved_sweep(&opts(transport).faults(cut));
        (fleet.report().clone(), outcome)
    };
    let (report, outcome) = cut_short(TransportKind::Simnet);
    assert_eq!(outcome, Err(FleetError::Protocol(ProtocolError::Timeout)));
    assert!(report.timeouts > 0);
    assert_eq!((report, outcome), cut_short(group_one));
}

#[test]
fn pre_sweep_revocation_denies_only_the_revoked_pair() {
    let mut fleet = FleetCoordinator::new(config(24, 0xDEAD));
    fleet.enroll_all().unwrap();
    assert!(fleet.revoke_device(0));
    assert!(!fleet.revoke_device(0), "second revocation is a no-op");
    fleet.interleaved_sweep(&SweepOptions::default()).unwrap();
    let r = fleet.report();
    let denied: Vec<_> = fleet
        .sessions()
        .iter()
        .filter(|s| s.failure().is_some())
        .collect();
    assert_eq!(denied.len(), 1);
    assert!(denied[0].a == 0 || denied[0].b == 0);
    assert_eq!(
        *denied[0].failure().unwrap(),
        FleetError::Protocol(ProtocolError::Cert(CertError::Revoked))
    );
    assert!(denied[0].last_key().is_none());
    assert_eq!(r.denied_revoked, 1);
    assert_eq!(r.handshakes, r.sessions - 1);
    // Everyone else still established.
    for s in fleet.sessions().iter().filter(|s| s.failure().is_none()) {
        assert!(s.last_key().is_some());
    }
}

#[test]
fn atomic_sweep_denies_a_revoked_pair_like_the_interleaved_sweep() {
    let revoked_fleet = || {
        let config = FleetConfig::new()
            .devices(24)
            .ca_shards(2)
            .enroll_batch(4)
            .seed(0xDEAD);
        let mut fleet = FleetCoordinator::new(config);
        fleet.enroll_all().unwrap();
        assert!(fleet.revoke_device(0));
        fleet
    };
    let mut handshake = revoked_fleet();
    handshake.handshake_sweep().unwrap();
    let mut interleaved = revoked_fleet();
    interleaved
        .interleaved_sweep(&SweepOptions::default())
        .unwrap();

    let session = handshake
        .sessions()
        .iter()
        .find(|s| s.a == 0 || s.b == 0)
        .expect("device 0 is paired");
    assert_eq!(
        session.failure(),
        Some(&FleetError::Protocol(ProtocolError::Cert(
            CertError::Revoked
        )))
    );
    assert!(session.last_key().is_none());

    let (a, i) = (handshake.report(), interleaved.report());
    assert_eq!(a.denied_revoked, 1);
    assert_eq!(a.handshakes, a.sessions - 1);
    assert_eq!(
        (a.denied_revoked, a.handshakes),
        (i.denied_revoked, i.handshakes)
    );
}

#[test]
fn mid_run_revocation_fails_subsequent_handshakes_only() {
    let mut fleet = FleetCoordinator::new(config(24, 0xACDC));
    fleet.enroll_all().unwrap();
    fleet.interleaved_sweep(&SweepOptions::default()).unwrap();
    assert_eq!(fleet.report().denied_revoked, 0);

    // Mid-run: every pair holds a key; now one device is compromised.
    assert!(fleet.revoke_device(1));
    fleet.run_epochs(2).unwrap();

    let revoked: Vec<_> = fleet
        .sessions()
        .iter()
        .filter(|s| s.a == 1 || s.b == 1)
        .collect();
    assert_eq!(revoked.len(), 1);
    // The sweep key it already held survives (forward secrecy protects
    // the past; revocation stops the future)…
    assert!(revoked[0].last_key().is_some());
    // …but its rekey handshakes were denied: the sweep's key is its
    // one establishment.
    assert_eq!(revoked[0].rekey_count(), 1);
    assert_eq!(
        *revoked[0].failure().unwrap(),
        FleetError::Protocol(ProtocolError::Cert(CertError::Revoked))
    );
    // One denial per epoch tick.
    assert_eq!(fleet.report().denied_revoked, 2);
    // The rest of the fleet kept rekeying: the sweep plus two epochs.
    for s in fleet.sessions().iter().filter(|s| !(s.a == 1 || s.b == 1)) {
        assert_eq!(s.rekey_count(), 3, "unrevoked sessions must proceed");
        assert!(s.failure().is_none());
    }
}

#[test]
fn rekey_epochs_ride_the_bus() {
    let mut fleet = FleetCoordinator::new(config(24, 0x5E55));
    fleet.enroll_all().unwrap();
    fleet.handshake_sweep().unwrap();
    let first_contact = fleet.report().clone();
    fleet.run_epochs(2).unwrap();
    let r = fleet.report();
    let sessions = r.sessions as u64;
    assert_eq!(r.rekeys, 2 * sessions);
    assert_eq!(r.handshakes as u64, 3 * sessions);
    // Every handshake, first contact and rekey alike, moves its four
    // STS messages (491 B, Table II) in 10 CAN-FD frames.
    let handshakes = r.handshakes as u64;
    assert_eq!(r.messages, 4 * handshakes);
    assert_eq!(r.wire_bytes, 491 * handshakes);
    assert_eq!(r.can_frames, 10 * handshakes);
    // The epochs run on the deployment clock after the sweep, which
    // keeps its own makespan. A rekey verifies with the pair's cached
    // eq. (1) hints, so its round ends sooner than first contact.
    assert_eq!(r.handshake_makespan_us, first_contact.handshake_makespan_us);
    let last_epoch_us = r.epoch_end_us - 2 * 3_600_000_000;
    assert!(0 < last_epoch_us && last_epoch_us < r.handshake_makespan_us);
}

#[test]
fn expiry_fails_every_session_of_its_epoch() {
    // The certificates expire between the first epoch (3600 s) and the
    // second (7200 s).
    let lifecycle = |epochs| {
        let mut fleet = FleetCoordinator::new(config(24, 0xE4B1).validity(0, 5_000));
        fleet.enroll_all().unwrap();
        fleet.handshake_sweep().unwrap();
        let outcome = fleet.run_epochs(epochs);
        (fleet, outcome)
    };
    let (one, outcome) = lifecycle(1);
    assert_eq!(outcome, Ok(()));
    let (two, outcome) = lifecycle(2);
    let expired = FleetError::Protocol(ProtocolError::Cert(CertError::Expired));
    assert_eq!(outcome, Err(expired));
    let r = two.report();
    assert!(r.sessions > 1);
    assert_eq!(r.rekeys, r.sessions as u64, "only the first epoch rekeyed");
    for (s, good) in two.sessions().iter().zip(one.sessions()) {
        assert_eq!(s.failure(), Some(&expired), "every session was attempted");
        assert_eq!(s.last_key(), good.last_key(), "and keeps its last good key");
        assert_eq!(s.rekey_count(), 2);
    }
}

#[test]
fn epochs_continue_across_calls() {
    // A second `run_epochs` call continues the deployment clock: two
    // one-epoch calls rekey at 3600 s and 7200 s, as one two-epoch call
    // does, instead of at 3600 s twice.
    let swept = |config: FleetConfig| {
        let mut fleet = FleetCoordinator::new(config);
        fleet.enroll_all().unwrap();
        fleet.handshake_sweep().unwrap();
        fleet
    };
    let mut once = swept(config(24, 0xE90C));
    once.run_epochs(2).unwrap();
    let mut split = swept(config(24, 0xE90C));
    split.run_epochs(1).unwrap();
    split.run_epochs(1).unwrap();
    let fields = |fleet: &FleetCoordinator| {
        let r = fleet.report();
        (r.rekeys, r.handshakes, r.epoch_end_us, r.key_digest)
    };
    assert_eq!(fields(&split), fields(&once));
    assert_eq!(split.report(), once.report());
    assert_eq!(split.sessions().len(), once.sessions().len());
    for (s, t) in split.sessions().iter().zip(once.sessions()) {
        assert_eq!(s.last_key(), t.last_key());
    }

    // The certificates expire at 5000 s, between the first call's epoch
    // and the second's, so the second call fails closed.
    let mut expiring = swept(config(24, 0xE4B1).validity(0, 5_000));
    assert_eq!(expiring.run_epochs(1), Ok(()));
    assert_eq!(
        expiring.run_epochs(1),
        Err(FleetError::Protocol(ProtocolError::Cert(
            CertError::Expired
        )))
    );
}

#[test]
fn streaming_sweep_reproduces_the_materialized_report() {
    // The bounded-memory pipeline (lazy enrollment + streamed
    // scheduling) must reproduce the materialized enroll_all +
    // interleaved_sweep report bit-for-bit, for any thread count and
    // any admission window.
    let simnet = (
        sweep(48, 0x57AE, &SweepOptions::default()).report().clone(),
        Ok(()),
    );
    assert!(simnet.0.key_digest.is_some());
    // Faulted shared buses: sessions may fail, so the reference's
    // outcome is compared rather than unwrapped.
    let faulted = SweepOptions::new()
        .transport(TransportKind::SharedBus { group: 4 })
        .faults(FaultSpec {
            seed: 21,
            drop_per_mille: 30,
            corrupt_per_mille: 30,
            deadline_us: 30_000_000,
            ..FaultSpec::none()
        });
    let mut bus_fleet = FleetCoordinator::new(config(48, 0x57AE));
    bus_fleet.enroll_all().unwrap();
    let outcome = bus_fleet.interleaved_sweep(&faulted);
    let bus = (bus_fleet.report().clone(), outcome);
    assert_ne!(bus.0.faults, FaultCounters::default());
    assert!(!bus_fleet.last_frame_logs().is_empty());
    for (threads, window, opts, (report, outcome)) in [
        (1, 2, SweepOptions::new(), &simnet),
        (2, 4, SweepOptions::new(), &simnet),
        (8, 16, SweepOptions::new(), &simnet),
        (3, usize::MAX, SweepOptions::new(), &simnet),
        (2, 8, faulted, &bus),
    ] {
        let opts = opts.threads(threads).max_inflight(window);
        let mut fleet = FleetCoordinator::new(config(48, 0x57AE));
        assert_eq!(fleet.streaming_sweep(&opts), *outcome);
        assert_eq!(
            fleet.report(),
            report,
            "streaming report differs (threads {threads}, window {window})"
        );
        assert!(
            fleet.last_frame_logs().is_empty(),
            "streaming keeps no frame logs"
        );
        assert!(
            fleet.sessions().is_empty(),
            "streaming keeps no per-session state"
        );
        assert!(
            fleet.devices().iter().all(|d| d.credentials.is_none()),
            "streaming never materializes roster credentials"
        );
    }
}

#[test]
fn finite_window_interleaved_sweep_matches_materialized() {
    // interleaved_sweep with a finite max_inflight routes through the
    // streaming scheduler but still materializes sessions; both the
    // report and per-session keys must be unchanged.
    let reference = sweep(32, 0x11AB, &SweepOptions::default());
    let windowed = sweep(32, 0x11AB, &SweepOptions::new().threads(2).max_inflight(3));
    assert_eq!(reference.report(), windowed.report());
    let ka: Vec<_> = reference
        .sessions()
        .iter()
        .map(|s| *s.last_key().unwrap().as_bytes())
        .collect();
    let kb: Vec<_> = windowed
        .sessions()
        .iter()
        .map(|s| *s.last_key().unwrap().as_bytes())
        .collect();
    assert_eq!(ka, kb);
}

#[test]
fn streaming_sweep_denies_revoked_pairs_like_materialized() {
    let mut reference = FleetCoordinator::new(config(24, 0xDEAD));
    reference.enroll_all().unwrap();
    assert!(reference.revoke_device(0));
    reference
        .interleaved_sweep(&SweepOptions::default())
        .unwrap();

    let mut streamed = FleetCoordinator::new(config(24, 0xDEAD));
    // Revocation is keyed by certificate serial; enrollment is
    // deterministic, so a throwaway coordinator yields the serial the
    // streaming run will (re)derive for device 0.
    let serial = {
        let mut probe = FleetCoordinator::new(config(24, 0xDEAD));
        probe.enroll_all().unwrap();
        probe.devices()[0].credentials.as_ref().unwrap().cert.serial
    };
    streamed.revocation_list_mut().revoke(serial);
    streamed
        .streaming_sweep(&SweepOptions::new().threads(2).max_inflight(4))
        .unwrap();
    assert_eq!(streamed.report(), reference.report());
    assert_eq!(streamed.report().denied_revoked, 1);
}

#[test]
fn oversized_bus_group_is_refused_before_the_sweep() {
    // One bus carries SharedBus::MAX_SLOTS sessions; a wider group is a
    // typed refusal that consumes nothing, so the coordinator can still
    // run its one sweep.
    let capacity = SharedBus::MAX_SLOTS;
    assert_eq!(capacity, 448, "0x100 + 4·slot must fit 11 bits");
    let refused = FleetError::BusGroupTooLarge {
        group: capacity + 1,
        capacity,
    };
    let too_wide = SweepOptions::new().transport(TransportKind::SharedBus {
        group: capacity + 1,
    });

    let mut fleet = FleetCoordinator::new(config(8, 0x0B05));
    fleet.enroll_all().unwrap();
    assert_eq!(fleet.interleaved_sweep(&too_wide), Err(refused));
    fleet
        .interleaved_sweep(&SweepOptions::new().transport(TransportKind::SharedBus { group: 4 }))
        .unwrap();

    // A fleet whose first bus would overflow: refused, then a bus
    // filled to capacity runs.
    let mut fleet = FleetCoordinator::new(
        FleetConfig::new()
            .devices(2 * (capacity + 1))
            .ca_shards(1)
            .enroll_batch(64)
            .seed(0x0B05),
    );
    assert_eq!(fleet.streaming_sweep(&too_wide), Err(refused));
    assert_eq!(fleet.report().enrolled, 0, "nothing ran");
    fleet
        .streaming_sweep(
            &SweepOptions::new()
                .threads(2)
                .transport(TransportKind::SharedBus { group: capacity }),
        )
        .unwrap();
    assert_eq!(fleet.report().handshakes, capacity + 1);
}

#[test]
#[should_panic(expected = "an establishment sweep runs once per coordinator")]
fn sweep_after_streaming_sweep_panics() {
    let mut fleet = FleetCoordinator::new(config(16, 3));
    fleet.streaming_sweep(&SweepOptions::default()).unwrap();
    let _ = fleet.interleaved_sweep(&SweepOptions::default());
}

#[test]
#[should_panic(expected = "an establishment sweep runs once per coordinator")]
fn streaming_sweep_after_sweep_panics() {
    let mut fleet = FleetCoordinator::new(config(16, 3));
    fleet.enroll_all().unwrap();
    fleet.interleaved_sweep(&SweepOptions::default()).unwrap();
    let _ = fleet.streaming_sweep(&SweepOptions::default());
}

#[test]
fn mixed_thread_and_transport_runs_share_keys() {
    // Thread count must not leak into key material either.
    let one = sweep(30, 42, &SweepOptions::default());
    let eight = sweep(
        30,
        42,
        &SweepOptions::new()
            .threads(8)
            .transport(TransportKind::Simnet),
    );
    let ka: Vec<_> = one
        .sessions()
        .iter()
        .map(|s| *s.last_key().unwrap().as_bytes())
        .collect();
    let kb: Vec<_> = eight
        .sessions()
        .iter()
        .map(|s| *s.last_key().unwrap().as_bytes())
        .collect();
    assert_eq!(ka, kb);
}
