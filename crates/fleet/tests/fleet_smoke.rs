//! Fleet-scale smoke tests: a four-digit enrollment sweep plus
//! property checks that the lifecycle is deterministic and correct at
//! smaller sizes (the ISSUE-mandated ≥1000-device enrollment runs real
//! ECQV cryptography for every device).

use ecq_crypto::sha256::Sha256;
use ecq_fleet::{FleetConfig, FleetCoordinator, SweepOptions, TransportKind};
use proptest::prelude::*;
use std::time::Instant;

#[test]
fn thousand_device_enrollment() {
    let mut fleet = FleetCoordinator::new(
        FleetConfig::new()
            .devices(1000)
            .ca_shards(8)
            .enroll_batch(64)
            .seed(0x1000),
    );
    fleet.enroll_all().expect("enrollment succeeds");
    let report = fleet.report();
    assert_eq!(report.enrolled, 1000);
    assert!(report.enroll_batches >= 1000 / 64);
    assert!(report.enrollments_per_virtual_sec() > 0.0);
    // Every fourth device spot-checked for full ECQV consistency.
    for d in fleet.devices().iter().step_by(4) {
        let creds = d.credentials.as_ref().expect("enrolled");
        assert!(creds.keys.is_consistent());
        assert_eq!(creds.cert.subject, d.id);
        assert!(creds.cert.is_valid_at(0));
    }
    // All four evaluation boards are represented in the roster.
    assert_eq!(report.per_preset.len(), 4);
    assert_eq!(report.per_preset.values().sum::<usize>(), 1000);
}

#[test]
fn lifecycle_enroll_handshake_rekey() {
    let mut fleet = FleetCoordinator::new(
        FleetConfig::new()
            .devices(40)
            .ca_shards(4)
            .enroll_batch(8)
            .seed(0x2000),
    );
    let report = fleet.run_lifecycle(2).unwrap();
    assert_eq!(report.enrolled, 40);
    assert!(
        report.sessions >= 16,
        "uneven shards still pair most devices"
    );
    assert_eq!(
        report.handshakes,
        report.sessions + report.rekeys as usize,
        "every rekey is a full fresh handshake"
    );
    assert_eq!(report.rekeys, 2 * report.sessions as u64);
    assert!(report.handshakes_per_virtual_sec() > 0.0);
}

/// The `fleet --smoke` sweep (1000 devices, 8 shards, batch 64, seed
/// 0xF1EE7) over the CAN-FD model reproduces the virtual-time figures
/// and key digest committed in `ci/BENCH_fleet_baseline.json`: any
/// change to the link model's timing or accounting moves one of them.
#[test]
fn smoke_sweep_matches_committed_baseline() {
    let mut fleet = FleetCoordinator::new(
        FleetConfig::new()
            .devices(1000)
            .ca_shards(8)
            .enroll_batch(64)
            .seed(0xF1EE7),
    );
    fleet.enroll_all().expect("enrollment succeeds");
    fleet
        .interleaved_sweep(
            &SweepOptions::new()
                .threads(2)
                .transport(TransportKind::Simnet),
        )
        .expect("sweep succeeds");
    let r = fleet.report();
    assert_eq!(r.sessions, 498);
    assert_eq!(r.handshake_makespan_us, 46_281_256);
    assert_eq!(r.messages, 1992);
    assert_eq!(r.wire_bytes, 244_518);
    assert_eq!(r.can_frames, 4980);
    let digest: String = r
        .key_digest
        .expect("the sweep digests its outcomes")
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        digest,
        "18b3b0ca9f321921472b1ff2451507216f18daf7381f122aa2fc260fea1adb33"
    );
}

/// The two oracles `perfbench` commits, rebuilt through the public API
/// (16 devices, seed 0xF1EE7). The rekey oracle digests every
/// session's key, in session order, after the first-contact sweep and
/// two rekey epochs; the stream oracle is the streaming sweep's report
/// digest. A change to the establishment path must keep both
/// byte-identical.
#[test]
fn perfbench_oracles_are_reproduced() {
    let hex = |d: &[u8]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let config = FleetConfig::new().devices(16).seed(0xF1EE7);

    let mut rekey = FleetCoordinator::new(config.validity(0, u32::MAX));
    rekey.enroll_all().expect("enrollment succeeds");
    rekey.handshake_sweep().expect("first contact succeeds");
    rekey.run_epochs(2).expect("rekeys succeed");
    let mut digest = Sha256::new();
    for s in rekey.sessions() {
        digest.update(s.last_key().expect("every session is keyed").as_bytes());
    }
    assert_eq!(
        hex(&digest.finalize()),
        "c7979a77e125002573062e1f6af004c46f0f543b63eeecb9d65157428da0c377"
    );

    let mut stream = FleetCoordinator::new(config);
    stream
        .streaming_sweep(
            &SweepOptions::new()
                .threads(2)
                .transport(TransportKind::Simnet)
                .max_inflight(1024),
        )
        .expect("sweep succeeds");
    let key_digest = stream.report().key_digest.expect("the sweep digests");
    assert_eq!(
        hex(&key_digest),
        "90d99c504715a97c812bc005947af4933f8669b6a1ae6ec64c799617b3c0b334"
    );
}

/// Host throughput of one interleaved sweep at `threads` workers
/// (handshakes per second), on a fresh fleet each time.
fn interleaved_hs_per_sec(threads: usize) -> f64 {
    let mut fleet = FleetCoordinator::new(
        FleetConfig::new()
            .devices(240)
            .ca_shards(4)
            .enroll_batch(32)
            .seed(0x5CA1E),
    );
    fleet.enroll_all().expect("enrollment succeeds");
    let start = Instant::now();
    fleet
        .interleaved_sweep(
            &SweepOptions::new()
                .threads(threads)
                .transport(TransportKind::Simnet),
        )
        .expect("sweep succeeds");
    fleet.report().handshakes as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The `best_thread_count: 2` regression this PR fixes: adding workers
/// must never *cost* throughput. Shards are dealt round-robin (equal
/// preset mix per worker) and session state moves into the workers, so
/// the only per-thread overhead left is spawning. Best-of-three runs
/// per count and a tolerance factor absorb scheduler noise — CI
/// containers may expose a single core, where the two counts are
/// legitimately equal rather than 8 being faster.
///
/// Ignored under plain `cargo test`: a wall-clock comparison is only
/// meaningful in release mode without sibling tests contending for
/// cores, so the fleet-smoke step of `scripts/verify.sh` runs it
/// explicitly (`--release … -- --ignored`).
#[test]
#[ignore = "wall-clock assertion; run via verify.sh fleet (release, isolated)"]
fn eight_threads_not_slower_than_two() {
    let best = |threads: usize| {
        (0..3)
            .map(|_| interleaved_hs_per_sec(threads))
            .fold(f64::MIN, f64::max)
    };
    let two = best(2);
    let eight = best(8);
    assert!(
        eight >= two * 0.8,
        "8-thread sweep regressed below 2-thread: {eight:.1} hs/s vs {two:.1} hs/s"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fleet_runs_are_seed_deterministic(
        seed in any::<u64>(),
        devices in 8usize..24,
        shards in 1usize..5,
        batch in 1usize..8,
    ) {
        let run = || {
            let mut fleet = FleetCoordinator::new(
                FleetConfig::new()
                    .devices(devices)
                    .ca_shards(shards)
                    .enroll_batch(batch)
                    .seed(seed),
            );
            let report = fleet.run_lifecycle(1).unwrap();
            let keys: Vec<[u8; 32]> = fleet
                .sessions()
                .iter()
                .map(|s| *s.last_key().unwrap().as_bytes())
                .collect();
            (report, keys)
        };
        let (r1, k1) = run();
        let (r2, k2) = run();
        prop_assert_eq!(r1.enrolled, devices);
        prop_assert_eq!(r1.enroll_makespan_us, r2.enroll_makespan_us);
        prop_assert_eq!(r1.handshake_makespan_us, r2.handshake_makespan_us);
        prop_assert_eq!(k1, k2);
    }
}
