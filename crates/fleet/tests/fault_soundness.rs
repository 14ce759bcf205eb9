//! Fault-soundness properties of the shared-bus sweep: under *any*
//! random fault schedule, every session either completes with equal
//! keys on both endpoints or fails closed — never a silent key
//! mismatch, never a half-open outcome — and the report stays
//! bit-identical across thread counts with faults enabled.

use ecq_devices::DevicePreset;
use ecq_fleet::{FleetConfig, FleetCoordinator, FleetError, SweepOptions, TransportKind};
use ecq_proto::ProtocolError;
use ecq_simnet::FaultSpec;
use proptest::prelude::*;

fn run_faulted(
    devices: usize,
    seed: u64,
    preset: DevicePreset,
    faults: FaultSpec,
    threads: usize,
) -> FleetCoordinator {
    let mut fleet = FleetCoordinator::new(
        FleetConfig::new()
            .devices(devices)
            .ca_shards(1)
            .enroll_batch(devices)
            .seed(seed),
    );
    fleet.set_preset_all(preset);
    fleet.enroll_all().expect("enrollment is fault-free");
    let opts = SweepOptions::new()
        .threads(threads)
        .transport(TransportKind::SharedBus { group: 2 })
        .faults(faults);
    // Handshake failures are the point of the exercise; the coordinator
    // still aggregates every session's outcome.
    let _ = fleet.interleaved_sweep(&opts);
    fleet
}

/// The soundness invariant: established XOR failed-closed, and the
/// failure is never a key mismatch.
fn assert_sound(fleet: &FleetCoordinator, context: &str) {
    for (i, s) in fleet.sessions().iter().enumerate() {
        let keyed = s.last_key().is_some();
        let failed = s.failure().is_some();
        assert!(
            keyed ^ failed,
            "{context}: session {i} ended half-open (keyed={keyed}, failed={failed})"
        );
        assert_ne!(
            s.failure(),
            Some(&FleetError::Protocol(ProtocolError::KeyMismatch)),
            "{context}: session {i} silently derived mismatched keys"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For ANY random fault schedule — loss, corruption, duplication,
    /// reordering, delay, skew, at any rate up to 12 % per frame —
    /// every session lands on exactly one side of the contract.
    #[test]
    fn any_fault_schedule_is_sound(
        fault_seed in any::<u64>(),
        fleet_seed in any::<u64>(),
        drop in 0u16..=120,
        corrupt in 0u16..=120,
        duplicate in 0u16..=120,
        reorder in 0u16..=120,
        delay in 0u16..=120,
        skew in 0u32..=80_000,
        preset_ix in 0usize..4,
    ) {
        let faults = FaultSpec {
            seed: fault_seed,
            drop_per_mille: drop,
            corrupt_per_mille: corrupt,
            duplicate_per_mille: duplicate,
            reorder_per_mille: reorder,
            delay_per_mille: delay,
            delay_ns: 2_000_000,
            skew_ppm: [0, skew],
            deadline_us: 60_000_000,
            ..FaultSpec::none()
        };
        let preset = DevicePreset::ALL[preset_ix];
        let fleet = run_faulted(8, fleet_seed, preset, faults, 1);
        assert_sound(&fleet, &format!("{preset:?}"));
        // Every loss the engine recorded is visible in the report, and
        // timeouts only occur when something was actually injected.
        let r = fleet.report();
        if r.timeouts > 0 {
            prop_assert!(
                faults.is_active(),
                "timeouts without any active fault class"
            );
        }
    }
}

/// Acceptance criterion: shared-bus sweeps stay bit-identical for
/// 1/2/8 worker threads *with faults enabled* (8 buses, so all three
/// thread counts genuinely shard differently).
#[test]
fn faulted_shared_bus_report_is_thread_count_invariant() {
    let faults = FaultSpec {
        seed: 0xFA_417,
        drop_per_mille: 50,
        corrupt_per_mille: 40,
        duplicate_per_mille: 30,
        reorder_per_mille: 30,
        deadline_us: 60_000_000,
        ..FaultSpec::none()
    };
    let run = |threads: usize| {
        run_faulted(32, 0xD0_0D, DevicePreset::S32K144, faults, threads)
            .report()
            .clone()
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one, two, "1 vs 2 workers under faults");
    assert_eq!(one, eight, "1 vs 8 workers under faults");
    assert!(one.key_digest.is_some());
    // The schedule must have actually injected something, or this
    // invariance test is vacuous.
    let c = one.faults;
    assert!(
        c.dropped + c.corrupted + c.duplicated + c.held_back > 0,
        "fault schedule fired nothing: {c:?}"
    );
}

/// Fixed-seed fault matrix across all 4 presets, 12 fault schedules
/// each — the release-mode fuzz pass of the CI `scenario` job
/// (`verify.sh scenario` runs it with `--ignored`).
#[test]
#[ignore = "heavy: release-mode fuzz pass, run via verify.sh scenario"]
fn fixed_seed_matrix_all_presets_and_variants() {
    for (pi, preset) in DevicePreset::ALL.into_iter().enumerate() {
        for schedule in 0u64..12 {
            let (round, salt) = (schedule / 3, schedule % 3);
            let faults = FaultSpec {
                seed: 0xC0FFEE ^ (round << 8) ^ ((pi as u64) << 4) ^ salt,
                drop_per_mille: 60,
                corrupt_per_mille: 50,
                duplicate_per_mille: 40,
                reorder_per_mille: 40,
                delay_per_mille: 40,
                delay_ns: 2_000_000,
                skew_ppm: [0, 25_000],
                deadline_us: 60_000_000,
                ..FaultSpec::none()
            };
            let fleet = run_faulted(8, 0xBEEF ^ round, preset, faults, 2);
            assert_sound(&fleet, &format!("{preset:?}/schedule{schedule}"));
        }
    }
}
