//! Fleet throughput sweep and the CI perf gate.
//!
//! Default run: batch-enrolls a 1000-device fleet, establishes every
//! pair at message granularity over the simnet transport (handshakes
//! interleaved on the virtual timeline, sharded across host threads),
//! then reports host wall-clock and simulated throughput, plus the
//! lifecycle (first contact, then rekey epochs, each a round of the
//! same sweep engine) and per-board lifecycles.
//!
//! ```sh
//! cargo run --release --bin fleet
//! # CI smoke: determinism check across thread counts + perf gate
//! cargo run --release --bin fleet -- --smoke --json BENCH_fleet.json \
//!     --baseline ci/BENCH_fleet_baseline.json --gate-pct 20
//! ```
//!
//! `--smoke` runs the interleaved sweep once per requested thread
//! count, fails (exit 1) if any `(config, seed)` report differs across
//! thread counts, writes the `BENCH_fleet.json` artifact, and — when a
//! baseline is given — fails if host handshake throughput regressed
//! more than `--gate-pct` percent, if peak RSS exceeded the baseline's
//! `peak_rss_bytes` by the same margin, or if either gate cannot be
//! evaluated. Regenerate the committed baseline on a CI-class runner
//! with `--write-baseline ci/BENCH_fleet_baseline.json`.
//!
//! ```sh
//! # Million-device tier: bounded-memory streaming sweep + RSS gate
//! cargo run --release --bin fleet -- --smoke --mega --threads 1,2 \
//!     --json BENCH_fleet_mega.json --baseline ci/BENCH_fleet_mega_baseline.json
//! ```
//!
//! `--mega` switches to `FleetCoordinator::streaming_sweep` (defaults:
//! 1,000,000 devices, `--max-inflight 4096`): enrollment is produced
//! lazily inside the sweep and resident state is bounded by the
//! admission window, so the run completes in a flat memory profile that
//! `peak_rss_bytes` records. Reports stay bit-identical to the
//! materialized path for any thread count and window.
//!
//! `--scenario <name>` runs one named adversarial scenario from the
//! shared-bus fault catalog against the BMS charging fleet and reports
//! the outcome; `--scenario list` prints the catalog, `--scenario all`
//! runs every entry (exit 1 if any outcome diverges from its paper
//! prediction).

use ecq_devices::DevicePreset;
use ecq_fleet::{FleetConfig, FleetCoordinator, FleetReport, SweepOptions, TransportKind};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    devices: usize,
    shards: usize,
    batch: usize,
    epochs: u32,
    seed: u64,
    threads: Vec<usize>,
    max_inflight: usize,
    mega: bool,
    json: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
    gate_pct: f64,
    smoke: bool,
    scenario: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            devices: 1000,
            shards: 8,
            batch: 64,
            epochs: 2,
            seed: 0xF1EE7,
            threads: vec![1, 2, 8],
            max_inflight: usize::MAX,
            mega: false,
            json: None,
            baseline: None,
            write_baseline: None,
            gate_pct: 20.0,
            smoke: false,
            scenario: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let (mut devices_given, mut inflight_given) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--devices" => {
                args.devices = value("--devices")?.parse().map_err(|e| format!("{e}"))?;
                devices_given = true;
            }
            "--shards" => args.shards = value("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--batch" => args.batch = value("--batch")?.parse().map_err(|e| format!("{e}"))?,
            "--epochs" => args.epochs = value("--epochs")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
                if args.threads.is_empty() {
                    return Err("--threads needs at least one count".into());
                }
            }
            "--max-inflight" => {
                args.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                inflight_given = true;
            }
            "--mega" => args.mega = true,
            "--json" => args.json = Some(value("--json")?),
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--write-baseline" => args.write_baseline = Some(value("--write-baseline")?),
            "--gate-pct" => {
                args.gate_pct = value("--gate-pct")?.parse().map_err(|e| format!("{e}"))?
            }
            "--smoke" => args.smoke = true,
            "--scenario" => args.scenario = Some(value("--scenario")?),
            other => {
                return Err(format!(
                    "unknown flag {other} (see --smoke docs in the source)"
                ))
            }
        }
    }
    // `--mega` is the million-device streaming preset; explicit flags
    // still win so smaller streaming runs stay one command.
    if args.mega {
        if !devices_given {
            args.devices = 1_000_000;
        }
        if !inflight_given {
            args.max_inflight = 4096;
        }
    }
    Ok(args)
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where the proc interface is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn config(args: &Args) -> FleetConfig {
    FleetConfig::new()
        .devices(args.devices)
        .ca_shards(args.shards)
        .enroll_batch(args.batch)
        .seed(args.seed)
}

/// One establishment sweep; returns the report and the timed host
/// wall-clock seconds. `--mega` uses the bounded-memory streaming
/// pipeline, where enrollment is produced lazily *inside* the sweep —
/// its wall-clock (and thus hs/s) covers enrollment + establishment,
/// not establishment alone, so mega numbers gate against their own
/// baseline.
fn interleaved_run(args: &Args, threads: usize) -> (FleetReport, f64) {
    let opts = SweepOptions::new()
        .threads(threads)
        .transport(TransportKind::Simnet)
        .max_inflight(args.max_inflight);
    let mut fleet = FleetCoordinator::new(config(args));
    if args.mega {
        let t = Instant::now();
        fleet.streaming_sweep(&opts).expect("streaming sweep");
        (fleet.report().clone(), t.elapsed().as_secs_f64())
    } else {
        fleet.enroll_all().expect("enrollment");
        let t = Instant::now();
        fleet.interleaved_sweep(&opts).expect("interleaved sweep");
        (fleet.report().clone(), t.elapsed().as_secs_f64())
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn bench_json(
    args: &Args,
    report: &FleetReport,
    deterministic: bool,
    hs_per_sec: f64,
    best_threads: usize,
    peak_rss: u64,
) -> String {
    let digest = report.key_digest.map(|d| hex(&d)).unwrap_or_default();
    let threads: Vec<String> = args.threads.iter().map(|t| t.to_string()).collect();
    let max_inflight = if args.max_inflight == usize::MAX {
        "null".to_string()
    } else {
        args.max_inflight.to_string()
    };
    format!(
        "{{\n  \"schema\": \"bench-fleet-v2\",\n  \"devices\": {},\n  \"shards\": {},\n  \"seed\": {},\n  \"sessions\": {},\n  \"threads\": [{}],\n  \"streaming\": {},\n  \"max_inflight\": {},\n  \"peak_rss_bytes\": {},\n  \"deterministic\": {},\n  \"handshakes_per_sec_host\": {:.2},\n  \"best_thread_count\": {},\n  \"virtual_makespan_us\": {},\n  \"virtual_handshakes_per_sec\": {:.2},\n  \"messages\": {},\n  \"wire_bytes\": {},\n  \"can_frames\": {},\n  \"key_digest\": \"{}\"\n}}\n",
        report.devices,
        report.shards,
        args.seed,
        report.sessions,
        threads.join(", "),
        args.mega,
        max_inflight,
        peak_rss,
        deterministic,
        hs_per_sec,
        best_threads,
        report.handshake_makespan_us,
        report.handshakes_per_virtual_sec(),
        report.messages,
        report.wire_bytes,
        report.can_frames,
        digest,
    )
}

/// Pulls `"<key>": <number>` out of a baseline file (hand-rolled: the
/// workspace carries no JSON dependency).
fn baseline_field(path: &str, key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("{path}: no {key} field"))?;
    let rest = text[at + needle.len()..]
        .trim_start()
        .split(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .next()
        .unwrap_or_default();
    rest.parse()
        .map_err(|e| format!("{path}: bad {key} number: {e}"))
}

/// CI smoke: thread-count determinism check + artifact + perf/RSS gates.
fn smoke(args: &Args) -> ExitCode {
    println!(
        "fleet smoke: {} devices, {} shards, {} simnet sweep, threads {:?}",
        args.devices,
        args.shards,
        if args.mega {
            "streaming (bounded-memory)"
        } else {
            "interleaved"
        },
        args.threads
    );
    let mut reference: Option<FleetReport> = None;
    let mut deterministic = true;
    let mut best = (args.threads[0], 0.0f64);
    for &threads in &args.threads {
        let (report, wall) = interleaved_run(args, threads);
        let hs_per_sec = report.handshakes as f64 / wall.max(1e-9);
        println!(
            "  threads={threads:<3} {:6} handshakes in {wall:7.3}s host  ({hs_per_sec:9.1} hs/s), \
             virtual makespan {:.3}s",
            report.handshakes,
            report.handshake_makespan_us as f64 / 1e6,
        );
        if hs_per_sec > best.1 {
            best = (threads, hs_per_sec);
        }
        match &reference {
            None => reference = Some(report),
            Some(expected) => {
                if *expected != report {
                    eprintln!(
                        "DETERMINISM FAILURE: report with {threads} threads differs from \
                         {}-thread report for the same (config, seed)",
                        args.threads[0]
                    );
                    deterministic = false;
                }
            }
        }
    }
    let report = reference.expect("at least one thread count");
    // A single requested thread count compares nothing, so it must not
    // claim a cross-thread determinism result.
    let deterministic = deterministic && args.threads.len() > 1;
    if deterministic {
        println!(
            "  deterministic across {:?} worker threads (key digest {})",
            args.threads,
            report.key_digest.map(|d| hex(&d[..8])).unwrap_or_default()
        );
    }

    let peak_rss = peak_rss_bytes();
    if peak_rss > 0 {
        println!(
            "  peak RSS: {:.1} MiB across all runs",
            peak_rss as f64 / (1024.0 * 1024.0)
        );
    }

    // Write the artifact before any gate verdict: when CI goes red, the
    // numbers explaining why must survive as the uploaded artifact.
    let json = bench_json(args, &report, deterministic, best.1, best.0, peak_rss);
    for path in args.json.iter().chain(args.write_baseline.iter()) {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  wrote {path}");
    }
    if !deterministic && args.threads.len() > 1 {
        return ExitCode::FAILURE;
    }

    if let Some(path) = &args.baseline {
        match baseline_field(path, "handshakes_per_sec_host") {
            Ok(floor_src) => {
                let floor = floor_src * (1.0 - args.gate_pct / 100.0);
                println!(
                    "  perf gate: {:.1} hs/s measured vs {floor:.1} hs/s floor \
                     (baseline {floor_src:.1} − {}%)",
                    best.1, args.gate_pct
                );
                if best.1 < floor {
                    eprintln!(
                        "PERF REGRESSION: {:.1} hs/s is more than {}% below the committed \
                         baseline {floor_src:.1} hs/s ({path})",
                        best.1, args.gate_pct
                    );
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("cannot evaluate perf gate: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Memory gate: the measured high-water mark may not exceed the
        // baseline's peak RSS by more than the gate percentage — the
        // bounded-memory contract, enforced with the same headroom as
        // throughput. Like the throughput gate, it fails rather than
        // skips when it cannot be evaluated.
        let baseline_rss = match baseline_field(path, "peak_rss_bytes") {
            Ok(rss) => rss,
            Err(e) => {
                eprintln!("cannot evaluate rss gate: {e}");
                return ExitCode::FAILURE;
            }
        };
        if peak_rss == 0 {
            eprintln!("cannot evaluate rss gate: no VmHWM in /proc/self/status");
            return ExitCode::FAILURE;
        }
        let ceiling = baseline_rss * (1.0 + args.gate_pct / 100.0);
        println!(
            "  rss gate: {:.1} MiB measured vs {:.1} MiB ceiling \
             (baseline {:.1} MiB + {}%)",
            peak_rss as f64 / (1024.0 * 1024.0),
            ceiling / (1024.0 * 1024.0),
            baseline_rss / (1024.0 * 1024.0),
            args.gate_pct
        );
        if peak_rss as f64 > ceiling {
            eprintln!(
                "MEMORY REGRESSION: peak RSS {} bytes is more than {}% above the \
                 committed baseline {baseline_rss:.0} bytes ({path})",
                peak_rss, args.gate_pct
            );
            return ExitCode::FAILURE;
        }
    }
    println!("fleet smoke OK");
    ExitCode::SUCCESS
}

/// `--scenario`: the adversarial shared-bus fault catalog, reported in
/// charging-session terms (see `ecq_bms::adversarial`).
fn scenario_mode(which: &str) -> ExitCode {
    use ecq_bms::adversarial;
    use ecq_fleet::scenario::{catalog, Expected};
    match which {
        "list" => {
            println!("adversarial scenarios ({} in catalog):", catalog().len());
            for s in catalog() {
                println!("  {:<26} {}", s.name, s.summary);
            }
            ExitCode::SUCCESS
        }
        "all" => {
            let mut failed = false;
            for s in catalog() {
                let report = adversarial::run(s.name).expect("catalog name resolves");
                let predicted =
                    matches!(s.expected, Expected::Completes | Expected::CompletesSlower);
                let ok = report.charging_authorized == predicted;
                println!(
                    "  {:<8} {}",
                    if ok { "ok" } else { "DIVERGED" },
                    adversarial::render(&report)
                );
                failed |= !ok;
            }
            if failed {
                eprintln!("scenario outcomes diverged from their predicted results");
                return ExitCode::FAILURE;
            }
            println!(
                "all {} scenarios match their predicted outcomes",
                catalog().len()
            );
            ExitCode::SUCCESS
        }
        name => match adversarial::run(name) {
            Some(report) => {
                println!("{}", adversarial::render(&report));
                let c = report.faults;
                println!(
                    "  injected: {} dropped, {} corrupted, {} duplicated, {} held back, \
                     {} delayed, {} replayed, {} storm frames ({} messages lost)",
                    c.dropped,
                    c.corrupted,
                    c.duplicated,
                    c.held_back,
                    c.delayed,
                    c.replayed,
                    c.storm_frames,
                    c.messages_lost,
                );
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown scenario {name:?}; try --scenario list");
                ExitCode::FAILURE
            }
        },
    }
}

/// The full human-readable sweep (default mode).
fn full_run(args: &Args) -> ExitCode {
    let devices = args.devices;
    let threads = args.threads.iter().copied().max().unwrap_or(1);
    println!(
        "fleet sweep: {devices} devices, {} CA shards, batches of {}\n",
        args.shards, args.batch
    );

    // Interleaved establishment over the simnet transport.
    let (report, wall) = interleaved_run(args, threads);
    println!(
        "{} simnet sweep ({threads} host threads, message-granularity events):",
        if args.mega {
            "streaming (bounded-memory)"
        } else {
            "interleaved"
        }
    );
    println!(
        "  handshakes : {:8.0} hs/s      ({} sessions in {:.2?}; {} wire messages, {} CAN frames)",
        report.handshakes as f64 / wall.max(1e-9),
        report.handshakes,
        std::time::Duration::from_secs_f64(wall),
        report.messages,
        report.can_frames,
    );
    println!(
        "  simulated  : {:8.1} hs/s      (virtual makespan {:.2} s, pairs interleaved)",
        report.handshakes_per_virtual_sec(),
        report.handshake_makespan_us as f64 / 1e6,
    );
    if args.mega {
        // The streaming tier never materializes the fleet, so the
        // lifecycle and per-board comparisons below (which do) are out
        // of scope for it.
        let peak = peak_rss_bytes();
        if peak > 0 {
            println!(
                "  peak RSS   : {:8.1} MiB      (admission window {})",
                peak as f64 / (1024.0 * 1024.0),
                args.max_inflight,
            );
        }
        return ExitCode::SUCCESS;
    }

    // The lifecycle: enrollment, a first-contact round, rekey epochs.
    let mut fleet = FleetCoordinator::new(config(args));
    let t = Instant::now();
    fleet.enroll_all().expect("enrollment");
    let enroll_wall = t.elapsed();
    let t = Instant::now();
    fleet.handshake_sweep().expect("handshakes");
    let handshake_wall = t.elapsed();
    let t = Instant::now();
    fleet.run_epochs(args.epochs).expect("rekey epochs");
    let epoch_wall = t.elapsed();

    let r = fleet.report().clone();
    println!("\nhost wall-clock, lifecycle (one sweep-engine round per epoch, all boards):");
    println!(
        "  enrollment : {:8.0} enroll/s  ({} devices in {:.2?}, {} batches)",
        r.enrolled as f64 / enroll_wall.as_secs_f64(),
        r.enrolled,
        enroll_wall,
        r.enroll_batches,
    );
    println!(
        "  handshakes : {:8.0} hs/s      ({} sessions in {:.2?})",
        r.sessions as f64 / handshake_wall.as_secs_f64(),
        r.sessions,
        handshake_wall,
    );
    println!(
        "  rekeys     : {:8.0} rekey/s   ({} rekeys over {} epochs in {:.2?})",
        r.rekeys as f64 / epoch_wall.as_secs_f64(),
        r.rekeys,
        args.epochs,
        epoch_wall,
    );
    println!(
        "\nsimulated enrollment: {:.1} enroll/s (makespan {:.2} s across {} shards)",
        r.enrollments_per_virtual_sec(),
        r.enroll_makespan_us as f64 / 1e6,
        r.shards,
    );

    // Per-preset sweeps: a homogeneous fleet of each evaluation board.
    println!("\nper-board simulated throughput ({devices} devices, homogeneous fleet):");
    println!(
        "  {:<14}{:>16}{:>16}{:>12}",
        "board", "enroll/s", "handshake/s", "rekeys"
    );
    for preset in DevicePreset::ALL {
        let report = homogeneous_sweep(args, preset);
        println!(
            "  {:<14}{:>16.1}{:>16.2}{:>12}",
            format!("{preset:?}"),
            report.enrollments_per_virtual_sec(),
            report.handshakes_per_virtual_sec(),
            report.rekeys,
        );
    }
    ExitCode::SUCCESS
}

/// Runs the lifecycle on a fleet where every device simulates `preset`
/// (the roster's round-robin is collapsed by overriding the presets).
fn homogeneous_sweep(args: &Args, preset: DevicePreset) -> FleetReport {
    let mut fleet = FleetCoordinator::new(config(args).seed(args.seed ^ preset as u64));
    fleet.set_preset_all(preset);
    fleet.run_lifecycle(args.epochs).expect("lifecycle");
    fleet.report().clone()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(which) = &args.scenario {
        scenario_mode(which)
    } else if args.smoke {
        smoke(&args)
    } else {
        full_run(&args)
    }
}
