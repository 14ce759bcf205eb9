//! The two fleet workloads, driven through `FleetCoordinator` only.

use crate::procfs::{process_cpu_s, thread_schedstat, NetClock, SchedStat};
use crate::report::Metrics;
use crate::trace::Tracer;
use crate::{derive_seed, Outcome, Run};
use ecq_crypto::sha256::Sha256;
use ecq_fleet::{
    FleetConfig, FleetCoordinator, FleetError, FleetReport, SweepOptions, TransportKind,
};
use std::time::{Duration, Instant};

/// Admission window of the streaming sweeps.
pub const STREAM_WINDOW: usize = 1024;
/// Devices per streaming sweep: four admission windows of pairs.
pub const STREAM_DEVICES: usize = 8 * STREAM_WINDOW;
/// Devices per rekey fleet and the epochs one `run_epochs` call runs:
/// small fleets, so a run holds enough calls for medians.
const REKEY_DEVICES: usize = 64;
const REKEY_EPOCHS: u32 = 16;

/// Fixed-seed fleets whose key digests are committed below: the
/// warm-up in a run's first set-up, and the oracle that a refactor of
/// the fleet engine must keep byte-identical.
const ORACLE_SEED: u64 = 0xF1EE7;
const ORACLE_DEVICES: usize = 16;
const STREAM_ORACLE_DIGEST: &str =
    "90d99c504715a97c812bc005947af4933f8669b6a1ae6ec64c799617b3c0b334";
const REKEY_ORACLE_DIGEST: &str =
    "c7979a77e125002573062e1f6af004c46f0f543b63eeecb9d65157428da0c377";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn stream_options(workers: usize) -> SweepOptions {
    SweepOptions::new()
        .threads(workers)
        .transport(TransportKind::Simnet)
        .max_inflight(STREAM_WINDOW)
}

/// The exact counts of one timed call's report.
fn report_counts(r: &FleetReport, makespan_us: u64) -> Metrics {
    let mut m = Metrics::default();
    m.put("fleet.enrolled", r.enrolled as f64, "count");
    m.put("fleet.enroll_batches", r.enroll_batches as f64, "count");
    m.put("fleet.sessions", r.sessions as f64, "count");
    m.put("fleet.handshakes", r.handshakes as f64, "count");
    m.put("fleet.rekeys", r.rekeys as f64, "count");
    m.put("fleet.messages", r.messages as f64, "count");
    m.put("fleet.wire_bytes", r.wire_bytes as f64, "count");
    m.put("fleet.can_frames", r.can_frames as f64, "count");
    m.put("fleet.virtual_makespan_us", makespan_us as f64, "count");
    m
}

fn since(before: Option<SchedStat>, after: Option<SchedStat>) -> Option<SchedStat> {
    Some(after?.since(before?))
}

/// One call on its own thread: the fleet's index, the call's result and
/// wall seconds, the thread's CPU and runqueue wait, and its spans.
type CallOutcome = (u64, Result<(), FleetError>, f64, Option<SchedStat>, Tracer);

/// Runs rounds of set-ups and calls until the rounds' wall time meets
/// `budget`. A round sets up `callers` fleets one after another, each
/// timed by [`Outcome::set_up`], then makes one call on each fleet at
/// once, each on a thread of its own. Each call is spanned (every other
/// round's when a traced run alternates); a round is measured for wall
/// time, time net of steal and process CPU, and each call for its
/// thread's CPU and runqueue wait. `finish` checks a call's report and
/// returns the handshakes it made.
#[allow(clippy::too_many_arguments)]
fn timed_calls(
    run: &Run,
    tracer: &mut Tracer,
    budget: Duration,
    span: &'static str,
    callers: usize,
    mut setup: impl FnMut(u64, &mut Vec<String>) -> Option<FleetCoordinator>,
    call: impl Fn(&mut FleetCoordinator) -> Result<(), FleetError> + Sync,
    mut finish: impl FnMut(u64, &FleetReport, &mut Outcome) -> u64,
) -> Outcome {
    let mut out = Outcome::default();
    let mut wall_s = 0.0;
    // A `/proc` sample that could not be read voids its sum, so the
    // metrics built on it are omitted rather than wrong.
    let mut process_cpu = Some(0.0);
    let mut caller = Some(SchedStat::default());
    for round in 0u64.. {
        let mut fleets = Vec::new();
        for i in round * callers as u64..(round + 1) * callers as u64 {
            match out.set_up(|problems| setup(i, problems)) {
                Some(fleet) => fleets.push((i, fleet)),
                None => break,
            }
        }
        if fleets.len() < callers {
            break;
        }

        if run.alternate_tracing {
            tracer.on = round % 2 == 1;
        }
        let cpu0 = process_cpu_s();
        let clock = NetClock::begin();
        let start = Instant::now();
        let calls: Vec<CallOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = fleets
                .iter_mut()
                .map(|(i, fleet)| {
                    let (i, call, mut tracer) = (*i, &call, tracer.fork());
                    scope.spawn(move || {
                        let sched0 = thread_schedstat();
                        let (result, wall) = tracer.span(span, i, |_| call(fleet));
                        let sched = since(sched0, thread_schedstat());
                        (i, result, wall.as_secs_f64(), sched, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet caller thread panicked"))
                .collect()
        });
        let (net_s, wall) = (clock.net_s(), start.elapsed().as_secs_f64());
        let cpu1 = process_cpu_s();
        process_cpu = process_cpu.zip(cpu1.zip(cpu0)).map(|(s, (b, a))| s + b - a);
        out.net_s += net_s;
        wall_s += wall;
        for ((i, result, call_wall, sched, call_tracer), (_, fleet)) in
            calls.into_iter().zip(&fleets)
        {
            tracer.absorb(call_tracer);
            caller = caller.zip(sched).map(|(s, d)| s.add(d));
            if let Err(e) = result {
                out.problems.push(format!("{span} call {i}: {e}"));
            }
            let handshakes = finish(i, fleet.report(), &mut out);
            // The call's share of the round's steal comes off its time.
            out.record_call(handshakes, call_wall * net_s / wall, tracer.on);
        }
        // Stop where the budget is met most closely; a traced run needs
        // a traced and an untraced round.
        let enough = !run.alternate_tracing || round >= 1;
        if enough && wall_s + wall / 2.0 >= budget.as_secs_f64() {
            break;
        }
    }
    out.cpu_s = process_cpu;
    let hs = out.handshakes.max(1) as f64;
    let frac = |ns: u64| ns as f64 / 1e9 / (callers as f64 * wall_s).max(1e-9);
    let m = &mut out.layer;
    m.put_opt(
        "fleet.caller_busy_frac",
        caller.map(|c| frac(c.cpu_ns)),
        "frac",
    );
    m.put_opt(
        "fleet.caller_wait_frac",
        caller.map(|c| frac(c.wait_ns)),
        "frac",
    );
    // Every thread but the callers: the sweep's workers, or nothing at
    // all for `run_epochs`, which runs on its caller.
    let workers = process_cpu
        .zip(caller)
        .map(|(cpu, c)| (cpu - c.cpu_ns as f64 / 1e9) * 1e3 / hs);
    m.put_opt("fleet.worker_cpu_ms_per_hs", workers, "ms");
    out
}

/// Checks a finished establishment sweep: every session handshook, none
/// timed out, was poisoned or was denied.
fn check_sweep(r: &FleetReport, devices: usize, problems: &mut Vec<String>) {
    let ok = r.enrolled == devices
        && r.sessions > 0
        && r.handshakes == r.sessions
        && r.timeouts == 0
        && r.poisoned == 0
        && r.denied_revoked == 0
        && r.key_digest.is_some();
    if !ok {
        problems.push(format!(
            "sweep report: enrolled {}/{devices}, handshakes {}/{} sessions, timeouts {}, \
             poisoned {}, denied {}",
            r.enrolled, r.handshakes, r.sessions, r.timeouts, r.poisoned, r.denied_revoked
        ));
    }
}

/// The fixed-seed streaming sweep: its key digest must equal the
/// committed one.
fn stream_oracle(workers: usize, problems: &mut Vec<String>) {
    let mut fleet =
        FleetCoordinator::new(FleetConfig::new().devices(ORACLE_DEVICES).seed(ORACLE_SEED));
    match fleet.streaming_sweep(&stream_options(workers)) {
        Ok(()) => {
            check_sweep(fleet.report(), ORACLE_DEVICES, problems);
            let digest = fleet
                .report()
                .key_digest
                .map(|d| hex(&d))
                .unwrap_or_default();
            if digest != STREAM_ORACLE_DIGEST {
                problems.push(format!(
                    "streaming oracle digest {digest} != committed {STREAM_ORACLE_DIGEST}"
                ));
            }
        }
        Err(e) => problems.push(format!("streaming oracle sweep failed: {e}")),
    }
}

/// `fleet-stream`: `streaming_sweep`s over fresh fleets of `devices`.
/// A set-up is `FleetCoordinator::new`; the first one also runs the
/// fixed-seed oracle sweep, the warm-up.
pub fn stream_workload(
    run: &Run,
    tracer: &mut Tracer,
    devices: usize,
    budget: Duration,
) -> Outcome {
    let opts = stream_options(run.workers);
    timed_calls(
        run,
        tracer,
        budget,
        "fleet.streaming_sweep",
        1,
        |i, problems| {
            if i == 0 {
                stream_oracle(run.workers, problems);
            }
            let config = FleetConfig::new()
                .devices(devices)
                .seed(derive_seed(run.seed, i));
            Some(FleetCoordinator::new(config))
        },
        |fleet| fleet.streaming_sweep(&opts),
        |i, r, out| {
            out.attempted += r.sessions.max(1) as u64;
            check_sweep(r, devices, &mut out.problems);
            if i == 0 {
                out.layer.extend(report_counts(r, r.handshake_makespan_us));
            }
            r.handshakes as u64
        },
    )
}

/// Digest over every session's current key, in session order.
fn session_key_digest(fleet: &FleetCoordinator) -> Option<String> {
    let mut digest = Sha256::new();
    for s in fleet.sessions() {
        digest.update(s.last_key()?.as_bytes());
    }
    Some(hex(&digest.finalize()))
}

/// One rekey set-up: enroll the fleet and establish every session once,
/// so each `SessionManager` caches its reconstruction hints. Epochs are
/// hourly; the widened validity keeps any number of them inside the
/// certificates' lifetime.
fn rekey_fleet(seed: u64, devices: usize) -> Result<FleetCoordinator, String> {
    let config = FleetConfig::new()
        .devices(devices)
        .seed(seed)
        .validity(0, u32::MAX);
    let mut fleet = FleetCoordinator::new(config);
    fleet.enroll_all().map_err(|e| format!("enroll_all: {e}"))?;
    fleet
        .handshake_sweep()
        .map_err(|e| format!("handshake_sweep: {e}"))?;
    Ok(fleet)
}

fn check_rekeys(r: &FleetReport, epochs: u32, problems: &mut Vec<String>) {
    let sessions = r.sessions as u64;
    let ok = sessions > 0
        && r.rekeys == sessions * u64::from(epochs)
        && r.handshakes as u64 == sessions * (1 + u64::from(epochs))
        && r.denied_revoked == 0
        && r.timeouts == 0
        && r.poisoned == 0;
    if !ok {
        problems.push(format!(
            "rekey report: {} rekeys and {} handshakes over {sessions} sessions × {epochs} \
             epochs, denied {}",
            r.rekeys, r.handshakes, r.denied_revoked
        ));
    }
}

/// The fixed-seed lifecycle: the digest of its session keys after two
/// rekey epochs must equal the committed one.
fn rekey_oracle(problems: &mut Vec<String>) {
    let outcome = rekey_fleet(ORACLE_SEED, ORACLE_DEVICES).and_then(|mut fleet| {
        fleet
            .run_epochs(2)
            .map_err(|e| format!("run_epochs: {e}"))?;
        check_rekeys(fleet.report(), 2, problems);
        session_key_digest(&fleet).ok_or_else(|| "a session has no key".to_string())
    });
    match outcome {
        Ok(digest) if digest == REKEY_ORACLE_DIGEST => {}
        Ok(digest) => problems.push(format!(
            "rekey oracle digest {digest} != committed {REKEY_ORACLE_DIGEST}"
        )),
        Err(e) => problems.push(format!("rekey oracle failed: {e}")),
    }
}

/// `fleet-rekey`: `run_epochs` on fresh fleets that set-up enrolled and
/// established once, so every rekey takes the cached-hint path; one
/// fleet per worker rekeys at a time. The first set-up also runs the
/// oracle lifecycle.
pub fn rekey_workload(run: &Run, tracer: &mut Tracer, budget: Duration) -> Outcome {
    timed_calls(
        run,
        tracer,
        budget,
        "fleet.run_epochs",
        run.workers,
        |i, problems| {
            if i == 0 {
                rekey_oracle(problems);
            }
            rekey_fleet(derive_seed(run.seed, i), REKEY_DEVICES)
                .map_err(|e| problems.push(e))
                .ok()
        },
        |fleet| fleet.run_epochs(REKEY_EPOCHS),
        |i, r, out| {
            out.attempted += r.sessions.max(1) as u64 * u64::from(REKEY_EPOCHS);
            check_rekeys(r, REKEY_EPOCHS, &mut out.problems);
            if i == 0 {
                out.layer.extend(report_counts(r, r.epoch_end_us));
            }
            r.rekeys
        },
    )
}
