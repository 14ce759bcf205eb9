//! perfbench: the end-to-end benchmark of the ECQV + STS reproduction,
//! with a traced per-layer replay.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (each drives the program only through its public entry
//! points; `nproc` is `available_parallelism()`):
//!
//! * `fleet-stream` — `FleetCoordinator::streaming_sweep` over the
//!   simnet transport on `nproc` workers with a 1024-session admission
//!   window: lazy batch enrollment on the calling thread, first-contact
//!   handshakes, the CAN-FD/ISO-TP simulation and the in-order fold.
//! * `fleet-rekey` — `FleetCoordinator::run_epochs` on fleets that
//!   set-up enrolled and established once, so every rekey takes the
//!   cached-hint path: no enrollment, no eq. (1), no transport.
//!   `run_epochs` runs on its calling thread, so `nproc` fleets rekey at
//!   once, each on a thread of its own: with a virtual CPU left idle,
//!   the speed of the busy one swung by half from run to run.
//! * `service-loopback` — an in-process `ServiceDaemon` on loopback
//!   TCP with `2 × nproc` closed-loop clients, each running cycles of
//!   one enrollment and four handshakes: sockets, framing, daemon
//!   dispatch. `BENCHMARK.json` does not list it: on a 2-vCPU VM, whole
//!   processes of it ran 30–60% faster than others at random, and the
//!   quartile spread of its median latency over ten runs exceeded 0.25.
//!   Traced fleet runs still measure the service layer, through a short
//!   probe of this workload.
//!
//! `--trace 0` prints the end-to-end metrics:
//!
//! * `setup_s` — median CPU seconds of the run's set-ups, see
//!   [`Outcome::set_up`];
//! * `hs_per_s` — handshakes per second of the timed region, on a clock
//!   that stops while the hypervisor steals the virtual CPUs
//!   ([`procfs::NetClock`]);
//! * `peak_rss_mib` — `VmHWM`;
//! * `hs_p50_ms` — in `service-loopback` the median latency of
//!   `ServiceClient::handshake` as its client sees it; in `fleet-rekey`
//!   the median over `run_epochs` calls of the time per rekey (the
//!   rekeys of a call run one after another on its caller); in
//!   `fleet-stream` the median over sweeps of their time per handshake,
//!   which is inverse throughput and not a latency: a sweep keeps 1024
//!   handshakes in flight. Both fleet figures use the same clock as
//!   `hs_per_s`.
//!
//! Tail latency is per-layer (`service.hs_p90_ms`, `service.hs_p99_ms`).
//! `--trace 1` prints the per-layer metrics of a traced run (spans around
//! every call, a probe of the entry point the workload bypasses, and a
//! replay of the operation mix through each lower layer). The last line
//! of standard output is the JSON result; the spans are written to
//! `perfbench/trace-out/`.

mod fleet;
mod procfs;
mod replay;
mod report;
mod service;
mod trace;

use report::{mean, median, result_line, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per `service-loopback` run (each a daemon start and every
/// client's connect, hello and warm-up handshake); `setup_s` is their
/// median.
const SERVICE_SETUPS: u64 = 31;
/// Wall budget of the probe a traced run makes of the entry point its
/// workload bypasses. The probe exists because every traced run reports
/// every per-layer metric: a fleet workload's `service.*` figures and
/// `service-loopback`'s `fleet.*` figures are the probe's.
const PROBE_BUDGET: Duration = Duration::from_millis(1500);
/// The replayed layers whose share of the replay's self time a traced
/// run reports.
const REPLAY_LAYERS: [&str; 6] = ["cert", "sts", "p256", "simnet", "proto", "crypto"];
/// The ROADMAP's prior for the share of a handshake's cost that is
/// curve arithmetic.
const CRYPTO_SHARE_PRIOR: f64 = 0.85;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    FleetStream,
    FleetRekey,
    ServiceLoopback,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet-stream" => Some(Workload::FleetStream),
            "fleet-rekey" => Some(Workload::FleetRekey),
            "service-loopback" => Some(Workload::ServiceLoopback),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FleetStream => "fleet-stream",
            Workload::FleetRekey => "fleet-rekey",
            Workload::ServiceLoopback => "service-loopback",
        }
    }

    /// The threads that make the workload's calls: sweep workers,
    /// `run_epochs`'s one caller, or service clients.
    fn threads(self, nproc: usize) -> (usize, &'static str) {
        match self {
            Workload::FleetStream => (nproc, "sweep workers"),
            Workload::FleetRekey => (nproc, "run_epochs callers"),
            Workload::ServiceLoopback => (service::CLIENTS_PER_CPU * nproc, "clients"),
        }
    }
}

/// The run-wide parameters every workload reads.
pub struct Run {
    pub seed: u64,
    /// `nproc`: the sweep workers, the concurrent `run_epochs` callers,
    /// and the CPUs the service clients are counted per.
    pub workers: usize,
    /// Trace every other timed call, so a traced run also measures the
    /// cost of tracing.
    pub alternate_tracing: bool,
}

/// SplitMix64 of `seed` and `index`: independent per-fleet, per-daemon
/// and per-client seeds from the one workload seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the curve's lazily initialised generator tables. Every set-up
/// calls it first, so no timed call pays for their construction.
fn warm_tables() {
    std::hint::black_box(ecq_p256::precomp::generator_table());
    std::hint::black_box(ecq_p256::precomp::generator_table_wide());
}

/// What a workload's timed region measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed correctness checks; any one fails the run.
    pub problems: Vec<String>,
    /// Per set-up: CPU seconds of all threads, and wall seconds.
    pub setup_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    /// Handshakes completed in the timed region, and its seconds on the
    /// [`procfs::NetClock`].
    pub handshakes: u64,
    pub net_s: f64,
    /// `hs_p50_ms`'s samples: per fleet call its net milliseconds per
    /// handshake, per service handshake its client-visible latency.
    pub hs_ms: Vec<f64>,
    pub enroll_ms: Vec<f64>,
    pub enrollments: u64,
    /// `hs_ms` split by whether the call was traced.
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    /// Process CPU seconds spent on the timed work.
    pub cpu_s: Option<f64>,
    /// Per-layer metrics of the entry point the workload drives.
    pub layer: Metrics,
}

impl Outcome {
    /// Runs one set-up (building the curve tables first) and records
    /// its CPU time over every thread as a `setup_s` sample, and its
    /// wall time. CPU time is the reported figure: on a virtual machine
    /// the wall time of a set-up's thread hand-offs swings several-fold
    /// with the host's load, while the work a change can move into
    /// set-up shows in CPU time.
    pub fn set_up<T>(&mut self, f: impl FnOnce(&mut Vec<String>) -> T) -> T {
        let (cpu0, t) = (procfs::threads_cpu_ns(), Instant::now());
        warm_tables();
        let out = f(&mut self.problems);
        self.setup_wall_s.push(t.elapsed().as_secs_f64());
        if let Some(cpu) = cpu0.and_then(|c| procfs::threads_cpu_s_since(&c)) {
            self.setup_s.push(cpu);
        }
        out
    }

    /// Records one fleet call that took `net_s` on the
    /// [`procfs::NetClock`].
    pub fn record_call(&mut self, handshakes: u64, net_s: f64, traced: bool) {
        self.handshakes += handshakes;
        if handshakes > 0 {
            let ms = net_s * 1e3 / handshakes as f64;
            self.hs_ms.push(ms);
            if traced {
                self.traced_ms.push(ms);
            } else {
                self.untraced_ms.push(ms);
            }
        }
    }

    fn hs_per_s(&self) -> Option<f64> {
        (self.handshakes > 0 && self.net_s > 0.0).then(|| self.handshakes as f64 / self.net_s)
    }

    fn cpu_ms_per_hs(&self) -> Option<f64> {
        Some(self.cpu_s? * 1e3 / self.handshakes.max(1) as f64)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_cli() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Run {
        seed: args.seed,
        workers: nproc,
        alternate_tracing: args.trace,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::new(Instant::now(), false);
    let outcome = match args.workload {
        Workload::FleetStream => {
            fleet::stream_workload(&run, &mut tracer, fleet::STREAM_DEVICES, budget)
        }
        Workload::FleetRekey => fleet::rekey_workload(&run, &mut tracer, budget),
        Workload::ServiceLoopback => {
            service::loopback_workload(&run, &mut tracer, SERVICE_SETUPS, budget, args.trace)
        }
    };
    let (threads, role) = args.workload.threads(nproc);
    println!(
        "perfbench {} seed {}: nproc {nproc}, {threads} {role}, {} handshakes in {:.2} s of \
         the timed region net of steal; median set-up {:.2} ms wall, {:.2} ms CPU",
        args.workload.name(),
        args.seed,
        outcome.handshakes,
        outcome.net_s,
        median(&outcome.setup_wall_s).unwrap_or(0.0) * 1e3,
        median(&outcome.setup_s).unwrap_or(0.0) * 1e3,
    );

    let mut problems = outcome.problems.clone();
    let mut attempted = outcome.attempted;
    let metrics = if args.trace {
        let (metrics, probe_problems, probe_attempted) =
            traced_metrics(&args, &run, outcome, &mut tracer);
        problems.extend(probe_problems);
        attempted += probe_attempted;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("trace-out")
            .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("wrote {} spans to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        metrics
    } else {
        end_to_end_metrics(&outcome)
    };

    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = problems.is_empty();
    let attempted = attempted.max(1);
    let failed = if correct { 0 } else { attempted };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end_metrics(o: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    m.put_opt("setup_s", median(&o.setup_s), "s");
    m.put_opt("hs_per_s", o.hs_per_s(), "1/s");
    m.put_opt("peak_rss_mib", procfs::peak_rss_mib(), "MiB");
    m.put_opt("hs_p50_ms", median(&o.hs_ms), "ms");
    m
}

/// The per-layer metrics of a traced run: the workload's own layer,
/// a probe of the other entry point, the lower-layer replay, the
/// ledger and the span summary. Returns the metrics plus the probe's
/// and replay's failed checks and attempted operations.
fn traced_metrics(
    args: &Args,
    run: &Run,
    outcome: Outcome,
    tracer: &mut Tracer,
) -> (Metrics, Vec<String>, u64) {
    let probe_run = Run {
        seed: derive_seed(run.seed, u64::MAX),
        workers: run.workers,
        alternate_tracing: false,
    };
    tracer.on = true;
    let probe = match args.workload {
        Workload::ServiceLoopback => {
            fleet::stream_workload(&probe_run, tracer, 2 * fleet::STREAM_WINDOW, Duration::ZERO)
        }
        _ => service::loopback_workload(&probe_run, tracer, 1, PROBE_BUDGET, true),
    };
    let (costs, replay_metrics, mut problems) = replay::replay_layers(run.seed, tracer);
    problems.extend(probe.problems.iter().cloned());

    let mut m = Metrics::default();
    m.put("run.nproc", run.workers as f64, "count");
    m.put(
        "run.threads",
        args.workload.threads(run.workers).0 as f64,
        "count",
    );
    let (fleet_side, service_side) = match args.workload {
        Workload::ServiceLoopback => (&probe, &outcome),
        _ => (&outcome, &probe),
    };
    m.extend(fleet_side.layer.clone());
    m.extend(service_side.layer.clone());
    m.extend(replay_metrics);

    // The workload's operation mix priced at the replayed costs.
    let ops = match args.workload {
        Workload::FleetRekey => costs.hinted_ops,
        _ => costs.first_contact_ops,
    };
    m.put("sts.ops_keygen", ops.keygen, "count");
    m.put("sts.ops_ecdh", ops.ecdh, "count");
    m.put("sts.ops_sign", ops.sign, "count");
    m.put("sts.ops_verify", ops.verify, "count");
    m.put("sts.ops_eq1", ops.eq1, "count");
    let hs = outcome.handshakes.max(1) as f64;
    let (enroll_per_hs, layers_us) = match args.workload {
        Workload::FleetStream => {
            let per_hs = outcome.layer.get("fleet.enrolled").unwrap_or(0.0)
                / outcome
                    .layer
                    .get("fleet.handshakes")
                    .unwrap_or(1.0)
                    .max(1.0);
            let enroll = costs.generate + costs.issue_batch + costs.reconstruct_batch;
            (
                per_hs,
                per_hs * enroll + costs.first_contact + costs.link_per_hs,
            )
        }
        Workload::FleetRekey => (0.0, costs.hinted),
        Workload::ServiceLoopback => {
            let per_hs = outcome.enrollments as f64 / hs;
            let enroll = costs.generate + costs.issue + costs.reconstruct;
            (
                per_hs,
                per_hs * enroll + costs.first_contact + costs.codec_per_hs,
            )
        }
    };
    let ecc_us = costs.ecc_us(ops) + enroll_per_hs * costs.enroll_ecc_us();
    let cpu_ms = outcome.cpu_ms_per_hs();
    m.put_opt("ledger.cpu_ms_per_hs", cpu_ms, "ms");
    m.put_opt(
        "ledger.residual_ms_per_hs",
        cpu_ms.map(|c| c - layers_us / 1e3),
        "ms",
    );
    m.put_opt(
        "ledger.crypto_share",
        cpu_ms.map(|c| ecc_us / (c * 1e3)),
        "frac",
    );
    if let Some(c) = cpu_ms {
        println!(
            "ledger: {c:.3} ms CPU per handshake; replayed layers {:.3} ms, residual {:.3} ms; \
             curve arithmetic {:.3} ms = {:.0}% of the CPU (ROADMAP prior: about {:.0}%)",
            layers_us / 1e3,
            c - layers_us / 1e3,
            ecc_us / 1e3,
            100.0 * ecc_us / (c * 1e3),
            100.0 * CRYPTO_SHARE_PRIOR,
        );
    }

    // Tracing cost, from the traced and untraced calls of the region.
    let overhead = mean(&outcome.untraced_ms)
        .zip(mean(&outcome.traced_ms))
        .map(|(off, on)| 1.0 - off / on);
    m.put_opt("trace.overhead_frac", overhead, "frac");

    // Where the replay's time went: each replayed layer's self time as a
    // share of theirs together.
    let self_ms = tracer.layer_self_ms();
    let replay_ms: f64 = REPLAY_LAYERS
        .iter()
        .filter_map(|layer| self_ms.get(layer))
        .sum();
    for layer in REPLAY_LAYERS {
        let share = self_ms.get(layer).map(|ms| ms / replay_ms);
        m.put_opt(&format!("{layer}.self_share"), share, "frac");
    }
    (m, problems, probe.attempted)
}
