//! `service-loopback`: an in-process `ServiceDaemon` on 127.0.0.1 TCP
//! and [`CLIENTS_PER_CPU`] closed-loop clients per CPU, each running
//! cycles of one enrollment of a fresh subject followed by handshakes
//! with those credentials.
//!
//! Every call the benchmark makes into `ServiceClient`, and every frame
//! it builds for the daemon (the codec replay takes its frames from
//! [`handshake_frames`]), is in this module: a change to the
//! handshake-open frame touches this file only.

use crate::procfs::{
    named_threads_schedstat, process_cpu_s, thread_schedstat, NetClock, SchedStat,
};
use crate::report::{median, quantile};
use crate::trace::Tracer;
use crate::{derive_seed, Outcome, Run};
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_proto::socket::{read_frame, write_frame};
use ecq_proto::{Credentials, Endpoint, Frame, Message, StepOutput};
use ecq_service::{ServiceAddr, ServiceClient, ServiceConfig, ServiceDaemon};
use ecq_sts::{StsConfig, StsInitiator, StsVariant};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Handshakes per enrollment in a client cycle.
const HANDSHAKES_PER_CYCLE: u64 = 4;
/// Clients per CPU. A client and its connection thread hand every
/// message to each other, so one client per CPU leaves each CPU a single
/// hand-off chain. Measured on a 2-vCPU VM, such runs fell into two
/// modes, with median handshake latencies near 1.3 ms and 1.9 ms. With
/// two clients per CPU, so that a CPU has another chain to run, the
/// modes were gone.
pub const CLIENTS_PER_CPU: usize = 2;
const VARIANT: StsVariant = StsVariant::Conventional;
/// Thread-name prefix of the daemon's accept and connection threads.
const DAEMON_THREADS: &str = "ecq-service";

/// Enrollment subjects: unique within a run, and never a name the
/// daemon reserves (they all start with `pb`).
static NEXT_SUBJECT: AtomicU64 = AtomicU64::new(0);

fn fresh_subject(seed: u64) -> DeviceId {
    let mut id = [0u8; 16];
    id[..2].copy_from_slice(b"pb");
    id[2..8].copy_from_slice(&seed.to_le_bytes()[..6]);
    id[8..].copy_from_slice(&NEXT_SUBJECT.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    DeviceId::from_bytes(id)
}

/// One client connection and the credentials of its latest enrollment.
pub struct Client {
    inner: ServiceClient,
    rng: HmacDrbg,
    seed: u64,
    credentials: Option<Credentials>,
}

impl Client {
    fn connect(addr: SocketAddr, seed: u64) -> Result<Client, String> {
        let inner = ServiceClient::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Client {
            inner,
            rng: HmacDrbg::new(&seed.to_le_bytes(), b"perfbench-client"),
            seed,
            credentials: None,
        })
    }

    fn hello(&mut self) -> Result<(), String> {
        let nonce = self.rng.bytes32();
        self.inner
            .hello(nonce)
            .map(|_| ())
            .map_err(|e| format!("hello: {e}"))
    }

    fn enroll(&mut self) -> Result<(), String> {
        let subject = fresh_subject(self.seed);
        let credentials = self
            .inner
            .enroll(subject, &mut self.rng)
            .map_err(|e| format!("enroll: {e}"))?;
        self.credentials = Some(credentials);
        Ok(())
    }

    fn handshake(&mut self) -> Result<(), String> {
        let credentials = self.credentials.as_ref().ok_or("handshake before enroll")?;
        let (seed_a, seed_b) = (self.rng.bytes32(), self.rng.bytes32());
        self.inner
            .handshake(credentials, VARIANT, 0, &seed_a, &seed_b)
            .map(|_| ())
            .map_err(|e| format!("handshake: {e}"))
    }
}

/// A started daemon with its connected, greeted and warmed-up clients.
/// The clients are declared first so they disconnect before the daemon
/// shuts down when a set-up is replaced.
pub struct Loopback {
    clients: Vec<Client>,
    daemon: ServiceDaemon,
    addr: SocketAddr,
    enrollments: u64,
    handshakes: u64,
}

impl Loopback {
    /// Daemon start, then per client a connection, a hello and one
    /// warm-up enrollment and handshake.
    fn start(run: &Run, unit: u64) -> Result<Loopback, String> {
        let config = ServiceConfig::tcp("127.0.0.1:0")
            .seed(derive_seed(run.seed, unit))
            .read_timeout(Duration::from_secs(30));
        let daemon = ServiceDaemon::start(config).map_err(|e| format!("daemon start: {e}"))?;
        let addr = match daemon.addr() {
            ServiceAddr::Tcp(addr) => *addr,
            _ => return Err("daemon bound a non-TCP address".into()),
        };
        let mut clients = Vec::new();
        for c in 0..(CLIENTS_PER_CPU * run.workers) as u64 {
            let mut client = Client::connect(addr, derive_seed(run.seed, unit << 16 | c))?;
            client.hello()?;
            client.enroll()?;
            client.handshake()?;
            clients.push(client);
        }
        let n = clients.len() as u64;
        Ok(Loopback {
            clients,
            daemon,
            addr,
            enrollments: n,
            handshakes: n,
        })
    }
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    problems: Vec<String>,
    enrollments: u64,
    handshakes: u64,
    attempted: u64,
    hs_ms: Vec<f64>,
    enroll_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    wall_s: f64,
    sched: Option<SchedStat>,
}

fn client_loop(
    client: &mut Client,
    c: u64,
    (start, budget): (Instant, Duration),
    alternate: bool,
    tracer: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let sched0 = thread_schedstat();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for cycle in 0u64.. {
        if start.elapsed() >= budget {
            break;
        }
        if alternate {
            tracer.on = cycle % 2 == 1;
        }
        let request = c << 32 | cycle;
        let (result, _) = tracer.span("service.cycle", request, |tracer| {
            log.attempted += 1;
            let (r, took) = tracer.span("service.enroll", request, |_| client.enroll());
            r?;
            log.enrollments += 1;
            log.enroll_ms.push(ms(took));
            for _ in 0..HANDSHAKES_PER_CYCLE {
                log.attempted += 1;
                let (r, took) = tracer.span("service.handshake", request, |_| client.handshake());
                r?;
                log.handshakes += 1;
                log.hs_ms.push(ms(took));
                // Only a traced run keeps these copies: every sample adds
                // to the peak RSS.
                if alternate {
                    let split = if tracer.on {
                        &mut log.traced_ms
                    } else {
                        &mut log.untraced_ms
                    };
                    split.push(ms(took));
                }
            }
            Ok::<(), String>(())
        });
        if let Err(e) = result {
            log.problems.push(format!("client {c} cycle {cycle}: {e}"));
            break;
        }
    }
    log.wall_s = start.elapsed().as_secs_f64();
    log.sched = thread_schedstat().zip(sched0).map(|(b, a)| b.since(a));
    log
}

/// Runs a set-up, the closed loop for `budget` on its daemon, and then
/// the other `setups - 1` set-ups, each shut down again. The timed
/// daemon is thus the process's first, whether a run makes one set-up
/// (the probe of a traced fleet run) or many. With `replay`, the
/// raw-frame replay runs against the timed daemon, with the first
/// client's credentials, before it shuts down.
pub fn loopback_workload(
    run: &Run,
    tracer: &mut Tracer,
    setups: u64,
    budget: Duration,
    replay: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut lb = match out.set_up(|_| Loopback::start(run, 0)) {
        Ok(lb) => lb,
        Err(e) => {
            out.problems.push(format!("set-up 0: {e}"));
            return out;
        }
    };

    let cpu0 = process_cpu_s();
    let daemon0 = named_threads_schedstat(DAEMON_THREADS);
    let clock = NetClock::begin();
    let region = (Instant::now(), budget);
    let alternate = run.alternate_tracing;
    let logs: Vec<(ClientLog, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lb
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut tracer = tracer.fork();
                scope.spawn(move || {
                    let log = client_loop(client, c as u64, region, alternate, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service client thread panicked"))
            .collect()
    });
    let net_s = clock.net_s();
    let process_cpu = process_cpu_s().zip(cpu0).map(|(b, a)| b - a);
    let daemon_sched = named_threads_schedstat(DAEMON_THREADS)
        .zip(daemon0)
        .map(|(b, a)| b.since(a));

    let (mut enrollments, mut handshakes) = (0, 0);
    let mut enroll_ms = Vec::new();
    let mut client_sched = Some(SchedStat::default());
    let mut client_wall = 0.0;
    for (log, thread_tracer) in logs {
        tracer.absorb(thread_tracer);
        out.problems.extend(log.problems);
        out.attempted += log.attempted;
        enrollments += log.enrollments;
        handshakes += log.handshakes;
        out.hs_ms.extend(log.hs_ms);
        out.traced_ms.extend(log.traced_ms);
        out.untraced_ms.extend(log.untraced_ms);
        enroll_ms.extend(log.enroll_ms);
        client_wall += log.wall_s;
        client_sched = client_sched.zip(log.sched).map(|(a, b)| a.add(b));
    }

    // The daemon must have seen exactly the client's traffic. It counts
    // a request after answering it, so its counters may trail the
    // clients' last replies for a moment.
    let expect_enroll = lb.enrollments + enrollments;
    let expect_hs = lb.handshakes + handshakes;
    let settle = Instant::now() + Duration::from_secs(1);
    let mut stats = lb.daemon.stats();
    while (stats.enrollments < expect_enroll || stats.handshakes < expect_hs)
        && Instant::now() < settle
    {
        std::thread::sleep(Duration::from_millis(1));
        stats = lb.daemon.stats();
    }
    if stats.enrollments != expect_enroll
        || stats.handshakes != expect_hs
        || stats.errors != 0
        || stats.connections != lb.clients.len() as u64
    {
        out.problems.push(format!(
            "daemon stats {stats:?} != client counts ({} connections, {expect_enroll} \
             enrollments, {expect_hs} handshakes, 0 errors)",
            lb.clients.len()
        ));
    }

    // The clients stop at the first cycle boundary past the budget, so
    // the region ends when the last of them does.
    out.handshakes = handshakes;
    out.net_s = net_s;
    out.enroll_ms = enroll_ms;
    out.cpu_s = process_cpu;
    out.enrollments = enrollments;

    let hs = handshakes.max(1) as f64;
    let m = &mut out.layer;
    m.put_opt(
        "service.client_cpu_ms_per_hs",
        client_sched.map(|s| s.cpu_ns as f64 / 1e6 / hs),
        "ms",
    );
    m.put_opt(
        "service.daemon_cpu_ms_per_hs",
        daemon_sched.map(|s| s.cpu_ns as f64 / 1e6 / hs),
        "ms",
    );
    m.put_opt(
        "service.client_wait_frac",
        client_sched.map(|s| s.wait_ns as f64 / 1e9 / client_wall.max(1e-9)),
        "frac",
    );
    m.put_opt("service.hs_p90_ms", quantile(&out.hs_ms, 0.9), "ms");
    m.put_opt("service.hs_p99_ms", quantile(&out.hs_ms, 0.99), "ms");
    m.put_opt("service.enroll_p50_ms", quantile(&out.enroll_ms, 0.5), "ms");
    m.put_opt("service.enroll_p90_ms", quantile(&out.enroll_ms, 0.9), "ms");
    m.put_opt(
        "service.enroll_p99_ms",
        quantile(&out.enroll_ms, 0.99),
        "ms",
    );
    m.put(
        "service.daemon_handshakes",
        stats.handshakes as f64,
        "count",
    );
    m.put(
        "service.daemon_enrollments",
        stats.enrollments as f64,
        "count",
    );
    m.put("service.daemon_errors", stats.errors as f64, "count");

    if replay {
        tracer.on = true;
        let credentials = lb.clients.first().and_then(|c| c.credentials.as_ref());
        match credentials.map(|creds| frame_replay(lb.addr, creds, run.seed, tracer)) {
            Some(Ok(rtt_us)) => out
                .layer
                .put_opt("service.hello_rtt_us", median(&rtt_us), "us"),
            Some(Err(e)) => out.problems.push(format!("service replay: {e}")),
            None => out
                .problems
                .push("service replay: no enrolled client".into()),
        }
    }
    drop(lb);
    for unit in 1..setups {
        match out.set_up(|_| Loopback::start(run, unit)) {
            // It shuts down here, outside the set-up.
            Ok(started) => drop(started),
            Err(e) => {
                out.problems.push(format!("set-up {unit}: {e}"));
                break;
            }
        }
    }
    out
}

const REPLAY_HELLOS: u64 = 64;
const REPLAY_HANDSHAKES: u64 = 16;

/// The frame that opens a handshake whose responder draws from `seed`.
fn open_frame(seed: [u8; 32]) -> Frame {
    Frame::HsOpen {
        seed,
        variant: ecq_service::variant_code(VARIANT),
        now: 0,
    }
}

/// The frames one handshake puts on the wire to the daemon: its open
/// frame, then each of `messages`.
pub fn handshake_frames(seed: [u8; 32], messages: Vec<Message>) -> Vec<Frame> {
    std::iter::once(open_frame(seed))
        .chain(messages.into_iter().map(Frame::HsMessage))
        .collect()
}

/// Raw-frame replay against the live daemon: hello round trips (the
/// socket and dispatch floor), then handshakes that step an
/// `StsInitiator` with every `write_frame`/`read_frame` in a span.
/// Returns the hello round-trip times in microseconds.
fn frame_replay(
    addr: SocketAddr,
    credentials: &Credentials,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut rng = HmacDrbg::new(&seed.to_le_bytes(), b"perfbench-frame-replay");
    let mut rtt_us = Vec::new();
    for i in 0..REPLAY_HELLOS {
        let nonce = rng.bytes32();
        let (reply, took) = tracer.span("service.hello", i, |tracer| {
            frame_round_trip(tracer, &mut stream, &Frame::Hello { nonce })
        });
        match reply? {
            Frame::HelloAck { .. } => rtt_us.push(took.as_secs_f64() * 1e6),
            other => return Err(format!("hello answered with {:?}", other.kind())),
        }
    }
    let config = StsConfig {
        now: 0,
        variant: VARIANT,
    };
    for i in 0..REPLAY_HANDSHAKES {
        let (result, _) = tracer.span("service.replay_handshake", i, |tracer| {
            let mut init_rng = HmacDrbg::new(&rng.bytes32(), b"sts-initiator");
            let (mut initiator, _) = tracer.span("sts.new", i, |_| {
                StsInitiator::new(credentials.clone(), config, &mut init_rng)
            });
            send_frame_traced(tracer, &mut stream, &open_frame(rng.bytes32()))?;
            let mut incoming = None;
            for step in ["sts.step_a1", "sts.step_a2", "sts.step_fin"] {
                let (output, _) = tracer.span(step, i, |_| initiator.step(incoming.as_ref()));
                match output.map_err(|e| format!("{step}: {e}"))? {
                    StepOutput::Send(message) => {
                        let frame = Frame::HsMessage(message);
                        incoming = match frame_round_trip(tracer, &mut stream, &frame)? {
                            Frame::HsMessage(reply) => Some(reply),
                            other => return Err(format!("daemon sent {:?}", other.kind())),
                        };
                    }
                    StepOutput::Wait | StepOutput::Established => break,
                }
            }
            if initiator.is_established() {
                Ok(())
            } else {
                Err("replayed handshake did not establish".to_string())
            }
        });
        result?;
    }
    Ok(rtt_us)
}

fn send_frame_traced(
    tracer: &mut Tracer,
    stream: &mut TcpStream,
    frame: &Frame,
) -> Result<(), String> {
    tracer
        .span("proto.write_frame", 0, |_| write_frame(stream, frame))
        .0
        .map_err(|e| format!("write_frame: {e}"))
}

fn frame_round_trip(
    tracer: &mut Tracer,
    stream: &mut TcpStream,
    frame: &Frame,
) -> Result<Frame, String> {
    send_frame_traced(tracer, stream, frame)?;
    tracer
        .span("proto.read_frame", 0, |_| read_frame(stream))
        .0
        .map_err(|e| format!("read_frame: {e}"))
}
