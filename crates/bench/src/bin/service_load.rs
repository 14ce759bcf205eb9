//! Loopback load test for the service daemon and the
//! `BENCH_service.json` artifact.
//!
//! Starts an in-process [`ServiceDaemon`] on an ephemeral loopback
//! port, then drives ≥1000 *concurrent* client connections against it
//! — each one enrolls a fresh device and completes a full STS
//! handshake — and reports handshakes/sec over the protocol phase:
//! from the moment every client holds an open connection to the last
//! client's finish. The connect phase before it is timed on its own
//! (`connect_s`), so the kernel's accept queue does not count as
//! protocol throughput. STS key
//! agreement is MAC-verified inside the handshake, so any key
//! mismatch surfaces as a failed session; the artifact records the
//! count (the CI gate requires zero).
//!
//! ```sh
//! cargo run --release --bin service_load -- --connections 1000 \
//!     --json BENCH_service.json
//! ```

use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_service::{ServiceClient, ServiceConfig, ServiceDaemon, ServiceError};
use ecq_sts::StsVariant;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

#[derive(Default)]
struct Tally {
    established: AtomicU64,
    key_mismatches: AtomicU64,
    failures: AtomicU64,
}

/// Releases every client at once and records when it did so.
struct Gate {
    barrier: Barrier,
    opened: OnceLock<Instant>,
}

impl Gate {
    /// Waits for every client. The thread that opens the gate records
    /// the instant: it runs on at once, while a woken waiter may first
    /// queue behind hundreds of others for a CPU.
    fn wait(&self) {
        if self.barrier.wait().is_leader() {
            let _ = self.opened.set(Instant::now());
        }
    }
}

fn run_client(addr: std::net::SocketAddr, index: u64, gate: &Gate, tally: &Tally) {
    let mut rng = HmacDrbg::from_seed(0x5E5510AD ^ index);
    // Connect before the barrier so the daemon holds every connection
    // open at once; the measured region is pure protocol traffic.
    let mut client = match ServiceClient::connect_tcp(addr) {
        Ok(client) => client,
        Err(_) => {
            gate.wait();
            tally.failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    gate.wait();
    let outcome = (|| -> Result<(), ServiceError> {
        client.hello(rng.bytes32())?;
        let creds = client.enroll(DeviceId::from_label(&format!("load-{index}")), &mut rng)?;
        let seed_a = rng.bytes32();
        let seed_b = rng.bytes32();
        client.handshake(&creds, StsVariant::Conventional, 0, &seed_a, &seed_b)?;
        Ok(())
    })();
    match outcome {
        Ok(()) => {
            tally.established.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServiceError::Protocol(_)) => {
            // A handshake that ran but failed verification — the
            // closest observable to a key mismatch (STS MACs make a
            // silent mismatch impossible).
            tally.key_mismatches.fetch_add(1, Ordering::Relaxed);
            tally.failures.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            tally.failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn main() -> ExitCode {
    let mut connections: u64 = 1000;
    let mut json_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connections" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => connections = n,
                None => {
                    eprintln!("service_load: --connections needs a number");
                    return ExitCode::from(2);
                }
            },
            "--json" => match it.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("service_load: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("service_load: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    let mut daemon = match ServiceDaemon::start(
        ServiceConfig::tcp("127.0.0.1:0")
            .seed(0xDAE)
            .read_timeout(Duration::from_secs(30)),
    ) {
        Ok(daemon) => daemon,
        Err(error) => {
            eprintln!("service_load: daemon failed to start: {error}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match daemon.addr() {
        ecq_service::ServiceAddr::Tcp(addr) => *addr,
        ecq_service::ServiceAddr::Unix(_) => unreachable!("daemon bound to TCP"),
    };

    let tally = Arc::new(Tally::default());
    // +1: the gate opens once the main thread and every client holding
    // an open connection wait at it, and timing starts at that instant.
    let gate = Arc::new(Gate {
        barrier: Barrier::new(connections as usize + 1),
        opened: OnceLock::new(),
    });
    let mut workers = Vec::with_capacity(connections as usize);
    for index in 0..connections {
        let gate = Arc::clone(&gate);
        let tally = Arc::clone(&tally);
        let spawned = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || run_client(addr, index, &gate, &tally));
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(error) => {
                eprintln!("service_load: spawn failed at {index}: {error}");
                return ExitCode::FAILURE;
            }
        }
    }

    let connect_start = Instant::now();
    gate.wait();
    for handle in workers {
        let _ = handle.join();
    }
    // Every wait has returned, so the gate's leader has recorded it.
    let opened = gate.opened.get().copied().unwrap_or(connect_start);
    let connect = opened.duration_since(connect_start).as_secs_f64();
    let elapsed = opened.elapsed().as_secs_f64();
    daemon.shutdown();

    let established = tally.established.load(Ordering::Relaxed);
    let key_mismatches = tally.key_mismatches.load(Ordering::Relaxed);
    let failures = tally.failures.load(Ordering::Relaxed);
    let hs_per_sec = if elapsed > 0.0 {
        established as f64 / elapsed
    } else {
        0.0
    };
    let stats = daemon.stats();

    println!(
        "service_load: {connections} concurrent connections, {established} established, \
         {failures} failed, {key_mismatches} key mismatches, {connect:.3}s connecting, \
         {elapsed:.3}s protocol, {hs_per_sec:.1} hs/s"
    );
    println!(
        "daemon: connections={} handshakes={} enrollments={} errors={}",
        stats.connections, stats.handshakes, stats.enrollments, stats.errors
    );

    let json = format!(
        "{{\n  \"bench\": \"service_load\",\n  \"connections\": {connections},\n  \
         \"established\": {established},\n  \"failures\": {failures},\n  \
         \"key_mismatches\": {key_mismatches},\n  \"connect_s\": {connect:.6},\n  \
         \"elapsed_s\": {elapsed:.6},\n  \
         \"hs_per_sec\": {hs_per_sec:.3},\n  \"daemon_handshakes\": {},\n  \
         \"daemon_errors\": {}\n}}\n",
        stats.handshakes, stats.errors
    );
    if let Some(path) = json_path {
        if let Err(error) = std::fs::write(&path, &json) {
            eprintln!("service_load: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if established != connections || key_mismatches != 0 {
        eprintln!("service_load: FAILED — incomplete or mismatched sessions");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
