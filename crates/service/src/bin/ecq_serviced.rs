//! `ecq_serviced` — the CA + responder daemon, as a process.
//!
//! ```text
//! ecq_serviced [--bind ADDR | --unix PATH]
//!              [--valid-from N] [--valid-to N]
//!              [--read-timeout-ms N] [--max-seconds N]
//! ```
//!
//! The daemon's CA key, responder credentials and handshake randomness
//! derive from 32 bytes of `/dev/urandom` read at start, so every run
//! has keys of its own. Prints the bound address on stdout
//! (`listening on ...`) once the listener is up, then serves until
//! killed — or for `--max-seconds` when given, which is how the CI
//! service job bounds the run.

use ecq_service::{ServiceAddr, ServiceConfig, ServiceDaemon};
use std::time::Duration;

struct Args {
    config: ServiceConfig,
    max_seconds: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut bind: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut valid_from: u32 = 0;
    let mut valid_to: u32 = u32::MAX;
    let mut read_timeout_ms: u64 = 5_000;
    let mut max_seconds: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--bind" => bind = Some(value("--bind")?),
            "--unix" => unix = Some(value("--unix")?),
            "--valid-from" => valid_from = parse(&value("--valid-from")?)?,
            "--valid-to" => valid_to = parse(&value("--valid-to")?)?,
            "--read-timeout-ms" => read_timeout_ms = parse(&value("--read-timeout-ms")?)?,
            "--max-seconds" => max_seconds = Some(parse(&value("--max-seconds")?)?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }

    let config = match unix {
        Some(path) => ServiceConfig::unix(path),
        None => ServiceConfig::tcp(bind.unwrap_or_else(|| "127.0.0.1:0".into())),
    };

    Ok(Args {
        config: config
            .validity(valid_from, valid_to)
            .read_timeout(Duration::from_millis(read_timeout_ms)),
        max_seconds,
    })
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("not a valid number: {text}"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ecq_serviced: {message}");
            std::process::exit(2);
        }
    };
    let mut daemon = match ServiceDaemon::start(args.config) {
        Ok(daemon) => daemon,
        Err(error) => {
            eprintln!("ecq_serviced: failed to start: {error}");
            std::process::exit(1);
        }
    };
    match daemon.addr() {
        ServiceAddr::Tcp(addr) => println!("listening on tcp://{addr}"),
        ServiceAddr::Unix(path) => println!("listening on unix://{}", path.display()),
    }

    let mut elapsed = 0u64;
    loop {
        std::thread::sleep(Duration::from_secs(1));
        elapsed += 1;
        if let Some(limit) = args.max_seconds {
            if elapsed >= limit {
                break;
            }
        }
    }
    daemon.shutdown();
    let stats = daemon.stats();
    println!(
        "served: connections={} handshakes={} enrollments={} crl_fetches={} errors={}",
        stats.connections, stats.handshakes, stats.enrollments, stats.crl_fetches, stats.errors
    );
}
