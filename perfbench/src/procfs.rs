//! Fail-soft readers for the Linux `/proc` counters the benchmark
//! reports. Every reader returns `None` when its file is missing or
//! unparsable, and the caller then omits the metric instead of
//! reporting a zero.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 in the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds of the whole process, exited threads
/// included (`/proc/self/stat`, 10 ms resolution).
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime 14 and stime 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Seconds the hypervisor ran something else while the guest's virtual
/// CPUs were ready to run, averaged over the CPUs (`steal` of
/// `/proc/stat`, 10 ms resolution; 0 on bare metal).
pub fn steal_per_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    Some(steal / USER_HZ / cpus.max(1) as f64)
}

/// A wall clock that stops while the hypervisor steals the virtual
/// CPUs: the wall time since [`NetClock::begin`] minus the per-CPU steal
/// over it. The benchmark's rates use it because on a shared host one
/// run's steal was 1% of its wall time and the next run's 34%, which
/// moved wall-clock throughput by as much while the CPU time a handshake
/// needs stayed put. Without a readable `/proc/stat` it is the plain
/// wall clock.
#[derive(Clone, Copy)]
pub struct NetClock {
    wall: std::time::Instant,
    steal_s: Option<f64>,
}

impl NetClock {
    pub fn begin() -> NetClock {
        NetClock {
            wall: std::time::Instant::now(),
            steal_s: steal_per_cpu_s(),
        }
    }

    /// Seconds since the start, net of steal.
    pub fn net_s(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        let stolen = steal_per_cpu_s()
            .zip(self.steal_s)
            .map_or(0.0, |(now, then)| now - then);
        wall - stolen.clamp(0.0, wall)
    }
}

/// CPU time and runqueue wait of one thread, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStat {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl SchedStat {
    /// The counters accumulated since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    pub fn add(self, other: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            wait_ns: self.wait_ns + other.wait_ns,
        }
    }
}

fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace();
    Some(SchedStat {
        cpu_ns: fields.next()?.parse().ok()?,
        wait_ns: fields.next()?.parse().ok()?,
    })
}

/// The calling thread's counters (`/proc/thread-self/schedstat`).
pub fn thread_schedstat() -> Option<SchedStat> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// CPU nanoseconds of each live thread of this process, by thread id.
pub fn threads_cpu_ns() -> Option<BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue; // the thread exited while we listed it
        };
        let tid = entry.file_name().to_string_lossy().into_owned();
        out.insert(tid, parse_schedstat(&text)?.cpu_ns);
    }
    Some(out)
}

/// CPU seconds the process's live threads used since `start` (a
/// [`threads_cpu_ns`] sample); threads started since count in full.
pub fn threads_cpu_s_since(start: &BTreeMap<String, u64>) -> Option<f64> {
    let now = threads_cpu_ns()?;
    let ns: u64 = now
        .iter()
        .map(|(tid, ns)| ns.saturating_sub(start.get(tid).copied().unwrap_or(0)))
        .sum();
    Some(ns as f64 / 1e9)
}

/// The summed counters of this process's live threads whose name
/// starts with `prefix` (`/proc/self/task/*/comm`).
pub fn named_threads_schedstat(prefix: &str) -> Option<SchedStat> {
    let mut total = SchedStat::default();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited while we listed it
        };
        if comm.starts_with(prefix) {
            if let Ok(text) = fs::read_to_string(dir.join("schedstat")) {
                total = total.add(parse_schedstat(&text)?);
            }
        }
    }
    Some(total)
}
