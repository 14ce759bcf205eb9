//! Daemon configuration.

use std::path::PathBuf;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindAddr {
    /// A TCP socket address string (e.g. `127.0.0.1:0` for an
    /// ephemeral loopback port).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file at the path (one
    /// no listener answers on) is removed before binding; any other
    /// file there makes the bind fail with `AddrInUse`.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Configuration for a [`crate::ServiceDaemon`].
///
/// Constructed through [`ServiceConfig::tcp`] / [`ServiceConfig::unix`]
/// and refined with the builder methods; the struct is
/// `#[non_exhaustive]` so future knobs do not break callers.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Listener address.
    pub bind: BindAddr,
    /// Seed for the daemon's deterministic RNG (CA key generation,
    /// responder provisioning, certificate serials and blindings).
    pub seed: u64,
    /// Validity-window start for certificates the CA issues.
    pub valid_from: u32,
    /// Validity-window end for certificates the CA issues.
    pub valid_to: u32,
    /// Per-connection idle deadline: a connection that sends no
    /// complete frame for this long is closed with a typed
    /// `Deadline` error frame.
    pub read_timeout: Duration,
    /// Per-connection write timeout for response frames.
    pub write_timeout: Duration,
}

impl ServiceConfig {
    /// A config listening on the given TCP address (use `127.0.0.1:0`
    /// for an ephemeral test port), with default timeouts and
    /// validity window.
    pub fn tcp(addr: impl Into<String>) -> Self {
        ServiceConfig {
            bind: BindAddr::Tcp(addr.into()),
            seed: 1,
            valid_from: 0,
            valid_to: u32::MAX,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }

    /// A config listening on a Unix-domain socket path.
    #[cfg(unix)]
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        let mut config = Self::tcp(String::new());
        config.bind = BindAddr::Unix(path.into());
        config
    }

    /// Sets the daemon RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the certificate validity window for issued certificates.
    #[must_use]
    pub fn validity(mut self, from: u32, to: u32) -> Self {
        self.valid_from = from;
        self.valid_to = to;
        self
    }

    /// Sets the per-connection idle deadline.
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the per-connection write timeout.
    #[must_use]
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let config = ServiceConfig::tcp("127.0.0.1:0")
            .seed(7)
            .validity(10, 20)
            .read_timeout(Duration::from_millis(250))
            .write_timeout(Duration::from_millis(125));
        assert_eq!(config.bind, BindAddr::Tcp("127.0.0.1:0".into()));
        assert_eq!(config.seed, 7);
        assert_eq!((config.valid_from, config.valid_to), (10, 20));
        assert_eq!(config.read_timeout, Duration::from_millis(250));
        assert_eq!(config.write_timeout, Duration::from_millis(125));
    }

    #[cfg(unix)]
    #[test]
    fn unix_bind_keeps_defaults() {
        let config = ServiceConfig::unix("/tmp/ecq.sock");
        assert_eq!(config.bind, BindAddr::Unix(PathBuf::from("/tmp/ecq.sock")));
        assert_eq!(config.valid_to, u32::MAX);
    }
}
