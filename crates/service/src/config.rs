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
    /// `None` (the default): the daemon reads 32 secret bytes from
    /// `/dev/urandom` at start and derives from them its CA key, its
    /// responder credentials, its certificate serials and blindings,
    /// and every handshake's responder randomness. `Some(n)` is the
    /// deterministic mode set by [`ServiceConfig::seed`].
    pub seed: Option<u64>,
    /// Validity-window start for certificates the CA issues.
    pub valid_from: u32,
    /// Validity-window end for certificates the CA issues.
    pub valid_to: u32,
    /// Per-connection idle deadline: a connection that sends no
    /// complete frame for this long is closed with a typed
    /// `Deadline` error frame.
    pub read_timeout: Duration,
}

impl ServiceConfig {
    /// A config listening on the given TCP address (use `127.0.0.1:0`
    /// for an ephemeral test port), with default timeouts and
    /// validity window.
    pub fn tcp(addr: impl Into<String>) -> Self {
        ServiceConfig {
            bind: BindAddr::Tcp(addr.into()),
            seed: None,
            valid_from: 0,
            valid_to: u32::MAX,
            read_timeout: Duration::from_secs(5),
        }
    }

    /// A config listening on a Unix-domain socket path.
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        let mut config = Self::tcp(String::new());
        config.bind = BindAddr::Unix(path.into());
        config
    }

    /// Switches the daemon to deterministic mode: the CA key, the
    /// responder credentials and the issuance stream derive from
    /// `seed`, and each handshake's responder randomness from the seed
    /// its client sends in `HsOpen`. Runs then reproduce bit for bit —
    /// and anyone who knows `seed` can issue certificates, while anyone
    /// who sees the `HsOpen` frame can recompute the session key. For
    /// tests and benchmarks only.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let config = ServiceConfig::tcp("127.0.0.1:0")
            .seed(7)
            .validity(10, 20)
            .read_timeout(Duration::from_millis(250));
        assert_eq!(config.bind, BindAddr::Tcp("127.0.0.1:0".into()));
        assert_eq!(config.seed, Some(7));
        assert_eq!((config.valid_from, config.valid_to), (10, 20));
        assert_eq!(config.read_timeout, Duration::from_millis(250));
    }

    #[test]
    fn unix_bind_keeps_defaults() {
        let config = ServiceConfig::unix("/tmp/ecq.sock");
        assert_eq!(config.bind, BindAddr::Unix(PathBuf::from("/tmp/ecq.sock")));
        assert_eq!(config.valid_to, u32::MAX);
        assert_eq!(config.seed, None, "secret seed unless asked otherwise");
    }
}
