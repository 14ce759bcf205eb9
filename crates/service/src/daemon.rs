//! The long-running CA + responder daemon.

use crate::config::{BindAddr, ServiceConfig};
use crate::connection::{handle_connection, TICK};
use crate::error::ServiceError;
use crate::stream::ServiceStream;
use ecq_cert::ca::CertificateAuthority;
use ecq_cert::revocation::RevocationList;
use ecq_cert::DeviceId;
use ecq_crypto::zeroize::wipe_bytes;
use ecq_crypto::HmacDrbg;
use ecq_proto::Credentials;
use std::io::Read;
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The address a started daemon actually listens on (the config may
/// have asked for an ephemeral port).
#[derive(Clone, Debug)]
pub enum ServiceAddr {
    /// Bound TCP address.
    Tcp(std::net::SocketAddr),
    /// Bound Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

/// Monotonic connection-loop counters, readable while the daemon runs.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub connections: AtomicU64,
    pub handshakes: AtomicU64,
    pub enrollments: AtomicU64,
    pub crl_fetches: AtomicU64,
    pub errors: AtomicU64,
}

/// A point-in-time copy of the daemon counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Handshakes completed (responder reached establishment).
    pub handshakes: u64,
    /// Certificates issued.
    pub enrollments: u64,
    /// CRL fetches served.
    pub crl_fetches: u64,
    /// Connections that ended with a typed error frame.
    pub errors: u64,
}

/// State shared between the accept loop and every connection worker.
pub(crate) struct Shared {
    pub ca: CertificateAuthority,
    pub responder: Credentials,
    pub crl: Mutex<RevocationList>,
    /// Serial + blinding RNG for issuance; the lock serializes draws so
    /// issuance order alone determines the certificate stream.
    pub issue_rng: Mutex<HmacDrbg>,
    /// The stream every handshake's responder randomness is drawn
    /// from. `None` in deterministic mode, where each handshake is
    /// seeded by its client's `HsOpen` frame instead.
    pub responder_rng: Option<Mutex<HmacDrbg>>,
    pub valid_from: u32,
    pub valid_to: u32,
    pub read_timeout: Duration,
    pub shutdown: AtomicBool,
    pub stats: Stats,
}

enum Listener {
    Tcp(std::net::TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Blocks until a connection arrives, or fails once shutdown has
    /// woken it.
    fn accept(&self) -> std::io::Result<ServiceStream> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(ServiceStream::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => Ok(ServiceStream::Unix(l.accept()?.0)),
        }
    }

    /// A second handle on the listening socket, typed as a stream so
    /// that [`ServiceDaemon::shutdown`] can call `shutdown(2)` on it.
    fn waker(&self) -> std::io::Result<ServiceStream> {
        Ok(match self {
            Listener::Tcp(l) => ServiceStream::Tcp(OwnedFd::from(l.try_clone()?).into()),
            #[cfg(unix)]
            Listener::Unix(l) => ServiceStream::Unix(OwnedFd::from(l.try_clone()?).into()),
        })
    }
}

/// A running CA + responder daemon.
///
/// The daemon owns one accept thread and one worker thread per live
/// connection. The accept thread blocks in `accept`, so a connection
/// is picked up as soon as it arrives. [`ServiceDaemon::shutdown`]
/// (also run on drop) sets the shutdown flag, wakes the accept thread
/// by shutting the listening socket down through a second handle on
/// it (Linux `shutdown(2)` semantics), and joins the accept thread,
/// which joins every worker; in-flight connections receive a typed
/// `ShuttingDown` error frame at their next read tick. No step of the
/// shutdown connects to the daemon's own address, so it returns even
/// when a Unix socket file was removed under the running daemon. The
/// socket file is removed only while its path still names the socket
/// this daemon bound, so a daemon that later bound the same path keeps
/// its file.
pub struct ServiceDaemon {
    shared: Arc<Shared>,
    addr: ServiceAddr,
    /// A second handle on the listening socket, through which shutdown
    /// wakes the accept thread.
    waker: ServiceStream,
    /// The device and inode of the bound Unix socket file, until
    /// shutdown removes it.
    #[cfg(unix)]
    socket_file: Option<(u64, u64)>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServiceDaemon {
    /// Starts a daemon with a CA and responder credentials of its own.
    /// By default they derive from 32 secret bytes read from
    /// `/dev/urandom`, which also seed the daemon's issuance stream and
    /// every handshake's responder randomness. With
    /// [`ServiceConfig::seed`] they derive from that public seed
    /// instead (deterministic mode).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Entropy`] when `/dev/urandom` cannot be read,
    /// and [`ServiceError`] when provisioning fails or the listener
    /// cannot bind.
    pub fn start(config: ServiceConfig) -> Result<Self, ServiceError> {
        let entropy = Entropy::for_config(&config)?;
        let mut rng = entropy.keys();
        let ca = CertificateAuthority::new(DeviceId::from_label("service-ca"), &mut rng);
        let responder = Credentials::provision(
            &ca,
            DeviceId::from_label("service-responder"),
            config.valid_from,
            config.valid_to,
            &mut rng,
        )?;
        Self::launch(config, &entropy, ca, responder)
    }

    /// Starts a daemon with injected CA and responder credentials. Its
    /// issuance stream and responder randomness come from
    /// `/dev/urandom`, or from [`ServiceConfig::seed`] in deterministic
    /// mode, as in [`Self::start`].
    ///
    /// This is the hook the transcript-equivalence test uses: it builds
    /// the *same* CA and credentials a simulator run derives, so the
    /// only difference between the socket path and the in-memory path
    /// is the transport.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Entropy`] when `/dev/urandom` cannot be read,
    /// and [`ServiceError`] when the listener cannot bind.
    pub fn start_with(
        config: ServiceConfig,
        ca: CertificateAuthority,
        responder: Credentials,
    ) -> Result<Self, ServiceError> {
        let entropy = Entropy::for_config(&config)?;
        Self::launch(config, &entropy, ca, responder)
    }

    fn launch(
        config: ServiceConfig,
        entropy: &Entropy,
        ca: CertificateAuthority,
        responder: Credentials,
    ) -> Result<Self, ServiceError> {
        let (listener, addr) = bind(&config.bind)?;
        let waker = listener.waker()?;
        #[cfg(unix)]
        let socket_file = match &addr {
            ServiceAddr::Unix(path) => file_id(path),
            ServiceAddr::Tcp(_) => None,
        };
        let shared = Arc::new(Shared {
            ca,
            responder,
            crl: Mutex::new(RevocationList::new()),
            issue_rng: Mutex::new(entropy.issuance()),
            responder_rng: entropy.responder().map(Mutex::new),
            valid_from: config.valid_from,
            valid_to: config.valid_to,
            read_timeout: config.read_timeout,
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ecq-service-accept".into())
            .spawn(move || accept_loop(&accept_shared, listener))?;
        Ok(ServiceDaemon {
            shared,
            addr,
            waker,
            #[cfg(unix)]
            socket_file,
            accept: Some(accept),
        })
    }

    /// The bound listener address.
    pub fn addr(&self) -> &ServiceAddr {
        &self.addr
    }

    /// The CA public key clients authenticate against.
    pub fn ca_public(&self) -> ecq_p256::point::AffinePoint {
        self.shared.ca.public_key()
    }

    /// Revokes a certificate serial in the served CRL. Returns whether
    /// the serial was newly added.
    pub fn revoke(&self, serial: u64) -> bool {
        match self.shared.crl.lock() {
            Ok(mut crl) => crl.revoke(serial),
            Err(_) => false,
        }
    }

    /// A snapshot of the connection-loop counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            connections: s.connections.load(Ordering::Relaxed),
            handshakes: s.handshakes.load(Ordering::Relaxed),
            enrollments: s.enrollments.load(Ordering::Relaxed),
            crl_fetches: s.crl_fetches.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, notifies in-flight connections and joins every
    /// worker thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // On Linux, shutting a listening socket down for reading fails
        // the `accept` blocked on it, and every later one, with
        // `EINVAL`; later connects are refused.
        let _ = match &self.waker {
            ServiceStream::Tcp(s) => s.shutdown(Shutdown::Read),
            #[cfg(unix)]
            ServiceStream::Unix(s) => s.shutdown(Shutdown::Read),
        };
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let (ServiceAddr::Unix(path), Some(id)) = (&self.addr, self.socket_file.take()) {
            // Once the file was removed, another daemon may have bound
            // the same path; its socket has another inode.
            if file_id(path) == Some(id) {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

impl Drop for ServiceDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where a daemon's randomness comes from (see [`ServiceConfig::seed`]).
enum Entropy {
    /// Deterministic mode: everything derives from a public seed.
    Seeded(u64),
    /// 32 secret bytes from `/dev/urandom`, wiped on drop.
    Secret([u8; 32]),
}

impl Entropy {
    fn for_config(config: &ServiceConfig) -> Result<Self, ServiceError> {
        if let Some(seed) = config.seed {
            return Ok(Entropy::Seeded(seed));
        }
        let mut bytes = [0u8; 32];
        std::fs::File::open("/dev/urandom")
            .and_then(|mut urandom| urandom.read_exact(&mut bytes))
            .map_err(|e| ServiceError::Entropy(e.kind()))?;
        Ok(Entropy::Secret(bytes))
    }

    /// The stream the CA key and the responder credentials draw from.
    fn keys(&self) -> HmacDrbg {
        match self {
            Entropy::Seeded(seed) => HmacDrbg::from_seed(*seed),
            Entropy::Secret(bytes) => HmacDrbg::new(bytes, b"service-keys"),
        }
    }

    /// The certificate serial and blinding stream.
    fn issuance(&self) -> HmacDrbg {
        match self {
            Entropy::Seeded(seed) => {
                HmacDrbg::new(&HmacDrbg::from_seed(*seed).bytes32(), b"service-issue")
            }
            Entropy::Secret(bytes) => HmacDrbg::new(bytes, b"service-issue"),
        }
    }

    /// The daemon's own responder stream; none in deterministic mode.
    fn responder(&self) -> Option<HmacDrbg> {
        match self {
            Entropy::Seeded(_) => None,
            Entropy::Secret(bytes) => Some(HmacDrbg::new(bytes, b"service-responder")),
        }
    }
}

impl Drop for Entropy {
    fn drop(&mut self) {
        if let Entropy::Secret(bytes) = self {
            wipe_bytes(bytes);
        }
    }
}

fn bind(bind: &BindAddr) -> Result<(Listener, ServiceAddr), ServiceError> {
    match bind {
        BindAddr::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(addr.as_str())?;
            let local = listener.local_addr()?;
            Ok((Listener::Tcp(listener), ServiceAddr::Tcp(local)))
        }
        #[cfg(unix)]
        BindAddr::Unix(path) => {
            remove_stale_socket(path);
            let listener = std::os::unix::net::UnixListener::bind(path)?;
            Ok((Listener::Unix(listener), ServiceAddr::Unix(path.clone())))
        }
    }
}

/// The device and inode of the file at `path`, without following a
/// symlink.
#[cfg(unix)]
fn file_id(path: &std::path::Path) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    std::fs::symlink_metadata(path)
        .ok()
        .map(|m| (m.dev(), m.ino()))
}

/// Removes `path` only if it is a socket that no listener answers on.
/// Anything else there (a regular file, a live daemon's socket) stays,
/// and the bind that follows fails with `AddrInUse`.
#[cfg(unix)]
fn remove_stale_socket(path: &std::path::Path) {
    use std::os::unix::fs::FileTypeExt;
    let is_socket = std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket());
    if is_socket && std::os::unix::net::UnixStream::connect(path).is_err() {
        let _ = std::fs::remove_file(path);
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            // Shutdown woke the accept.
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            // A failed accept, such as running out of descriptors:
            // wait one tick instead of spinning.
            Err(_) => {
                std::thread::sleep(TICK);
                continue;
            }
        };
        let worker_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("ecq-service-conn".into())
            .spawn(move || handle_connection(&worker_shared, stream));
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(_) => {
                // Thread exhaustion: drop the connection rather than
                // the daemon.
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Reap finished workers so the handle list tracks live
        // connections instead of connection history.
        workers.retain(|h| !h.is_finished());
    }
    for handle in workers {
        let _ = handle.join();
    }
}
