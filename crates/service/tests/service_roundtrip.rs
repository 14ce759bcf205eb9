//! End-to-end daemon/client tests over real loopback sockets.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_proto::framing::ErrorCode;
use ecq_proto::socket::{read_frame, write_frame};
use ecq_proto::{Credentials, Frame, FrameKind, TransportError};
use ecq_service::{ServiceAddr, ServiceClient, ServiceConfig, ServiceDaemon, ServiceError};
use ecq_sts::StsVariant;
use std::io::Write;
use std::time::Duration;

fn start_tcp(seed: u64) -> ServiceDaemon {
    ServiceDaemon::start(ServiceConfig::tcp("127.0.0.1:0").seed(seed)).expect("daemon starts")
}

fn tcp_addr(daemon: &ServiceDaemon) -> std::net::SocketAddr {
    match daemon.addr() {
        ServiceAddr::Tcp(addr) => *addr,
        #[cfg(unix)]
        ServiceAddr::Unix(_) => unreachable!("daemon bound to TCP"),
    }
}

#[test]
fn hello_returns_the_ca_key() {
    let mut daemon = start_tcp(11);
    let mut client = ServiceClient::connect_tcp(tcp_addr(&daemon)).unwrap();
    let ca_public = client.hello([1; 32]).unwrap();
    assert_eq!(ca_public, daemon.ca_public());
    daemon.shutdown();
    assert_eq!(daemon.stats().connections, 1);
}

#[test]
fn idle_daemon_accepts_without_waiting_for_a_tick() {
    let mut daemon = start_tcp(12);
    let addr = tcp_addr(&daemon);
    let mut samples: Vec<Duration> = (0..9)
        .map(|_| {
            // Let the accept thread fall idle between connections.
            std::thread::sleep(Duration::from_millis(60));
            let start = std::time::Instant::now();
            let mut client = ServiceClient::connect_tcp(addr).unwrap();
            assert_eq!(client.hello([2; 32]).unwrap(), daemon.ca_public());
            start.elapsed()
        })
        .collect();
    samples.sort();
    assert!(
        samples[4] < Duration::from_millis(10),
        "median connect + hello on an idle daemon: {samples:?}"
    );
    daemon.shutdown();
}

#[test]
fn default_daemons_hold_keys_of_their_own() {
    let a = ServiceDaemon::start(ServiceConfig::tcp("127.0.0.1:0")).unwrap();
    let b = ServiceDaemon::start(ServiceConfig::tcp("127.0.0.1:0")).unwrap();
    assert_ne!(
        a.ca_public(),
        b.ca_public(),
        "without a seed, the CA key must not come from a public constant"
    );
    // Deterministic mode still reproduces its keys.
    assert_eq!(start_tcp(31).ca_public(), start_tcp(31).ca_public());
}

#[test]
fn enroll_then_handshake_agrees_end_to_end() {
    let mut daemon = start_tcp(12);
    let mut client = ServiceClient::connect_tcp(tcp_addr(&daemon)).unwrap();
    client.hello([2; 32]).unwrap();

    let mut rng = HmacDrbg::from_seed(99);
    let creds = client
        .enroll(DeviceId::from_label("ecu-7"), &mut rng)
        .unwrap();
    assert!(creds.keys.is_consistent());
    assert_eq!(creds.cert.subject, DeviceId::from_label("ecu-7"));

    for variant in [
        StsVariant::Conventional,
        StsVariant::OptimizationI,
        StsVariant::OptimizationII,
    ] {
        let seed_a = rng.bytes32();
        let seed_b = rng.bytes32();
        let done = client
            .handshake(&creds, variant, 0, &seed_a, &seed_b)
            .unwrap();
        // Wire order A1, B1, A2, B2 — the paper's Table II exchange.
        let steps: Vec<&str> = done.messages.iter().map(|m| m.step).collect();
        assert_eq!(steps, ["A1", "B1", "A2", "B2"]);
    }
    daemon.shutdown();
    let stats = daemon.stats();
    assert_eq!(stats.enrollments, 1);
    assert_eq!(stats.handshakes, 3);
    assert_eq!(stats.errors, 0);
}

#[test]
fn enrollment_refuses_the_daemons_own_subjects() {
    let mut daemon = ServiceDaemon::start(ServiceConfig::tcp("127.0.0.1:0")).unwrap();
    let mut rng = HmacDrbg::from_seed(98);
    let refused = ServiceError::Refused(ErrorCode::EnrollRefused.code());
    // A refusal closes the connection, so each subject gets its own.
    for (errors, reserved) in [(1, "service-responder"), (2, "service-ca")] {
        let mut client = ServiceClient::connect_tcp(tcp_addr(&daemon)).unwrap();
        client.hello([8; 32]).unwrap();
        let err = client
            .enroll(DeviceId::from_label(reserved), &mut rng)
            .unwrap_err();
        assert_eq!(err, refused, "{reserved}");
        let stats = daemon.stats();
        assert_eq!((stats.enrollments, stats.errors), (0, errors), "{reserved}");
    }
    let mut client = ServiceClient::connect_tcp(tcp_addr(&daemon)).unwrap();
    client.hello([9; 32]).unwrap();
    let creds = client
        .enroll(DeviceId::from_label("ecu-7"), &mut rng)
        .unwrap();
    assert_eq!(creds.cert.subject, DeviceId::from_label("ecu-7"));
    daemon.shutdown();
    assert_eq!(daemon.stats().enrollments, 1);
}

#[test]
fn crl_fetch_is_signed_and_tracks_revocations() {
    let mut daemon = start_tcp(13);
    let mut client = ServiceClient::connect_tcp(tcp_addr(&daemon)).unwrap();
    client.hello([3; 32]).unwrap();

    let crl = client.fetch_crl().unwrap();
    assert!(crl.is_empty());

    assert!(daemon.revoke(42));
    assert!(!daemon.revoke(42)); // idempotent
    let crl = client.fetch_crl().unwrap();
    assert!(crl.is_revoked(42));
    assert_eq!(crl.len(), 1);
    daemon.shutdown();
    assert_eq!(daemon.stats().crl_fetches, 2);
}

#[test]
fn crl_before_hello_is_refused_locally() {
    let daemon = start_tcp(14);
    let mut client = ServiceClient::connect_tcp(tcp_addr(&daemon)).unwrap();
    assert_eq!(client.fetch_crl().unwrap_err(), ServiceError::MissingHello);
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("ecq-service-{}.sock", std::process::id()));
    let mut daemon = ServiceDaemon::start(ServiceConfig::unix(&path).seed(15)).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    let ca_public = client.hello([4; 32]).unwrap();
    assert_eq!(ca_public, daemon.ca_public());
    let mut rng = HmacDrbg::from_seed(7);
    let creds = client.enroll(DeviceId::from_label("u"), &mut rng).unwrap();
    let seed_a = rng.bytes32();
    let seed_b = rng.bytes32();
    client
        .handshake(&creds, StsVariant::Conventional, 0, &seed_a, &seed_b)
        .unwrap();
    daemon.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[cfg(unix)]
#[test]
fn unix_bind_replaces_only_a_stale_socket() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let in_use = Some(ServiceError::Transport(TransportError::Io(
        std::io::ErrorKind::AddrInUse,
    )));

    // A regular file at the path is not the daemon's to delete.
    let file = dir.join(format!("ecq-service-file-{pid}"));
    std::fs::write(&file, b"keep me").unwrap();
    assert_eq!(
        ServiceDaemon::start(ServiceConfig::unix(&file)).err(),
        in_use
    );
    assert_eq!(std::fs::read(&file).unwrap(), b"keep me");
    std::fs::remove_file(&file).unwrap();

    // A live daemon's socket is not stale: a second daemon is refused
    // and the first keeps serving on its path.
    let live = dir.join(format!("ecq-service-live-{pid}.sock"));
    let mut first = ServiceDaemon::start(ServiceConfig::unix(&live).seed(21)).unwrap();
    assert_eq!(
        ServiceDaemon::start(ServiceConfig::unix(&live).seed(22)).err(),
        in_use
    );
    let mut client = ServiceClient::connect(first.addr()).unwrap();
    assert_eq!(client.hello([5; 32]).unwrap(), first.ca_public());
    first.shutdown();

    // The file a dropped listener leaves behind is stale: replaced.
    let stale = dir.join(format!("ecq-service-stale-{pid}.sock"));
    drop(std::os::unix::net::UnixListener::bind(&stale).unwrap());
    assert!(stale.exists());
    let mut daemon = ServiceDaemon::start(ServiceConfig::unix(&stale).seed(23)).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    assert_eq!(client.hello([6; 32]).unwrap(), daemon.ca_public());
    daemon.shutdown();
}

#[cfg(unix)]
#[test]
fn shutdown_returns_when_the_socket_file_is_gone() {
    let path = std::env::temp_dir().join(format!("ecq-service-gone-{}.sock", std::process::id()));
    let daemon = ServiceDaemon::start(ServiceConfig::unix(&path).seed(24)).unwrap();
    std::fs::remove_file(&path).unwrap();
    // Drop on a helper thread, so a shutdown that blocks fails this
    // test instead of hanging the suite.
    let (dropped, done) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        drop(daemon);
        let _ = dropped.send(());
    });
    done.recv_timeout(Duration::from_secs(2))
        .expect("shutdown returns without the socket file");
    helper.join().unwrap();
}

#[cfg(unix)]
#[test]
fn dropping_a_daemon_keeps_a_later_daemons_socket() {
    let path = std::env::temp_dir().join(format!("ecq-service-reuse-{}.sock", std::process::id()));
    let first = ServiceDaemon::start(ServiceConfig::unix(&path).seed(25)).unwrap();
    std::fs::remove_file(&path).unwrap();
    let second = ServiceDaemon::start(ServiceConfig::unix(&path).seed(26)).unwrap();
    drop(first);
    let mut client = ServiceClient::connect(second.addr()).unwrap();
    assert_eq!(client.hello([7; 32]).unwrap(), second.ca_public());
    drop(second);
    assert!(
        !path.exists(),
        "the later daemon removes its own socket file"
    );
}

#[test]
fn control_frame_mid_handshake_is_unexpected() {
    // A scripted peer answers A1 with a control frame: the client must
    // fail closed on it, not skip it.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        assert!(matches!(
            read_frame(&mut stream).unwrap(),
            Frame::HsOpen { .. }
        ));
        assert!(matches!(
            read_frame(&mut stream).unwrap(),
            Frame::HsMessage(m) if m.step == "A1"
        ));
        write_frame(&mut stream, &Frame::CrlRequest).unwrap();
    });
    let mut rng = HmacDrbg::from_seed(501);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let initiator =
        Credentials::provision(&ca, DeviceId::from_label("init"), 0, 1000, &mut rng).unwrap();
    let mut client = ServiceClient::connect_tcp(addr).unwrap();
    let seed_a = rng.bytes32();
    let seed_b = rng.bytes32();
    let err = client
        .handshake(&initiator, StsVariant::Conventional, 0, &seed_a, &seed_b)
        .unwrap_err();
    assert_eq!(err, ServiceError::Unexpected(FrameKind::CrlRequest));
    peer.join().unwrap();
}

#[test]
fn injected_credentials_daemon_serves_handshakes() {
    // Build CA + responder exactly as a simulator setup would, inject.
    let mut rng = HmacDrbg::from_seed(500);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let responder =
        Credentials::provision(&ca, DeviceId::from_label("resp"), 0, 1000, &mut rng).unwrap();
    let initiator =
        Credentials::provision(&ca, DeviceId::from_label("init"), 0, 1000, &mut rng).unwrap();
    let mut daemon =
        ServiceDaemon::start_with(ServiceConfig::tcp("127.0.0.1:0"), ca, responder).unwrap();
    let mut client = ServiceClient::connect_tcp(tcp_addr(&daemon)).unwrap();
    let seed_a = rng.bytes32();
    let seed_b = rng.bytes32();
    let done = client
        .handshake(&initiator, StsVariant::Conventional, 5, &seed_a, &seed_b)
        .unwrap();
    assert_eq!(done.messages.len(), 4);
    daemon.shutdown();
}

#[test]
fn garbage_bytes_get_a_typed_error_close() {
    let mut daemon = start_tcp(16);
    let mut stream = std::net::TcpStream::connect(tcp_addr(&daemon)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(
        reply,
        Frame::ErrorClose {
            code: ErrorCode::BadFrame.code()
        }
    );
    daemon.shutdown();
    assert_eq!(daemon.stats().errors, 1);
}

#[test]
fn version_skew_gets_a_typed_error_close() {
    let mut daemon = start_tcp(17);
    let mut stream = std::net::TcpStream::connect(tcp_addr(&daemon)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut bytes = Frame::Hello { nonce: [0; 32] }.encode().unwrap();
    bytes[4] = 9; // future protocol version
    stream.write_all(&bytes).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(
        reply,
        Frame::ErrorClose {
            code: ErrorCode::BadFrame.code()
        }
    );
    daemon.shutdown();
}

#[test]
fn idle_connection_is_closed_with_deadline() {
    let mut daemon = ServiceDaemon::start(
        ServiceConfig::tcp("127.0.0.1:0")
            .seed(18)
            .read_timeout(Duration::from_millis(200)),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(tcp_addr(&daemon)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Send nothing; the daemon must time the connection out.
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(
        reply,
        Frame::ErrorClose {
            code: ErrorCode::Deadline.code()
        }
    );
    daemon.shutdown();
}

#[test]
fn trickled_frame_is_closed_with_deadline() {
    // A peer that sends one byte every 30 ms never leaves a read idle
    // for a whole 50 ms tick, yet must still meet the 200 ms budget.
    let mut daemon = ServiceDaemon::start(
        ServiceConfig::tcp("127.0.0.1:0")
            .seed(20)
            .read_timeout(Duration::from_millis(200)),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(tcp_addr(&daemon)).unwrap();
    let hello = Frame::Hello { nonce: [4; 32] }.encode().unwrap();
    stream.set_nonblocking(true).unwrap();
    for byte in hello {
        // Stop once the daemon has answered: writing on after it
        // closed could reset the connection before the reply is read.
        if stream.peek(&mut [0u8; 1]).is_ok() {
            break;
        }
        stream.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    stream.set_nonblocking(false).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(
        reply,
        Frame::ErrorClose {
            code: ErrorCode::Deadline.code()
        }
    );
    daemon.shutdown();
}

#[test]
fn shutdown_notifies_in_flight_connections() {
    let mut daemon = start_tcp(19);
    let mut stream = std::net::TcpStream::connect(tcp_addr(&daemon)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Ensure the worker picked the connection up before shutting down.
    write_frame(&mut stream, &Frame::Hello { nonce: [9; 32] }).unwrap();
    let hello = read_frame(&mut stream).unwrap();
    assert!(matches!(hello, Frame::HelloAck { .. }));
    daemon.shutdown();
    let reply = read_frame(&mut stream).unwrap();
    assert_eq!(
        reply,
        Frame::ErrorClose {
            code: ErrorCode::ShuttingDown.code()
        }
    );
    // The stream then closes for good.
    assert_eq!(read_frame(&mut stream).unwrap_err(), TransportError::Closed);
}

#[test]
fn handshake_with_foreign_credentials_fails_closed() {
    // Credentials from a *different* CA must not authenticate.
    let mut daemon = start_tcp(20);
    let mut rng = HmacDrbg::from_seed(777);
    let other_ca = CertificateAuthority::new(DeviceId::from_label("other"), &mut rng);
    let foreign =
        Credentials::provision(&other_ca, DeviceId::from_label("spy"), 0, 1000, &mut rng).unwrap();
    let mut client = ServiceClient::connect_tcp(tcp_addr(&daemon)).unwrap();
    let seed_a = rng.bytes32();
    let seed_b = rng.bytes32();
    let err = client
        .handshake(&foreign, StsVariant::Conventional, 0, &seed_a, &seed_b)
        .unwrap_err();
    // Either side may detect it first: the daemon refuses with a typed
    // close, or the client-side state machine rejects B1.
    match err {
        ServiceError::Refused(code) => assert_eq!(code, ErrorCode::HandshakeFailed.code()),
        ServiceError::Protocol(_) => {}
        other => panic!("unexpected error: {other:?}"),
    }
    daemon.shutdown();
}
