//! Socket transcripts are byte-identical to in-memory transcripts.
//!
//! In deterministic mode ([`ServiceConfig::seed`]) the socket path
//! changes the transport, nothing else: for the same (credentials,
//! config, seeds), every handshake message that crosses the loopback
//! daemon must encode to exactly the bytes [`run_handshake`] produces
//! for the same session in memory. This is the property that lets
//! wall-clock service benchmarks stand in for simulator runs
//! byte-for-byte. A daemon in its default mode must *not* have it: the
//! seed a client sends in clear may not fix the responder's secrets.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_proto::{run_handshake, Credentials, Endpoint, Message, SessionKey};
use ecq_service::{ServiceAddr, ServiceClient, ServiceConfig, ServiceDaemon};
use ecq_sts::{StsConfig, StsInitiator, StsResponder, StsVariant};
use proptest::prelude::*;

const VARIANTS: [StsVariant; 3] = [
    StsVariant::Conventional,
    StsVariant::OptimizationI,
    StsVariant::OptimizationII,
];

struct Setup {
    ca: CertificateAuthority,
    initiator: Credentials,
    responder: Credentials,
    seed_a: [u8; 32],
    seed_b: [u8; 32],
}

/// Derives CA, credentials and both session seeds from one master
/// seed, in a fixed draw order shared by both transports.
fn setup(seed: u64) -> Setup {
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let initiator =
        Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 1000, &mut rng).unwrap();
    let responder =
        Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 1000, &mut rng).unwrap();
    let seed_a = rng.bytes32();
    let seed_b = rng.bytes32();
    Setup {
        ca,
        initiator,
        responder,
        seed_a,
        seed_b,
    }
}

/// The reference run: the same endpoints and seed-derived RNG streams,
/// driven in memory by the run-to-completion driver. Returns the key
/// and each message's step label and wire bytes.
fn reference_transcript(
    setup: &Setup,
    config: StsConfig,
) -> (SessionKey, Vec<(&'static str, Vec<u8>)>) {
    let mut rng_a = HmacDrbg::new(&setup.seed_a, b"sts-initiator");
    let mut rng_b = HmacDrbg::new(&setup.seed_b, b"sts-responder");
    let mut alice = StsInitiator::new(setup.initiator.clone(), config, &mut rng_a);
    let mut bob = StsResponder::new(setup.responder.clone(), config, &mut rng_b);
    let outcome = run_handshake(&mut alice, &mut bob).unwrap();
    assert_eq!(outcome.initiator_key, outcome.responder_key);
    let wire = outcome
        .transcript
        .messages()
        .iter()
        .map(|m| (m.step, m.bytes.clone()))
        .collect();
    (outcome.initiator_key, wire)
}

/// One handshake against a loopback daemon holding the setup's
/// injected credentials.
fn socket_transcript(
    setup: &Setup,
    config: StsConfig,
    daemon: ServiceConfig,
) -> (SessionKey, Vec<Message>) {
    let mut daemon =
        ServiceDaemon::start_with(daemon, setup.ca.clone(), setup.responder.clone()).unwrap();
    let addr = match daemon.addr() {
        ServiceAddr::Tcp(addr) => *addr,
        #[cfg(unix)]
        ServiceAddr::Unix(_) => unreachable!("daemon bound to TCP"),
    };
    let mut client = ServiceClient::connect_tcp(addr).unwrap();
    let done = client
        .handshake(
            &setup.initiator,
            config.variant,
            config.now,
            &setup.seed_a,
            &setup.seed_b,
        )
        .unwrap();
    daemon.shutdown();
    (done.key, done.messages)
}

fn assert_byte_identical(seed: u64, variant: StsVariant, now: u32) {
    let setup = setup(seed);
    let config = StsConfig { now, variant };
    let (reference_key, reference_messages) = reference_transcript(&setup, config);
    let deterministic = ServiceConfig::tcp("127.0.0.1:0").seed(seed);
    let (socket_key, socket_messages) = socket_transcript(&setup, config, deterministic);

    assert_eq!(socket_key, reference_key, "session keys diverge");
    assert_eq!(
        socket_messages.len(),
        reference_messages.len(),
        "message counts diverge"
    );
    for (index, (socket, (step, bytes))) in socket_messages
        .iter()
        .zip(reference_messages.iter())
        .enumerate()
    {
        assert_eq!(socket.step, *step, "step order diverges at {index}");
        assert_eq!(
            &socket.encode(),
            bytes,
            "message {index} ({step}) bytes diverge"
        );
    }
}

/// What a passive observer derives from the wire: the responder rebuilt
/// from the `HsOpen` seed the client sent in clear and fed the client's
/// A1 holds the key the daemon would hold had it honoured that seed.
fn observer_key(setup: &Setup, config: StsConfig, a1: &Message) -> SessionKey {
    let mut rng = HmacDrbg::new(&setup.seed_b, b"sts-responder");
    let mut replay = StsResponder::new(setup.responder.clone(), config, &mut rng);
    replay.step(Some(a1)).unwrap();
    replay.core().derived_key().unwrap()
}

#[test]
fn hs_open_seed_exposes_the_key_only_in_deterministic_mode() {
    let setup = setup(77);
    let config = StsConfig {
        now: 5,
        variant: StsVariant::Conventional,
    };
    let (key, messages) = socket_transcript(&setup, config, ServiceConfig::tcp("127.0.0.1:0"));
    assert_eq!(messages[0].step, "A1");
    assert_ne!(
        observer_key(&setup, config, &messages[0]),
        key,
        "a default daemon must not derive its responder from the client's seed"
    );

    let deterministic = ServiceConfig::tcp("127.0.0.1:0").seed(77);
    let (key, messages) = socket_transcript(&setup, config, deterministic);
    assert_eq!(
        observer_key(&setup, config, &messages[0]),
        key,
        "deterministic mode honours the seed, so an observer recomputes the key"
    );
}

#[test]
fn conventional_socket_run_matches_channel_run() {
    assert_byte_identical(42, StsVariant::Conventional, 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For ANY master seed, variant and clock, the loopback-socket
    /// handshake transcript of a deterministic-mode daemon is
    /// byte-identical to the in-memory transcript of the same inputs,
    /// and both derive the same key.
    #[test]
    fn socket_transcript_is_byte_identical_to_channel(
        seed in 0u64..1_000_000,
        variant_index in 0usize..3,
        now in 0u32..1000,
    ) {
        assert_byte_identical(seed, VARIANTS[variant_index], now);
    }
}
