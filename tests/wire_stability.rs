//! Wire-format stability: deterministic seeds must produce
//! byte-identical transcripts across releases. A change in any
//! encoding (certificate layout, signature serialization, KDF inputs)
//! or in how a handshake draws its randomness shows up here before it
//! silently breaks interoperability.

use dynamic_ecqv::baselines::establish;
use dynamic_ecqv::prelude::*;
use ecq_bench::deployment;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 over `step ‖ bytes` of every message of one `kind`
/// handshake from `deployment(0x57AB1E)`.
fn digest_of_transcript(kind: ProtocolKind) -> String {
    let (a, b, mut rng) = deployment(0x57AB1E);
    let out = establish(kind, &a, &b, 0, &mut rng).expect("handshake");
    let mut h = ecq_crypto::sha256::Sha256::new();
    for m in out.transcript.messages() {
        h.update(m.step.as_bytes());
        h.update(&m.bytes);
    }
    hex(&h.finalize())
}

#[test]
fn transcripts_are_deterministic_across_runs() {
    // Golden digests, one per Table II wire format.
    let golden = [
        (
            ProtocolKind::SEcdsa,
            "9de1279a2600a18594065d227713501c6b67d6ef486a5425820ac38c568ae2de",
        ),
        (
            ProtocolKind::SEcdsaExt,
            "f419610e3ae77cf60b0c8fcd050927c29743452306f9d5c9dc562c756e1d6f20",
        ),
        (
            ProtocolKind::Sts,
            "48092609a26ce923fd8d167b66e730274b1896d2ede1405cf8c2697ca234595a",
        ),
        (
            ProtocolKind::Scianc,
            "780b42ca12cb2c288c36c10a0873604f8017e92d8ce867f16a2d3a5473ba0a04",
        ),
        (
            ProtocolKind::Poramb,
            "fe29ef4f5c5af1a1a1ea02b0531c59a312eee443733097ab82fe91d5e041adb6",
        ),
    ];
    assert_eq!(
        golden.map(|(kind, _)| kind),
        ProtocolKind::WIRE_DISTINCT,
        "one golden per wire format"
    );
    for (kind, digest) in golden {
        assert_eq!(digest_of_transcript(kind), digest, "{kind}");
    }
}

#[test]
fn sts_message_layouts_are_fixed() {
    let (a, b, mut rng) = deployment(0x57AB1E);
    let out = establish(ProtocolKind::Sts, &a, &b, 0, &mut rng).unwrap();
    let msgs = out.transcript.messages();
    assert_eq!(msgs[0].fields, "ID(16), XG(64)");
    assert_eq!(msgs[1].fields, "ID(16), Cert(101), XG(64), Resp(64)");
    assert_eq!(msgs[2].fields, "Cert(101), Resp(64)");
    assert_eq!(msgs[3].fields, "ACK(1)");
}

#[test]
fn certificate_prefix_is_stable() {
    // Magic, version and curve id pin the 101-byte layout.
    let (a, _, _) = deployment(0x57AB1E);
    let bytes = a.cert.to_bytes();
    assert_eq!(&bytes[0..2], b"EQ");
    assert_eq!(bytes[2], 1);
    assert_eq!(bytes[52], 0x17); // secp256r1
    assert!(bytes[53] == 0x02 || bytes[53] == 0x03); // compressed point tag
}

#[test]
fn session_keys_stable_for_fixed_seed() {
    // A golden-value check on the whole pipeline: DRBG → ECQV → STS →
    // HKDF. If any stage changes, this digest moves.
    let (a, b, mut rng) = deployment(0xD1DE);
    let out = establish(ProtocolKind::Sts, &a, &b, 0, &mut rng).unwrap();
    assert_eq!(
        hex(&ecq_crypto::sha256::sha256(out.initiator_key.as_bytes())),
        "aeb81d88243e47084e88f3a866a7d94cb33cdefff95a75cc17764bc042004777"
    );
}
