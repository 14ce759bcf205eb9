//! Host timing of every primitive and handshake, and the
//! `BENCH_p256.json` artifact.
//!
//! One table covers the symmetric primitives, the P-256 field and
//! curve operations, ECQV issuance and reconstruction, point decoding,
//! one full handshake per distinct wire format of Table II, and an STS
//! rekey that verifies against hinted keys (`handshake_sts_rekey`). Host
//! numbers differ from the paper's embedded boards by construction; the
//! ratios between rows are the comparison that carries over. CI
//! uploads the JSON next to `BENCH_fleet.json`.
//!
//! ```sh
//! cargo run --release --bin bench_p256 -- --json BENCH_p256.json
//! ```

use ecq_baselines::establish;
use ecq_bench::deployment;
use ecq_cert::{ca::CertificateAuthority, requester::CertRequester, DeviceId};
use ecq_crypto::{aes::Aes128, ctr, hkdf, hmac, sha256, HmacDrbg};
use ecq_p256::field::FieldElement;
use ecq_p256::point::{mul_generator_ct, mul_generator_vartime, AffinePoint, JacobianPoint};
use ecq_p256::scalar::Scalar;
use ecq_p256::u256::U256;
use ecq_p256::{ecdh, ecdsa, encoding, keys::KeyPair};
use ecq_proto::ProtocolKind;
use ecq_sts::{establish_hinted, ReconstructionHint, StsConfig};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// One measured row: a primitive and its per-op cost.
struct Row {
    name: &'static str,
    ns: f64,
}

/// Median-of-reps timing of `f`, batched so per-call overhead washes
/// out. `iters` is calls per batch.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    const REPS: usize = 7;
    let mut samples = [0f64; REPS];
    // Warmup batch (also forces lazy tables).
    for _ in 0..iters.max(1) {
        f();
    }
    for sample in &mut samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        *sample = start.elapsed().as_nanos() as f64 / iters as f64;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[REPS / 2]
}

fn row(name: &'static str, ns: f64) -> Row {
    Row { name, ns }
}

/// The row name of `kind`'s full handshake. The STS schedules share
/// one row: they differ only in the device timing model, and on the
/// host [`establish`] runs the same handshake for all three.
fn handshake_row(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::SEcdsa => "handshake_s_ecdsa",
        ProtocolKind::SEcdsaExt => "handshake_s_ecdsa_ext",
        ProtocolKind::Sts | ProtocolKind::StsOptI | ProtocolKind::StsOptII => "handshake_sts",
        ProtocolKind::Scianc => "handshake_scianc",
        ProtocolKind::Poramb => "handshake_poramb",
    }
}

fn rows() -> Vec<Row> {
    let mut rng = HmacDrbg::from_seed(0xB256);

    let fa = FieldElement::from_reduced(&U256::from_be_bytes(&rng.bytes32()));
    let fb = FieldElement::from_reduced(&U256::from_be_bytes(&rng.bytes32()));
    let sa = Scalar::random(&mut rng);

    let kp = KeyPair::generate(&mut rng);
    let peer = KeyPair::generate(&mut rng);
    let k = Scalar::random(&mut rng);
    let gj = JacobianPoint::from_affine(&AffinePoint::generator());
    let pj = JacobianPoint::from_affine(&peer.public);
    let sig = ecdsa::sign(&kp.private, b"bench message");

    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
    let issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
    let subject = req.reconstruct(&issued, &ca.public_key()).unwrap();
    let subject_sig = ecdsa::sign(&subject.private, b"bench message");

    let data_64 = [0xA5u8; 64];
    let data_1k = [0x5Au8; 1024];
    let aes = Aes128::new(b"0123456789abcdef");
    let compressed = encoding::encode_compressed(&kp.public);
    let raw = encoding::encode_raw(&kp.public);

    let mut rows = vec![
        row(
            "sha256_64B",
            time_ns(5_000, || {
                black_box(sha256::sha256(black_box(&data_64)));
            }),
        ),
        row(
            "sha256_1KiB",
            time_ns(1_000, || {
                black_box(sha256::sha256(black_box(&data_1k)));
            }),
        ),
        row(
            "hmac_sha256_64B",
            time_ns(2_000, || {
                black_box(hmac::hmac_sha256(b"key", black_box(&data_64)));
            }),
        ),
        row(
            "hkdf_sha256_32B_out",
            time_ns(2_000, || {
                let mut okm = [0u8; 32];
                hkdf::hkdf_sha256(b"salt", black_box(&data_64), b"info", &mut okm);
                black_box(okm);
            }),
        ),
        row(
            "aes128_block",
            time_ns(10_000, || {
                let mut block = [0u8; 16];
                aes.encrypt_block(black_box(&mut block));
                black_box(block);
            }),
        ),
        row(
            "aes128_ctr_64B",
            time_ns(2_000, || {
                black_box(ctr::aes128_ctr_encrypt(
                    b"0123456789abcdef",
                    &[0u8; 12],
                    black_box(&data_64),
                ));
            }),
        ),
    ];

    rows.push(row(
        "fe_mul",
        time_ns(20_000, || {
            black_box(black_box(&fa).mul(black_box(&fb)));
        }),
    ));
    rows.push(row(
        "fe_square",
        time_ns(20_000, || {
            black_box(black_box(&fa).square());
        }),
    ));
    rows.push(row(
        "fe_invert",
        time_ns(200, || {
            black_box(black_box(&fa).invert());
        }),
    ));
    rows.push(row(
        "fe_sqrt",
        time_ns(200, || {
            black_box(black_box(&fa).sqrt());
        }),
    ));
    rows.push(row(
        "scalar_invert",
        time_ns(200, || {
            black_box(black_box(&sa).invert());
        }),
    ));
    rows.push(row(
        "point_double",
        time_ns(5_000, || {
            black_box(black_box(&pj).double());
        }),
    ));
    rows.push(row(
        "point_add",
        time_ns(5_000, || {
            black_box(black_box(&pj).add(black_box(&gj)));
        }),
    ));
    rows.push(row(
        "base_mul_ct",
        time_ns(300, || {
            black_box(mul_generator_ct(black_box(&k)));
        }),
    ));
    rows.push(row(
        "base_mul_vartime",
        time_ns(300, || {
            black_box(mul_generator_vartime(black_box(&k)));
        }),
    ));
    rows.push(row(
        "point_mul_ct",
        time_ns(100, || {
            black_box(peer.public.mul_ct(black_box(&k)));
        }),
    ));
    rows.push(row(
        "point_mul_vartime",
        time_ns(100, || {
            black_box(peer.public.mul_vartime(black_box(&k)));
        }),
    ));
    rows.push(row(
        "ecdh",
        time_ns(100, || {
            black_box(ecdh::shared_secret(&kp.private, black_box(&peer.public)).unwrap());
        }),
    ));
    rows.push(row(
        "ecdsa_sign",
        time_ns(100, || {
            black_box(ecdsa::sign(&kp.private, black_box(b"bench message")));
        }),
    ));
    rows.push(row(
        "ecdsa_verify",
        time_ns(100, || {
            black_box(ecdsa::verify(&kp.public, b"bench message", &sig));
        }),
    ));
    // The comb verifier of a cached key, against `ecdsa_verify`'s wNAF
    // ladder, and the comb's one-off build.
    let cached = ecdsa::VerifyingKey::new(&kp.public).unwrap();
    rows.push(row(
        "ecdsa_verify_cached",
        time_ns(100, || {
            black_box(cached.verify(b"bench message", &sig));
        }),
    ));
    rows.push(row(
        "verifying_key_new",
        time_ns(100, || {
            black_box(ecdsa::VerifyingKey::new(black_box(&kp.public)).unwrap());
        }),
    ));
    rows.push(row(
        "ecqv_reconstruct_eq1",
        time_ns(100, || {
            black_box(
                ecq_cert::reconstruct_public_key(black_box(&issued.certificate), &ca.public_key())
                    .unwrap(),
            );
        }),
    ));
    // eq. (1) folded into the verify: the first-contact path of
    // Algorithm 2, against `ecqv_reconstruct_eq1` + `ecdsa_verify`.
    rows.push(row(
        "ecqv_verify_implicit",
        time_ns(100, || {
            black_box(
                ecq_cert::verify_implicit(
                    black_box(&issued.certificate),
                    &ca.public_key(),
                    b"bench message",
                    &subject_sig,
                )
                .unwrap(),
            );
        }),
    ));
    let mut issue_rng = HmacDrbg::from_seed(0xEC2);
    rows.push(row(
        "ecqv_ca_issue",
        time_ns(100, || {
            black_box(
                ca.issue(black_box(&req.request()), 0, 100, &mut issue_rng)
                    .unwrap(),
            );
        }),
    ));
    rows.push(row(
        "ecqv_reconstruct_subject",
        time_ns(50, || {
            black_box(
                req.reconstruct(black_box(&issued), &ca.public_key())
                    .unwrap(),
            );
        }),
    ));
    // Enrollment batches, per device: `ecqv_reconstruct_subject` is the
    // batch of one, these share one possession check per batch.
    let mut batch_rng = HmacDrbg::from_seed(0xBA7C);
    for (name, size, iters) in [
        ("ecqv_reconstruct_batch8", 8, 25),
        ("ecqv_reconstruct_batch64", 64, 4),
    ] {
        let requesters: Vec<CertRequester> = (0..size)
            .map(|i| {
                CertRequester::generate(DeviceId::from_label(&format!("dev-{i}")), &mut batch_rng)
            })
            .collect();
        let requests: Vec<_> = requesters.iter().map(CertRequester::request).collect();
        let issued = ca.issue_batch(&requests, 0, 100, &mut batch_rng).unwrap();
        let per_batch = time_ns(iters, || {
            black_box(
                CertRequester::reconstruct_batch(black_box(&requesters), &issued, &ca.public_key())
                    .unwrap(),
            );
        });
        rows.push(row(name, per_batch / size as f64));
    }
    rows.push(row(
        "point_decompress",
        time_ns(300, || {
            black_box(encoding::decode_compressed(black_box(&compressed)).unwrap());
        }),
    ));
    rows.push(row(
        "point_decode_raw",
        time_ns(2_000, || {
            black_box(encoding::decode_raw(black_box(&raw)).unwrap());
        }),
    ));

    for kind in ProtocolKind::WIRE_DISTINCT {
        let (alice, bob, mut hs_rng) = deployment(kind as u64 + 100);
        rows.push(row(
            handshake_row(kind),
            time_ns(10, || {
                black_box(establish(kind, &alice, &bob, 0, &mut hs_rng).expect("handshake"));
            }),
        ));
        if kind == ProtocolKind::Sts {
            // A rekey of the same pair: each side's hint holds its
            // peer's eq. (1) key and that key's comb.
            let hint_a = ReconstructionHint::compute(&bob.cert, &alice.ca_public).unwrap();
            let hint_b = ReconstructionHint::compute(&alice.cert, &bob.ca_public).unwrap();
            let config = StsConfig::default();
            rows.push(row(
                "handshake_sts_rekey",
                time_ns(10, || {
                    let hints = (Some(&hint_a), Some(&hint_b));
                    let out =
                        establish_hinted(&alice, &bob, &config, &mut hs_rng, hints.0, hints.1);
                    black_box(out.expect("rekey"));
                }),
            ));
        }
    }

    rows
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from(
        "{\n  \"schema\": \"bench-p256-v2\",\n  \"unit\": \"ns_per_op\",\n  \"rows\": [\n",
    );
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns\": {:.1}}}",
            row.name, row.ns
        ));
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => match it.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("bench_p256: missing value for --json");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("bench_p256: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let rows = rows();
    println!("{:<24}{:>12}", "primitive", "ns/op");
    for row in &rows {
        println!("{:<24}{:>12.1}", row.name, row.ns);
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, json(&rows)) {
            eprintln!("bench_p256: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }
    ExitCode::SUCCESS
}
