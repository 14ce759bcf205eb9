//! Primitive-level P-256 benchmark and the `BENCH_p256.json` artifact.
//!
//! Times every hot curve primitive on the specialized field backend
//! and, for the field rows, the generic [`ecq_p256::mont::MontCtx`]
//! engine on the *same* operation, so the artifact records the
//! optimization speedup live instead of relying on numbers copied from
//! an older commit. CI uploads the JSON next to
//! `BENCH_fleet.json`, tracking the perf trajectory per primitive.
//!
//! ```sh
//! cargo run --release --bin bench_p256 -- --json BENCH_p256.json
//! ```

use ecq_cert::{ca::CertificateAuthority, requester::CertRequester, DeviceId};
use ecq_crypto::HmacDrbg;
use ecq_p256::field::{FieldElement, P_HEX};
use ecq_p256::mont::MontCtx;
use ecq_p256::point::{mul_generator_ct, mul_generator_vartime, AffinePoint, JacobianPoint};
use ecq_p256::scalar::{Scalar, N_HEX};
use ecq_p256::u256::U256;
use ecq_p256::{ecdh, ecdsa, keys::KeyPair};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// One measured row: a primitive, its per-op cost, and (when a generic
/// reference exists) the oracle's cost for the identical operation.
struct Row {
    name: &'static str,
    ns: f64,
    reference_ns: Option<f64>,
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

fn rows() -> Vec<Row> {
    let mut rng = HmacDrbg::from_seed(0xB256);
    let p_ctx = MontCtx::new(U256::from_be_hex(P_HEX));
    let n_ctx = MontCtx::new(U256::from_be_hex(N_HEX));

    // Field operands (Montgomery-form values < p on both sides).
    let fa = FieldElement::from_reduced(&U256::from_be_bytes(&rng.bytes32()));
    let fb = FieldElement::from_reduced(&U256::from_be_bytes(&rng.bytes32()));
    let ra = p_ctx.to_mont(&p_ctx.reduce(&U256::from_be_bytes(&rng.bytes32())));
    let rb = p_ctx.to_mont(&p_ctx.reduce(&U256::from_be_bytes(&rng.bytes32())));
    let sa = Scalar::random(&mut rng);
    let na = n_ctx.to_mont(&n_ctx.reduce(&U256::from_be_bytes(&rng.bytes32())));

    let kp = KeyPair::generate(&mut rng);
    let peer = KeyPair::generate(&mut rng);
    let k = Scalar::random(&mut rng);
    let gj = JacobianPoint::from_affine(&AffinePoint::generator());
    let pj = JacobianPoint::from_affine(&peer.public);
    let sig = ecdsa::sign(&kp.private, b"bench message");

    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
    let issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();

    let mut rows = Vec::new();

    rows.push(Row {
        name: "fe_mul",
        ns: time_ns(20_000, || {
            black_box(black_box(&fa).mul(black_box(&fb)));
        }),
        reference_ns: Some(time_ns(20_000, || {
            black_box(p_ctx.mont_mul(black_box(&ra), black_box(&rb)));
        })),
    });
    rows.push(Row {
        name: "fe_square",
        ns: time_ns(20_000, || {
            black_box(black_box(&fa).square());
        }),
        reference_ns: Some(time_ns(20_000, || {
            black_box(p_ctx.mont_mul(black_box(&ra), black_box(&ra)));
        })),
    });
    rows.push(Row {
        name: "fe_invert",
        ns: time_ns(200, || {
            black_box(black_box(&fa).invert());
        }),
        reference_ns: Some(time_ns(200, || {
            black_box(p_ctx.mont_inv(black_box(&ra)));
        })),
    });
    rows.push(Row {
        name: "fe_sqrt",
        ns: time_ns(200, || {
            black_box(black_box(&fa).sqrt());
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "scalar_invert",
        ns: time_ns(200, || {
            black_box(black_box(&sa).invert());
        }),
        reference_ns: Some(time_ns(200, || {
            black_box(n_ctx.mont_inv(black_box(&na)));
        })),
    });
    rows.push(Row {
        name: "point_double",
        ns: time_ns(5_000, || {
            black_box(black_box(&pj).double());
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "point_add",
        ns: time_ns(5_000, || {
            black_box(black_box(&pj).add(black_box(&gj)));
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "base_mul_ct",
        ns: time_ns(300, || {
            black_box(mul_generator_ct(black_box(&k)));
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "base_mul_vartime",
        ns: time_ns(300, || {
            black_box(mul_generator_vartime(black_box(&k)));
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "point_mul_ct",
        ns: time_ns(100, || {
            black_box(peer.public.mul_ct(black_box(&k)));
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "point_mul_vartime",
        ns: time_ns(100, || {
            black_box(peer.public.mul_vartime(black_box(&k)));
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "ecdh",
        ns: time_ns(100, || {
            black_box(ecdh::shared_secret(&kp.private, black_box(&peer.public)).unwrap());
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "ecdsa_sign",
        ns: time_ns(100, || {
            black_box(ecdsa::sign(&kp.private, black_box(b"bench message")));
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "ecdsa_verify",
        ns: time_ns(100, || {
            black_box(ecdsa::verify(&kp.public, b"bench message", &sig));
        }),
        reference_ns: None,
    });
    rows.push(Row {
        name: "ecqv_reconstruct_eq1",
        ns: time_ns(100, || {
            black_box(
                ecq_cert::reconstruct_public_key(black_box(&issued.certificate), &ca.public_key())
                    .unwrap(),
            );
        }),
        reference_ns: None,
    });

    rows
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"schema\": \"bench-p256-v1\",\n  \"unit\": \"ns_per_op\",\n  \"reference\": \"generic MontCtx engine on the same operation\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns\": {:.1}",
            row.name, row.ns
        ));
        if let Some(r) = row.reference_ns {
            out.push_str(&format!(
                ", \"reference_ns\": {:.1}, \"speedup\": {:.2}",
                r,
                r / row.ns.max(1e-9)
            ));
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
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
    println!(
        "{:<24}{:>12}{:>16}{:>10}",
        "primitive", "ns/op", "reference ns/op", "speedup"
    );
    for row in &rows {
        match row.reference_ns {
            Some(r) => println!(
                "{:<24}{:>12.1}{:>16.1}{:>9.2}x",
                row.name,
                row.ns,
                r,
                r / row.ns.max(1e-9)
            ),
            None => println!("{:<24}{:>12.1}{:>16}{:>10}", row.name, row.ns, "-", "-"),
        }
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
