//! Host-hardware ground truth for every cryptographic primitive the
//! protocols consume. These absolute numbers differ from the paper's
//! embedded boards by construction; the *ratios* between primitives
//! are the meaningful comparison (they drive the device cost model's
//! decomposition in DESIGN.md §5).

use criterion::{criterion_group, criterion_main, Criterion};
use ecq_cert::{ca::CertificateAuthority, requester::CertRequester, DeviceId};
use ecq_crypto::{aes::Aes128, cmac, ctr, hkdf, hmac, sha256, HmacDrbg};
use ecq_p256::field::FieldElement;
use ecq_p256::point::JacobianPoint;
use ecq_p256::u256::U256;
use ecq_p256::{ecdh, ecdsa, keys::KeyPair, scalar::Scalar};
use std::hint::black_box;

/// The specialized field backend, primitive by primitive: these are
/// the rows the per-op comb/window sizing decisions in `precomp.rs`
/// were made against. `bench_p256` (the JSON artifact) additionally
/// times the generic `MontCtx` reference for each of these.
fn bench_field(c: &mut Criterion) {
    let mut g = c.benchmark_group("field");
    let mut rng = HmacDrbg::from_seed(0xF1);
    let a = FieldElement::from_reduced(&U256::from_be_bytes(&rng.bytes32()));
    let b = FieldElement::from_reduced(&U256::from_be_bytes(&rng.bytes32()));

    g.bench_function("fe_mul", |bch| {
        bch.iter(|| black_box(&a).mul(black_box(&b)))
    });
    g.bench_function("fe_square", |bch| bch.iter(|| black_box(&a).square()));
    g.bench_function("fe_invert", |bch| bch.iter(|| black_box(&a).invert()));
    g.bench_function("fe_sqrt", |bch| bch.iter(|| black_box(&a).sqrt()));
    g.bench_function("scalar_invert", |bch| {
        let s = Scalar::random(&mut rng);
        bch.iter(|| black_box(&s).invert())
    });
    g.finish();
}

fn bench_symmetric(c: &mut Criterion) {
    let mut g = c.benchmark_group("symmetric");
    let data_64 = [0xA5u8; 64];
    let data_1k = [0x5Au8; 1024];

    g.bench_function("sha256_64B", |b| {
        b.iter(|| sha256::sha256(black_box(&data_64)))
    });
    g.bench_function("sha256_1KiB", |b| {
        b.iter(|| sha256::sha256(black_box(&data_1k)))
    });
    g.bench_function("hmac_sha256_64B", |b| {
        b.iter(|| hmac::hmac_sha256(b"key", black_box(&data_64)))
    });
    g.bench_function("hkdf_sha256_32B_out", |b| {
        b.iter(|| {
            let mut okm = [0u8; 32];
            hkdf::hkdf_sha256(b"salt", black_box(&data_64), b"info", &mut okm);
            okm
        })
    });

    let aes = Aes128::new(b"0123456789abcdef");
    g.bench_function("aes128_block", |b| {
        b.iter(|| {
            let mut blk = [0u8; 16];
            aes.encrypt_block(black_box(&mut blk));
            blk
        })
    });
    g.bench_function("aes128_ctr_64B", |b| {
        b.iter(|| ctr::aes128_ctr_encrypt(b"0123456789abcdef", &[0u8; 12], black_box(&data_64)))
    });
    g.bench_function("aes128_cmac_64B", |b| {
        b.iter(|| cmac::aes128_cmac(b"0123456789abcdef", black_box(&data_64)))
    });
    g.finish();
}

fn bench_curve(c: &mut Criterion) {
    let mut g = c.benchmark_group("p256");
    g.sample_size(20);
    let mut rng = HmacDrbg::from_seed(0xBE);
    let kp = KeyPair::generate(&mut rng);
    let peer = KeyPair::generate(&mut rng);
    let k = Scalar::random(&mut rng);

    // Fixed-base: the vartime table walk, its constant-schedule
    // counterpart (what every secret path now pays — the ct/vartime
    // ratio is the measured cost of the side-channel fix), and the
    // generic window ladder the seed used (the precomp.rs baseline).
    g.bench_function("base_mul_vartime", |b| {
        b.iter(|| ecq_p256::point::mul_generator_vartime(black_box(&k)))
    });
    g.bench_function("base_mul_ct", |b| {
        b.iter(|| ecq_p256::point::mul_generator_ct(black_box(&k)))
    });
    g.bench_function("base_mul_generic", |b| {
        let g_pt = ecq_p256::point::AffinePoint::generator();
        b.iter(|| g_pt.mul_vartime(black_box(&k)))
    });
    // Group operations under every multiplier.
    let pj = JacobianPoint::from_affine(&peer.public);
    let gj = JacobianPoint::from_affine(&ecq_p256::point::AffinePoint::generator());
    g.bench_function("point_double", |b| b.iter(|| black_box(&pj).double()));
    g.bench_function("point_add", |b| {
        b.iter(|| black_box(&pj).add(black_box(&gj)))
    });
    // Variable-base, same split (ECDH pays the ct row).
    g.bench_function("point_mul_vartime", |b| {
        b.iter(|| peer.public.mul_vartime(black_box(&k)))
    });
    g.bench_function("point_mul_ct", |b| {
        b.iter(|| peer.public.mul_ct(black_box(&k)))
    });
    g.bench_function("ecdh", |b| {
        b.iter(|| ecdh::shared_secret(&kp.private, black_box(&peer.public)).unwrap())
    });

    let sig = ecdsa::sign(&kp.private, b"bench message");
    g.bench_function("ecdsa_sign", |b| {
        b.iter(|| ecdsa::sign(&kp.private, black_box(b"bench message")))
    });
    g.bench_function("ecdsa_verify", |b| {
        b.iter(|| ecdsa::verify(&kp.public, b"bench message", &sig))
    });

    g.bench_function("point_decompress", |b| {
        let enc = ecq_p256::encoding::encode_compressed(&kp.public);
        b.iter(|| ecq_p256::encoding::decode_compressed(black_box(&enc)).unwrap())
    });
    g.finish();
}

fn bench_ecqv(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecqv");
    g.sample_size(20);
    let mut rng = HmacDrbg::from_seed(0xEC);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
    let issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();

    g.bench_function("ca_issue", |b| {
        let mut issue_rng = HmacDrbg::from_seed(0xEC2);
        b.iter(|| {
            ca.issue(black_box(&req.request()), 0, 100, &mut issue_rng)
                .unwrap()
        })
    });
    g.bench_function("key_reconstruction_subject", |b| {
        b.iter(|| {
            req.reconstruct(black_box(&issued), &ca.public_key())
                .unwrap()
        })
    });
    g.bench_function("public_key_reconstruction_eq1", |b| {
        b.iter(|| {
            ecq_cert::reconstruct_public_key(black_box(&issued.certificate), &ca.public_key())
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_symmetric,
    bench_field,
    bench_curve,
    bench_ecqv
);
criterion_main!(benches);
