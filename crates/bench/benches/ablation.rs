//! Criterion ablations for the design choices that are measurable on
//! the host: variable-base scalar multiplication (width-5 wNAF vs
//! double-and-add) and point (de)compression cost.

use criterion::{criterion_group, criterion_main, Criterion};
use ecq_crypto::HmacDrbg;
use ecq_p256::keys::KeyPair;
use ecq_p256::point::{AffinePoint, JacobianPoint};
use ecq_p256::scalar::Scalar;
use std::hint::black_box;

/// Plain double-and-add, the ablation baseline for the width-5 wNAF.
fn mul_double_and_add(p: &AffinePoint, k: &Scalar) -> AffinePoint {
    let kv = k.to_canonical();
    let pj = JacobianPoint::from_affine(p);
    let mut acc = JacobianPoint::identity();
    for i in (0..kv.bit_len()).rev() {
        acc = acc.double();
        if kv.bit(i) {
            acc = acc.add(&pj);
        }
    }
    acc.to_affine()
}

fn bench_scalar_mul(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_scalar_mul");
    g.sample_size(20);
    let mut rng = HmacDrbg::from_seed(0xAB2);
    let k = Scalar::random(&mut rng);
    let gpt = AffinePoint::generator();
    g.bench_function("wnaf5", |b| b.iter(|| gpt.mul_vartime(black_box(&k))));
    g.bench_function("double_and_add", |b| {
        b.iter(|| mul_double_and_add(&gpt, black_box(&k)))
    });
    g.finish();
}

fn bench_point_encoding(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_encoding");
    let mut rng = HmacDrbg::from_seed(0xAB3);
    let kp = KeyPair::generate(&mut rng);
    let compressed = ecq_p256::encoding::encode_compressed(&kp.public);
    let raw = ecq_p256::encoding::encode_raw(&kp.public);
    g.bench_function("decode_compressed_sqrt", |b| {
        b.iter(|| ecq_p256::encoding::decode_compressed(black_box(&compressed)).unwrap())
    });
    g.bench_function("decode_raw_oncurve_check", |b| {
        b.iter(|| ecq_p256::encoding::decode_raw(black_box(&raw)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_scalar_mul, bench_point_encoding);
criterion_main!(benches);
