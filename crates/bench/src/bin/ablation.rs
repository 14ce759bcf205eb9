//! Ablations of the reproduction's design choices:
//!
//! 1. variable-base scalar multiplication (width-5 wNAF vs
//!    double-and-add);
//! 2. certificate point encoding (compressed vs uncompressed) and its
//!    Table II impact;
//! 3. ISO-TP flow-control parameters vs handshake wall time;
//! 4. Opt. I/II pipelining on heterogeneous device pairs (eq. (6)).

use ecq_baselines::establish;
use ecq_bench::deployment;
use ecq_crypto::HmacDrbg;
use ecq_devices::timing::{integrate, pair_total, pipelined_phases};
use ecq_devices::DevicePreset;
use ecq_p256::point::{AffinePoint, JacobianPoint};
use ecq_p256::scalar::Scalar;
use ecq_proto::{ProtocolKind, Role};
use ecq_simnet::canfd::BitTiming;
use ecq_simnet::isotp::{transfer_time_ns, IsoTpConfig};
use std::time::Instant;

/// Reference double-and-add (no recoding) for the ablation.
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

fn time_us<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn main() {
    let mut rng = HmacDrbg::from_seed(0xAB1A7E);

    println!("Ablation 1 — scalar multiplication: width-5 wNAF vs double-and-add");
    let k = Scalar::random(&mut rng);
    let g = AffinePoint::generator();
    let t_wnaf = time_us(20, || {
        let _ = g.mul_vartime(&k);
    });
    let t_naive = time_us(20, || {
        let _ = mul_double_and_add(&g, &k);
    });
    assert_eq!(g.mul_vartime(&k), mul_double_and_add(&g, &k));
    println!("  width-5 wNAF:   {t_wnaf:>9.1} µs");
    println!(
        "  double-and-add: {t_naive:>9.1} µs  (wNAF saves {:.0} %)",
        (1.0 - t_wnaf / t_naive) * 100.0
    );

    println!("\nAblation 2 — certificate point encoding vs Table II");
    // Compressed point: 33 B inside the 101-B cert. Uncompressed would
    // add 32 B per certificate transmission.
    for (kind, certs_on_wire) in [
        (ProtocolKind::SEcdsa, 2),
        (ProtocolKind::Sts, 2),
        (ProtocolKind::Scianc, 2),
        (ProtocolKind::Poramb, 2),
    ] {
        let (alice, bob, mut r) = deployment(77);
        let out = establish(kind, &alice, &bob, 0, &mut r).expect("handshake");
        let compressed = out.transcript.total_bytes();
        let uncompressed = compressed + 32 * certs_on_wire;
        println!(
            "  {:<10} {:>4} B compressed → {:>4} B with uncompressed points (+{:.1} %)",
            kind.label(),
            compressed,
            uncompressed,
            32.0 * certs_on_wire as f64 / compressed as f64 * 100.0
        );
    }

    println!("\nAblation 3 — ISO-TP flow control vs largest STS message (245 B)");
    let timing = BitTiming::default();
    for (bs, st_min_us) in [(0u8, 0u32), (4, 0), (1, 0), (0, 500), (2, 1000)] {
        let cfg = IsoTpConfig {
            block_size: bs,
            st_min_us,
            ..IsoTpConfig::default()
        };
        let t = transfer_time_ns(245, &timing, &cfg);
        println!(
            "  BS={bs:<2} STmin={st_min_us:>5} µs → {:>8.3} ms",
            t as f64 / 1e6
        );
    }

    println!("\nAblation 4 — Opt. II pipelining across heterogeneous pairs (eq. (6))");
    let (alice, bob, mut r) = deployment(78);
    let transcript = establish(ProtocolKind::Sts, &alice, &bob, 0, &mut r)
        .expect("handshake")
        .transcript;
    let pairs = [
        (DevicePreset::Stm32F767, DevicePreset::Stm32F767),
        (DevicePreset::Stm32F767, DevicePreset::S32K144),
        (DevicePreset::S32K144, DevicePreset::RaspberryPi4),
        (DevicePreset::ATmega2560, DevicePreset::RaspberryPi4),
    ];
    for (da, db) in pairs {
        let ta = integrate(transcript.trace(Role::Initiator), &da.profile());
        let tb = integrate(transcript.trace(Role::Responder), &db.profile());
        let conventional = pair_total(&ta, &tb, &[]);
        let opt2 = pair_total(&ta, &tb, pipelined_phases(ProtocolKind::StsOptII));
        println!(
            "  {:<12} × {:<12}: {:>10.2} ms → {:>10.2} ms (saves {:>5.1} %)",
            da.profile().name,
            db.profile().name,
            conventional,
            opt2,
            (1.0 - opt2 / conventional) * 100.0
        );
    }
}
