//! Property-based tests of the elliptic-curve group: abelian group
//! laws, scalar-multiplication homomorphism, ct/vartime agreement
//! (the shared N-term ladder included), encodings, ECDSA and ECDH
//! over random keys. Case counts are kept low — every case costs
//! several scalar multiplications.

use ecq_crypto::HmacDrbg;
use ecq_p256::ecdsa;
use ecq_p256::encoding;
use ecq_p256::keys::KeyPair;
use ecq_p256::point::{
    mul_generator_ct, mul_generator_vartime, mul_sum_vartime, AffinePoint, JacobianPoint,
};
use ecq_p256::scalar::Scalar;
use ecq_p256::u256::U256;
use proptest::prelude::*;

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    any::<[u8; 32]>().prop_map(|b| {
        let s = Scalar::from_reduced(&U256::from_be_bytes(&b));
        if s.is_zero() {
            Scalar::one()
        } else {
            s
        }
    })
}

/// Scalars with mostly-zero nibble patterns — the inputs where a
/// leaky schedule would diverge most from the dense case.
fn arb_sparse_scalar() -> impl Strategy<Value = Scalar> {
    (0usize..64, 1u64..16).prop_map(|(window, digit)| {
        let mut bytes = [0u8; 32];
        let bit = 4 * window;
        bytes[31 - bit / 8] = (digit as u8) << (bit % 8);
        Scalar::from_reduced(&U256::from_be_bytes(&bytes))
    })
}

/// The fixed edge cases every ct/vartime agreement property includes.
fn edge_scalars() -> Vec<Scalar> {
    vec![
        Scalar::zero(),
        Scalar::one(),
        Scalar::from_u64(1).neg(), // n − 1
        Scalar::from_u64(15),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scalar_mul_is_homomorphic(a in arb_scalar(), b in arb_scalar()) {
        // (a+b)G = aG + bG and (a·b)G = a(bG).
        let g = AffinePoint::generator();
        prop_assert_eq!(
            g.mul_vartime(&a.add(&b)),
            g.mul_vartime(&a).add(&g.mul_vartime(&b))
        );
        prop_assert_eq!(g.mul_vartime(&a.mul(&b)), g.mul_vartime(&b).mul_vartime(&a));
    }

    #[test]
    fn group_is_abelian(a in arb_scalar(), b in arb_scalar()) {
        let p = mul_generator_vartime(&a);
        let q = mul_generator_vartime(&b);
        prop_assert_eq!(p.add(&q), q.add(&p));
        prop_assert!(p.add(&q).is_on_curve());
    }

    #[test]
    fn negation_cancels(a in arb_scalar()) {
        let p = mul_generator_vartime(&a);
        prop_assert!(p.add(&p.neg()).infinity);
        prop_assert_eq!(mul_generator_vartime(&a.neg()), p.neg());
    }

    #[test]
    fn ct_fixed_base_agrees_with_vartime(a in arb_scalar(), sparse in arb_sparse_scalar()) {
        for k in [a, sparse].into_iter().chain(edge_scalars()) {
            prop_assert_eq!(mul_generator_ct(&k), mul_generator_vartime(&k));
        }
    }

    #[test]
    fn ct_variable_base_agrees_with_vartime(
        base_scalar in arb_scalar(),
        a in arb_scalar(),
        sparse in arb_sparse_scalar(),
    ) {
        let base = mul_generator_vartime(&base_scalar);
        for k in [a, sparse].into_iter().chain(edge_scalars()) {
            prop_assert_eq!(base.mul_ct(&k), base.mul_vartime(&k));
        }
        // Jacobian entry point, non-unit Z: double the lifted base.
        let jac = JacobianPoint::from_affine(&base).double();
        prop_assert_eq!(jac.mul_ct(&a), jac.mul_vartime(&a));
    }

    #[test]
    fn encodings_roundtrip(a in arb_scalar()) {
        let p = mul_generator_vartime(&a);
        prop_assert_eq!(encoding::decode_compressed(&encoding::encode_compressed(&p)).unwrap(), p);
        prop_assert_eq!(encoding::decode_raw(&encoding::encode_raw(&p)).unwrap(), p);
    }

    #[test]
    fn compressed_bytes_roundtrip(a in arb_scalar()) {
        // The total (non-panicking) method pair the wire format uses.
        let p = mul_generator_vartime(&a);
        let enc = p.to_bytes_compressed().unwrap();
        prop_assert_eq!(enc.len(), 33);
        prop_assert!(enc[0] == 0x02 || enc[0] == 0x03);
        prop_assert_eq!(AffinePoint::from_bytes_compressed(&enc).unwrap(), p);
        // Flipping the parity tag decodes to the negated point.
        let mut flipped = enc;
        flipped[0] ^= 0x01;
        prop_assert_eq!(AffinePoint::from_bytes_compressed(&flipped).unwrap(), p.neg());
    }

    #[test]
    fn compressed_bytes_reject_bad_prefixes(a in arb_scalar(), tag in any::<u8>()) {
        // Any tag other than 02/03 must be rejected, whatever the x.
        prop_assume!(tag != 0x02 && tag != 0x03);
        let p = mul_generator_vartime(&a);
        let mut enc = p.to_bytes_compressed().unwrap();
        enc[0] = tag;
        prop_assert!(AffinePoint::from_bytes_compressed(&enc).is_err());
        // Wrong lengths fail closed too.
        prop_assert!(AffinePoint::from_bytes_compressed(&enc[..32]).is_err());
        prop_assert!(AffinePoint::from_bytes_compressed(&[]).is_err());
    }

    #[test]
    fn compressed_bytes_reject_non_residues(x in any::<[u8; 32]>()) {
        // A random abscissa is on the curve for only ~half of all x;
        // whatever the decoder returns must itself be a curve point
        // that re-encodes to the same bytes — never a panic, never an
        // off-curve point.
        let mut enc = [0u8; 33];
        enc[0] = 0x02;
        enc[1..].copy_from_slice(&x);
        if let Ok(p) = AffinePoint::from_bytes_compressed(&enc) {
            prop_assert!(p.is_on_curve());
            prop_assert_eq!(p.to_bytes_compressed().unwrap(), enc);
        }
    }

    #[test]
    fn infinity_has_no_compressed_encoding(_x in any::<u8>()) {
        prop_assert!(AffinePoint::identity().to_bytes_compressed().is_err());
    }

    #[test]
    fn wnaf_agrees_with_window_walk(
        base_scalar in arb_scalar(),
        a in arb_scalar(),
        sparse in arb_sparse_scalar(),
        dense_byte in 1u8..=255,
    ) {
        // The width-5 wNAF `mul_vartime` against `mul_ct`, an
        // independent 4-bit window walk, over random, sparse-NAF
        // (single nonzero digit), dense-NAF (every byte set) and edge
        // scalars.
        let base = JacobianPoint::from_affine(&mul_generator_vartime(&base_scalar));
        let dense = Scalar::from_reduced(&U256::from_be_bytes(&[dense_byte; 32]));
        for k in [a, sparse, dense].into_iter().chain(edge_scalars()) {
            prop_assert_eq!(base.mul_vartime(&k), base.mul_ct(&k));
        }
    }

    #[test]
    fn shared_ladder_matches_sum_of_ct_walks(
        p_scalar in arb_scalar(),
        q_scalar in arb_scalar(),
        a in arb_scalar(),
        b in arb_scalar(),
        sparse in arb_sparse_scalar(),
        terms in 0usize..5,
        term_seed in any::<u64>(),
    ) {
        // An N-term ladder, N ∈ {0, 1, 2, 3, 65}, against the sum of
        // independent constant-time walks. Terms mix random and small
        // scalars, zero, n − 1 on a non-unit-Z base, identity points,
        // and P, −P pairs.
        let n = [0usize, 1, 2, 3, 65][terms];
        let mut rng = HmacDrbg::from_seed(term_seed);
        let mut ladder: Vec<(Scalar, JacobianPoint)> = Vec::with_capacity(n);
        while ladder.len() < n {
            let k = Scalar::random(&mut rng);
            let base = JacobianPoint::from_affine(&mul_generator_vartime(&Scalar::random(&mut rng)));
            match rng.next_u64() % 6 {
                0 => ladder.push((Scalar::zero(), base)),
                1 => ladder.push((k, JacobianPoint::identity())),
                2 if ladder.len() + 2 <= n => {
                    // The same scalar cancels the pair outright.
                    let k2 = if rng.next_u64() & 1 == 0 { k } else { Scalar::random(&mut rng) };
                    ladder.push((k, base));
                    ladder.push((k2, JacobianPoint::from_affine(&base.to_affine().neg())));
                }
                3 => ladder.push((Scalar::from_u64(1).neg(), base.double())),
                4 => ladder.push((Scalar::from_u64(rng.next_u64() % 32), base)),
                _ => ladder.push((k, base)),
            }
        }
        let expected = ladder
            .iter()
            .fold(JacobianPoint::identity(), |acc, (k, p)| acc.add(&p.mul_ct(k)));
        prop_assert_eq!(mul_sum_vartime(&ladder), expected, "{} terms", n);

        // The one- and two-term ladder over random, sparse, zero and
        // edge scalars, and over second bases Q = P and Q = −P where the
        // terms cancel. P enters with a non-unit Z.
        let p = JacobianPoint::from_affine(&mul_generator_vartime(&p_scalar)).double();
        let p_affine = p.to_affine();
        let n_minus_1 = Scalar::from_u64(1).neg();
        for k in [a, sparse, Scalar::zero(), Scalar::one(), n_minus_1] {
            prop_assert_eq!(mul_sum_vartime(&[(k, p)]), p.mul_ct(&k));
        }
        let seconds = [
            mul_generator_vartime(&q_scalar),
            p_affine,
            p_affine.neg(),
            AffinePoint::identity(),
        ];
        for q in seconds.map(|q| JacobianPoint::from_affine(&q)) {
            for k1 in [a, sparse, Scalar::zero(), n_minus_1] {
                for k2 in [b, k1, k1.neg(), Scalar::zero(), Scalar::one()] {
                    let expected = p.mul_ct(&k1).add(&q.mul_ct(&k2));
                    prop_assert_eq!(mul_sum_vartime(&[(k1, p), (k2, q)]), expected);
                }
            }
        }
    }

    #[test]
    fn ecdsa_roundtrip_and_strategy_agreement(key in arb_scalar(), msg in any::<[u8; 24]>()) {
        let kp = KeyPair::from_private(key);
        let sig = ecdsa::sign(&kp.private, &msg);
        prop_assert!(ecdsa::verify(&kp.public, &msg, &sig));
        prop_assert!(!sig.s.is_high());
        // Tampered message rejected.
        let mut other = msg;
        other[0] ^= 1;
        prop_assert!(!ecdsa::verify(&kp.public, &other, &sig));
    }

    #[test]
    fn ecdh_commutes(seed in any::<u64>()) {
        let mut rng = HmacDrbg::from_seed(seed);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        prop_assert_eq!(
            ecq_p256::ecdh::shared_secret(&a.private, &b.public).unwrap(),
            ecq_p256::ecdh::shared_secret(&b.private, &a.public).unwrap()
        );
    }
}
