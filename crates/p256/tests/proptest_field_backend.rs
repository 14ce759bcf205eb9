//! The specialized field backend against the generic reference oracle.
//!
//! [`ecq_p256::field::FieldElement`] and [`ecq_p256::scalar::Scalar`]
//! run on the fixed-constant backend (compile-time Montgomery
//! constants, unrolled limb code, branch-free reductions, Fermat
//! addition chains). [`ecq_p256::mont::MontCtx`] derives every constant
//! independently at runtime and keeps the original loop/branch
//! algorithms — these properties pin the two against each other for
//! every operation over random values and the edge cases 0, 1, p−1 and
//! un-reduced 2^256−1, so a backend regression cannot hide behind its
//! own test vectors.

use ecq_p256::field::{FieldElement, P_HEX};
use ecq_p256::mont::MontCtx;
use ecq_p256::scalar::{Scalar, N_HEX};
use ecq_p256::u256::U256;
use proptest::prelude::*;

fn p_ctx() -> MontCtx {
    MontCtx::new(U256::from_be_hex(P_HEX))
}

fn n_ctx() -> MontCtx {
    MontCtx::new(U256::from_be_hex(N_HEX))
}

/// Arbitrary 256-bit values, reduced into the field by the caller.
fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u8; 32]>().prop_map(|b| U256::from_be_bytes(&b))
}

/// The fixed edge values every agreement property includes: 0, 1,
/// p−1 (or n−1), and the maximal un-reduced input 2^256−1.
fn edge_values(modulus: &U256) -> Vec<U256> {
    vec![
        U256::ZERO,
        U256::ONE,
        modulus.wrapping_sub(&U256::ONE),
        U256::MAX,
    ]
}

/// Canonical product of two canonical residues, via the oracle.
fn ref_mul(ctx: &MontCtx, a: &U256, b: &U256) -> U256 {
    ctx.mul(a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn field_mul_and_square_match_reference(a in arb_u256(), b in arb_u256()) {
        let ctx = p_ctx();
        for a in edge_values(&ctx.m).into_iter().chain([a]) {
            for b in edge_values(&ctx.m).iter().chain([&b]) {
                let fa = FieldElement::from_reduced(&a);
                let fb = FieldElement::from_reduced(b);
                let ra = ctx.reduce(&a);
                let rb = ctx.reduce(b);
                prop_assert_eq!(fa.mul(&fb).to_canonical(), ref_mul(&ctx, &ra, &rb));
                prop_assert_eq!(fa.square().to_canonical(), ref_mul(&ctx, &ra, &ra));
            }
        }
    }

    #[test]
    fn field_add_sub_neg_match_reference(a in arb_u256(), b in arb_u256()) {
        let ctx = p_ctx();
        let fa = FieldElement::from_reduced(&a);
        let fb = FieldElement::from_reduced(&b);
        let ra = ctx.reduce(&a);
        let rb = ctx.reduce(&b);
        prop_assert_eq!(fa.add(&fb).to_canonical(), ctx.add(&ra, &rb));
        prop_assert_eq!(fa.sub(&fb).to_canonical(), ctx.sub(&ra, &rb));
        prop_assert_eq!(fa.neg().to_canonical(), ctx.neg(&ra));
    }

    #[test]
    fn field_inversion_matches_reference(a in arb_u256()) {
        let ctx = p_ctx();
        for v in edge_values(&ctx.m).into_iter().chain([a]) {
            let fa = FieldElement::from_reduced(&v);
            if fa.is_zero() {
                continue; // both sides panic on zero by contract
            }
            let ra = ctx.reduce(&v);
            let expected = ctx.from_mont(&ctx.mont_inv(&ctx.to_mont(&ra)));
            prop_assert_eq!(fa.invert().to_canonical(), expected);
        }
    }

    #[test]
    fn field_sqrt_matches_reference(a in arb_u256()) {
        // The oracle candidate is a^((p+1)/4) via generic mont_pow.
        let ctx = p_ctx();
        let exp = {
            let (p1, carry) = ctx.m.adc(&U256::ONE);
            prop_assert!(!carry);
            p1.shr1().shr1()
        };
        for v in edge_values(&ctx.m).into_iter().chain([a]) {
            let fa = FieldElement::from_reduced(&v);
            let ra = ctx.reduce(&v);
            let candidate = ctx.from_mont(&ctx.mont_pow(&ctx.to_mont(&ra), &exp));
            let is_root = ref_mul(&ctx, &candidate, &candidate) == ra;
            match fa.sqrt() {
                Some(root) => {
                    prop_assert!(is_root, "backend found a root the oracle refutes");
                    let r = root.to_canonical();
                    prop_assert!(r == candidate || r == ctx.neg(&candidate));
                }
                None => prop_assert!(!is_root, "backend missed a root the oracle found"),
            }
        }
    }

    #[test]
    fn scalar_ops_match_reference(a in arb_u256(), b in arb_u256()) {
        let ctx = n_ctx();
        for a in edge_values(&ctx.m).into_iter().chain([a]) {
            let sa = Scalar::from_reduced(&a);
            let sb = Scalar::from_reduced(&b);
            let ra = ctx.reduce(&a);
            let rb = ctx.reduce(&b);
            prop_assert_eq!(sa.mul(&sb).to_canonical(), ref_mul(&ctx, &ra, &rb));
            prop_assert_eq!(sa.square().to_canonical(), ref_mul(&ctx, &ra, &ra));
            prop_assert_eq!(sa.add(&sb).to_canonical(), ctx.add(&ra, &rb));
            prop_assert_eq!(sa.sub(&sb).to_canonical(), ctx.sub(&ra, &rb));
            if !sa.is_zero() {
                let expected = ctx.from_mont(&ctx.mont_inv(&ctx.to_mont(&ra)));
                prop_assert_eq!(sa.invert().to_canonical(), expected);
            }
        }
    }

    #[test]
    fn scalar_wide_reduction_matches_reference(lo in arb_u256(), hi in arb_u256()) {
        let ctx = n_ctx();
        let l = lo.limbs();
        let h = hi.limbs();
        let wide = [l[0], l[1], l[2], l[3], h[0], h[1], h[2], h[3]];
        prop_assert_eq!(Scalar::from_wide(&wide).to_canonical(), ctx.reduce_wide(&wide));
        // All-ones upper edge.
        let ones = [u64::MAX; 8];
        prop_assert_eq!(Scalar::from_wide(&ones).to_canonical(), ctx.reduce_wide(&ones));
    }
}
