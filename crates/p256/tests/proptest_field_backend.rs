//! The specialized field backend against the generic reference oracle.
//!
//! [`ecq_p256::field::FieldElement`] and [`ecq_p256::scalar::Scalar`]
//! run on the fixed-constant backend (compile-time Montgomery
//! constants, unrolled limb code, branch-free reductions, safegcd
//! inversion, the square-root addition chain).
//! [`ecq_p256::mont::MontCtx`] derives every constant independently at
//! runtime and keeps the original loop/branch algorithms, inverting by
//! Fermat's little theorem — these properties pin the two against each
//! other for every operation over random values and the edge cases 0,
//! 1, p−1 and un-reduced 2^256−1, and the inversion sweeps add a fixed
//! set of edge inputs, so a backend regression cannot hide behind its
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

/// Canonical inputs whose Montgomery form, the integer the safegcd
/// receives, needs more than 531 divsteps (nine batches of 59) to
/// reach `g = 0`: 539 and 537. A random input needs the tenth batch
/// about once in 11 500, so only pins like these catch an inversion
/// that stops a batch early. Found by a search over random Montgomery
/// forms; the backend's `pinned_inputs_need_the_tenth_batch` re-proves
/// that each needs the tenth batch.
const P_TENTH_BATCH: [&str; 2] = [
    "1fc6ab8f0e2ea2cf2423986d9a68cb73ad588fcd815374ce5d0dce476d1f7d54",
    "b90ad88d39cb370d9a1065751e2db84879a6669d8914a26fb24edf9b98a0af6b",
];

/// The same for the order n: 537 divsteps each.
const N_TENTH_BATCH: [&str; 2] = [
    "9b48406b426169918f113fc2938d0ea07f6f49a0535b9909f086da4fecc846c3",
    "25cd0e2dacf4faaa6d26ccbe3794501af442030b13bcc961ba1677c22c7db21e",
];

/// The inversion sweep's canonical inputs for `ctx.m`: 1..=64, `2^k`
/// and `m − 2^k` for k = 0..=255, m − 1, m − 2, (m ± 1)/2 and the
/// alternating-bit words; then every one of those again as the
/// Montgomery form the inversion receives (the input `v·R⁻¹`, stored
/// as `v`); then the pinned tenth-batch inputs.
fn inversion_sweep(ctx: &MontCtx, pinned: &[&str]) -> Vec<U256> {
    let m = ctx.m;
    let mut values: Vec<U256> = (1..=64).map(U256::from_u64).collect();
    let mut pow = U256::ONE;
    for _ in 0..=255 {
        values.push(pow);
        values.push(m.wrapping_sub(&pow));
        pow = pow.shl1().0;
    }
    let half = m.shr1();
    values.extend([
        m.wrapping_sub(&U256::ONE),
        m.wrapping_sub(&U256::from_u64(2)),
        half,
        half.wrapping_add(&U256::ONE),
    ]);
    values.extend(
        [0x5555_5555_5555_5555u64, 0xaaaa_aaaa_aaaa_aaaa]
            .map(|w| ctx.reduce(&U256::from_limbs([w; 4]))),
    );
    let stored: Vec<U256> = values.iter().map(|v| ctx.from_mont(v)).collect();
    values.extend(stored);
    values.extend(pinned.iter().map(|h| U256::from_be_hex(h)));
    values
}

/// Canonical inverse of a canonical residue, via the oracle's Fermat
/// inversion.
fn ref_inv(ctx: &MontCtx, a: &U256) -> U256 {
    ctx.from_mont(&ctx.mont_inv(&ctx.to_mont(a)))
}

#[test]
fn field_inversion_sweep_matches_reference() {
    let ctx = p_ctx();
    for v in inversion_sweep(&ctx, &P_TENTH_BATCH) {
        let a = FieldElement::from_canonical(&v).expect("sweep inputs are reduced");
        let inv = a.invert();
        assert_eq!(inv.to_canonical(), ref_inv(&ctx, &v), "a = {v}");
        assert_eq!(a.mul(&inv), FieldElement::one(), "a = {v}");
    }
}

#[test]
fn scalar_inversion_sweep_matches_reference() {
    let ctx = n_ctx();
    for v in inversion_sweep(&ctx, &N_TENTH_BATCH) {
        let a = Scalar::from_canonical(&v).expect("sweep inputs are reduced");
        let inv = a.invert();
        assert_eq!(inv.to_canonical(), ref_inv(&ctx, &v), "a = {v}");
        assert_eq!(a.mul(&inv), Scalar::one(), "a = {v}");
    }
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
