//! The generic Montgomery engine: the reference oracle of the field
//! backend, compiled only for this crate's tests.
//!
//! [`MontCtx`] works for any odd 256-bit modulus above `2^255`. It
//! derives its constants at construction, so no hand-derived magic
//! numbers need to be trusted, keeps the original loop and branch
//! algorithms and inverts by Fermat's little theorem. No library path
//! calls it. The `agreement` properties below pin the fixed-constant
//! backend under [`crate::field`] and [`crate::scalar`] against it for
//! every operation, so a backend regression cannot hide behind its own
//! test vectors.

#![allow(clippy::needless_range_loop)] // index form mirrors the limb algorithms

use crate::u256::U256;

/// Canonical inputs whose Montgomery form, the integer the safegcd
/// receives, needs more than 531 divsteps (nine batches of 59) to
/// reach `g = 0`: 539 and 537. A random input needs the tenth batch
/// about once in 11 500, so only pins like these catch an inversion
/// that stops a batch early. Found by a search over random Montgomery
/// forms; the backend's `pinned_inputs_need_the_tenth_batch` re-proves
/// that each needs the tenth batch, and the inversion sweeps below
/// check their inverses.
pub(crate) const P_TENTH_BATCH: [&str; 2] = [
    "1fc6ab8f0e2ea2cf2423986d9a68cb73ad588fcd815374ce5d0dce476d1f7d54",
    "b90ad88d39cb370d9a1065751e2db84879a6669d8914a26fb24edf9b98a0af6b",
];

/// The same for the order n: 537 divsteps each.
pub(crate) const N_TENTH_BATCH: [&str; 2] = [
    "9b48406b426169918f113fc2938d0ea07f6f49a0535b9909f086da4fecc846c3",
    "25cd0e2dacf4faaa6d26ccbe3794501af442030b13bcc961ba1677c22c7db21e",
];

/// Shifts left by one bit, returning the shifted value and the
/// carried-out top bit.
fn shl1(x: &U256) -> (U256, bool) {
    let limbs = x.limbs();
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        out[i] = (limbs[i] << 1) | carry;
        carry = limbs[i] >> 63;
    }
    (U256::from_limbs(out), carry == 1)
}

/// Precomputed context for Montgomery arithmetic mod an odd 256-bit
/// modulus `m` with `m > 2^255` (true for both P-256 moduli).
#[derive(Debug, Clone)]
pub(crate) struct MontCtx {
    /// The modulus.
    pub(crate) m: U256,
    /// `-m^{-1} mod 2^64`.
    n0: u64,
    /// `R mod m` where `R = 2^256` (this is `1` in Montgomery form).
    pub(crate) r1: U256,
    /// `R^2 mod m` (used to convert into Montgomery form).
    pub(crate) r2: U256,
}

impl MontCtx {
    /// Builds a context for modulus `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even or `m <= 2^255` (not the P-256 shape).
    pub(crate) fn new(m: U256) -> Self {
        assert!(m.is_odd(), "Montgomery modulus must be odd");
        assert!(m.bit(255), "modulus must exceed 2^255");

        // n0 = -m^{-1} mod 2^64 by Newton–Hensel lifting.
        let m0 = m.limbs()[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let n0 = inv.wrapping_neg();

        // R mod m = 2^256 - m   (valid because m > 2^255 ⇒ 2^256 < 2m).
        let r1 = m.wrapping_neg();

        // R^2 mod m by 256 modular doublings of R.
        let mut r2 = r1;
        for _ in 0..256 {
            r2 = Self::mod_double(&r2, &m);
        }

        MontCtx { m, n0, r1, r2 }
    }

    fn mod_double(x: &U256, m: &U256) -> U256 {
        let (d, carry) = shl1(x);
        let (r, borrow) = d.sbb(m);
        if carry || !borrow {
            r
        } else {
            d
        }
    }

    /// Modular addition of canonical (non-Montgomery) residues.
    pub(crate) fn add(&self, a: &U256, b: &U256) -> U256 {
        let (s, carry) = a.adc(b);
        let (r, borrow) = s.sbb(&self.m);
        if carry || !borrow {
            r
        } else {
            s
        }
    }

    /// Modular subtraction of canonical residues.
    pub(crate) fn sub(&self, a: &U256, b: &U256) -> U256 {
        let (d, borrow) = a.sbb(b);
        if borrow {
            d.wrapping_add(&self.m)
        } else {
            d
        }
    }

    /// Modular negation of a canonical residue.
    pub(crate) fn neg(&self, a: &U256) -> U256 {
        if a.is_zero() {
            U256::ZERO
        } else {
            self.m.wrapping_sub(a)
        }
    }

    /// Montgomery multiplication: returns `a·b·R^{-1} mod m`
    /// (CIOS over 4 limbs).
    pub(crate) fn mont_mul(&self, a: &U256, b: &U256) -> U256 {
        let al = a.limbs();
        let bl = b.limbs();
        let ml = self.m.limbs();
        // t has 6 active positions: 4 limbs + 2 overflow slots.
        let mut t = [0u64; 6];

        for i in 0..4 {
            // t += a[i] * b
            let mut carry = 0u128;
            for j in 0..4 {
                let acc = t[j] as u128 + (al[i] as u128) * (bl[j] as u128) + carry;
                t[j] = acc as u64;
                carry = acc >> 64;
            }
            let acc = t[4] as u128 + carry;
            t[4] = acc as u64;
            t[5] = (acc >> 64) as u64;

            // m-reduction step
            let u = t[0].wrapping_mul(self.n0);
            let acc = t[0] as u128 + (u as u128) * (ml[0] as u128);
            let mut carry = acc >> 64;
            for j in 1..4 {
                let acc = t[j] as u128 + (u as u128) * (ml[j] as u128) + carry;
                t[j - 1] = acc as u64;
                carry = acc >> 64;
            }
            let acc = t[4] as u128 + carry;
            t[3] = acc as u64;
            let acc2 = t[5] as u128 + (acc >> 64);
            t[4] = acc2 as u64;
            t[5] = (acc2 >> 64) as u64;
        }

        let result = U256::from_limbs([t[0], t[1], t[2], t[3]]);
        // Final conditional subtraction: result may be in [0, 2m). The
        // subtracted candidate is always computed and a mask picks the
        // reduced value — no branch on the (possibly secret) result.
        let (reduced, borrow) = result.sbb(&self.m);
        let take_reduced = !crate::ct::is_zero_mask(t[4]) | crate::ct::is_zero_mask(borrow as u64);
        crate::ct::select_u256(&reduced, &result, take_reduced)
    }

    /// The Montgomery reduction constant `-m^{-1} mod 2^64`, against
    /// which the backend's compile-time constants are checked.
    pub(crate) fn n0(&self) -> u64 {
        self.n0
    }

    /// Converts a canonical residue into Montgomery form (`a·R mod m`).
    pub(crate) fn to_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &self.r2)
    }

    /// Converts out of Montgomery form (`a·R^{-1} mod m`).
    pub(crate) fn out_of_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &U256::ONE)
    }

    /// Modular multiplication of canonical residues (convenience; two
    /// Montgomery passes).
    pub(crate) fn mul(&self, a: &U256, b: &U256) -> U256 {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.out_of_mont(&self.mont_mul(&am, &bm))
    }

    /// Montgomery exponentiation: `base^exp · R mod m` for a Montgomery-
    /// form `base`; the result stays in Montgomery form.
    pub(crate) fn mont_pow(&self, base: &U256, exp: &U256) -> U256 {
        let mut acc = self.r1; // 1 in Montgomery form
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul(&acc, base);
            }
        }
        acc
    }

    /// Modular inverse of a Montgomery-form element via Fermat's little
    /// theorem (`a^{m-2}`); valid because both P-256 moduli are prime.
    /// Returns a Montgomery-form result.
    ///
    /// # Panics
    ///
    /// Panics when `a` is zero (zero has no inverse).
    pub(crate) fn mont_inv(&self, a: &U256) -> U256 {
        assert!(!a.is_zero(), "attempted to invert zero");
        let exp = self.m.wrapping_sub(&U256::from_u64(2));
        self.mont_pow(a, &exp)
    }

    /// Reduces a canonical 256-bit value mod m (single conditional
    /// subtraction; valid because `m > 2^255`).
    pub(crate) fn reduce(&self, a: &U256) -> U256 {
        let (r, borrow) = a.sbb(&self.m);
        if borrow {
            *a
        } else {
            r
        }
    }
}

mod tests {
    use super::*;

    fn p256_prime() -> U256 {
        U256::from_be_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
    }

    fn p256_order() -> U256 {
        U256::from_be_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
    }

    /// Bit-by-bit reference modular multiplication for cross-checking.
    fn modmul_ref(a: &U256, b: &U256, m: &U256) -> U256 {
        let mut acc = U256::ZERO;
        for i in (0..b.bit_len()).rev() {
            acc = MontCtx::mod_double(&acc, m);
            if b.bit(i) {
                let ctx_free_add = {
                    let (s, carry) = acc.adc(a);
                    let (r, borrow) = s.sbb(m);
                    if carry || !borrow {
                        r
                    } else {
                        s
                    }
                };
                acc = ctx_free_add;
            }
        }
        acc
    }

    #[test]
    fn constants_sane() {
        let ctx = MontCtx::new(p256_prime());
        // r1 = 2^256 mod p must be < p and nonzero.
        assert!(ctx.r1 < ctx.m);
        assert!(!ctx.r1.is_zero());
        // to_mont(1) must equal r1.
        assert_eq!(ctx.to_mont(&U256::ONE), ctx.r1);
        // out_of_mont(to_mont(x)) is the identity.
        let x = U256::from_u64(0x1234_5678_9abc_def0);
        assert_eq!(ctx.out_of_mont(&ctx.to_mont(&x)), x);
        // `shl1`, behind the doublings that derive r2, carries the top
        // bit out.
        let top_and_one =
            U256::from_be_hex("8000000000000000000000000000000000000000000000000000000000000001");
        assert_eq!(shl1(&top_and_one), (U256::from_u64(2), true));
    }

    #[test]
    fn mont_mul_matches_reference() {
        for m in [p256_prime(), p256_order()] {
            let ctx = MontCtx::new(m);
            let a = U256::from_be_hex(
                "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
            );
            let b = U256::from_be_hex(
                "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
            );
            assert_eq!(ctx.mul(&a, &b), modmul_ref(&a, &b, &m));
        }
    }

    #[test]
    fn add_sub_neg() {
        let ctx = MontCtx::new(p256_prime());
        let a = U256::from_u64(5);
        let b = ctx.m.wrapping_sub(&U256::from_u64(3)); // -3 mod p
        assert_eq!(ctx.add(&a, &b), U256::from_u64(2));
        assert_eq!(
            ctx.sub(&U256::from_u64(3), &U256::from_u64(5)),
            ctx.neg(&U256::from_u64(2))
        );
        assert_eq!(ctx.neg(&U256::ZERO), U256::ZERO);
        assert_eq!(ctx.add(&ctx.neg(&a), &a), U256::ZERO);
    }

    #[test]
    fn inversion_identity() {
        for m in [p256_prime(), p256_order()] {
            let ctx = MontCtx::new(m);
            for v in [2u64, 3, 0xdeadbeef, u64::MAX] {
                let a = ctx.to_mont(&U256::from_u64(v));
                let inv = ctx.mont_inv(&a);
                let prod = ctx.mont_mul(&a, &inv);
                assert_eq!(ctx.out_of_mont(&prod), U256::ONE, "v={v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn invert_zero_panics() {
        let ctx = MontCtx::new(p256_prime());
        ctx.mont_inv(&U256::ZERO);
    }

    #[test]
    fn pow_small_cases() {
        let ctx = MontCtx::new(p256_prime());
        let two = ctx.to_mont(&U256::from_u64(2));
        // 2^10 = 1024
        let r = ctx.mont_pow(&two, &U256::from_u64(10));
        assert_eq!(ctx.out_of_mont(&r), U256::from_u64(1024));
        // x^0 = 1
        let r = ctx.mont_pow(&two, &U256::ZERO);
        assert_eq!(ctx.out_of_mont(&r), U256::ONE);
    }

    #[test]
    fn reduce_single() {
        let ctx = MontCtx::new(p256_prime());
        assert_eq!(ctx.reduce(&U256::ZERO), U256::ZERO);
        assert_eq!(ctx.reduce(&ctx.m), U256::ZERO);
        assert_eq!(
            ctx.reduce(&ctx.m.wrapping_add(&U256::from_u64(7))),
            U256::from_u64(7)
        );
        assert_eq!(ctx.reduce(&U256::from_u64(7)), U256::from_u64(7));
    }
}

/// The fixed-constant backend against the oracle, through the public
/// [`crate::FieldElement`] and [`crate::Scalar`] types. Every property
/// covers random values and the edge cases 0, 1, m−1 and un-reduced
/// 2^256−1, and the inversion sweeps add a fixed set of edge inputs.
mod agreement {
    use super::{shl1, MontCtx, N_TENTH_BATCH, P_TENTH_BATCH};
    use crate::field::{FieldElement, P_HEX};
    use crate::scalar::{Scalar, N_HEX};
    use crate::u256::U256;
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

    /// The inversion sweep's canonical inputs for `ctx.m`: 1..=64, `2^k`
    /// and `m − 2^k` for k = 0..=255, m − 1, m − 2, (m ± 1)/2 and the
    /// alternating-bit words; then every one of those again as the
    /// Montgomery form the inversion receives (the input `v·R⁻¹`,
    /// stored as `v`); then the pinned tenth-batch inputs.
    fn inversion_sweep(ctx: &MontCtx, pinned: &[&str]) -> Vec<U256> {
        let m = ctx.m;
        let mut values: Vec<U256> = (1..=64).map(U256::from_u64).collect();
        let mut pow = U256::ONE;
        for _ in 0..=255 {
            values.push(pow);
            values.push(m.wrapping_sub(&pow));
            pow = shl1(&pow).0;
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
        let stored: Vec<U256> = values.iter().map(|v| ctx.out_of_mont(v)).collect();
        values.extend(stored);
        values.extend(pinned.iter().map(|h| U256::from_be_hex(h)));
        values
    }

    /// Canonical inverse of a canonical residue, via the oracle's
    /// Fermat inversion.
    fn ref_inv(ctx: &MontCtx, a: &U256) -> U256 {
        ctx.out_of_mont(&ctx.mont_inv(&ctx.to_mont(a)))
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
                    prop_assert_eq!(fa.mul(&fb).to_canonical(), ctx.mul(&ra, &rb));
                    prop_assert_eq!(fa.square().to_canonical(), ctx.mul(&ra, &ra));
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
                prop_assert_eq!(fa.invert().to_canonical(), ref_inv(&ctx, &ctx.reduce(&v)));
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
                let candidate = ctx.out_of_mont(&ctx.mont_pow(&ctx.to_mont(&ra), &exp));
                let is_root = ctx.mul(&candidate, &candidate) == ra;
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
                prop_assert_eq!(sa.mul(&sb).to_canonical(), ctx.mul(&ra, &rb));
                prop_assert_eq!(sa.square().to_canonical(), ctx.mul(&ra, &ra));
                prop_assert_eq!(sa.add(&sb).to_canonical(), ctx.add(&ra, &rb));
                prop_assert_eq!(sa.sub(&sb).to_canonical(), ctx.sub(&ra, &rb));
                if !sa.is_zero() {
                    prop_assert_eq!(sa.invert().to_canonical(), ref_inv(&ctx, &ra));
                }
            }
        }
    }
}
