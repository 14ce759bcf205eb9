//! Arithmetic in GF(p), the P-256 base field.
//!
//! `p = 2^256 − 2^224 + 2^192 + 2^96 − 1`. Elements are stored in
//! Montgomery form and every operation runs on the specialized
//! fixed-constant backend ([`crate::backend`]): unrolled
//! multiplication/squaring with the modulus limbs and `n0 = 1` folded
//! in at compile time, branch-free final reductions, inversion by the
//! backend's constant-time safegcd (Bernstein–Yang, 590 divsteps), and
//! the square root by a fixed addition chain instead of generic
//! square-and-multiply. The crate's unit tests compare every operation
//! against `MontCtx`, a generic Montgomery engine compiled only for
//! tests.

use crate::backend::{self, MontParams};
use crate::u256::U256;

/// The P-256 prime modulus, big-endian hex.
pub const P_HEX: &str = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";

/// The curve coefficient `b`, big-endian hex (`a = −3` is implicit in
/// the point formulas).
pub const B_HEX: &str = "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";

/// The prime as little-endian limbs.
const P_LIMBS: [u64; 4] = [
    0xffff_ffff_ffff_ffff,
    0x0000_0000_ffff_ffff,
    0x0000_0000_0000_0000,
    0xffff_ffff_0000_0001,
];

/// Compile-time Montgomery parameters for GF(p); `n0 = 1` here, so the
/// reduction multiplier in the unrolled backend folds away entirely.
const P_PARAMS: MontParams = MontParams::new(P_LIMBS);

/// The curve coefficient `b` in Montgomery form.
const CURVE_B: FieldElement = FieldElement::from_be_hex(B_HEX);

/// An element of GF(p) in Montgomery form.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct FieldElement(U256);

impl core::fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fe(0x{})", self.to_canonical())
    }
}

impl FieldElement {
    /// The additive identity.
    pub fn zero() -> Self {
        FieldElement(U256::ZERO)
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        FieldElement(U256::from_limbs(P_PARAMS.r1))
    }

    /// The curve coefficient `b`.
    pub fn curve_b() -> Self {
        CURVE_B
    }

    /// The element with canonical big-endian hex value `hex`, which
    /// must be below `p`, converted at compile time.
    pub(crate) const fn from_be_hex(hex: &str) -> Self {
        let x = U256::from_be_hex(hex).limbs();
        FieldElement(U256::from_limbs(backend::mul_2_256(x, &P_LIMBS)))
    }

    /// Builds a field element from a canonical integer `< p`.
    ///
    /// Returns `None` when `v >= p`.
    pub fn from_canonical(v: &U256) -> Option<Self> {
        if *v >= U256::from_limbs(P_LIMBS) {
            None
        } else {
            Some(FieldElement(U256::from_limbs(backend::mont_mul(
                &v.limbs(),
                &P_PARAMS.r2,
                &P_PARAMS,
            ))))
        }
    }

    /// Builds a field element reducing an arbitrary 256-bit value mod p.
    pub fn from_reduced(v: &U256) -> Self {
        let reduced = backend::reduce_once(&v.limbs(), &P_PARAMS);
        FieldElement(U256::from_limbs(backend::mont_mul(
            &reduced,
            &P_PARAMS.r2,
            &P_PARAMS,
        )))
    }

    /// Builds from a small integer.
    pub fn from_u64(v: u64) -> Self {
        FieldElement(U256::from_limbs(backend::mont_mul(
            &[v, 0, 0, 0],
            &P_PARAMS.r2,
            &P_PARAMS,
        )))
    }

    /// Returns the canonical (non-Montgomery) value.
    pub fn to_canonical(self) -> U256 {
        U256::from_limbs(backend::mont_mul(&self.0.limbs(), &[1, 0, 0, 0], &P_PARAMS))
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.to_canonical().to_be_bytes()
    }

    /// Parses 32 big-endian bytes; `None` when the value is `>= p`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        Self::from_canonical(&U256::from_be_bytes(bytes))
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// All-ones mask when this is zero, without branching (Montgomery
    /// representation of zero is zero, so the raw limbs decide).
    pub fn ct_is_zero_mask(&self) -> u64 {
        self.0.ct_is_zero_mask()
    }

    /// Constant-time select: `a` when `mask` is all-ones, `b` when
    /// all-zeros. `mask` must be one of the two.
    pub fn conditional_select(a: &Self, b: &Self, mask: u64) -> Self {
        FieldElement(crate::ct::select_u256(&a.0, &b.0, mask))
    }

    /// Addition in GF(p).
    pub fn add(&self, rhs: &Self) -> Self {
        FieldElement(U256::from_limbs(backend::add_mod(
            &self.0.limbs(),
            &rhs.0.limbs(),
            &P_PARAMS,
        )))
    }

    /// Subtraction in GF(p).
    pub fn sub(&self, rhs: &Self) -> Self {
        FieldElement(U256::from_limbs(backend::sub_mod(
            &self.0.limbs(),
            &rhs.0.limbs(),
            &P_PARAMS,
        )))
    }

    /// Negation in GF(p).
    pub fn neg(&self) -> Self {
        FieldElement(U256::from_limbs(backend::neg_mod(
            &self.0.limbs(),
            &P_PARAMS,
        )))
    }

    /// Multiplication in GF(p).
    pub fn mul(&self, rhs: &Self) -> Self {
        #[cfg(any(test, feature = "schedule-counters"))]
        crate::counters::record(|c| c.fe_muls += 1);
        FieldElement(U256::from_limbs(backend::mont_mul(
            &self.0.limbs(),
            &rhs.0.limbs(),
            &P_PARAMS,
        )))
    }

    /// Squaring in GF(p) — a dedicated pass (cross products computed
    /// once and doubled), measurably cheaper than `mul(self, self)`.
    pub fn square(&self) -> Self {
        #[cfg(any(test, feature = "schedule-counters"))]
        crate::counters::record(|c| c.fe_squares += 1);
        FieldElement(U256::from_limbs(backend::mont_sqr(
            &self.0.limbs(),
            &P_PARAMS,
        )))
    }

    /// Doubling (`2·self`).
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// `self^(2^n)`: `n` back-to-back squarings (chain helper).
    fn sqn(&self, n: usize) -> Self {
        let mut x = *self;
        for _ in 0..n {
            x = x.square();
        }
        x
    }

    /// `self^(2^32 − 1)`, the 32-one block the square-root chain starts
    /// from, built as `x^(2^k − 1)` for `k = 2, 4, 8, 16, 32`.
    fn pow_2_32_minus_1(&self) -> Self {
        let x2 = self.square().mul(self);
        let x4 = x2.sqn(2).mul(&x2);
        let x8 = x4.sqn(4).mul(&x4);
        let x16 = x8.sqn(8).mul(&x8);
        x16.sqn(16).mul(&x16)
    }

    /// Multiplicative inverse, by the constant-time safegcd of
    /// Bernstein and Yang ("Fast constant-time gcd computation and
    /// modular inversion", TCHES 2019) in [`crate::backend`]: exactly
    /// 590 divsteps for every input, the bound for 256-bit moduli, then
    /// one Montgomery multiplication by `R³ mod p`. No branch, index or
    /// exit depends on the value (the test-only `crate::counters`
    /// assert the schedule).
    ///
    /// # Panics
    ///
    /// Panics when `self` is zero.
    pub fn invert(&self) -> Self {
        assert!(!self.is_zero(), "attempted to invert zero");
        // The stored integer is aR, whose inverse is a⁻¹R⁻¹; one
        // Montgomery multiplication by R³ takes it to a⁻¹R.
        let inv = backend::invert(&self.0.limbs(), &P_PARAMS);
        FieldElement(U256::from_limbs(inv)).mul(&FieldElement(U256::from_limbs(P_PARAMS.r3)))
    }

    /// Square root, if one exists (`p ≡ 3 mod 4` ⇒ `sqrt = a^{(p+1)/4}`),
    /// via a fixed addition chain: the candidate costs 253 squarings
    /// and 7 multiplications, plus one squaring to verify it.
    ///
    /// Returns `None` for quadratic non-residues. Used by point
    /// decompression.
    pub fn sqrt(&self) -> Option<Self> {
        let x32 = self.pow_2_32_minus_1();
        // (p+1)/4 = 2^254 − 2^222 + 2^190 + 2^94: a 32-one block at the
        // top, two lone bits, and 94 trailing zeros.
        let mut t = x32.sqn(32).mul(self);
        t = t.sqn(96).mul(self);
        let candidate = t.sqn(94);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Whether the canonical value is odd (used for compressed point
    /// parity).
    pub fn is_odd(&self) -> bool {
        self.to_canonical().is_odd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{self, Counts};

    #[test]
    fn identities() {
        let a = FieldElement::from_u64(123456789);
        assert_eq!(a.add(&FieldElement::zero()), a);
        assert_eq!(a.mul(&FieldElement::one()), a);
        assert_eq!(a.sub(&a), FieldElement::zero());
        assert_eq!(a.add(&a.neg()), FieldElement::zero());
    }

    #[test]
    fn inverse_roundtrip() {
        let a = FieldElement::from_u64(0xdead_beef_cafe_f00d);
        assert_eq!(a.mul(&a.invert()), FieldElement::one());
        // p − 1 is its own inverse (it is −1).
        let p_minus_1 = FieldElement::one().neg();
        assert_eq!(p_minus_1.invert(), p_minus_1);
        assert_eq!(FieldElement::one().invert(), FieldElement::one());
    }

    #[test]
    fn sqrt_of_square() {
        for v in [2u64, 3, 5, 1 << 40] {
            let a = FieldElement::from_u64(v);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == a.neg(), "v={v}");
        }
    }

    #[test]
    fn non_residue_has_no_root() {
        // -1 is a non-residue mod p256 prime (p ≡ 3 mod 4).
        let minus_one = FieldElement::one().neg();
        assert!(minus_one.sqrt().is_none());
    }

    #[test]
    fn byte_roundtrip_and_range_check() {
        let a = FieldElement::from_u64(42);
        assert_eq!(FieldElement::from_be_bytes(&a.to_be_bytes()), Some(a));
        // p itself must be rejected.
        let p_bytes = U256::from_be_hex(P_HEX).to_be_bytes();
        assert!(FieldElement::from_be_bytes(&p_bytes).is_none());
        assert!(FieldElement::from_be_bytes(&[0xff; 32]).is_none());
    }

    #[test]
    fn curve_b_constant() {
        assert_eq!(FieldElement::curve_b().to_canonical().to_string(), B_HEX);
    }

    #[test]
    fn compile_time_conversion_matches_runtime() {
        use crate::point::{GX_HEX, GY_HEX};
        for hex in [B_HEX, GX_HEX, GY_HEX] {
            let runtime = FieldElement::from_canonical(&U256::from_be_hex(hex)).unwrap();
            assert_eq!(FieldElement::from_be_hex(hex), runtime, "{hex}");
        }
    }

    #[test]
    fn distributivity_sample() {
        let a = FieldElement::from_u64(77);
        let b = FieldElement::from_u64(1 << 50);
        let c = FieldElement::from_u64(u64::MAX);
        assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }

    #[test]
    fn square_matches_mul() {
        let mut a = FieldElement::from_u64(3);
        for _ in 0..32 {
            assert_eq!(a.square(), a.mul(&a));
            a = a.square().add(&FieldElement::one());
        }
    }

    #[test]
    fn limbs_hex_agree() {
        assert_eq!(U256::from_limbs(P_LIMBS), U256::from_be_hex(P_HEX));
    }

    #[test]
    fn inversion_schedule_is_value_independent() {
        // The safegcd runs 590 divsteps for every input, and the
        // Montgomery correction is one multiplication; no scalar or
        // group operation runs.
        let expected = Counts {
            divsteps: 590,
            fe_muls: 1,
            ..Counts::default()
        };
        let p_minus_1 = FieldElement::one().neg();
        let inputs = [1u64, 2, 0xdead_beef, u64::MAX].map(FieldElement::from_u64);
        for a in inputs.into_iter().chain([p_minus_1]) {
            let (inv, counts) = counters::measure(|| a.invert());
            assert_eq!(a.mul(&inv), FieldElement::one(), "{a:?}");
            assert_eq!(counts, expected, "{a:?}");
        }
    }

    #[test]
    fn sqrt_schedule_is_value_independent() {
        // Residues and non-residues must cost the same: 254 squarings
        // (253 chain + 1 verification) + 7 multiplications, and no
        // divstep.
        let residue = FieldElement::from_u64(2).square();
        let non_residue = FieldElement::one().neg();
        let (r, counts_r) = counters::measure(|| residue.sqrt());
        let (n, counts_n) = counters::measure(|| non_residue.sqrt());
        assert!(r.is_some());
        assert!(n.is_none());
        assert_eq!(counts_r, counts_n);
        let expected = Counts {
            fe_squares: 254,
            fe_muls: 7,
            ..Counts::default()
        };
        assert_eq!(counts_r, expected);
    }
}
