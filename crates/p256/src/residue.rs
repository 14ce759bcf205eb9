//! Montgomery residues modulo either P-256 modulus.
//!
//! micro-ecc, which the paper builds on, passes the modulus to one set
//! of `uECC_vli_mod*` routines that serve both the base field and the
//! group order. [`Residue<M>`] is that one set here: a [`U256`] in
//! Montgomery form, tagged with its modulus at compile time. The unit
//! moduli [`ModP`] and [`ModN`] carry their [`MontParams`], so after
//! monomorphization the backend ([`crate::backend`]) sees constant limbs
//! and `n0`, exactly as a hand-specialized wrapper would.
//!
//! [`crate::FieldElement`] is `Residue<ModP>` and [`crate::Scalar`] is
//! `Residue<ModN>`. Each adds only what its modulus needs:
//! [`crate::field`] the curve constant, the square root and the parity;
//! [`crate::scalar`] sampling, hash-to-scalar and the low-s test.

use crate::backend::{self, MontParams};
use crate::u256::U256;
use core::marker::PhantomData;

/// A P-256 modulus, fixed at compile time.
pub trait Modulus: Copy + Eq + Default {
    /// The Montgomery parameters, derived from the modulus limbs.
    const PARAMS: MontParams;
    /// Whether this is the base-field prime. The operation counters
    /// book its multiplications and squarings as `fe_*`, the group
    /// order's as `scalar_*`.
    const IS_FIELD: bool;
}

/// The base-field prime `p = 2^256 − 2^224 + 2^192 + 2^96 − 1`.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ModP;

/// The group order `n`.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ModN;

impl Modulus for ModP {
    /// `n0 = 1` for this prime, so the reduction multiplier in the
    /// unrolled backend folds away entirely.
    const PARAMS: MontParams = MontParams::new([
        0xffff_ffff_ffff_ffff,
        0x0000_0000_ffff_ffff,
        0x0000_0000_0000_0000,
        0xffff_ffff_0000_0001,
    ]);
    const IS_FIELD: bool = true;
}

impl Modulus for ModN {
    const PARAMS: MontParams = MontParams::new([
        0xf3b9_cac2_fc63_2551,
        0xbce6_faad_a717_9e84,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_0000_0000,
    ]);
    const IS_FIELD: bool = false;
}

/// An integer mod `M`, stored in Montgomery form (`aR mod m` for the
/// value `a`, `R = 2^256`), always fully reduced.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Residue<M: Modulus> {
    /// The Montgomery form, always below the modulus. Outside this
    /// module only the scalar wipe writes it, and zero is in range.
    pub(crate) mont: U256,
    modulus: PhantomData<M>,
}

impl<M: Modulus> Residue<M> {
    /// Wraps limbs that are already in Montgomery form and below `m`.
    pub(crate) const fn from_montgomery(limbs: [u64; 4]) -> Self {
        Residue {
            mont: U256::from_limbs(limbs),
            modulus: PhantomData,
        }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Self::from_montgomery([0; 4])
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Self::from_montgomery(M::PARAMS.r1)
    }

    /// The modulus `m` as an integer.
    pub fn modulus() -> U256 {
        U256::from_limbs(M::PARAMS.m)
    }

    /// Builds from a canonical integer `< m`; `None` otherwise.
    pub fn from_canonical(v: &U256) -> Option<Self> {
        if *v >= Self::modulus() {
            None
        } else {
            Some(Self::montgomery(&v.limbs()))
        }
    }

    /// Builds from an arbitrary 256-bit integer, reducing mod m.
    pub fn from_reduced(v: &U256) -> Self {
        Self::montgomery(&backend::reduce_once(&v.limbs(), &M::PARAMS))
    }

    /// Builds from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Self::montgomery(&[v, 0, 0, 0])
    }

    /// The Montgomery form of the reduced value `v`: one multiplication
    /// by `R² mod m`.
    fn montgomery(v: &[u64; 4]) -> Self {
        Self::from_montgomery(backend::mont_mul(v, &M::PARAMS.r2, &M::PARAMS))
    }

    /// Parses 32 big-endian bytes; `None` when the value is `>= m`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        Self::from_canonical(&U256::from_be_bytes(bytes))
    }

    /// Returns the canonical (non-Montgomery) value.
    pub fn to_canonical(self) -> U256 {
        U256::from_limbs(backend::mont_mul(
            &self.mont.limbs(),
            &[1, 0, 0, 0],
            &M::PARAMS,
        ))
    }

    /// Serializes the canonical value to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.to_canonical().to_be_bytes()
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.mont.is_zero()
    }

    /// All-ones mask when this is zero, without branching (the
    /// Montgomery form of zero is zero, so the raw limbs decide).
    pub fn ct_is_zero_mask(&self) -> u64 {
        self.mont.ct_is_zero_mask()
    }

    /// Constant-time select: `a` when `mask` is all-ones, `b` when
    /// all-zeros. `mask` must be one of the two.
    pub fn conditional_select(a: &Self, b: &Self, mask: u64) -> Self {
        Self::from_montgomery(crate::ct::select_u256(&a.mont, &b.mont, mask).limbs())
    }

    /// Addition mod m.
    pub fn add(&self, rhs: &Self) -> Self {
        Self::from_montgomery(backend::add_mod(
            &self.mont.limbs(),
            &rhs.mont.limbs(),
            &M::PARAMS,
        ))
    }

    /// Subtraction mod m.
    pub fn sub(&self, rhs: &Self) -> Self {
        Self::from_montgomery(backend::sub_mod(
            &self.mont.limbs(),
            &rhs.mont.limbs(),
            &M::PARAMS,
        ))
    }

    /// Negation mod m.
    pub fn neg(&self) -> Self {
        Self::from_montgomery(backend::neg_mod(&self.mont.limbs(), &M::PARAMS))
    }

    /// Doubling (`2·self`).
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// Multiplication mod m.
    // Out of line, with `square`: a generic fn inlines at every call,
    // which grows each point formula several times over and measured
    // slower (`bench_p256` `point_add` 1.5×, handshakes 1.1×).
    #[inline(never)]
    pub fn mul(&self, rhs: &Self) -> Self {
        #[cfg(any(test, feature = "schedule-counters"))]
        crate::counters::record(|c| {
            if M::IS_FIELD {
                c.fe_muls += 1
            } else {
                c.scalar_muls += 1
            }
        });
        Self::from_montgomery(backend::mont_mul(
            &self.mont.limbs(),
            &rhs.mont.limbs(),
            &M::PARAMS,
        ))
    }

    /// Squaring mod m — a dedicated pass (cross products computed once
    /// and doubled), measurably cheaper than `mul(self, self)`.
    // Out of line, for the reason `mul` gives.
    #[inline(never)]
    pub fn square(&self) -> Self {
        #[cfg(any(test, feature = "schedule-counters"))]
        crate::counters::record(|c| {
            if M::IS_FIELD {
                c.fe_squares += 1
            } else {
                c.scalar_squares += 1
            }
        });
        Self::from_montgomery(backend::mont_sqr(&self.mont.limbs(), &M::PARAMS))
    }

    /// Multiplicative inverse, by the constant-time safegcd of
    /// Bernstein and Yang ("Fast constant-time gcd computation and
    /// modular inversion", TCHES 2019) in [`crate::backend`]: exactly
    /// 590 divsteps for every input, the bound for 256-bit moduli, then
    /// one Montgomery multiplication by `R³ mod m`. No branch, index or
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
        let inv = Self::from_montgomery(backend::invert(&self.mont.limbs(), &M::PARAMS));
        inv.mul(&Self::from_montgomery(M::PARAMS.r3))
    }
}
