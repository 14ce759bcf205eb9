//! Arithmetic mod `n`, the P-256 group order.
//!
//! Scalars are the exponents of the group: private keys, ECDSA nonces,
//! the ECQV hash values `e = H_n(Cert)` and the reconstruction data `r`.
//! Like [`crate::field`], the hot operations run on the specialized
//! fixed-constant backend ([`crate::backend`]) — the order limbs and
//! `n0` fold in at compile time and every reduction is branch-free.
//! Inversion (`k⁻¹` in ECDSA signing, `s⁻¹` in verification) is the
//! backend's constant-time safegcd (Bernstein–Yang, 590 divsteps for
//! every input) plus one Montgomery multiplication.

use crate::backend::{self, MontParams};
use crate::u256::U256;
use crate::CurveError;
use ecq_crypto::HmacDrbg;
use std::sync::OnceLock;

/// The P-256 group order, big-endian hex.
pub const N_HEX: &str = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";

/// The group order as little-endian limbs.
const N_LIMBS: [u64; 4] = [
    0xf3b9_cac2_fc63_2551,
    0xbce6_faad_a717_9e84,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_0000_0000,
];

/// Compile-time Montgomery parameters for the order field.
const N_PARAMS: MontParams = MontParams::new(N_LIMBS);

/// A scalar mod `n` in Montgomery form.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Scalar(U256);

impl core::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Scalars are usually secret; show only a short fingerprint.
        let bytes = self.to_be_bytes();
        write!(f, "Scalar(…{:02x}{:02x})", bytes[30], bytes[31])
    }
}

impl Scalar {
    /// The scalar 0.
    pub fn zero() -> Self {
        Scalar(U256::ZERO)
    }

    /// The scalar 1.
    pub fn one() -> Self {
        Scalar(U256::from_limbs(N_PARAMS.r1))
    }

    /// The group order `n` as an integer.
    pub fn order() -> U256 {
        U256::from_limbs(N_LIMBS)
    }

    /// Builds from a canonical integer `< n`; `None` otherwise.
    pub fn from_canonical(v: &U256) -> Option<Self> {
        if *v >= Self::order() {
            None
        } else {
            Some(Scalar(U256::from_limbs(backend::mont_mul(
                &v.limbs(),
                &N_PARAMS.r2,
                &N_PARAMS,
            ))))
        }
    }

    /// Builds from an arbitrary 256-bit integer, reducing mod n.
    pub fn from_reduced(v: &U256) -> Self {
        let reduced = backend::reduce_once(&v.limbs(), &N_PARAMS);
        Scalar(U256::from_limbs(backend::mont_mul(
            &reduced,
            &N_PARAMS.r2,
            &N_PARAMS,
        )))
    }

    /// Builds from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Scalar(U256::from_limbs(backend::mont_mul(
            &[v, 0, 0, 0],
            &N_PARAMS.r2,
            &N_PARAMS,
        )))
    }

    /// Parses 32 big-endian bytes as a canonical scalar.
    ///
    /// # Errors
    ///
    /// [`CurveError::InvalidScalar`] when the value is `>= n`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Result<Self, CurveError> {
        Self::from_canonical(&U256::from_be_bytes(bytes)).ok_or(CurveError::InvalidScalar)
    }

    /// Parses 32 big-endian bytes, reducing mod n (hash-to-scalar; this
    /// is the paper's `Hash(Cert_X)` interpreted as an integer).
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> Self {
        Self::from_reduced(&U256::from_be_bytes(bytes))
    }

    /// Samples a uniformly random nonzero scalar in `[1, n-1]`
    /// (the paper's eq. (2): `X ∈_R [1, …, n−1]`).
    pub fn random(rng: &mut HmacDrbg) -> Self {
        loop {
            let candidate = U256::from_be_bytes(&rng.bytes32());
            if candidate.is_zero() {
                continue;
            }
            if let Some(s) = Self::from_canonical(&candidate) {
                if !s.is_zero() {
                    return s;
                }
            }
        }
    }

    /// Returns the canonical integer value.
    pub fn to_canonical(self) -> U256 {
        U256::from_limbs(backend::mont_mul(&self.0.limbs(), &[1, 0, 0, 0], &N_PARAMS))
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.to_canonical().to_be_bytes()
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Addition mod n.
    pub fn add(&self, rhs: &Self) -> Self {
        Scalar(U256::from_limbs(backend::add_mod(
            &self.0.limbs(),
            &rhs.0.limbs(),
            &N_PARAMS,
        )))
    }

    /// Subtraction mod n.
    pub fn sub(&self, rhs: &Self) -> Self {
        Scalar(U256::from_limbs(backend::sub_mod(
            &self.0.limbs(),
            &rhs.0.limbs(),
            &N_PARAMS,
        )))
    }

    /// Negation mod n.
    pub fn neg(&self) -> Self {
        Scalar(U256::from_limbs(backend::neg_mod(
            &self.0.limbs(),
            &N_PARAMS,
        )))
    }

    /// Multiplication mod n.
    pub fn mul(&self, rhs: &Self) -> Self {
        #[cfg(any(test, feature = "schedule-counters"))]
        crate::counters::record(|c| c.scalar_muls += 1);
        Scalar(U256::from_limbs(backend::mont_mul(
            &self.0.limbs(),
            &rhs.0.limbs(),
            &N_PARAMS,
        )))
    }

    /// Squaring mod n (dedicated pass, cheaper than `mul(self, self)`).
    pub fn square(&self) -> Self {
        #[cfg(any(test, feature = "schedule-counters"))]
        crate::counters::record(|c| c.scalar_squares += 1);
        Scalar(U256::from_limbs(backend::mont_sqr(
            &self.0.limbs(),
            &N_PARAMS,
        )))
    }

    /// Multiplicative inverse mod n, by the constant-time safegcd of
    /// Bernstein and Yang ("Fast constant-time gcd computation and
    /// modular inversion", TCHES 2019) in [`crate::backend`]: exactly
    /// 590 divsteps for every input, the bound for 256-bit moduli, then
    /// one Montgomery multiplication by `R³ mod n`. No branch, index or
    /// exit depends on the value (the test-only `crate::counters`
    /// assert the schedule).
    ///
    /// # Panics
    ///
    /// Panics when `self` is zero.
    pub fn invert(&self) -> Self {
        assert!(!self.0.is_zero(), "attempted to invert zero");
        // The stored integer is aR, whose inverse is a⁻¹R⁻¹; one
        // Montgomery multiplication by R³ takes it to a⁻¹R.
        let inv = backend::invert(&self.0.limbs(), &N_PARAMS);
        Scalar(U256::from_limbs(inv)).mul(&Scalar(U256::from_limbs(N_PARAMS.r3)))
    }

    /// Whether the canonical value is in the "high" half (`> n/2`);
    /// used for low-s ECDSA normalization.
    pub fn is_high(&self) -> bool {
        static HALF: OnceLock<U256> = OnceLock::new();
        let half = HALF.get_or_init(|| Scalar::order().shr1());
        self.to_canonical() > *half
    }
}

impl ecq_crypto::zeroize::Zeroize for Scalar {
    fn zeroize(&mut self) {
        ecq_crypto::zeroize::Zeroize::zeroize(&mut self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{self, Counts};

    #[test]
    fn ring_identities() {
        let a = Scalar::from_u64(987654321);
        assert_eq!(a.add(&Scalar::zero()), a);
        assert_eq!(a.mul(&Scalar::one()), a);
        assert_eq!(a.sub(&a), Scalar::zero());
        assert_eq!(a.mul(&a.invert()), Scalar::one());
    }

    #[test]
    fn limbs_hex_agree() {
        assert_eq!(Scalar::order(), U256::from_be_hex(N_HEX));
    }

    #[test]
    fn square_matches_mul() {
        let mut a = Scalar::from_u64(3);
        for _ in 0..32 {
            assert_eq!(a.square(), a.mul(&a));
            a = a.square().add(&Scalar::one());
        }
    }

    #[test]
    fn range_validation() {
        let n = U256::from_be_hex(N_HEX);
        assert!(Scalar::from_canonical(&n).is_none());
        assert!(Scalar::from_canonical(&n.wrapping_sub(&U256::ONE)).is_some());
        assert_eq!(
            Scalar::from_be_bytes(&[0xff; 32]),
            Err(CurveError::InvalidScalar)
        );
    }

    #[test]
    fn reduction_wraps() {
        let n = U256::from_be_hex(N_HEX);
        let over = n.wrapping_add(&U256::from_u64(5));
        assert_eq!(Scalar::from_reduced(&over), Scalar::from_u64(5));
        let bytes = over.to_be_bytes();
        assert_eq!(Scalar::from_be_bytes_reduced(&bytes), Scalar::from_u64(5));
    }

    #[test]
    fn random_scalars_nonzero_distinct() {
        let mut rng = HmacDrbg::from_seed(11);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        assert!(!a.is_zero());
        assert!(!b.is_zero());
        assert_ne!(a, b);
    }

    #[test]
    fn high_low_halves() {
        assert!(!Scalar::from_u64(1).is_high());
        assert!(Scalar::from_u64(1).neg().is_high()); // n-1 is high
    }

    #[test]
    fn inversion_schedule_is_input_independent() {
        // 590 divsteps and one correcting multiplication, for every base;
        // no field operation runs.
        let expected = Counts {
            divsteps: 590,
            scalar_muls: 1,
            ..Counts::default()
        };
        let n_minus_1 = Scalar::from_u64(1).neg();
        let inputs = [1u64, 2, 0xdead_beef, u64::MAX].map(Scalar::from_u64);
        for a in inputs.into_iter().chain([n_minus_1]) {
            let (inv, counts) = counters::measure(|| a.invert());
            assert_eq!(a.mul(&inv), Scalar::one(), "{:?}", a.to_canonical());
            assert_eq!(counts, expected, "{:?}", a.to_canonical());
        }
    }

    #[test]
    fn debug_shows_fingerprint_only() {
        let s = Scalar::from_u64(0xabcd);
        let dbg = format!("{s:?}");
        assert!(dbg.starts_with("Scalar(…"));
        assert!(dbg.len() < 20);
    }
}
