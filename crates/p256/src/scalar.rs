//! Arithmetic mod `n`, the P-256 group order.
//!
//! Scalars are the exponents of the group: private keys, ECDSA nonces,
//! the ECQV hash values `e = H_n(Cert)` and the reconstruction data `r`.
//! A [`Scalar`] is a [`Residue`] mod n: the ring operations, the
//! conversions and the constant-time inversion (`k⁻¹` in ECDSA signing,
//! `s⁻¹` in verification) are the shared ones of [`crate::residue`].
//! This module adds what only the order needs: uniform sampling,
//! hash-to-scalar, the low-s test, a fingerprint-only `Debug` and a
//! wipe.

use crate::residue::{ModN, Residue};
use crate::u256::U256;
use ecq_crypto::HmacDrbg;

/// The P-256 group order, big-endian hex.
pub const N_HEX: &str = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";

/// `(n − 1)/2`, the largest "low" scalar of low-s ECDSA normalization.
const HALF_N: U256 =
    U256::from_be_hex("7fffffff800000007fffffffffffffffde737d56d38bcf4279dce5617e3192a8");

/// A scalar mod `n` in Montgomery form.
pub type Scalar = Residue<ModN>;

impl core::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Scalars are usually secret; show only a short fingerprint.
        let bytes = self.to_be_bytes();
        write!(f, "Scalar(…{:02x}{:02x})", bytes[30], bytes[31])
    }
}

impl Scalar {
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
            if let Some(s) = Self::from_canonical(&candidate) {
                if !s.is_zero() {
                    return s;
                }
            }
        }
    }

    /// Whether the canonical value is in the "high" half (`> (n−1)/2`);
    /// used for low-s ECDSA normalization.
    pub fn is_high(&self) -> bool {
        self.to_canonical() > HALF_N
    }
}

impl ecq_crypto::zeroize::Zeroize for Scalar {
    fn zeroize(&mut self) {
        ecq_crypto::zeroize::Zeroize::zeroize(&mut self.mont);
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
        assert_eq!(Scalar::modulus(), U256::from_be_hex(N_HEX));
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
        assert_eq!(Scalar::from_be_bytes(&[0xff; 32]), None);
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
    fn half_order_is_the_low_high_boundary() {
        // (n − 1)/2 is the largest low scalar, (n + 1)/2 the smallest
        // high one.
        assert_eq!(HALF_N, Scalar::modulus().shr1());
        let half = Scalar::from_canonical(&HALF_N).unwrap();
        assert!(!half.is_high());
        assert!(half.add(&Scalar::one()).is_high());
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
