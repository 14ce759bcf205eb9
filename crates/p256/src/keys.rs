//! Key-pair generation.

use crate::point::{mul_generator_ct, AffinePoint};
use crate::scalar::Scalar;
use ecq_crypto::zeroize::Zeroize;
use ecq_crypto::HmacDrbg;

/// A P-256 key pair (`public = private · G`).
///
/// All `private·G` computations go through the constant-schedule
/// fixed-base path ([`mul_generator_ct`]). The pair wipes its private
/// scalar when it drops, so a holder needs no wipe of its own. The
/// `Drop` impl keeps the type from being `Copy`: a copy can only be
/// made with `clone`, and each clone wipes itself too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyPair {
    /// The private scalar in `[1, n−1]`.
    pub private: Scalar,
    /// The public point.
    pub public: AffinePoint,
}

impl KeyPair {
    /// Generates a fresh key pair from the DRBG.
    pub fn generate(rng: &mut HmacDrbg) -> Self {
        let private = Scalar::random(rng);
        KeyPair {
            private,
            public: mul_generator_ct(&private),
        }
    }

    /// Rebuilds a key pair from a private scalar.
    pub fn from_private(private: Scalar) -> Self {
        KeyPair {
            private,
            public: mul_generator_ct(&private),
        }
    }

    /// Validates the internal consistency (`public == private·G` and
    /// the public point lies on the curve).
    pub fn is_consistent(&self) -> bool {
        !self.private.is_zero()
            && self.public.is_on_curve()
            && mul_generator_ct(&self.private) == self.public
    }
}

impl Zeroize for KeyPair {
    /// Wipes the private scalar (the public point is public).
    fn zeroize(&mut self) {
        self.private.zeroize();
    }
}

impl Drop for KeyPair {
    fn drop(&mut self) {
        self.zeroize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_pairs_are_consistent() {
        let mut rng = HmacDrbg::from_seed(31);
        for _ in 0..3 {
            let kp = KeyPair::generate(&mut rng);
            assert!(kp.is_consistent());
        }
    }

    #[test]
    fn distinct_pairs_from_stream() {
        let mut rng = HmacDrbg::from_seed(32);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_ne!(a.private, b.private);
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn from_private_reconstructs_public() {
        let mut rng = HmacDrbg::from_seed(33);
        let kp = KeyPair::generate(&mut rng);
        assert_eq!(KeyPair::from_private(kp.private), kp);
    }

    #[test]
    fn inconsistent_pair_detected() {
        let mut rng = HmacDrbg::from_seed(34);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        let franken = KeyPair {
            private: a.private,
            public: b.public,
        };
        assert!(!franken.is_consistent());
    }

    #[test]
    fn zeroize_clears_private_scalar() {
        let mut rng = HmacDrbg::from_seed(35);
        let mut kp = KeyPair::generate(&mut rng);
        let public = kp.public;
        kp.zeroize();
        assert!(kp.private.is_zero());
        assert_eq!(kp.public, public, "public half is untouched");
    }
}
