//! NIST SP 800-90A HMAC-DRBG (SHA-256).
//!
//! The deterministic randomness source for the whole reproduction.
//! Every ephemeral key, nonce and CA blinding value in the simulated
//! protocols is drawn from an [`HmacDrbg`], which makes protocol runs
//! reproducible from a seed while still exercising the exact code paths
//! a hardware TRNG would feed on the paper's boards.

use crate::hmac::{hmac_sha256, HmacSha256};

/// Deterministic random bit generator (HMAC-DRBG with SHA-256).
///
/// ```
/// use ecq_crypto::HmacDrbg;
///
/// let mut rng = HmacDrbg::new(b"seed material", b"personalization");
/// let mut a = [0u8; 32];
/// let mut b = [0u8; 32];
/// rng.fill_bytes(&mut a);
/// rng.fill_bytes(&mut b);
/// assert_ne!(a, b);
/// ```
#[derive(Clone)]
pub struct HmacDrbg {
    k: [u8; 32],
    v: [u8; 32],
    reseed_counter: u64,
}

impl core::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HmacDrbg")
            .field("reseed_counter", &self.reseed_counter)
            .finish_non_exhaustive()
    }
}

impl HmacDrbg {
    /// Instantiates the DRBG from entropy input and a personalization
    /// string (either may be empty, but an all-empty instantiation is
    /// only suitable for tests).
    pub fn new(entropy: &[u8], personalization: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            k: [0u8; 32],
            v: [1u8; 32],
            reseed_counter: 1,
        };
        drbg.update(&[entropy, personalization]);
        drbg
    }

    /// Convenience constructor from a 64-bit seed, for simulations.
    pub fn from_seed(seed: u64) -> Self {
        Self::new(&seed.to_be_bytes(), b"ecq-sim")
    }

    /// SP 800-90A `HMAC_DRBG_Update`: round 0, and round 1 only when
    /// `provided` carries data, each `K = HMAC(K, V ‖ round ‖ provided)`
    /// then `V = HMAC(K, V)`.
    fn update(&mut self, provided: &[&[u8]]) {
        let last_round = u8::from(provided.iter().any(|p| !p.is_empty()));
        for round in 0..=last_round {
            let mut mac = HmacSha256::new(&self.k);
            mac.update(&self.v);
            mac.update(&[round]);
            for p in provided {
                mac.update(p);
            }
            self.k = mac.finalize();
            self.v = hmac_sha256(&self.k, &self.v);
        }
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut written = 0;
        while written < out.len() {
            self.v = hmac_sha256(&self.k, &self.v);
            let take = (out.len() - written).min(32);
            out[written..written + take].copy_from_slice(&self.v[..take]);
            written += take;
        }
        self.update(&[]);
        self.reseed_counter += 1;
    }

    /// Returns `n` pseudorandom bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }

    /// Returns a pseudorandom 32-byte array (the common case for nonces
    /// and scalar candidates).
    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }

    /// Returns a pseudorandom `u64` (for simulation jitter etc.).
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = HmacDrbg::from_seed(42);
        let mut b = HmacDrbg::from_seed(42);
        assert_eq!(a.bytes32(), b.bytes32());
        assert_eq!(a.bytes(100), b.bytes(100));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::from_seed(1);
        let mut b = HmacDrbg::from_seed(2);
        assert_ne!(a.bytes32(), b.bytes32());
    }

    #[test]
    fn personalization_matters() {
        let mut a = HmacDrbg::new(b"e", b"p1");
        let mut b = HmacDrbg::new(b"e", b"p2");
        assert_ne!(a.bytes32(), b.bytes32());
    }

    #[test]
    fn successive_outputs_differ() {
        let mut rng = HmacDrbg::from_seed(3);
        let x = rng.bytes32();
        let y = rng.bytes32();
        assert_ne!(x, y);
    }

    #[test]
    fn long_output_no_repeating_blocks() {
        let mut rng = HmacDrbg::from_seed(9);
        let out = rng.bytes(96);
        assert_ne!(out[..32], out[32..64]);
        assert_ne!(out[32..64], out[64..96]);
    }

    #[test]
    fn debug_hides_state() {
        let rng = HmacDrbg::from_seed(1);
        let dbg = format!("{rng:?}");
        assert!(dbg.contains("reseed_counter"));
        assert!(!dbg.contains("k:"));
    }
}
