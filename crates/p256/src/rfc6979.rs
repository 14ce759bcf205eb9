//! RFC 6979 deterministic ECDSA nonce generation (SHA-256, P-256).
//!
//! Deterministic nonces make the simulated protocol runs reproducible
//! and remove the classic embedded pitfall the paper's introduction
//! cites (bad randomness on constrained devices leaking keys).

use crate::scalar::Scalar;
use crate::u256::U256;
use ecq_crypto::hmac::hmac_sha256_concat;
use ecq_crypto::zeroize::Zeroizing;

/// Derives the ECDSA nonce `k` for private key `x` and message hash
/// `h1` (already hashed, 32 bytes), per RFC 6979 §3.2. The private-key
/// octets and the HMAC `K`/`V` state, whose last `V` is the nonce, are
/// wiped on return.
pub fn generate_k(x: &Scalar, h1: &[u8; 32]) -> Scalar {
    let x_octets = Zeroizing::new(x.to_be_bytes());
    let h_octets = bits2octets(h1);

    let mut k = Zeroizing::new([0u8; 32]);
    let mut v = Zeroizing::new([1u8; 32]);

    // K = HMAC_K(V || 0x00 || int2octets(x) || bits2octets(h1))
    *k = hmac_sha256_concat(&*k, &[&*v, &[0x00], &*x_octets, &h_octets]);
    *v = hmac_sha256_concat(&*k, &[&*v]);
    // K = HMAC_K(V || 0x01 || int2octets(x) || bits2octets(h1))
    *k = hmac_sha256_concat(&*k, &[&*v, &[0x01], &*x_octets, &h_octets]);
    *v = hmac_sha256_concat(&*k, &[&*v]);

    loop {
        *v = hmac_sha256_concat(&*k, &[&*v]);
        let candidate = Scalar::from_canonical(&U256::from_be_bytes(&v));
        if let Some(s) = candidate.filter(|s| !s.is_zero()) {
            return s;
        }
        *k = hmac_sha256_concat(&*k, &[&*v, &[0x00]]);
        *v = hmac_sha256_concat(&*k, &[&*v]);
    }
}

/// RFC 6979 `bits2octets`: reduce the hash value mod n, re-encode.
fn bits2octets(h1: &[u8; 32]) -> [u8; 32] {
    Scalar::from_be_bytes_reduced(h1).to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_crypto::sha256::sha256;

    // RFC 6979 A.2.5, P-256 + SHA-256, message "sample".
    #[test]
    fn rfc6979_sample_nonce() {
        let x = Scalar::from_be_bytes(
            &U256::from_be_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
                .to_be_bytes(),
        )
        .unwrap();
        let h1 = sha256(b"sample");
        let k = generate_k(&x, &h1);
        assert_eq!(
            k.to_canonical().to_string(),
            "a6e3c57dd01abe90086538398355dd4c3b17aa873382b0f24d6129493d8aad60"
        );
    }

    // RFC 6979 A.2.5, message "test".
    #[test]
    fn rfc6979_test_nonce() {
        let x = Scalar::from_be_bytes(
            &U256::from_be_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
                .to_be_bytes(),
        )
        .unwrap();
        let h1 = sha256(b"test");
        let k = generate_k(&x, &h1);
        assert_eq!(
            k.to_canonical().to_string(),
            "d16b6ae827f17175e040871a1c7ec3500192c4c92677336ec2537acaee0008e0"
        );
    }

    #[test]
    fn nonce_depends_on_key_and_message() {
        let x1 = Scalar::from_u64(1);
        let x2 = Scalar::from_u64(2);
        let h1 = sha256(b"m1");
        let h2 = sha256(b"m2");
        assert_ne!(generate_k(&x1, &h1), generate_k(&x2, &h1));
        assert_ne!(generate_k(&x1, &h1), generate_k(&x1, &h2));
        // Deterministic.
        assert_eq!(generate_k(&x1, &h1), generate_k(&x1, &h1));
    }
}
