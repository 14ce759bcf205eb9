//! RFC 2104 HMAC with SHA-256.
//!
//! Used by the baseline protocols (SCIANC, PORAMB) for message
//! authentication codes, by [`crate::hkdf`] for key derivation, and by
//! [`crate::drbg`] for deterministic random bit generation.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Size of an HMAC-SHA256 tag in bytes.
pub const TAG_LEN: usize = DIGEST_LEN;

/// Incremental HMAC-SHA256 computation.
///
/// ```
/// use ecq_crypto::hmac::{hmac_sha256, HmacSha256};
///
/// let mut m = HmacSha256::new(b"key");
/// m.update(b"msg");
/// assert_eq!(m.finalize(), hmac_sha256(b"key", b"msg"));
/// ```
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Starts an HMAC computation with the given key (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = {
                let mut h = Sha256::new();
                h.update(key);
                h.finalize()
            };
            block_key[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = block_key[i] ^ 0x36;
            opad[i] = block_key[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; TAG_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut m = HmacSha256::new(key);
    m.update(msg);
    m.finalize()
}

/// One-shot HMAC-SHA256 over the concatenation of several slices.
pub fn hmac_sha256_concat(key: &[u8], parts: &[&[u8]]) -> [u8; TAG_LEN] {
    let mut m = HmacSha256::new(key);
    for p in parts {
        m.update(p);
    }
    m.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ct;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        // Callers check a tag by recomputing it and comparing in
        // constant time.
        let tag = hmac_sha256(b"k", b"m");
        assert!(ct::eq(&hmac_sha256(b"k", b"m"), &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!ct::eq(&hmac_sha256(b"k", b"m"), &bad));
        assert!(!ct::eq(&hmac_sha256(b"k", b"m"), &tag[..31]));
        assert!(!ct::eq(&hmac_sha256(b"k2", b"m"), &tag));
    }

    #[test]
    fn concat_matches_contiguous() {
        assert_eq!(
            hmac_sha256_concat(b"k", &[b"a", b"bc"]),
            hmac_sha256(b"k", b"abc")
        );
    }
}
