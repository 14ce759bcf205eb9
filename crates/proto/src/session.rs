//! Session key material and the KDF chain.
//!
//! The paper's eq. (4): `KS = KDF(KPM, salt)`. The 32 bytes of output
//! split into a 16-byte AES-128 encryption key (matching the paper's
//! 128-bit AES configuration) and a 16-byte MAC key for protocols that
//! authenticate with symmetric tags.

use ecq_crypto::ctr::{aes128_ctr_apply, NONCE_LEN};
use ecq_crypto::hkdf::hkdf_sha256;
use ecq_crypto::zeroize::Zeroize;

/// Length of the derived session secret in bytes.
pub const SESSION_KEY_LEN: usize = 32;

/// A derived session key (`KS` in the paper).
///
/// The key wipes its bytes when it drops, so it lives no longer than
/// its holder: an endpoint, a session manager, a fleet session's last
/// key. The `Drop` impl keeps the type from being `Copy`; a copy is an
/// explicit `clone` that wipes itself too. Equality runs in constant
/// time ([`ecq_crypto::ct::eq`]).
#[derive(Clone)]
pub struct SessionKey {
    bytes: [u8; SESSION_KEY_LEN],
}

impl PartialEq for SessionKey {
    fn eq(&self, other: &Self) -> bool {
        ecq_crypto::ct::eq(&self.bytes, &other.bytes)
    }
}

impl Eq for SessionKey {}

impl core::fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material; show a short non-invertible tag.
        let fp = ecq_crypto::sha256::sha256(&self.bytes);
        write!(f, "SessionKey(fp:{:02x}{:02x})", fp[0], fp[1])
    }
}

impl SessionKey {
    /// Derives `KS = KDF(KPM, salt)` with the protocol name as the HKDF
    /// info string for domain separation between protocol families.
    pub fn derive(premaster: &[u8], salt: &[u8], protocol_label: &[u8]) -> Self {
        let mut bytes = [0u8; SESSION_KEY_LEN];
        hkdf_sha256(salt, premaster, protocol_label, &mut bytes);
        SessionKey { bytes }
    }

    /// Builds from raw bytes (tests and attack simulations only).
    pub fn from_bytes(bytes: [u8; SESSION_KEY_LEN]) -> Self {
        SessionKey { bytes }
    }

    /// The full 32 bytes.
    pub fn as_bytes(&self) -> &[u8; SESSION_KEY_LEN] {
        &self.bytes
    }

    /// The AES-128 encryption half.
    pub fn enc_key(&self) -> [u8; 16] {
        let mut half = [0u8; 16];
        half.copy_from_slice(&self.bytes[..16]);
        half
    }

    /// The MAC half.
    pub fn mac_key(&self) -> [u8; 16] {
        let mut half = [0u8; 16];
        half.copy_from_slice(&self.bytes[16..]);
        half
    }

    /// Encrypts/decrypts `data` in place with AES-128-CTR under the
    /// encryption half. `direction` separates the two flow directions'
    /// keystreams (the paper's `Resp_A` vs `Resp_B`).
    pub fn apply_stream(&self, direction: u8, data: &mut [u8]) {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[0] = direction;
        aes128_ctr_apply(&self.enc_key(), &nonce, data);
    }
}

impl Zeroize for SessionKey {
    /// Wipes the key bytes (volatile stores; see
    /// [`ecq_crypto::zeroize`]). The key's `Drop` calls this, and
    /// [`crate::EndpointCore`] calls it when its handshake fails.
    fn zeroize(&mut self) {
        self.bytes.zeroize();
    }
}

impl Drop for SessionKey {
    fn drop(&mut self) {
        self.zeroize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_separated() {
        let a = SessionKey::derive(b"premaster", b"salt", b"STS");
        let b = SessionKey::derive(b"premaster", b"salt", b"STS");
        assert_eq!(a, b);
        assert_ne!(a, SessionKey::derive(b"premaster", b"salt", b"S-ECDSA"));
        assert_ne!(a, SessionKey::derive(b"premaster", b"other", b"STS"));
        assert_ne!(a, SessionKey::derive(b"other", b"salt", b"STS"));
    }

    #[test]
    fn halves_differ() {
        let k = SessionKey::derive(b"pm", b"s", b"p");
        assert_ne!(k.enc_key(), k.mac_key());
    }

    #[test]
    fn stream_roundtrip_and_direction_separation() {
        let k = SessionKey::derive(b"pm", b"s", b"p");
        let mut a = *b"0123456789abcdef0123456789abcdef";
        let mut b = a;
        k.apply_stream(0, &mut a);
        k.apply_stream(1, &mut b);
        assert_ne!(a, b, "directions must use distinct keystreams");
        k.apply_stream(0, &mut a);
        assert_eq!(&a, b"0123456789abcdef0123456789abcdef");
    }

    #[test]
    fn debug_never_leaks() {
        let k = SessionKey::from_bytes([0xab; 32]);
        let dbg = format!("{k:?}");
        assert!(!dbg.contains("abab"));
        assert!(dbg.contains("fp:"));
    }

    #[test]
    fn equality_compares_every_byte() {
        let k = SessionKey::from_bytes([0x5a; 32]);
        assert_eq!(k, SessionKey::from_bytes([0x5a; 32]));
        for i in [0, 15, 16, 31] {
            let mut bytes = [0x5a; 32];
            bytes[i] ^= 0x01;
            assert_ne!(k, SessionKey::from_bytes(bytes), "byte {i} differs");
        }
    }

    #[test]
    fn zeroize_wipes_key_bytes() {
        let mut k = SessionKey::from_bytes([0xab; 32]);
        k.zeroize();
        assert_eq!(k.as_bytes(), &[0u8; 32]);
    }
}
