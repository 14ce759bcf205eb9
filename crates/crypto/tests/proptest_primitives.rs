//! Property-based tests of the symmetric primitives.

use ecq_crypto::{ct, ctr, hkdf, hmac, sha256, HmacDrbg};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in any::<usize>()) {
        let split = if data.is_empty() { 0 } else { split % data.len() };
        let mut h = sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256::sha256(&data));
    }

    #[test]
    fn sha256_concat_equals_contiguous(a in proptest::collection::vec(any::<u8>(), 0..64),
                                       b in proptest::collection::vec(any::<u8>(), 0..64)) {
        let joined = [a.as_slice(), b.as_slice()].concat();
        prop_assert_eq!(sha256::sha256_concat(&[&a, &b]), sha256::sha256(&joined));
    }

    #[test]
    fn ctr_roundtrips_any_length(key in any::<[u8; 16]>(), nonce in any::<[u8; 12]>(),
                                 data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let ct = ctr::aes128_ctr_encrypt(&key, &nonce, &data);
        prop_assert_eq!(ct.len(), data.len());
        let pt = ctr::aes128_ctr_encrypt(&key, &nonce, &ct);
        prop_assert_eq!(pt, data);
    }

    #[test]
    fn hmac_verifies_and_rejects(key in proptest::collection::vec(any::<u8>(), 0..80),
                                 msg in proptest::collection::vec(any::<u8>(), 0..200),
                                 flip in any::<(usize, u8)>()) {
        let tag = hmac::hmac_sha256(&key, &msg);
        prop_assert!(ct::eq(&hmac::hmac_sha256(&key, &msg), &tag));
        let mut bad = tag;
        let bit = (flip.1 % 8) as u32;
        bad[flip.0 % 32] ^= 1 << bit;
        prop_assert!(!ct::eq(&hmac::hmac_sha256(&key, &msg), &bad));
    }

    #[test]
    fn hkdf_is_deterministic_and_prefix_stable(salt in proptest::collection::vec(any::<u8>(), 0..40),
                                               ikm in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut long = [0u8; 64];
        hkdf::hkdf_sha256(&salt, &ikm, b"info", &mut long);
        let mut short = [0u8; 16];
        hkdf::hkdf_sha256(&salt, &ikm, b"info", &mut short);
        // HKDF output is a stream: shorter outputs are prefixes.
        prop_assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    fn drbg_streams_reproducible_and_seed_sensitive(seed in any::<u64>()) {
        let mut a = HmacDrbg::from_seed(seed);
        let mut b = HmacDrbg::from_seed(seed);
        prop_assert_eq!(a.bytes(48), b.bytes(48));
        let mut c = HmacDrbg::from_seed(seed ^ 1);
        prop_assert_ne!(a.bytes32(), c.bytes32());
    }

    #[test]
    fn ct_eq_matches_slice_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                              b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ecq_crypto::ct::eq(&a, &b), a == b);
    }
}
