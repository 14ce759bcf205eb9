//! Constant-time comparison.
//!
//! Key and tag comparisons in the protocol code must not leak the
//! position of the first differing byte through timing. [`eq`] folds
//! the whole comparison into a single accumulated value before
//! branching.

/// Compares two byte slices in constant time with respect to content.
///
/// Returns `false` immediately when lengths differ (the length of a MAC
/// tag or key is public information).
pub fn eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(eq(b"", b""));
        assert!(eq(b"abc", b"abc"));
        assert!(!eq(b"abc", b"abd"));
        assert!(!eq(b"abc", b"ab"));
        assert!(!eq(b"\x00", b"\x01"));
    }
}
