//! Constant-time selection primitives for secret-dependent curve paths.
//!
//! Everything secret-dependent in this crate — key generation, ECDH,
//! the ECDSA nonce multiplication, ECQV blinding and reconstruction —
//! routes through [`crate::point::mul_generator_ct`] and
//! [`crate::point::JacobianPoint::mul_ct`], which are built on the mask
//! arithmetic here: all-ones/all-zeros `u64` masks, branch-free
//! selects over [`U256`]/[`crate::FieldElement`]/points, and a table lookup
//! that scans *every* entry and keeps the match by mask, so neither the
//! branch predictor nor the data cache observes which window digit a
//! secret scalar produced.
//!
//! Scope of the model: these primitives remove secret-dependent
//! *control flow and table indexing* at the group-operation level. The
//! field layer under them ([`crate::backend`]) is branch-free as well:
//! its reductions end in masked subtractions, and its safegcd
//! inversion runs a fixed 590 divsteps whose moves are chosen by masks
//! (see the README security notes).

use crate::point::AffinePoint;
use crate::u256::U256;

/// All-ones mask for `true`, all-zeros for `false`.
#[inline]
pub fn bool_mask(b: bool) -> u64 {
    (b as u64).wrapping_neg()
}

/// All-ones mask when `x == 0`, all-zeros otherwise, without branching.
#[inline]
pub fn is_zero_mask(x: u64) -> u64 {
    // `x | −x` has its top bit set exactly when x != 0.
    ((x | x.wrapping_neg()) >> 63).wrapping_sub(1)
}

/// All-ones mask when `a == b`, all-zeros otherwise.
#[inline]
pub fn eq_mask(a: u64, b: u64) -> u64 {
    is_zero_mask(a ^ b)
}

/// Selects `a` when `mask` is all-ones, `b` when all-zeros.
#[inline]
pub fn select_u64(a: u64, b: u64, mask: u64) -> u64 {
    (a & mask) | (b & !mask)
}

/// Constant-time window lookup: scans all 15 entries of a 4-bit window
/// table (`entries[i] = (i+1)·B`) and returns the digit's entry by
/// mask, plus the all-ones "digit is nonzero" mask.
///
/// For `digit == 0` the returned point is the dummy `entries[0]`
/// (`1·B`) with a zero mask — callers perform the addition anyway and
/// discard the result by select, keeping the schedule uniform.
pub fn lookup_affine(entries: &[AffinePoint; 15], digit: u8) -> (AffinePoint, u64) {
    let mut out = entries[0];
    for (i, entry) in entries.iter().enumerate().skip(1) {
        let take = eq_mask(digit as u64, (i + 1) as u64);
        out = AffinePoint::conditional_select(entry, &out, take);
    }
    (out, !is_zero_mask(digit as u64))
}

/// Constant-time select over [`U256`] (mask all-ones → `a`).
#[inline]
pub fn select_u256(a: &U256, b: &U256, mask: u64) -> U256 {
    let al = a.limbs();
    let bl = b.limbs();
    U256::from_limbs([
        select_u64(al[0], bl[0], mask),
        select_u64(al[1], bl[1], mask),
        select_u64(al[2], bl[2], mask),
        select_u64(al[3], bl[3], mask),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::mul_generator_vartime;
    use crate::scalar::Scalar;

    #[test]
    fn masks() {
        assert_eq!(bool_mask(true), u64::MAX);
        assert_eq!(bool_mask(false), 0);
        assert_eq!(is_zero_mask(0), u64::MAX);
        assert_eq!(is_zero_mask(1), 0);
        assert_eq!(is_zero_mask(u64::MAX), 0);
        assert_eq!(is_zero_mask(1 << 63), 0);
        assert_eq!(eq_mask(42, 42), u64::MAX);
        assert_eq!(eq_mask(42, 43), 0);
        assert_eq!(select_u64(7, 9, u64::MAX), 7);
        assert_eq!(select_u64(7, 9, 0), 9);
    }

    #[test]
    fn u256_select() {
        let a = U256::from_u64(5);
        let b = U256::MAX;
        assert_eq!(select_u256(&a, &b, u64::MAX), a);
        assert_eq!(select_u256(&a, &b, 0), b);
    }

    #[test]
    fn lookup_scans_every_digit() {
        // A window table over the generator: entries[i] = (i+1)·G.
        let mut entries = [AffinePoint::identity(); 15];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = mul_generator_vartime(&Scalar::from_u64(i as u64 + 1));
        }
        for digit in 1..=15u8 {
            let (p, nonzero) = lookup_affine(&entries, digit);
            assert_eq!(p, entries[digit as usize - 1], "digit {digit}");
            assert_eq!(nonzero, u64::MAX);
        }
        let (dummy, nonzero) = lookup_affine(&entries, 0);
        assert_eq!(dummy, entries[0]);
        assert_eq!(nonzero, 0);
    }
}
