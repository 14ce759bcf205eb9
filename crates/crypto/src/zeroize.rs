//! Best-effort wiping of secret material.
//!
//! The workspace is dependency-free, so this is a minimal stand-in for
//! the `zeroize` crate: secrets are overwritten through
//! `ptr::write_volatile` — which the optimizer must not elide as a dead
//! store — followed by a compiler fence so the stores are not reordered
//! past the end of the value's lifetime. The caveats are the same as
//! for any language-level wiping: copies the program made earlier
//! (moves of `Copy` types, register spills) are out of reach; the goal
//! is that the *canonical* resting place of a secret does not outlive
//! its use.
//!
//! The [`Zeroizing`] wrapper ties wiping to `Drop` for secrets that
//! travel through return values (e.g. the ECDH premaster in
//! `ecq_p256::ecdh::shared_secret`).

// The workspace denies `unsafe_code`; this module is the one sanctioned
// carve-out, for the two volatile-store wipe helpers below. Every
// unsafe block carries a SAFETY comment.
#![allow(unsafe_code)]

use core::sync::atomic::{compiler_fence, Ordering};

/// Types whose in-memory representation can be overwritten with zeros.
///
/// Implementations must use [`wipe_bytes`] / [`wipe_u64s`] (or another
/// volatile path) so the overwrite survives optimization.
pub trait Zeroize {
    /// Overwrites the value with zeros, non-elidably.
    fn zeroize(&mut self);
}

/// Overwrites a byte buffer with zeros through volatile stores, then
/// fences so the stores are not sunk past the caller's drop point.
pub fn wipe_bytes(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        // SAFETY: `b` is a valid, aligned, exclusive reference.
        unsafe { core::ptr::write_volatile(b, 0) };
    }
    compiler_fence(Ordering::SeqCst);
}

/// Overwrites a `u64` buffer with zeros through volatile stores, then
/// fences (limb-granular variant for the curve layers).
pub fn wipe_u64s(buf: &mut [u64]) {
    for w in buf.iter_mut() {
        // SAFETY: `w` is a valid, aligned, exclusive reference.
        unsafe { core::ptr::write_volatile(w, 0) };
    }
    compiler_fence(Ordering::SeqCst);
}

impl<const N: usize> Zeroize for [u8; N] {
    fn zeroize(&mut self) {
        wipe_bytes(self);
    }
}

impl<const N: usize> Zeroize for [u64; N] {
    fn zeroize(&mut self) {
        wipe_u64s(self);
    }
}

/// Wipes every element in place. Only the live elements are reached:
/// a vector that grew past its capacity left copies in the buffers it
/// moved out of, so secret vectors are sized up front.
impl<T: Zeroize> Zeroize for Vec<T> {
    fn zeroize(&mut self) {
        for item in self.iter_mut() {
            item.zeroize();
        }
    }
}

/// A wrapper that wipes its contents when dropped.
///
/// Dereferences to the inner value for use; equality compares the
/// inner values; `Debug` never prints them.
pub struct Zeroizing<T: Zeroize>(T);

impl<T: Zeroize> Zeroizing<T> {
    /// Wraps a secret so it is wiped on drop.
    pub fn new(value: T) -> Self {
        Zeroizing(value)
    }
}

impl<T: Zeroize> core::ops::Deref for Zeroizing<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Zeroize> core::ops::DerefMut for Zeroizing<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: Zeroize> Drop for Zeroizing<T> {
    fn drop(&mut self) {
        self.0.zeroize();
    }
}

impl<T: Zeroize + Clone> Clone for Zeroizing<T> {
    fn clone(&self) -> Self {
        Zeroizing(self.0.clone())
    }
}

// Equality is only offered for byte arrays, where it can route through
// the constant-time comparison: the contents are secret, and ordinary
// slice equality would leak the position of the first differing byte.
impl<const N: usize> PartialEq for Zeroizing<[u8; N]> {
    fn eq(&self, other: &Self) -> bool {
        crate::ct::eq(&self.0, &other.0)
    }
}

impl<const N: usize> Eq for Zeroizing<[u8; N]> {}

impl<T: Zeroize> core::fmt::Debug for Zeroizing<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Zeroizing(<secret>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    #[test]
    fn wipe_clears_buffers() {
        let mut bytes = [0xAAu8; 37];
        wipe_bytes(&mut bytes);
        assert_eq!(bytes, [0u8; 37]);
        let mut words = [u64::MAX; 4];
        wipe_u64s(&mut words);
        assert_eq!(words, [0u64; 4]);
    }

    #[test]
    fn array_zeroize_impls() {
        let mut a = [0xFFu8; 32];
        a.zeroize();
        assert_eq!(a, [0u8; 32]);
        let mut b = [0x1234_5678_9abc_def0u64; 4];
        b.zeroize();
        assert_eq!(b, [0u64; 4]);
    }

    #[test]
    fn zeroizing_derefs_and_compares() {
        let z = Zeroizing::new([7u8; 32]);
        assert_eq!(z[0], 7);
        assert_eq!(z.as_slice().len(), 32);
        assert_eq!(z, Zeroizing::new([7u8; 32]));
        assert_ne!(z, Zeroizing::new([8u8; 32]));
        assert_eq!(format!("{z:?}"), "Zeroizing(<secret>)");
    }

    #[test]
    fn zeroizing_wipes_on_drop() {
        static WIPES: AtomicUsize = AtomicUsize::new(0);

        struct Probe([u8; 4]);
        impl Zeroize for Probe {
            fn zeroize(&mut self) {
                self.0.zeroize();
                WIPES.fetch_add(1, AtomicOrdering::SeqCst);
            }
        }

        let probe = Zeroizing::new(Probe([9; 4]));
        assert_eq!(WIPES.load(AtomicOrdering::SeqCst), 0);
        drop(probe);
        assert_eq!(WIPES.load(AtomicOrdering::SeqCst), 1);
    }

    #[test]
    fn zeroizing_vec_wipes_every_element_on_drop() {
        static WIPES: AtomicUsize = AtomicUsize::new(0);

        struct Probe([u8; 4]);
        impl Zeroize for Probe {
            fn zeroize(&mut self) {
                self.0.zeroize();
                WIPES.fetch_add(1, AtomicOrdering::SeqCst);
            }
        }

        let probes = Zeroizing::new(vec![Probe([1; 4]), Probe([2; 4]), Probe([3; 4])]);
        assert_eq!(WIPES.load(AtomicOrdering::SeqCst), 0);
        drop(probes);
        assert_eq!(WIPES.load(AtomicOrdering::SeqCst), 3);
    }
}
