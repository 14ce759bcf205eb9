//! Fixed-base precomputation for the generator `G`.
//!
//! `k·G` is by far the hottest curve operation in the workspace: every
//! ephemeral STS key (eq. (2)), every ECQV request point, every CA
//! blinding and every key-pair consistency check multiplies the same
//! fixed generator. The generic double-and-add path pays ~252 doublings
//! per call even though the base never changes.
//!
//! Two combs are kept, sized against the per-operation costs of the
//! specialized field backend:
//!
//! * the **4-bit comb** (`table[w][d-1] = d · 16^w · G`, 64 windows ×
//!   15 digits, ~70 KiB) serves the *constant-time* walk. Its lookup
//!   scans every entry of a window, so the scan cost grows with `2^w`
//!   while the savings per extra width bit shrink — with the cheap
//!   specialized additions, 4 bits remains the measured optimum (an
//!   8-bit ct scan would touch 255 entries per masked add and lose
//!   outright);
//! * the **8-bit wide comb** (`d · 256^w · G`, 32 windows × 255
//!   digits, ~560 KiB) serves the *variable-time* walk, which indexes
//!   digits directly: halving the window count halves the additions,
//!   and the scan argument does not apply. ECDSA verification's `u1`
//!   rides this table.
//!
//! Both tables build lazily on first use and are shared process-wide;
//! each build batch-normalizes its Jacobian multiples around a single
//! shared field inversion ([`crate::point::batch_normalize`],
//! Montgomery's trick). A process that only ever runs secret-scalar
//! paths never pays for the wide comb.
//!
//! **Why ECDSA verification runs two separate multiplications.**
//! The wide comb is also why `u1·G + u2·Q` is not one interleaved
//! Shamir/Straus ladder: separately, `u1·G` rides the comb (31
//! additions, zero doublings) and only `u2·Q` pays the wNAF ladder,
//! while a shared ladder must drag `u1·G` through all ~256 doublings
//! because it cannot use a fixed-base comb. Measured on the host, the
//! Straus form lost (123.6 µs against 105.1 µs in one `bench_p256`
//! snapshot); an alternative verifier has to beat the `ecdsa_verify`
//! row of `cargo run --release --bin bench_p256` to replace this one.
//!
//! That holds for `u1·G` only. The two *variable* bases of an ECQV
//! implicit key, `(u2·e)·P_X + u2·Q_CA`, do share one wNAF ladder
//! ([`crate::point::mul_sum_vartime`], behind
//! `ecq_cert::verify_implicit`): neither base has a comb to lose, so
//! sharing pays the ~256 doublings once instead of twice and needs one
//! table inversion instead of two. Over 64 certificates in 30
//! interleaved rounds (order rotated each round, same binary) the fused
//! check took 0.66× (IQR 0.62–0.70) of eq. (1) followed by a plain
//! verify; `bench_p256` tracks it as `ecqv_verify_implicit`. A per-CA
//! 4-bit comb for `Q_CA` was prototyped against it and measured about
//! the same (0.65×), for ~70 KiB and 0.6–0.9 ms of build time per CA,
//! so it is not built.

use crate::point::{batch_normalize, AffinePoint, JacobianPoint};
use std::sync::OnceLock;

/// Number of 4-bit windows covering a 256-bit scalar (ct comb).
pub const WINDOWS: usize = Comb::<DIGITS>::WINDOWS;
/// Non-zero digits per 4-bit window.
pub const DIGITS: usize = 15;
/// Non-zero digits per 8-bit window (wide comb).
pub const WIDE_DIGITS: usize = 255;

/// A comb for `G` with `D` nonzero digits per window, `D + 1` a power
/// of two: `windows()[w][d-1] = d · (D+1)^w · G`.
pub struct Comb<const D: usize> {
    windows: Vec<[AffinePoint; D]>,
}

impl<const D: usize> Comb<D> {
    /// Number of windows covering a 256-bit scalar.
    const WINDOWS: usize = 256 / (D + 1).ilog2() as usize;

    fn build() -> Self {
        Comb {
            windows: build_comb::<D>(Self::WINDOWS),
        }
    }

    /// The windows in scalar order, low digit first.
    #[inline]
    pub(crate) fn windows(&self) -> &[[AffinePoint; D]] {
        &self.windows
    }
}

/// Builds a comb of `windows` windows with `D` nonzero digits each:
/// `out[w][d-1] = d · (D+1)^w · G`, normalized to affine around one
/// shared inversion.
fn build_comb<const D: usize>(windows: usize) -> Vec<[AffinePoint; D]> {
    let mut jac: Vec<JacobianPoint> = Vec::with_capacity(windows * D);
    let mut base = JacobianPoint::from_affine(&AffinePoint::generator());
    for _ in 0..windows {
        // A running sum: d·base for d = 1..=D, then (D+1)·base, which
        // feeds the next window.
        let mut sum = base;
        for _ in 0..D {
            jac.push(sum);
            sum = sum.add(&base);
        }
        base = sum;
    }
    let affine = batch_normalize(&jac);
    affine
        .chunks_exact(D)
        .map(|chunk| {
            let mut w = [AffinePoint::identity(); D];
            w.copy_from_slice(chunk);
            w
        })
        .collect()
}

/// The shared process-wide ct comb (4-bit windows), built on first use.
pub fn generator_table() -> &'static Comb<DIGITS> {
    static TABLE: OnceLock<Comb<DIGITS>> = OnceLock::new();
    TABLE.get_or_init(Comb::build)
}

/// The shared process-wide wide comb (8-bit windows), built on first
/// use.
pub fn generator_table_wide() -> &'static Comb<WIDE_DIGITS> {
    static TABLE: OnceLock<Comb<WIDE_DIGITS>> = OnceLock::new();
    TABLE.get_or_init(Comb::build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    fn digit_scalar(d: u64, radix: u64, w: usize) -> Scalar {
        let mut scalar = Scalar::from_u64(d);
        for _ in 0..w {
            scalar = scalar.mul(&Scalar::from_u64(radix));
        }
        scalar
    }

    #[test]
    fn table_entries_match_generic_mul() {
        let g = AffinePoint::generator();
        let windows = generator_table().windows();
        assert_eq!(windows.len(), WINDOWS);
        // Spot-check digits across several windows against the generic
        // scalar multiplication: d · 16^w.
        for &(w, d) in &[(0usize, 1usize), (0, 15), (1, 1), (1, 9), (7, 3), (63, 15)] {
            assert_eq!(
                windows[w][d - 1],
                g.mul_vartime(&digit_scalar(d as u64, 16, w)),
                "window {w} digit {d}"
            );
        }
    }

    #[test]
    fn wide_table_entries_match_generic_mul() {
        let g = AffinePoint::generator();
        let windows = generator_table_wide().windows();
        assert_eq!(windows.len(), 32);
        for &(w, d) in &[
            (0usize, 1u8),
            (0, 255),
            (1, 1),
            (1, 254),
            (7, 3),
            (15, 129),
            (31, 255),
        ] {
            assert_eq!(
                windows[w][d as usize - 1],
                g.mul_vartime(&digit_scalar(d as u64, 256, w)),
                "window {w} digit {d}"
            );
        }
    }

    #[test]
    fn every_entry_is_on_curve() {
        for p in generator_table().windows().iter().flatten() {
            assert!(p.is_on_curve() && !p.infinity);
        }
    }

    #[test]
    fn wide_entries_sampled_on_curve() {
        // The full wide comb has 8160 entries; a strided sample keeps
        // the test fast while still covering every window.
        for (w, window) in generator_table_wide().windows().iter().enumerate() {
            for d in [1usize, 2, 17, 128, 255] {
                let p = window[d - 1];
                assert!(p.is_on_curve() && !p.infinity, "window {w} digit {d}");
            }
        }
    }
}
