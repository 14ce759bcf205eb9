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
pub const WINDOWS: usize = 64;
/// Non-zero digits per 4-bit window.
pub const DIGITS: usize = 15;

/// Number of 8-bit windows covering a 256-bit scalar (wide comb).
pub const WIDE_WINDOWS: usize = 32;
/// Non-zero digits per 8-bit window.
pub const WIDE_DIGITS: usize = 255;

/// The constant-time comb: `table[w][d-1] = d · 16^w · G`.
pub struct GeneratorTable {
    windows: Vec<[AffinePoint; DIGITS]>,
}

impl GeneratorTable {
    fn build() -> Self {
        GeneratorTable {
            windows: build_comb::<DIGITS>(WINDOWS),
        }
    }

    /// All 15 entries of one window (`window[d-1] = d · 16^w · G`), for
    /// the constant-time scan of [`crate::ct::lookup_affine`].
    #[inline]
    pub fn window(&self, window: usize) -> &[AffinePoint; DIGITS] {
        &self.windows[window]
    }
}

/// The wide variable-time comb: `table[w][d-1] = d · 256^w · G`.
pub struct WideGeneratorTable {
    windows: Vec<[AffinePoint; WIDE_DIGITS]>,
}

impl WideGeneratorTable {
    fn build() -> Self {
        WideGeneratorTable {
            windows: build_comb::<WIDE_DIGITS>(WIDE_WINDOWS),
        }
    }

    /// The precomputed point `d · 256^w · G` (`d ∈ [1, 255]`).
    ///
    /// Direct indexing — only for *public* scalar digits (the vartime
    /// fixed-base walk).
    #[inline]
    pub fn entry(&self, window: usize, digit: u8) -> &AffinePoint {
        debug_assert!(digit >= 1);
        &self.windows[window][digit as usize - 1]
    }
}

/// Builds a comb of `windows` windows with `D` nonzero digits each:
/// `out[w][d-1] = d · (D+1)^w · G`, normalized to affine around one
/// shared inversion.
fn build_comb<const D: usize>(windows: usize) -> Vec<[AffinePoint; D]> {
    let mut jac: Vec<JacobianPoint> = Vec::with_capacity(windows * D);
    let mut base = JacobianPoint::from_affine(&AffinePoint::generator());
    for _ in 0..windows {
        let start = jac.len();
        jac.push(base); // 1·base
        for d in 2..=D {
            let next = if d % 2 == 0 {
                jac[start + d / 2 - 1].double()
            } else {
                jac[start + d - 2].add(&base)
            };
            jac.push(next);
        }
        // (D+1)·base = 2·(((D+1)/2)·base) feeds the next window.
        base = jac[start + D.div_ceil(2) - 1].double();
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

/// The shared process-wide ct comb, built on first use.
pub fn generator_table() -> &'static GeneratorTable {
    static TABLE: OnceLock<GeneratorTable> = OnceLock::new();
    TABLE.get_or_init(GeneratorTable::build)
}

/// The shared process-wide wide comb, built on first use.
pub fn generator_table_wide() -> &'static WideGeneratorTable {
    static TABLE: OnceLock<WideGeneratorTable> = OnceLock::new();
    TABLE.get_or_init(WideGeneratorTable::build)
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
        let table = generator_table();
        // Spot-check digits across several windows against the generic
        // scalar multiplication: d · 16^w.
        for &(w, d) in &[(0usize, 1usize), (0, 15), (1, 1), (1, 9), (7, 3), (63, 15)] {
            assert_eq!(
                table.window(w)[d - 1],
                g.mul_vartime(&digit_scalar(d as u64, 16, w)),
                "window {w} digit {d}"
            );
        }
    }

    #[test]
    fn wide_table_entries_match_generic_mul() {
        let g = AffinePoint::generator();
        let table = generator_table_wide();
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
                *table.entry(w, d),
                g.mul_vartime(&digit_scalar(d as u64, 256, w)),
                "window {w} digit {d}"
            );
        }
    }

    #[test]
    fn every_entry_is_on_curve() {
        let table = generator_table();
        for w in 0..WINDOWS {
            for p in table.window(w) {
                assert!(p.is_on_curve() && !p.infinity);
            }
        }
    }

    #[test]
    fn wide_entries_sampled_on_curve() {
        // The full wide comb has 8160 entries; a strided sample keeps
        // the test fast while still covering every window.
        let table = generator_table_wide();
        for w in 0..WIDE_WINDOWS {
            for d in [1u8, 2, 17, 128, 255] {
                let p = table.entry(w, d);
                assert!(p.is_on_curve() && !p.infinity, "window {w} digit {d}");
            }
        }
    }
}
