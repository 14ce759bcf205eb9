//! Fixed-base precomputation: two combs for the generator `G`, and a
//! small comb per public key that verifies many signatures.
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
//!
//! **Why a per-key comb pays where the per-CA comb did not.** A comb
//! for `Q_CA` replaces one of the fused ladder's two terms: `P_X` still
//! has no table, so the ~256 doublings stay and only one term's
//! additions go. A cached key `Q_X` (an STS rekey, where
//! `ecq_sts::ReconstructionHint` holds eq. (1)'s result for the whole
//! certificate session) is the *only* variable base of its
//! verification, so a `KeyComb` of it removes the whole ladder:
//! `u2·Q_X` becomes 63 doublings and at most 64 mixed additions, with
//! no odd-multiples table and so one field inversion fewer per verify.
//! The comb has four teeth, spaced 64 bits apart (Lim and Lee, "More
//! flexible exponentiation with precomputation", CRYPTO 1994): 15
//! affine points, about 1 KiB, built with 192 doublings, 11 additions
//! and one inversion. Over 41 interleaved rounds of 128 signatures by
//! 16 keys (same binary, 2-vCPU host) the comb verify took 0.509× the
//! time of [`crate::ecdsa::verify`] (IQR 0.498–0.515; three repeat
//! runs read 0.486–0.509), and one build took 87 µs against 156 µs
//! for one plain verify: a key pays for its comb from its second
//! signature on, which is why first contact does not build one. Eight teeth would halve the doublings again, but
//! need 255 entries (18 KiB per key) for a fleet that holds one comb
//! per peer.

use crate::point::{batch_normalize, normalize_into, AffinePoint, JacobianPoint};
use crate::scalar::Scalar;
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

/// Teeth of a [`KeyComb`]: a scalar's four 64-bit limbs.
const TEETH: usize = 4;
/// Entries of a [`KeyComb`], one per nonzero column.
const COLUMNS: usize = (1 << TEETH) - 1;

/// A 4-tooth Lim–Lee comb of one public point `Q`:
/// `entries[b − 1] = Σᵢ bitᵢ(b)·2^(64i)·Q` for `b = 1..=15`, so entry
/// 0 is `Q` itself. Column `j` of a scalar `k` is the 4-bit number
/// whose bit `i` is bit `j` of `k`'s limb `i`, and
/// `k·Q = Σⱼ 2^j·entries[column(j) − 1]` over the nonzero columns.
///
/// Only [`crate::ecdsa::VerifyingKey`] builds one, for a key that is
/// on the curve and not the identity. No entry is then the identity:
/// entry `b − 1` is `(Σᵢ bitᵢ(b)·2^(64i))·Q`, a nonzero multiple below
/// the prime group order.
#[derive(Clone, Debug)]
pub(crate) struct KeyComb {
    entries: [AffinePoint; COLUMNS],
}

impl KeyComb {
    /// Builds the comb of `q`: 192 doublings for the teeth `2^(64i)·Q`,
    /// one addition for each of the 11 columns with two or more bits,
    /// and one inversion shared by all 15 entries.
    pub(crate) fn build(q: &AffinePoint) -> Self {
        let mut jac: Vec<JacobianPoint> = Vec::with_capacity(COLUMNS);
        let mut tooth = JacobianPoint::from_affine(q);
        for i in 0..TEETH {
            if i > 0 {
                tooth = (0..64).fold(tooth, |t, _| t.double());
            }
            // Columns 2^i ..= 2^(i+1) − 1: the tooth alone, then the
            // tooth plus each lower column, in column order.
            let sums: Vec<_> = jac.iter().map(|p| p.add(&tooth)).collect();
            jac.push(tooth);
            jac.extend(sums);
        }
        let mut entries = [AffinePoint::identity(); COLUMNS];
        normalize_into(&jac, &mut entries);
        KeyComb { entries }
    }

    /// `k·Q` for public `k`: one column per bit position of the limbs,
    /// most significant first, with a doubling between columns. That
    /// is 63 doublings whatever `k` is, and one mixed addition per
    /// nonzero column, at most 64. The schedule leaks which columns
    /// are zero: only for public scalars (the `u2` of a verification).
    ///
    /// The only exceptional case of the addition that the walk meets
    /// is an identity accumulator, ahead of the first nonzero column.
    /// Before column `j` the accumulator holds `2A·Q` and the entry is
    /// `E·Q`, where `2A + E = Σᵢ ⌊kᵢ/2^j⌋·2^(64i) ≤ k < n`. So
    /// `2A ≡ −E` needs `2A + E = 0`, and `2A = E` would need every limb
    /// `2⌊kᵢ/2^(j+1)⌋` (even) to equal bit `j` of `kᵢ` (0 or 1), so
    /// both are zero, while a nonzero column has `E ≠ 0`.
    pub(crate) fn mul_vartime(&self, k: &Scalar) -> JacobianPoint {
        let limbs = k.to_canonical().limbs();
        let column = |j: u32| {
            limbs
                .iter()
                .rev()
                .fold(0usize, |c, limb| c << 1 | (limb >> j & 1) as usize)
        };
        let mut acc = JacobianPoint::identity();
        for j in (0..64).rev() {
            if j < 63 {
                acc = acc.double();
            }
            if let Some(entry) = column(j).checked_sub(1).and_then(|b| self.entries.get(b)) {
                acc = acc.add_affine(entry);
            }
        }
        acc
    }
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
    use crate::counters::{self, Counts};
    use crate::point::mul_generator_vartime;
    use crate::u256::U256;
    use ecq_crypto::HmacDrbg;
    use proptest::prelude::*;

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

    fn random_key(rng: &mut HmacDrbg) -> AffinePoint {
        mul_generator_vartime(&Scalar::random(rng))
    }

    /// The scalar with `limbs`, little-endian, reduced mod `n`.
    fn from_limbs(limbs: [u64; 4]) -> Scalar {
        Scalar::from_reduced(&U256::from_limbs(limbs))
    }

    /// The number of nonzero columns of `k`: the walk's additions.
    fn nonzero_columns(k: &Scalar) -> u64 {
        let limbs = k.to_canonical().limbs();
        (0..64)
            .filter(|j| limbs.iter().any(|l| l >> j & 1 == 1))
            .count() as u64
    }

    #[test]
    fn key_comb_entries_are_the_column_multiples() {
        let q = random_key(&mut HmacDrbg::from_seed(0xC0B1));
        let comb = KeyComb::build(&q);
        assert_eq!(comb.entries[0], q);
        for (b, entry) in (1usize..).zip(&comb.entries) {
            // Σᵢ bitᵢ(b)·2^(64i), one limb per tooth.
            let limbs: [u64; 4] = core::array::from_fn(|i| (b >> i & 1) as u64);
            assert_eq!(*entry, q.mul_vartime(&from_limbs(limbs)), "column {b}");
            assert!(entry.is_on_curve() && !entry.infinity, "column {b}");
        }
    }

    #[test]
    fn key_comb_walks_structured_scalars() {
        // Single teeth and their sums, the ends of the range, and limb
        // patterns whose columns repeat: every column 0 or 15, one
        // column only, alternating columns.
        let n_minus_1 = Scalar::one().neg();
        let mut scalars = vec![
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(2),
            n_minus_1,
            n_minus_1.sub(&Scalar::one()),
            from_limbs([0, 1, 0, 0]),
            from_limbs([1, 1, 0, 0]),
            from_limbs([0, 1, 1, 0]),
            from_limbs([0, 0, 0, 1]),
            from_limbs([u64::MAX, 0, 0, 0]),
            from_limbs([0, 0, 0, 1 << 63]),
            from_limbs([1 << 63; 4]),
            from_limbs([1; 4]),
        ];
        for m in [u64::MAX >> 1, 0x5555_5555_5555_5555, 0xFFFF_0000_FFFF_0000] {
            scalars.push(from_limbs([m; 4]));
            scalars.push(from_limbs([m, !m, m, !m]));
        }
        let mut rng = HmacDrbg::from_seed(0xC0B2);
        for _ in 0..3 {
            let q = random_key(&mut rng);
            let comb = KeyComb::build(&q);
            let p = JacobianPoint::from_affine(&q);
            for k in &scalars {
                assert_eq!(comb.mul_vartime(k), p.mul_vartime(k), "k = {k:?}");
            }
        }
    }

    #[test]
    fn key_comb_schedule_is_exact() {
        let mut rng = HmacDrbg::from_seed(0xC0B3);
        let q = random_key(&mut rng);
        let (comb, build) = counters::measure(|| KeyComb::build(&q));
        assert_eq!(
            (build.doubles, build.adds, build.divsteps),
            (192, 11, 590),
            "{build:?}"
        );
        for k in [Scalar::zero(), Scalar::one(), Scalar::random(&mut rng)] {
            let (_, walk) = counters::measure(|| comb.mul_vartime(&k));
            let expected = Counts {
                doubles: 63,
                adds: nonzero_columns(&k),
                ..walk
            };
            assert_eq!(walk, expected);
            assert_eq!(walk.divsteps, 0, "the walk needs no inversion");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn key_comb_agrees_with_wnaf(seed in any::<u64>(), k in any::<[u8; 32]>()) {
            let q = random_key(&mut HmacDrbg::from_seed(seed));
            let k = Scalar::from_reduced(&U256::from_be_bytes(&k));
            prop_assert_eq!(
                KeyComb::build(&q).mul_vartime(&k),
                JacobianPoint::from_affine(&q).mul_vartime(&k)
            );
        }
    }
}
