//! The specialized fixed-modulus field backend.
//!
//! A generic Montgomery engine keeps the modulus, the constant `n0`
//! and the conversion constants behind a runtime context and loads
//! them through a reference on every multiplication. This module is
//! the specialized engine the hot paths run on:
//!
//! * all constants (`MontParams`) are derived **at compile time** by
//!   `const fn` from the modulus alone, so no hand-derived magic
//!   number needs to be trusted, at zero runtime cost and with full
//!   constant folding into the unrolled limb code. For the P-256
//!   prime, `n0 = 1` and the sparse modulus limbs fold into shift/add
//!   forms;
//! * multiplication is a 4-limb CIOS pass and squaring a dedicated
//!   SOS pass (cross products computed once and doubled), both fully
//!   inlined;
//! * every reduction ends in a **branch-free** conditional
//!   subtraction: the candidate `t − m` is always computed and kept or
//!   discarded by an all-ones/all-zeros mask, so no secret-dependent
//!   branch or cmov-defeating pattern remains in the field layer;
//! * inversion, for both moduli, is one constant-time safegcd
//!   (`invert`): Bernstein and Yang, "Fast constant-time gcd
//!   computation and modular inversion" (TCHES 2019), in the shape of
//!   libsecp256k1's `modinv64`. It runs exactly 590 divsteps, the
//!   bound for 256-bit inputs, as 10 batches of 59, and no branch,
//!   index or exit depends on the value.
//!
//! [`crate::residue::Residue`] is the one wrapper over this engine, for
//! both moduli: [`crate::residue::ModP`] (GF(p)) and
//! [`crate::residue::ModN`] (the order field mod n). The crate's unit tests
//! compare every operation against `MontCtx`, a generic engine that
//! derives its constants at runtime and is compiled only for tests.

use crate::ct;
use core::hint::black_box;

/// Compile-time Montgomery parameters for an odd 256-bit modulus
/// `m > 2^255` (both P-256 moduli qualify). Public so that
/// [`crate::residue::Modulus`] can name it; the constants stay
/// crate-private.
pub struct MontParams {
    /// The modulus limbs, little-endian.
    pub(crate) m: [u64; 4],
    /// `-m^{-1} mod 2^64` (`1` for the P-256 prime).
    pub(crate) n0: u64,
    /// `R mod m` with `R = 2^256` — Montgomery form of 1.
    pub(crate) r1: [u64; 4],
    /// `R^2 mod m` — the to-Montgomery conversion constant.
    pub(crate) r2: [u64; 4],
    /// `R^3 mod m`: one Montgomery multiplication by it takes the
    /// inverse `(aR)^{-1}` of a Montgomery-form `aR` to `a^{-1}R`.
    pub(crate) r3: [u64; 4],
    /// The modulus in signed 62-bit limbs, for `invert`.
    m62: [i64; 5],
    /// `m^{-1} mod 2^62`, for `invert`.
    m_inv62: u64,
}

/// `a + b` over 4 limbs with carry-out.
#[inline(always)]
const fn adc4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    let mut i = 0;
    while i < 4 {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        out[i] = s2;
        carry = (c1 as u64) | (c2 as u64);
        i += 1;
    }
    (out, carry)
}

/// `a - b` over 4 limbs with borrow-out.
#[inline(always)]
const fn sbb4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < 4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 as u64) | (b2 as u64);
        i += 1;
    }
    (out, borrow)
}

/// `x·2^256 mod m` for a reduced `x`, by 256 modular doublings: the
/// Montgomery form of `x` when `m` is the modulus.
pub(crate) const fn mul_2_256(mut x: [u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let mut i = 0;
    while i < 256 {
        let carry = x[3] >> 63;
        x = [
            x[0] << 1,
            (x[1] << 1) | (x[0] >> 63),
            (x[2] << 1) | (x[1] >> 63),
            (x[3] << 1) | (x[2] >> 63),
        ];
        let (reduced, borrow) = sbb4(&x, m);
        if carry == 1 || borrow == 0 {
            x = reduced;
        }
        i += 1;
    }
    x
}

impl MontParams {
    /// Derives every constant from the modulus at compile time.
    ///
    /// Mirrors the test-only `MontCtx::new`: `m^{-1} mod 2^64` by
    /// Newton–Hensel lifting (negated for `n0`, truncated for
    /// `m^{-1} mod 2^62`), `R mod m = 2^256 − m` (valid because
    /// `m > 2^255`), and `R^2 mod m` and `R^3 mod m` by 256 modular
    /// doublings each. Branches here run in the compiler, not on
    /// secrets.
    pub const fn new(m: [u64; 4]) -> Self {
        assert!(m[0] & 1 == 1, "Montgomery modulus must be odd");
        assert!(m[3] >> 63 == 1, "modulus must exceed 2^255");

        let mut inv: u64 = 1;
        let mut i = 0;
        while i < 6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(inv)));
            i += 1;
        }

        // R mod m = 2^256 − m.
        let (r1, _) = sbb4(&[0, 0, 0, 0], &m);
        let r2 = mul_2_256(r1, &m);
        let r3 = mul_2_256(r2, &m);

        MontParams {
            m,
            n0: inv.wrapping_neg(),
            r1,
            r2,
            r3,
            m62: to_signed62(&m),
            m_inv62: inv & M62,
        }
    }
}

/// Branch-free final reduction: a value `carry·2^256 + t` known to be
/// `< 2m` is reduced to `[0, m)` by computing `t − m` unconditionally
/// and selecting by mask.
#[inline(always)]
fn cond_sub(carry: u64, t: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let (r, borrow) = sbb4(t, m);
    // Take the subtracted value when the 2^256 bit is set (the value
    // certainly exceeds m) or when t >= m (no borrow).
    let take = !ct::is_zero_mask(carry) | ct::is_zero_mask(borrow);
    [
        ct::select_u64(r[0], t[0], take),
        ct::select_u64(r[1], t[1], take),
        ct::select_u64(r[2], t[2], take),
        ct::select_u64(r[3], t[3], take),
    ]
}

/// Montgomery multiplication `a·b·R^{-1} mod m` (CIOS over 4 limbs,
/// branch-free final step). Inputs must be `< m`.
#[inline(always)]
pub(crate) fn mont_mul(a: &[u64; 4], b: &[u64; 4], p: &MontParams) -> [u64; 4] {
    let m = &p.m;
    let mut t = [0u64; 6];
    let mut i = 0;
    while i < 4 {
        // t += a[i] * b
        let ai = a[i] as u128;
        let mut carry = 0u128;
        let mut j = 0;
        while j < 4 {
            let acc = t[j] as u128 + ai * (b[j] as u128) + carry;
            t[j] = acc as u64;
            carry = acc >> 64;
            j += 1;
        }
        let acc = t[4] as u128 + carry;
        t[4] = acc as u64;
        t[5] = (acc >> 64) as u64;

        // Reduction step: add u·m and shift one limb. For the P-256
        // prime n0 == 1, so `u` is just t[0].
        let u = t[0].wrapping_mul(p.n0) as u128;
        let acc = t[0] as u128 + u * (m[0] as u128);
        let mut carry = acc >> 64;
        let mut j = 1;
        while j < 4 {
            let acc = t[j] as u128 + u * (m[j] as u128) + carry;
            t[j - 1] = acc as u64;
            carry = acc >> 64;
            j += 1;
        }
        let acc = t[4] as u128 + carry;
        t[3] = acc as u64;
        let acc2 = t[5] as u128 + (acc >> 64);
        t[4] = acc2 as u64;
        t[5] = (acc2 >> 64) as u64;
        i += 1;
    }
    // For m > 2^255 the CIOS invariant keeps the result below 2m, so
    // t[5] is zero and t[4] is at most 1.
    cond_sub(t[4], &[t[0], t[1], t[2], t[3]], m)
}

/// The 512-bit square of a 256-bit value: cross products accumulated
/// once and doubled, then the diagonal squares added in.
#[inline(always)]
pub(crate) fn square_wide(a: &[u64; 4]) -> [u64; 8] {
    let mut r = [0u64; 8];

    // Cross products a_i·a_j (i < j) at positions i+j.
    let mut acc = (a[0] as u128) * (a[1] as u128);
    r[1] = acc as u64;
    let mut carry = acc >> 64;
    acc = (a[0] as u128) * (a[2] as u128) + carry;
    r[2] = acc as u64;
    carry = acc >> 64;
    acc = (a[0] as u128) * (a[3] as u128) + carry;
    r[3] = acc as u64;
    r[4] = (acc >> 64) as u64;

    acc = r[3] as u128 + (a[1] as u128) * (a[2] as u128);
    r[3] = acc as u64;
    carry = acc >> 64;
    acc = r[4] as u128 + (a[1] as u128) * (a[3] as u128) + carry;
    r[4] = acc as u64;
    r[5] = (acc >> 64) as u64;

    acc = r[5] as u128 + (a[2] as u128) * (a[3] as u128);
    r[5] = acc as u64;
    r[6] = (acc >> 64) as u64;

    // Double the cross products.
    r[7] = r[6] >> 63;
    r[6] = (r[6] << 1) | (r[5] >> 63);
    r[5] = (r[5] << 1) | (r[4] >> 63);
    r[4] = (r[4] << 1) | (r[3] >> 63);
    r[3] = (r[3] << 1) | (r[2] >> 63);
    r[2] = (r[2] << 1) | (r[1] >> 63);
    r[1] <<= 1;

    // Add the diagonal squares a_i² at positions (2i, 2i+1).
    let mut carry = 0u128;
    let mut i = 0;
    while i < 4 {
        let sq = (a[i] as u128) * (a[i] as u128);
        let lo = r[2 * i] as u128 + (sq as u64 as u128) + carry;
        r[2 * i] = lo as u64;
        let hi = r[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
        r[2 * i + 1] = hi as u64;
        carry = hi >> 64;
        i += 1;
    }
    debug_assert_eq!(carry, 0, "a² < 2^512 must fit in eight limbs");
    r
}

/// Montgomery reduction of a 512-bit value: `t·R^{-1} mod m`, with the
/// result guaranteed `< m` for `t < m·2^256` (true for any product of
/// reduced operands). Carry propagation always walks the full limb
/// range — no data-dependent early exit.
#[inline(always)]
pub(crate) fn mont_reduce(wide: &[u64; 8], p: &MontParams) -> [u64; 4] {
    let m = &p.m;
    let mut t = *wide;
    let mut top = 0u64; // bit 512 accumulator
    let mut i = 0;
    while i < 4 {
        let u = t[i].wrapping_mul(p.n0) as u128;
        let mut carry = 0u128;
        let mut j = 0;
        while j < 4 {
            let acc = t[i + j] as u128 + u * (m[j] as u128) + carry;
            t[i + j] = acc as u64;
            carry = acc >> 64;
            j += 1;
        }
        // Propagate unconditionally through the remaining limbs.
        let mut k = i + 4;
        while k < 8 {
            let acc = t[k] as u128 + carry;
            t[k] = acc as u64;
            carry = acc >> 64;
            k += 1;
        }
        top += carry as u64;
        i += 1;
    }
    cond_sub(top, &[t[4], t[5], t[6], t[7]], m)
}

/// Montgomery squaring `a²·R^{-1} mod m` via [`square_wide`] +
/// [`mont_reduce`].
#[inline(always)]
pub(crate) fn mont_sqr(a: &[u64; 4], p: &MontParams) -> [u64; 4] {
    mont_reduce(&square_wide(a), p)
}

/// Modular addition of reduced operands, branch-free.
#[inline(always)]
pub(crate) fn add_mod(a: &[u64; 4], b: &[u64; 4], p: &MontParams) -> [u64; 4] {
    let (s, carry) = adc4(a, b);
    cond_sub(carry, &s, &p.m)
}

/// Modular subtraction of reduced operands, branch-free: the wrapped
/// difference and the `+m` repair are both computed, and the mask on
/// the borrow bit picks one.
#[inline(always)]
pub(crate) fn sub_mod(a: &[u64; 4], b: &[u64; 4], p: &MontParams) -> [u64; 4] {
    let (d, borrow) = sbb4(a, b);
    let (repaired, _) = adc4(&d, &p.m);
    let take_repair = !ct::is_zero_mask(borrow);
    [
        ct::select_u64(repaired[0], d[0], take_repair),
        ct::select_u64(repaired[1], d[1], take_repair),
        ct::select_u64(repaired[2], d[2], take_repair),
        ct::select_u64(repaired[3], d[3], take_repair),
    ]
}

/// Modular negation of a reduced operand, branch-free (`m − a`, masked
/// to zero when `a` is zero).
#[inline(always)]
pub(crate) fn neg_mod(a: &[u64; 4], p: &MontParams) -> [u64; 4] {
    let (r, _) = sbb4(&p.m, a);
    let zero = ct::is_zero_mask(a[0] | a[1] | a[2] | a[3]);
    [
        ct::select_u64(0, r[0], zero),
        ct::select_u64(0, r[1], zero),
        ct::select_u64(0, r[2], zero),
        ct::select_u64(0, r[3], zero),
    ]
}

/// Reduces an arbitrary 256-bit value into `[0, m)` (valid because
/// `m > 2^255` means one conditional subtraction suffices).
#[inline(always)]
pub(crate) fn reduce_once(a: &[u64; 4], p: &MontParams) -> [u64; 4] {
    cond_sub(0, a, &p.m)
}

/// The low 62 bits of a limb.
const M62: u64 = u64::MAX >> 2;

/// Splits a 256-bit value into five 62-bit limbs, the last holding the
/// top 8 bits: the signed-62 form `invert` works in.
const fn to_signed62(a: &[u64; 4]) -> [i64; 5] {
    [
        (a[0] & M62) as i64,
        (((a[0] >> 62) | (a[1] << 2)) & M62) as i64,
        (((a[1] >> 60) | (a[2] << 4)) & M62) as i64,
        (((a[2] >> 58) | (a[3] << 6)) & M62) as i64,
        (a[3] >> 56) as i64,
    ]
}

/// Joins normalized signed-62 limbs (each in `[0, 2^62)`, the value
/// below `2^256`) back into four 64-bit limbs.
fn from_signed62(v: &[i64; 5]) -> [u64; 4] {
    let v = v.map(|x| x as u64);
    [
        v[0] | (v[1] << 62),
        (v[1] >> 2) | (v[2] << 60),
        (v[2] >> 4) | (v[3] << 58),
        (v[3] >> 6) | (v[4] << 56),
    ]
}

/// The transition matrix of one batch of 59 divsteps, scaled by
/// `2^62`: it maps `(f, g)` to `2^62·(f', g')`, and `|u| + |v|` and
/// `|q| + |r|` are at most `2^62`.
struct Trans {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// 59 divsteps on the low 64 bits of `f` (odd) and `g`, returning the
/// new `zeta = −(delta + 1/2)` and the batch's transition matrix.
///
/// Each step is branch-free: with `c1` the mask of `zeta < 0` and `c2`
/// the mask of `g` odd, it adds `±f` to `g` when `g` is odd, swaps
/// roles (`f ← g`, `zeta ← −zeta − 2`) when both masks are set, and
/// halves `g`. The matrix starts at `8·I` so that 59 doublings scale it
/// by exactly `2^62`.
#[inline(always)]
fn divsteps_59(mut zeta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    let (mut u, mut v, mut q, mut r) = (8u64, 0u64, 0u64, 8u64);
    let (mut f, mut g) = (f0, g0);
    let mut i = 0;
    while i < 59 {
        #[cfg(any(test, feature = "schedule-counters"))]
        crate::counters::record(|c| c.divsteps += 1);
        let c1 = (zeta >> 63) as u64;
        let c2 = (g & 1).wrapping_neg();
        // Conditionally negated f, u, v, added to g, q, r when g is odd.
        let x = (f ^ c1).wrapping_sub(c1);
        let y = (u ^ c1).wrapping_sub(c1);
        let z = (v ^ c1).wrapping_sub(c1);
        g = g.wrapping_add(x & c2);
        q = q.wrapping_add(y & c2);
        r = r.wrapping_add(z & c2);
        // When both hold, zeta becomes −zeta − 2 and the new g, q, r
        // are added to f, u, v; otherwise zeta decrements.
        let c1 = c1 & c2;
        zeta = (zeta ^ c1 as i64) - 1;
        f = f.wrapping_add(g & c1);
        u = u.wrapping_add(q & c1);
        v = v.wrapping_add(r & c1);
        g >>= 1;
        u <<= 1;
        v <<= 1;
        i += 1;
    }
    let t = Trans {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (zeta, t)
}

/// `(x, y) ← (t·(x, y) + m·(mx, my)) / 2^62`. The division is exact:
/// for `(f, g)` the batch's divsteps cleared the low 62 bits of
/// `t·(f, g)` and `mx = my = 0`; for `(d, e)` the multiples come from
/// `de_multiples`.
#[inline(always)]
fn apply(t: &Trans, x: &mut [i64; 5], y: &mut [i64; 5], (mx, my): (i64, i64), m: &[i64; 5]) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let (mx, my) = (mx as i128, my as i128);
    let mut cx = u * x[0] as i128 + v * y[0] as i128 + m[0] as i128 * mx;
    let mut cy = q * x[0] as i128 + r * y[0] as i128 + m[0] as i128 * my;
    debug_assert!((cx as u64) & M62 == 0 && (cy as u64) & M62 == 0);
    cx >>= 62;
    cy >>= 62;
    let mut i = 1;
    while i < 5 {
        cx += u * x[i] as i128 + v * y[i] as i128 + m[i] as i128 * mx;
        cy += q * x[i] as i128 + r * y[i] as i128 + m[i] as i128 * my;
        x[i - 1] = ((cx as u64) & M62) as i64;
        y[i - 1] = ((cy as u64) & M62) as i64;
        cx >>= 62;
        cy >>= 62;
        i += 1;
    }
    x[4] = cx as i64;
    y[4] = cy as i64;
}

/// The multiples `(md, me)` of m that make `t·(d, e) + m·(md, me)`
/// divisible by `2^62` while keeping `d` and `e` in `(−2m, m)`: they
/// start at `(u, q)` if `d` is negative plus `(v, r)` if `e` is, both
/// by mask, and then subtract what clears the low 62 bits.
#[inline(always)]
fn de_multiples(d: &[i64; 5], e: &[i64; 5], t: &Trans, p: &MontParams) -> (i64, i64) {
    let sd = d[4] >> 63;
    let se = e[4] >> 63;
    let md = (t.u & sd) + (t.v & se);
    let me = (t.q & sd) + (t.r & se);
    // The low 64 bits of t·(d, e).
    let (d0, e0) = (d[0] as u64, e[0] as u64);
    let cd = (t.u as u64)
        .wrapping_mul(d0)
        .wrapping_add((t.v as u64).wrapping_mul(e0));
    let ce = (t.q as u64)
        .wrapping_mul(d0)
        .wrapping_add((t.r as u64).wrapping_mul(e0));
    (
        md - (p.m_inv62.wrapping_mul(cd).wrapping_add(md as u64) & M62) as i64,
        me - (p.m_inv62.wrapping_mul(ce).wrapping_add(me as u64) & M62) as i64,
    )
}

/// Carries limbs 0–3 of `x` into `[0, 2^62)`, which leaves the sign of
/// the value in the top limb.
#[inline(always)]
fn carry_62(x: &mut [i64; 5]) {
    let mut i = 0;
    while i < 4 {
        x[i + 1] += x[i] >> 62;
        x[i] &= M62 as i64;
        i += 1;
    }
}

/// `a^{-1} mod m` of a reduced nonzero `a`, in constant time.
///
/// Bernstein–Yang safegcd with libsecp256k1's `modinv64` layout: `a`
/// is split into signed 62-bit limbs, and `(f, g) = (m, a)` run
/// exactly 10 batches of 59 divsteps, 590 in all, the bound for
/// 256-bit inputs (Bernstein and Yang, "Fast constant-time gcd
/// computation and modular inversion", TCHES 2019). Each batch's
/// matrix is applied to `(f, g)` and, mod m, to `(d, e) = (0, 1)`, so
/// that `f ≡ d·a` and `g ≡ e·a` throughout. At the end `g = 0` and
/// `f = ±1`, and `d` is normalized to `±d mod m` by masks. No branch,
/// index or exit depends on `a`.
///
/// `a = 0` has no inverse; callers refuse it before calling.
pub(crate) fn invert(a: &[u64; 4], p: &MontParams) -> [u64; 4] {
    let mut d = [0i64; 5];
    let mut e = [1i64, 0, 0, 0, 0];
    let mut f = p.m62;
    let mut g = to_signed62(a);
    // zeta = −(delta + 1/2), with delta starting at 1/2.
    let mut zeta = -1;
    let mut batch = 0;
    while batch < 10 {
        let (z, t) = divsteps_59(zeta, f[0] as u64, g[0] as u64);
        zeta = z;
        let multiples = de_multiples(&d, &e, &t, p);
        apply(&t, &mut d, &mut e, multiples, &p.m62);
        apply(&t, &mut f, &mut g, (0, 0), &p.m62);
        batch += 1;
    }
    let minus_one = [M62 as i64, M62 as i64, M62 as i64, M62 as i64, -1];
    debug_assert!(g == [0; 5], "safegcd left g nonzero after 590 divsteps");
    debug_assert!(f == [1, 0, 0, 0, 0] || f == minus_one, "gcd(a, m) is not 1");
    // d is in (−2m, m), its sign in the top limb. Add m if it is
    // negative and negate it if f = −1, which gives (−m, m); then add
    // m once more if it is still negative, which gives [0, m). The
    // masks pass through `black_box`: without it the optimizer turned
    // both additions into branches on the sign of d.
    let add = black_box(d[4] >> 63);
    let negate = black_box(f[4] >> 63);
    for (limb, m) in d.iter_mut().zip(p.m62) {
        *limb = ((*limb + (m & add)) ^ negate) - negate;
    }
    carry_62(&mut d);
    let add = black_box(d[4] >> 63);
    for (limb, m) in d.iter_mut().zip(p.m62) {
        *limb += m & add;
    }
    carry_62(&mut d);
    from_signed62(&d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mont::{MontCtx, N_TENTH_BATCH, P_TENTH_BATCH};
    use crate::u256::U256;

    const P: [u64; 4] = [
        0xffff_ffff_ffff_ffff,
        0x0000_0000_ffff_ffff,
        0x0000_0000_0000_0000,
        0xffff_ffff_0000_0001,
    ];
    const PARAMS: MontParams = MontParams::new(P);
    const N: [u64; 4] = [
        0xf3b9_cac2_fc63_2551,
        0xbce6_faad_a717_9e84,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_0000_0000,
    ];

    #[test]
    fn const_params_match_runtime_ctx() {
        let ctx = MontCtx::new(U256::from_limbs(P));
        assert_eq!(PARAMS.r1, ctx.r1.limbs());
        assert_eq!(PARAMS.r2, ctx.r2.limbs());
        assert_eq!(PARAMS.n0, ctx.n0());
        assert_eq!(PARAMS.n0, 1, "P-256 prime has n0 = 1");
    }

    #[test]
    fn inversion_params_are_consistent() {
        for m in [P, N] {
            let params = MontParams::new(m);
            // R²·R²·R⁻¹ = R³.
            assert_eq!(params.r3, mont_mul(&params.r2, &params.r2, &params));
            assert_eq!(from_signed62(&params.m62), m);
            assert_eq!(params.m_inv62.wrapping_mul(m[0]) & M62, 1);
        }
    }

    #[test]
    fn pinned_inputs_need_the_tenth_batch() {
        // Their Montgomery forms still have g ≠ 0 after nine batches
        // (531 divsteps), and the tenth batch brings g to 0.
        for (m, pinned) in [(P, P_TENTH_BATCH), (N, N_TENTH_BATCH)] {
            let params = MontParams::new(m);
            for hex in pinned {
                let stored = mont_mul(&U256::from_be_hex(hex).limbs(), &params.r2, &params);
                let (mut f, mut g) = (params.m62, to_signed62(&stored));
                let mut zeta = -1;
                for batch in 1..=10 {
                    assert_ne!(g, [0; 5], "{hex}: g = 0 before batch {batch}");
                    let (z, t) = divsteps_59(zeta, f[0] as u64, g[0] as u64);
                    zeta = z;
                    apply(&t, &mut f, &mut g, (0, 0), &params.m62);
                }
                assert_eq!(g, [0; 5], "{hex}");
            }
        }
    }

    #[test]
    fn mul_and_square_match_reference() {
        let ctx = MontCtx::new(U256::from_limbs(P));
        let a =
            U256::from_be_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
        let b =
            U256::from_be_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
        assert_eq!(
            mont_mul(&a.limbs(), &b.limbs(), &PARAMS),
            ctx.mont_mul(&a, &b).limbs()
        );
        assert_eq!(mont_sqr(&a.limbs(), &PARAMS), ctx.mont_mul(&a, &a).limbs());
    }

    #[test]
    fn add_sub_neg_match_reference() {
        let ctx = MontCtx::new(U256::from_limbs(P));
        let a = U256::from_u64(5);
        let b = ctx.m.wrapping_sub(&U256::from_u64(3));
        assert_eq!(
            add_mod(&a.limbs(), &b.limbs(), &PARAMS),
            ctx.add(&a, &b).limbs()
        );
        assert_eq!(
            sub_mod(&a.limbs(), &b.limbs(), &PARAMS),
            ctx.sub(&a, &b).limbs()
        );
        assert_eq!(neg_mod(&a.limbs(), &PARAMS), ctx.neg(&a).limbs());
        assert_eq!(neg_mod(&[0; 4], &PARAMS), [0; 4]);
    }

    #[test]
    fn reduce_once_handles_edges() {
        assert_eq!(reduce_once(&[0; 4], &PARAMS), [0; 4]);
        assert_eq!(reduce_once(&P, &PARAMS), [0; 4]);
        assert_eq!(
            reduce_once(&U256::MAX.limbs(), &PARAMS),
            U256::MAX.wrapping_sub(&U256::from_limbs(P)).limbs()
        );
    }
}
