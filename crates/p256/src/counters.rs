//! Operation counters behind the constant-schedule assertions.
//!
//! Each counted operation of the curve layer (group additions and
//! doublings, field and scalar multiplications and squarings, and the
//! safegcd's divsteps) bumps one field of a thread-local [`Counts`], so
//! parallel tests do not observe each other's operations. [`measure`]
//! reports what one call ran, which lets a test assert that a secret
//! path runs the same schedule for every value.
//!
//! Compiled for this crate's own tests and, under the
//! `schedule-counters` feature, into the library proper for cross-crate
//! checks: `ecq_lint`'s companion test drives full STS handshakes and
//! batch enrollment under these counters. Builds without the feature
//! compile no counter.

use std::cell::RefCell;

/// Operations run on one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Variable-time group additions (`add` / `add_affine`).
    pub adds: u64,
    /// Variable-time group doublings (`double`).
    pub doubles: u64,
    /// Constant-schedule group additions (`add_affine_ct`).
    pub ct_adds: u64,
    /// Constant-schedule group doublings (`double_ct`).
    pub ct_doubles: u64,
    /// Multiplications in GF(p).
    pub fe_muls: u64,
    /// Dedicated squarings in GF(p).
    pub fe_squares: u64,
    /// Multiplications mod n.
    pub scalar_muls: u64,
    /// Dedicated squarings mod n.
    pub scalar_squares: u64,
    /// Safegcd divsteps, in either field.
    pub divsteps: u64,
}

thread_local! {
    static COUNTS: RefCell<Counts> = RefCell::new(Counts::default());
}

/// Counts one operation on this thread; `bump` increments its field.
pub(crate) fn record(bump: impl FnOnce(&mut Counts)) {
    COUNTS.with_borrow_mut(bump);
}

/// Runs `f` and returns its result plus the operations it ran on this
/// thread.
///
/// Forces both lazy fixed-base tables first: each build runs the group
/// operations of its comb and normalizes them with one inversion, which
/// would otherwise count against the first `f` of a process. The counts
/// are the difference of two snapshots, so one `measure` never resets
/// another's.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    crate::precomp::generator_table();
    crate::precomp::generator_table_wide();
    let before = COUNTS.with_borrow(|c| *c);
    let result = f();
    let after = COUNTS.with_borrow(|c| *c);
    let counts = Counts {
        adds: after.adds - before.adds,
        doubles: after.doubles - before.doubles,
        ct_adds: after.ct_adds - before.ct_adds,
        ct_doubles: after.ct_doubles - before.ct_doubles,
        fe_muls: after.fe_muls - before.fe_muls,
        fe_squares: after.fe_squares - before.fe_squares,
        scalar_muls: after.scalar_muls - before.scalar_muls,
        scalar_squares: after.scalar_squares - before.scalar_squares,
        divsteps: after.divsteps - before.divsteps,
    };
    (result, counts)
}
