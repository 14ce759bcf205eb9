//! Panic-reach division fixture: the dividing methods divide too. By a
//! binding that may be zero, or by a `const` that is zero, they are
//! flagged. By a literal, a nonzero literal `const`, a binding or field
//! declared `NonZero*`, or on a float receiver, they are not.
use std::num::NonZeroUsize;

const BLOCK: usize = 0x10;
const NONE: usize = 0;

struct Shape {
    lanes: NonZeroUsize,
    rate: f64,
}

fn run_sweep(shape: &Shape, total: usize, group: usize, secs: f64) -> usize {
    let a = total.div_ceil(group);
    let b = total.div_euclid(NONE);
    let c = total.rem_euclid(group);
    let d = total.div_ceil(BLOCK) + total.div_ceil(4) + total / BLOCK;
    let e = total / shape.lanes + total % shape.lanes;
    let f = secs.div_euclid(shape.rate) as usize;
    let lanes: NonZeroUsize = shape.lanes;
    let g = total / lanes;
    a + b + c + d + e + f + g
}
