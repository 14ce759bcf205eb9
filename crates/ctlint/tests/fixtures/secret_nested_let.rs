//! Secret-flow nested-generics fixture: the `let` type `Vec<Vec<u8>>`
//! ends at its `>>`, so the next `let`'s `Scalar` does not taint `t`.
//! Only the branch on `s` is a finding.
fn pick(d: &Scalar) -> u8 {
    let t: Vec<Vec<u8>> = Vec::new();
    let s: Scalar = *d;
    if t.is_empty() {
        return 0;
    }
    if s.is_zero() {
        return 1;
    }
    2
}
