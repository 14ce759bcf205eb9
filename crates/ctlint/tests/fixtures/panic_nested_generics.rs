//! Panic-reach nested-generics fixture: the `>>` that ends `t`'s type
//! closes two levels, so `v` and `i` are params of their own and the
//! dynamic index `v[i]` is flagged.
fn step(t: Option<Vec<u8>>, v: Vec<u8>, i: usize) -> u8 {
    v[i]
}
