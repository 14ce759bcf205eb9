//! Panic-reach array-return fixture: the only `unwrap` sits in a fn
//! that returns `[u8; 4]`. The `;` inside that type must not end the
//! signature, or the fn indexes without its body.
fn run_sweep() -> u8 {
    helper()[0]
}

fn helper() -> [u8; 4] {
    let x: Option<u8> = Some(1);
    [x.unwrap(), 0, 0, 0]
}
