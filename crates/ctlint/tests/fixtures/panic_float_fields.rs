//! Panic-reach float-field fixture: dividing by `base.field` is float
//! division when `base`'s struct declares the field `f64`, whether
//! `base` is `self`, a parameter or a typed `let`. A `u32` field is
//! integer division and is flagged.
struct Timing {
    bps: f64,
}

struct Budget {
    slots: u32,
}

impl Timing {
    fn seconds(&self) -> f64 {
        bits() / self.bps
    }
}

fn bits() -> f64 {
    1e3
}

fn run_sweep(timing: &Timing, budget: &Budget, total: u32) -> u32 {
    let local: Timing = Timing { bps: timing.bps };
    let a = bits() / timing.bps;
    let b = bits() / local.bps;
    let per_slot = total / budget.slots;
    per_slot + (a + b + timing.seconds()) as u32
}
