//! Fixture: a marker behind a module-level `type` alias. `Scalar`
//! names `Residue<ModN>`, so every path through `Scalar` reaches
//! `Residue`'s fns, and `Residue` is a marker itself.
//! Never compiled — fed to the analyzer by `tests/golden.rs`.

pub type Scalar = Residue<ModN>;

impl<M: Modulus> Residue<M> {
    // Reached from `derive` as `Scalar::from_u64(..)`.
    pub fn from_u64(v: u64) -> Self {
        Residue(lookup_vartime(v))
    }

    // Reached from `Scalar::halve` as `Self::widen(..)`.
    fn widen(v: u64) -> Self {
        Residue(mul_vartime(v))
    }

    // A secret context of its own: `self` is a `Residue`.
    pub fn is_odd(&self) -> bool {
        if self.low_bit() {
            return true;
        }
        false
    }
}

impl Scalar {
    pub fn halve(&self) -> Self {
        Self::widen(2)
    }

    // Reached from `derive` as `Scalar::sample(..)`: the alias resolves
    // on the callee's side too.
    pub fn sample(seed: u64) -> u64 {
        sample_vartime(seed)
    }
}

pub fn derive(key: &Scalar) -> Scalar {
    Scalar::sample(7);
    Scalar::from_u64(1)
}

pub fn lookup_vartime(v: u64) -> u64 {
    v
}

pub fn mul_vartime(v: u64) -> u64 {
    v
}

pub fn sample_vartime(v: u64) -> u64 {
    v
}
