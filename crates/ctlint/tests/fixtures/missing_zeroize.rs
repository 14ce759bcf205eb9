//! Fixture: secret-holding structs without zeroize-on-drop.
//! Never compiled — fed to the analyzer by `tests/golden.rs`.

// Flagged: holds a marker-typed field, no Drop impl anywhere.
pub struct LeakyHandle {
    pub label: String,
    pub private: Scalar,
}

// Flagged: a `// ct-secret` field annotation taints a plain type.
pub struct Draft {
    // ct-secret
    pub premaster: [u8; 32],
}

// Not flagged: the struct wipes itself.
pub struct Guarded {
    pub private: Scalar,
}

impl Drop for Guarded {
    fn drop(&mut self) {
        self.private = Scalar::zero();
    }
}

// Not flagged: every tainted field's own type wipes itself on drop.
pub struct Wrapped {
    pub premaster: Zeroizing<[u8; 32]>,
}

// Flagged: a `Zeroize` impl wipes only when someone calls it, so it
// does not count as a wipe on drop.
pub struct ManualWipe {
    pub private: Scalar,
}

impl Zeroize for ManualWipe {
    fn zeroize(&mut self) {
        self.private = Scalar::zero();
    }
}

// Not flagged: a `// ct-public` field carries no taint.
pub struct Published {
    // ct-public
    pub r: Scalar,
}
