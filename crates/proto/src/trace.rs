//! Primitive-operation traces.
//!
//! Protocol endpoints execute *real* cryptography on the host, but the
//! paper's Table I reports times on four embedded boards. The bridge is
//! this trace: every primitive a protocol invokes is recorded here,
//! tagged with the STS operation phase (§IV-C's Op1–Op4), and the
//! device cost model in `ecq-devices` integrates the trace against a
//! per-board cost table.

/// The four STS protocol operations of §IV-C, plus a bucket for work
/// outside that taxonomy (baseline-only primitives such as MAC tags).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StsPhase {
    /// Op1 — request phase; random `XG` point derivation.
    Op1Request,
    /// Op2 — public-key reconstruction and premaster/session key
    /// generation.
    Op2KeyDerivation,
    /// Op3 — authentication signature derivation and encryption.
    Op3SignEncrypt,
    /// Op4 — authentication signature decryption and verification.
    Op4DecryptVerify,
    /// Work not belonging to an STS operation (nonce generation,
    /// baseline MACs, finished messages, …).
    Other,
}

impl StsPhase {
    /// Short label ("Op1" … "Op4", "—").
    pub fn label(&self) -> &'static str {
        match self {
            StsPhase::Op1Request => "Op1",
            StsPhase::Op2KeyDerivation => "Op2",
            StsPhase::Op3SignEncrypt => "Op3",
            StsPhase::Op4DecryptVerify => "Op4",
            StsPhase::Other => "—",
        }
    }
}

/// A cryptographic primitive invocation, at the granularity the device
/// cost model bills.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimitiveOp {
    /// Ephemeral key generation: one random scalar + one base-point
    /// multiplication (the paper's eq. (2)).
    EphemeralKeyGen,
    /// ECQV public-key reconstruction (eq. (1)): hash, point multiply,
    /// point add.
    PublicKeyReconstruction,
    /// ECDH shared-secret derivation: one point multiplication.
    EcdhDerive,
    /// ECDSA signature generation.
    EcdsaSign,
    /// ECDSA signature verification. On a first contact the host folds
    /// the preceding [`Self::PublicKeyReconstruction`] into it (one sum
    /// `u1·G + (u2·e)·P_X + u2·Q_CA`), but the trace records both, and
    /// device timings bill the fitted Table I cost of each whatever the
    /// host does.
    EcdsaVerify,
    /// AES-CTR encryption of `blocks` 16-byte blocks.
    AesEncrypt {
        /// Number of 16-byte blocks processed.
        blocks: usize,
    },
    /// AES-CTR decryption of `blocks` 16-byte blocks.
    AesDecrypt {
        /// Number of 16-byte blocks processed.
        blocks: usize,
    },
    /// HMAC/CMAC tag generation.
    MacTag,
    /// HMAC/CMAC tag verification.
    MacVerify,
    /// Session-key KDF invocation (HKDF, eq. (4)).
    Kdf,
    /// A plain hash computation over `bytes` bytes.
    Hash {
        /// Input length in bytes.
        bytes: usize,
    },
    /// Drawing `bytes` random bytes from the RNG.
    RandomBytes {
        /// Number of bytes drawn.
        bytes: usize,
    },
}

/// One trace entry: a primitive tagged with its protocol phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Which STS operation (or `Other`) this work belongs to.
    pub phase: StsPhase,
    /// The primitive performed.
    pub op: PrimitiveOp,
}

/// An append-only log of primitives executed by one endpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpTrace {
    entries: Vec<TraceEntry>,
}

impl OpTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a primitive in the given phase.
    pub fn record(&mut self, phase: StsPhase, op: PrimitiveOp) {
        self.entries.push(TraceEntry { phase, op });
    }

    /// All entries in execution order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded primitives.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counts occurrences of an exact primitive op.
    pub fn count_op(&self, op: PrimitiveOp) -> usize {
        self.entries.iter().filter(|e| e.op == op).count()
    }

    /// Merges another trace into this one (in order).
    pub fn extend(&mut self, other: &OpTrace) {
        self.entries.extend_from_slice(&other.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = OpTrace::new();
        assert!(t.is_empty());
        t.record(StsPhase::Op1Request, PrimitiveOp::EphemeralKeyGen);
        t.record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
        t.record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
        assert_eq!(t.len(), 3);
        assert_eq!(t.entries()[1].phase, StsPhase::Op2KeyDerivation);
        assert_eq!(t.count_op(PrimitiveOp::EcdhDerive), 1);
        assert_eq!(t.count_op(PrimitiveOp::EcdsaSign), 0);
    }

    #[test]
    fn parameterized_ops_distinguished() {
        let mut t = OpTrace::new();
        t.record(
            StsPhase::Op3SignEncrypt,
            PrimitiveOp::AesEncrypt { blocks: 4 },
        );
        assert_eq!(t.count_op(PrimitiveOp::AesEncrypt { blocks: 4 }), 1);
        assert_eq!(t.count_op(PrimitiveOp::AesEncrypt { blocks: 2 }), 0);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = OpTrace::new();
        a.record(StsPhase::Op1Request, PrimitiveOp::EphemeralKeyGen);
        let mut b = OpTrace::new();
        b.record(StsPhase::Other, PrimitiveOp::MacTag);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.entries()[1].op, PrimitiveOp::MacTag);
    }

    #[test]
    fn phase_labels() {
        assert_eq!(StsPhase::Op1Request.label(), "Op1");
        assert_eq!(StsPhase::Op4DecryptVerify.label(), "Op4");
    }
}
