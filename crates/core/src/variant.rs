//! The §IV-C execution-schedule optimizations.
//!
//! The optimizations do not change the transmitted data ("the sent data
//! is identical to the original protocol, but the message and content
//! order vary slightly") — they overlap computation across the two
//! devices:
//!
//! * **Opt. I** (eq. (7)): the initial request already carries the
//!   certificate and `XG`, so the two devices run Op2 concurrently —
//!   the pair pays for Op2 once:
//!   `τ' = 2·T_Op1 + T_Op2 + 2·T_Op3 + 2·T_Op4`.
//! * **Opt. II** (eq. (8)): Op3 is additionally pipelined behind Op2:
//!   `τ'' = 2·T_Op1 + T_Op2 + T_Op3 + 2·T_Op4`.
//!
//! For heterogeneous device pairs the paper's eq. (6) applies: the
//! pipelined operation costs `|T_OpAx − T_OpBx|` extra rather than
//! vanishing. The schedule table and its arithmetic live in one place,
//! `ecq_devices::timing` (`pipelined_phases` and `pair_total`), keyed
//! by the [`ProtocolKind`] row [`StsVariant::kind`] names.

use ecq_proto::ProtocolKind;

/// STS execution-schedule variants (Table I rows STS / opt. I / opt. II).
///
/// The optimizations trade flexibility for speed (paper §IV-C): with
/// pipelining, a failed authentication is detected only after the
/// pipelined computations complete, so an unauthenticated peer can
/// force wasted work — a wider denial-of-service surface than the
/// conventional schedule's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum StsVariant {
    /// The conventional sequential schedule (eq. (5)).
    #[default]
    Conventional,
    /// Optimization I: Op2 pipelined across devices (eq. (7)).
    OptimizationI,
    /// Optimization II: Op2 and Op3 pipelined (eq. (8)).
    OptimizationII,
}

impl StsVariant {
    /// The Table I row this schedule is measured as.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            StsVariant::Conventional => ProtocolKind::Sts,
            StsVariant::OptimizationI => ProtocolKind::StsOptI,
            StsVariant::OptimizationII => ProtocolKind::StsOptII,
        }
    }

    /// The paper's label for this variant.
    pub fn label(&self) -> &'static str {
        self.kind().label()
    }
}

impl core::fmt::Display for StsVariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(StsVariant::Conventional.label(), "STS");
        assert_eq!(StsVariant::OptimizationI.label(), "STS (opt. I)");
        assert_eq!(StsVariant::OptimizationII.label(), "STS (opt. II)");
    }
}
