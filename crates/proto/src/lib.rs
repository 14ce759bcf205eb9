//! Shared protocol infrastructure for the key-derivation protocols.
//!
//! Everything the concrete protocols (STS in `ecq-sts`, the baselines in
//! `ecq-baselines`) have in common lives here:
//!
//! * [`wire`] — the typed message/field model whose byte sizes reproduce
//!   the paper's Table II exactly,
//! * [`trace`] — the primitive-operation trace that the device cost
//!   model (`ecq-devices`) integrates into Table I timings,
//! * [`session`] — session key material and the KDF chain of eq. (4),
//! * [`endpoint`] — the two-party state-machine abstraction, driven
//!   only through [`endpoint::Endpoint::step`], the shared fail-closed
//!   [`endpoint::EndpointCore`] every state machine holds, and the
//!   run-to-completion driver that returns both keys with the
//!   [`transcript::Transcript`] as an [`endpoint::SessionOutcome`],
//! * [`transport`] — the message-granularity [`transport::Transport`]
//!   link abstraction and the per-direction delivery queues,
//! * [`framing`] — the versioned, length-prefixed service wire format
//!   (magic, protocol version, cryptosystem identifier) with a total
//!   fail-closed decoder,
//! * [`socket`] — blocking frame I/O ([`socket::read_frame`],
//!   [`socket::write_frame`]) over TCP / Unix streams,
//! * [`error`] — the shared error types ([`ProtocolError`],
//!   [`TransportError`]).

#![warn(missing_docs)]

pub mod credentials;
pub mod endpoint;
pub mod error;
pub mod framing;
pub mod session;
pub mod socket;
pub mod trace;
pub mod transcript;
pub mod transport;
pub mod wire;

pub use credentials::{check_peer_cert, Credentials};
pub use endpoint::{run_handshake, Endpoint, EndpointCore, Role, SessionOutcome, StepOutput};
pub use error::{ProtocolError, TransportError};
pub use framing::{Frame, FrameKind};
pub use session::SessionKey;
pub use trace::{OpTrace, PrimitiveOp, StsPhase};
pub use transcript::Transcript;
pub use transport::{DirectionalQueues, Transport, TransportTime};
pub use wire::{FieldKind, Message, WireField};

/// The seven protocol variants evaluated in the paper (Tables I–III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// Static ECDSA key derivation (Basic et al. \[5\]).
    SEcdsa,
    /// S-ECDSA with the extended finished-message handling.
    SEcdsaExt,
    /// STS dynamic key derivation (this paper), conventional schedule.
    Sts,
    /// STS with optimization I (Op2 pipelined across devices, eq. (7)).
    StsOptI,
    /// STS with optimization II (Op2 and Op3 pipelined, eq. (8)).
    StsOptII,
    /// Sciancalepore et al. \[4\]: SKD + symmetric authentication.
    Scianc,
    /// Porambage et al. \[3\]: two-phase pairwise establishment.
    Poramb,
}

impl ProtocolKind {
    /// All variants in the paper's Table I row order.
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::SEcdsa,
        ProtocolKind::SEcdsaExt,
        ProtocolKind::Sts,
        ProtocolKind::StsOptI,
        ProtocolKind::StsOptII,
        ProtocolKind::Scianc,
        ProtocolKind::Poramb,
    ];

    /// The distinct wire formats of Table II (the STS optimizations do
    /// not change the transmitted data — §V-B of the paper).
    pub const WIRE_DISTINCT: [ProtocolKind; 5] = [
        ProtocolKind::SEcdsa,
        ProtocolKind::SEcdsaExt,
        ProtocolKind::Sts,
        ProtocolKind::Scianc,
        ProtocolKind::Poramb,
    ];

    /// The paper's display name.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::SEcdsa => "S-ECDSA",
            ProtocolKind::SEcdsaExt => "S-ECDSA (ext.)",
            ProtocolKind::Sts => "STS",
            ProtocolKind::StsOptI => "STS (opt. I)",
            ProtocolKind::StsOptII => "STS (opt. II)",
            ProtocolKind::Scianc => "SCIANC",
            ProtocolKind::Poramb => "PORAMB",
        }
    }
}

impl core::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_unique_labels() {
        let mut labels: Vec<&str> = ProtocolKind::ALL.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }
}
