//! Service mode: a long-running CA + responder daemon speaking the
//! versioned [`ecq_proto::framing`] wire format over real sockets.
//!
//! The paper's evaluation runs both handshake parties in one process;
//! this crate is the deployment-shaped counterpart. A
//! [`ServiceDaemon`] binds a TCP or Unix-domain listener and serves,
//! from a thread-per-connection loop:
//!
//! * **enrollment** — the ECQV request/issue exchange
//!   ([`ecq_proto::Frame::EnrollRequest`] →
//!   [`ecq_proto::Frame::EnrollIssued`]),
//! * **handshakes** — a full STS session against the daemon's
//!   responder credentials, one wire message per
//!   [`ecq_proto::Frame::HsMessage`] frame,
//! * **revocation** — CRL fetches signed by the CA
//!   ([`ecq_proto::Frame::CrlRequest`] →
//!   [`ecq_proto::Frame::CrlResponse`]).
//!
//! [`ServiceClient`] is the matching blocking client. A daemon's keys
//! and its responder randomness derive from 32 bytes of
//! `/dev/urandom`; the seed a client sends in
//! [`ecq_proto::Frame::HsOpen`] is ignored. In the deterministic mode
//! of [`ServiceConfig::seed`], for tests and benchmarks, the responder
//! stream derives from that seed exactly the way `ecq_sts::establish`
//! derives it, so a socket transcript is byte-identical to a simulator
//! transcript of the same seeds — the property the `transcript_equiv`
//! test pins down.
//!
//! Connections fail closed: every malformed frame, deadline overrun or
//! daemon shutdown surfaces as a typed
//! [`ecq_proto::Frame::ErrorClose`] before the socket drops, and the
//! frame decoder itself never panics on byte soup.
//!
//! # Platform
//!
//! The crate builds on unix targets only: the daemon hands its
//! listeners around as `std::os::fd::OwnedFd`, and both transports
//! (TCP and Unix-domain sockets) are always compiled. Shutdown wakes
//! the accept thread by calling `shutdown(2)` on a second handle of the
//! listening socket, which fails the blocked `accept` on Linux. Another
//! kernel may leave that `accept` blocked, so
//! [`ServiceDaemon::shutdown`] is specified for Linux.

#![warn(missing_docs)]

pub mod client;
pub mod config;
mod connection;
pub mod daemon;
pub mod error;
pub mod stream;

pub use client::{ServiceClient, SocketHandshake};
pub use config::{BindAddr, ServiceConfig};
pub use daemon::{ServiceAddr, ServiceDaemon, StatsSnapshot};
pub use error::ServiceError;
pub use stream::ServiceStream;

use ecq_sts::StsVariant;

/// Wire code of an STS variant inside [`ecq_proto::Frame::HsOpen`].
pub fn variant_code(variant: StsVariant) -> u8 {
    match variant {
        StsVariant::Conventional => 0,
        StsVariant::OptimizationI => 1,
        StsVariant::OptimizationII => 2,
    }
}

/// Decodes an STS variant wire code; `None` for unknown codes (the
/// daemon refuses the handshake rather than guessing a schedule).
pub fn variant_from_code(code: u8) -> Option<StsVariant> {
    match code {
        0 => Some(StsVariant::Conventional),
        1 => Some(StsVariant::OptimizationI),
        2 => Some(StsVariant::OptimizationII),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_codes_roundtrip() {
        for v in [
            StsVariant::Conventional,
            StsVariant::OptimizationI,
            StsVariant::OptimizationII,
        ] {
            assert_eq!(variant_from_code(variant_code(v)), Some(v));
        }
        assert_eq!(variant_from_code(3), None);
        assert_eq!(variant_from_code(0xFF), None);
    }
}
