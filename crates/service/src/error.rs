//! The service-layer error type.

use ecq_cert::CertError;
use ecq_p256::CurveError;
use ecq_proto::{FrameKind, ProtocolError, TransportError};

/// Everything that can go wrong on a service connection, client or
/// daemon side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// Socket or frame-codec failure.
    Transport(TransportError),
    /// Handshake state-machine failure.
    Protocol(ProtocolError),
    /// Certificate issuance/reconstruction failure.
    Cert(CertError),
    /// Curve-level decode failure (bad compressed point, bad scalar).
    Curve(CurveError),
    /// The peer closed the connection with a typed
    /// [`ecq_proto::framing::ErrorCode`] wire code.
    Refused(u8),
    /// The peer answered with a frame kind the protocol state does not
    /// allow here.
    Unexpected(FrameKind),
    /// The operation needs the CA public key, which arrives in the
    /// hello exchange; call [`crate::ServiceClient::hello`] first.
    MissingHello,
    /// The CRL signature did not verify against the CA public key.
    BadCrlSignature,
    /// The daemon could not read its secret seed from `/dev/urandom`.
    Entropy(std::io::ErrorKind),
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::Transport(e) => write!(f, "transport: {e}"),
            ServiceError::Protocol(e) => write!(f, "protocol: {e}"),
            ServiceError::Cert(e) => write!(f, "certificate: {e:?}"),
            ServiceError::Curve(e) => write!(f, "curve: {e:?}"),
            ServiceError::Refused(code) => {
                write!(f, "peer refused the connection (error code {code})")
            }
            ServiceError::Unexpected(kind) => {
                write!(f, "unexpected frame kind {kind:?} for the protocol state")
            }
            ServiceError::MissingHello => {
                write!(f, "CA public key unknown; run the hello exchange first")
            }
            ServiceError::BadCrlSignature => {
                write!(f, "CRL signature does not verify against the CA key")
            }
            ServiceError::Entropy(kind) => {
                write!(f, "cannot read a secret seed from /dev/urandom: {kind}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Transport(e) => Some(e),
            ServiceError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for ServiceError {
    fn from(e: TransportError) -> Self {
        ServiceError::Transport(e)
    }
}

impl From<ProtocolError> for ServiceError {
    fn from(e: ProtocolError) -> Self {
        ServiceError::Protocol(e)
    }
}

impl From<CertError> for ServiceError {
    fn from(e: CertError) -> Self {
        ServiceError::Cert(e)
    }
}

impl From<CurveError> for ServiceError {
    fn from(e: CurveError) -> Self {
        ServiceError::Curve(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Transport(TransportError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_typed_causes() {
        let e = ServiceError::from(TransportError::Timeout);
        assert_eq!(e, ServiceError::Transport(TransportError::Timeout));
        let e = ServiceError::from(CertError::Revoked);
        assert_eq!(e, ServiceError::Cert(CertError::Revoked));
        let io = std::io::Error::from(std::io::ErrorKind::TimedOut);
        assert_eq!(
            ServiceError::from(io),
            ServiceError::Transport(TransportError::Timeout)
        );
    }

    #[test]
    fn display_is_informative() {
        let text = ServiceError::Refused(4).to_string();
        assert!(text.contains("error code 4"));
        assert!(ServiceError::MissingHello.to_string().contains("hello"));
    }
}
