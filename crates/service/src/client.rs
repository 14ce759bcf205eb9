//! The blocking service client.

use crate::daemon::ServiceAddr;
use crate::error::ServiceError;
use crate::stream::ServiceStream;
use crate::variant_code;
use ecq_cert::ca::IssuedCert;
use ecq_cert::requester::CertRequester;
use ecq_cert::revocation::RevocationList;
use ecq_cert::{DeviceId, ImplicitCert};
use ecq_crypto::HmacDrbg;
use ecq_p256::ecdsa::{verify, Signature};
use ecq_p256::point::AffinePoint;
use ecq_p256::scalar::Scalar;
use ecq_p256::CurveError;
use ecq_proto::socket::{read_frame, write_frame};
use ecq_proto::{Credentials, Endpoint, Frame, Message, SessionKey, StepOutput};
use ecq_sts::{StsConfig, StsInitiator, StsVariant};
use std::time::Duration;

/// A completed socket handshake: the derived key plus the full wire
/// transcript in exchange order (A1, B1, A2, B2), for byte-level
/// comparison against simulator transcripts.
#[derive(Clone, Debug)]
pub struct SocketHandshake {
    /// The initiator-side session key. Key agreement is proven by the
    /// STS MAC exchange: establishment implies the responder derived
    /// the same key.
    pub key: SessionKey,
    /// Every handshake message, in wire order, both directions.
    pub messages: Vec<Message>,
}

/// A blocking client for one daemon connection.
///
/// Protocol order: [`ServiceClient::hello`] first (it learns the CA
/// public key that anchors enrollment and CRL verification), then any
/// mix of [`ServiceClient::enroll`], [`ServiceClient::handshake`] and
/// [`ServiceClient::fetch_crl`].
pub struct ServiceClient {
    stream: ServiceStream,
    ca_public: Option<AffinePoint>,
}

impl ServiceClient {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on connect or socket-option failure.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> Result<Self, ServiceError> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::over(ServiceStream::Tcp(stream))
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on connect or socket-option failure.
    pub fn connect_unix(path: &std::path::Path) -> Result<Self, ServiceError> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        Self::over(ServiceStream::Unix(stream))
    }

    /// Connects to whichever listener family `addr` names.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on connect failure.
    pub fn connect(addr: &ServiceAddr) -> Result<Self, ServiceError> {
        match addr {
            ServiceAddr::Tcp(addr) => Self::connect_tcp(*addr),
            ServiceAddr::Unix(path) => Self::connect_unix(path),
        }
    }

    fn over(mut stream: ServiceStream) -> Result<Self, ServiceError> {
        stream.set_read_deadline(Some(Duration::from_secs(10)))?;
        stream.set_write_deadline(Some(Duration::from_secs(10)))?;
        Ok(ServiceClient {
            stream,
            ca_public: None,
        })
    }

    fn exchange(&mut self, request: &Frame) -> Result<Frame, ServiceError> {
        write_frame(&mut self.stream, request)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Frame, ServiceError> {
        match read_frame(&mut self.stream)? {
            Frame::ErrorClose { code } => Err(ServiceError::Refused(code)),
            frame => Ok(frame),
        }
    }

    /// Greets the daemon and learns (and caches) the CA public key.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on transport failure or a non-hello reply.
    pub fn hello(&mut self, nonce: [u8; 32]) -> Result<AffinePoint, ServiceError> {
        match self.exchange(&Frame::Hello { nonce })? {
            Frame::HelloAck { ca_public } => {
                let point = AffinePoint::from_bytes_compressed(&ca_public)?;
                self.ca_public = Some(point);
                Ok(point)
            }
            other => Err(ServiceError::Unexpected(other.kind())),
        }
    }

    fn ca_public(&self) -> Result<AffinePoint, ServiceError> {
        self.ca_public.ok_or(ServiceError::MissingHello)
    }

    /// Enrolls `subject` with the daemon's CA: generates a request
    /// secret locally, sends the commitment point, reconstructs and
    /// validates the key pair from the issued certificate.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on refusal, transport failure, or a
    /// reconstruction mismatch (which would indicate a dishonest CA).
    pub fn enroll(
        &mut self,
        subject: DeviceId,
        rng: &mut HmacDrbg,
    ) -> Result<Credentials, ServiceError> {
        let ca_public = self.ca_public()?;
        let requester = CertRequester::generate(subject, rng);
        let point = requester.request().point.to_bytes_compressed()?;
        let request = Frame::EnrollRequest {
            subject: *subject.as_bytes(),
            point,
        };
        match self.exchange(&request)? {
            Frame::EnrollIssued {
                cert,
                recon_private,
            } => {
                let certificate = ImplicitCert::from_bytes(&cert)?;
                let recon_private =
                    Scalar::from_be_bytes(&recon_private).ok_or(CurveError::InvalidScalar)?;
                let issued = IssuedCert {
                    certificate,
                    recon_private,
                };
                let keys = requester.reconstruct(&issued, &ca_public)?;
                Ok(Credentials {
                    id: subject,
                    cert: issued.certificate,
                    keys,
                    ca_public,
                })
            }
            other => Err(ServiceError::Unexpected(other.kind())),
        }
    }

    /// Runs a full STS handshake against the daemon's responder.
    ///
    /// `seed_initiator` seeds the local initiator RNG stream and
    /// `seed_responder` travels in the `HsOpen` frame. A daemon in the
    /// deterministic mode of [`crate::ServiceConfig::seed`] seeds its
    /// responder stream from it — the same two-stream derivation
    /// `ecq_sts::establish` performs, so the wire transcript of
    /// `(credentials, config, seeds)` is reproducible bit-for-bit. Any
    /// other daemon ignores it and draws from its own secret stream.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on transport failure, daemon refusal, or any
    /// handshake [`ecq_proto::ProtocolError`] (bad MAC, bad signature,
    /// revoked certificate).
    pub fn handshake(
        &mut self,
        credentials: &Credentials,
        variant: StsVariant,
        now: u32,
        seed_initiator: &[u8; 32],
        seed_responder: &[u8; 32],
    ) -> Result<SocketHandshake, ServiceError> {
        let config = StsConfig { now, variant };
        let mut rng = HmacDrbg::new(seed_initiator, b"sts-initiator");
        let mut initiator = StsInitiator::new(credentials.clone(), config, &mut rng);
        write_frame(
            &mut self.stream,
            &Frame::HsOpen {
                seed: *seed_responder,
                variant: variant_code(variant),
                now,
            },
        )?;
        let mut messages = Vec::new();
        match initiator.step(None)? {
            StepOutput::Send(message) => {
                write_frame(&mut self.stream, &Frame::HsMessage(message.clone()))?;
                messages.push(message);
            }
            _ => return Err(ServiceError::Protocol(ecq_proto::ProtocolError::Stalled)),
        }
        while !initiator.is_established() {
            let message = match self.read_reply()? {
                Frame::HsMessage(message) => message,
                other => return Err(ServiceError::Unexpected(other.kind())),
            };
            messages.push(message.clone());
            match initiator.step(Some(&message))? {
                StepOutput::Send(reply) => {
                    write_frame(&mut self.stream, &Frame::HsMessage(reply.clone()))?;
                    messages.push(reply);
                }
                StepOutput::Wait | StepOutput::Established => {}
            }
        }
        Ok(SocketHandshake {
            key: initiator.session_key()?,
            messages,
        })
    }

    /// Fetches the CA's revocation list and verifies its signature
    /// against the CA public key before parsing it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadCrlSignature`] when the signature fails,
    /// plus the usual transport/decode failures.
    pub fn fetch_crl(&mut self) -> Result<RevocationList, ServiceError> {
        let ca_public = self.ca_public()?;
        match self.exchange(&Frame::CrlRequest)? {
            Frame::CrlResponse { crl, signature } => {
                let signature = Signature::from_bytes(&signature)?;
                if !verify(&ca_public, &crl, &signature) {
                    return Err(ServiceError::BadCrlSignature);
                }
                Ok(RevocationList::from_bytes(&crl)?)
            }
            other => Err(ServiceError::Unexpected(other.kind())),
        }
    }
}
