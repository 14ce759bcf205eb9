//! The versioned service wire format: length-prefixed frames carrying
//! enrollment, handshake and revocation traffic over real sockets.
//!
//! Every frame starts with a fixed 12-byte header:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 4 | magic `"ECQS"` |
//! | 4 | 1 | protocol version (currently [`VERSION`]) |
//! | 5 | 1 | cryptosystem identifier ([`CRYPTO_P256_SHA256`]) |
//! | 6 | 1 | frame kind ([`FrameKind`]) |
//! | 7 | 1 | flags (must be 0 in version 1) |
//! | 8 | 4 | payload length, u32 big-endian |
//!
//! followed by exactly `length` payload bytes. Public keys travel as
//! 33-byte compressed SEC1 points; signatures and variable-length blobs
//! (the CRL) are u16-length-prefixed inside the payload.
//!
//! The decoder is **total and fail-closed**: every reject is a typed
//! [`TransportError`] — unknown magic, version or cryptosystem,
//! oversized or truncated frames, and structurally invalid payloads all
//! refuse the frame without panicking. Arbitrary byte soup must never
//! crash it (the service CI job fuzzes exactly that).
//!
//! Versioning and compatibility rules:
//!
//! * The magic never changes; anything else is not this protocol.
//! * A version bump may change everything after the version byte.
//!   Decoders reject versions they do not implement with
//!   [`TransportError::BadVersion`] — there is no downgrade path on a
//!   single connection.
//! * The cryptosystem byte pins the curve/hash suite (P-256 + SHA-256,
//!   the paper's prototype); a peer offering anything else is rejected
//!   with [`TransportError::BadCrypto`] before any payload is parsed.
//! * Flags are reserved: version-1 decoders reject nonzero flags, so
//!   future senders cannot silently assume an extension was honored.

use crate::error::TransportError;
use crate::wire::{FieldKind, Message, WireField};

/// Frame magic: the first four bytes of every service frame.
pub const MAGIC: [u8; 4] = *b"ECQS";

/// The wire-format version this build speaks.
pub const VERSION: u8 = 1;

/// Cryptosystem identifier: secp256r1 + SHA-256 (matches the curve
/// identifier byte inside the ECQV minimal certificate).
pub const CRYPTO_P256_SHA256: u8 = 0x17;

/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Hard cap on a frame payload. Handshake messages top out at 245
/// bytes; the CRL grows with revocations, so the cap leaves generous
/// headroom while bounding per-connection memory.
pub const MAX_PAYLOAD: u32 = 16 * 1024;

/// The frame vocabulary of the service protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client greeting (carries a client nonce).
    Hello,
    /// Daemon reply to [`FrameKind::Hello`]: the CA public key.
    HelloAck,
    /// Enrollment request: subject identity + request point.
    EnrollRequest,
    /// Enrollment result: certificate + private-key contribution
    /// (the ECQV `r` value — enrollment is a provisioning channel).
    EnrollIssued,
    /// Opens a handshake session against the daemon's responder.
    HsOpen,
    /// One handshake wire message ([`Message`]).
    HsMessage,
    /// Requests the CA's current revocation list.
    CrlRequest,
    /// The CRL plus the CA's signature over it.
    CrlResponse,
    /// Typed terminal error; the sender closes after this frame.
    ErrorClose,
}

impl FrameKind {
    /// The wire code of this frame kind.
    pub const fn code(self) -> u8 {
        match self {
            FrameKind::Hello => 0x01,
            FrameKind::HelloAck => 0x02,
            FrameKind::EnrollRequest => 0x10,
            FrameKind::EnrollIssued => 0x11,
            FrameKind::HsOpen => 0x20,
            FrameKind::HsMessage => 0x21,
            FrameKind::CrlRequest => 0x30,
            FrameKind::CrlResponse => 0x31,
            FrameKind::ErrorClose => 0x7F,
        }
    }

    /// Decodes a frame-kind byte.
    ///
    /// # Errors
    ///
    /// [`TransportError::Malformed`] on an unknown code.
    pub fn from_code(code: u8) -> Result<Self, TransportError> {
        match code {
            0x01 => Ok(FrameKind::Hello),
            0x02 => Ok(FrameKind::HelloAck),
            0x10 => Ok(FrameKind::EnrollRequest),
            0x11 => Ok(FrameKind::EnrollIssued),
            0x20 => Ok(FrameKind::HsOpen),
            0x21 => Ok(FrameKind::HsMessage),
            0x30 => Ok(FrameKind::CrlRequest),
            0x31 => Ok(FrameKind::CrlResponse),
            0x7F => Ok(FrameKind::ErrorClose),
            _ => Err(TransportError::Malformed),
        }
    }
}

/// A decoded service frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client greeting.
    Hello {
        /// Client-chosen nonce (transcript freshness, not secret).
        nonce: [u8; 32],
    },
    /// Daemon greeting reply.
    HelloAck {
        /// The CA public key, compressed SEC1.
        ca_public: [u8; 33],
    },
    /// Enrollment request.
    EnrollRequest {
        /// Subject device identity.
        subject: [u8; 16],
        /// The requester's commitment point, compressed SEC1.
        point: [u8; 33],
    },
    /// Enrollment result.
    EnrollIssued {
        /// The implicit certificate (the 101-byte minimal encoding).
        cert: [u8; 101],
        /// The CA's private-key contribution `r`.
        recon_private: [u8; 32],
    },
    /// Handshake session open.
    HsOpen {
        /// Session seed. Only a daemon in deterministic mode derives
        /// its responder stream from it, which makes a socket transcript
        /// comparable byte-for-byte to a simulator run of the same seed;
        /// any other daemon ignores it.
        seed: [u8; 32],
        /// STS variant code (0 conventional, 1 opt. I, 2 opt. II).
        variant: u8,
        /// Certificate-validity clock for the handshake.
        now: u32,
    },
    /// One handshake message.
    HsMessage(Message),
    /// CRL fetch.
    CrlRequest,
    /// CRL fetch reply.
    CrlResponse {
        /// The serialized revocation list.
        crl: Vec<u8>,
        /// The CA's ECDSA signature over `crl` (length-prefixed on the
        /// wire; 64 bytes for P-256).
        signature: Vec<u8>,
    },
    /// Typed terminal error.
    ErrorClose {
        /// An [`ErrorCode`] wire code (unknown codes are carried
        /// through — the connection is closing either way).
        code: u8,
    },
}

/// Error codes carried by [`Frame::ErrorClose`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame could not be decoded.
    BadFrame,
    /// Enrollment was refused: a bad request point, a reserved subject
    /// (the daemon's own CA or responder identity) or a CA failure.
    EnrollRefused,
    /// The handshake failed (authentication, decode, or state error).
    HandshakeFailed,
    /// The connection exceeded a server-side deadline.
    Deadline,
    /// The daemon is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire code of this error.
    pub const fn code(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::EnrollRefused => 2,
            ErrorCode::HandshakeFailed => 3,
            ErrorCode::Deadline => 4,
            ErrorCode::ShuttingDown => 5,
        }
    }
}

/// Step-label table for handshake messages on the wire. Only the
/// two-party handshake vocabulary is carried; an unknown label is an
/// encode-time error (fail closed, not a panic).
const STEP_TABLE: [(&str, u8); 6] = [
    ("A1", 0x01),
    ("A2", 0x02),
    ("A3", 0x03),
    ("B1", 0x11),
    ("B2", 0x12),
    ("B3", 0x13),
];

fn step_code(step: &str) -> Result<u8, TransportError> {
    STEP_TABLE
        .iter()
        .find(|(label, _)| *label == step)
        .map(|(_, code)| *code)
        .ok_or(TransportError::Malformed)
}

fn step_label(code: u8) -> Result<&'static str, TransportError> {
    STEP_TABLE
        .iter()
        .find(|(_, c)| *c == code)
        .map(|(label, _)| *label)
        .ok_or(TransportError::Malformed)
}

const FIELD_TABLE: [(FieldKind, u8); 11] = [
    (FieldKind::Id, 1),
    (FieldKind::Nonce, 2),
    (FieldKind::Cert, 3),
    (FieldKind::Signature, 4),
    (FieldKind::EphemeralPoint, 5),
    (FieldKind::Response, 6),
    (FieldKind::Mac, 7),
    (FieldKind::Hello, 8),
    (FieldKind::Ack, 9),
    (FieldKind::Fin, 10),
    (FieldKind::Finish, 11),
];

fn field_code(kind: FieldKind) -> u8 {
    FIELD_TABLE
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, c)| *c)
        .unwrap_or(0) // unreachable: the table covers the enum
}

fn field_kind(code: u8) -> Result<FieldKind, TransportError> {
    FIELD_TABLE
        .iter()
        .find(|(_, c)| *c == code)
        .map(|(k, _)| *k)
        .ok_or(TransportError::Malformed)
}

/// A cursor over an immutable payload; every read is checked, so the
/// decoder cannot index out of bounds.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
        let end = self.pos.checked_add(n).ok_or(TransportError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(TransportError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, TransportError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(TransportError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, TransportError> {
        let b = self.take(2)?;
        let mut arr = [0u8; 2];
        arr.copy_from_slice(b);
        Ok(u16::from_be_bytes(arr))
    }

    fn u32(&mut self) -> Result<u32, TransportError> {
        let b = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(b);
        Ok(u32::from_be_bytes(arr))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], TransportError> {
        let b = self.take(N)?;
        let mut arr = [0u8; N];
        arr.copy_from_slice(b);
        Ok(arr)
    }

    /// A u16-length-prefixed byte string.
    fn blob(&mut self) -> Result<Vec<u8>, TransportError> {
        let len = self.u16()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// The fixed frame header, checked field by field as its bytes
    /// arrive: a prefix is `Truncated` only until its first bad field
    /// is in, so a stream reader stops waiting on a bad magic at once.
    fn header(&mut self) -> Result<(FrameKind, u32), TransportError> {
        if self.array::<4>()? != MAGIC {
            return Err(TransportError::BadMagic);
        }
        let version = self.u8()?;
        if version != VERSION {
            return Err(TransportError::BadVersion { got: version });
        }
        let crypto = self.u8()?;
        if crypto != CRYPTO_P256_SHA256 {
            return Err(TransportError::BadCrypto { got: crypto });
        }
        let kind = FrameKind::from_code(self.u8()?)?;
        if self.u8()? != 0 {
            return Err(TransportError::Malformed); // flags are reserved
        }
        let len = self.u32()?;
        if len > MAX_PAYLOAD {
            return Err(TransportError::FrameTooLarge {
                len,
                max: MAX_PAYLOAD,
            });
        }
        Ok((kind, len))
    }

    fn finish(&self) -> Result<(), TransportError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(TransportError::Malformed)
        }
    }
}

fn push_blob(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), TransportError> {
    let len = u16::try_from(bytes.len()).map_err(|_| TransportError::Malformed)?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

/// Encodes a handshake [`Message`] as a frame payload: step code, field
/// count, then `kind ‖ u16 length ‖ bytes` per field (signatures and
/// every other field are length-prefixed uniformly).
///
/// # Errors
///
/// [`TransportError::Malformed`] when the step label is outside the
/// two-party handshake vocabulary.
pub fn encode_message(message: &Message) -> Result<Vec<u8>, TransportError> {
    let mut out = Vec::with_capacity(2 + message.wire_len() + 3 * message.fields.len());
    out.push(step_code(message.step)?);
    let count = u8::try_from(message.fields.len()).map_err(|_| TransportError::Malformed)?;
    out.push(count);
    for field in &message.fields {
        out.push(field_code(field.kind));
        push_blob(&mut out, &field.bytes)?;
    }
    Ok(out)
}

/// Decodes a handshake [`Message`] from a frame payload. Total: every
/// structural defect is a typed error, and field lengths are validated
/// against [`FieldKind::wire_len`] before a [`WireField`] is built (so
/// the constructor's length assertion can never fire on wire input).
///
/// # Errors
///
/// [`TransportError::Truncated`] or [`TransportError::Malformed`].
pub fn decode_message(payload: &[u8]) -> Result<Message, TransportError> {
    let mut r = Reader::new(payload);
    let step = step_label(r.u8()?)?;
    let count = r.u8()? as usize;
    let mut fields = Vec::with_capacity(count.min(16));
    for _ in 0..count {
        let kind = field_kind(r.u8()?)?;
        let bytes = r.blob()?;
        if bytes.len() != kind.wire_len() {
            return Err(TransportError::Malformed);
        }
        fields.push(WireField::new(kind, bytes));
    }
    r.finish()?;
    Ok(Message::new(step, fields))
}

impl Frame {
    /// The kind tag of this frame.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Hello { .. } => FrameKind::Hello,
            Frame::HelloAck { .. } => FrameKind::HelloAck,
            Frame::EnrollRequest { .. } => FrameKind::EnrollRequest,
            Frame::EnrollIssued { .. } => FrameKind::EnrollIssued,
            Frame::HsOpen { .. } => FrameKind::HsOpen,
            Frame::HsMessage(_) => FrameKind::HsMessage,
            Frame::CrlRequest => FrameKind::CrlRequest,
            Frame::CrlResponse { .. } => FrameKind::CrlResponse,
            Frame::ErrorClose { .. } => FrameKind::ErrorClose,
        }
    }

    fn payload(&self) -> Result<Vec<u8>, TransportError> {
        match self {
            Frame::Hello { nonce } => Ok(nonce.to_vec()),
            Frame::HelloAck { ca_public } => Ok(ca_public.to_vec()),
            Frame::EnrollRequest { subject, point } => {
                let mut out = Vec::with_capacity(49);
                out.extend_from_slice(subject);
                out.extend_from_slice(point);
                Ok(out)
            }
            Frame::EnrollIssued {
                cert,
                recon_private,
            } => {
                let mut out = Vec::with_capacity(133);
                out.extend_from_slice(cert);
                out.extend_from_slice(recon_private);
                Ok(out)
            }
            Frame::HsOpen { seed, variant, now } => {
                let mut out = Vec::with_capacity(37);
                out.extend_from_slice(seed);
                out.push(*variant);
                out.extend_from_slice(&now.to_be_bytes());
                Ok(out)
            }
            Frame::HsMessage(message) => encode_message(message),
            Frame::CrlRequest => Ok(Vec::new()),
            Frame::CrlResponse { crl, signature } => {
                let mut out = Vec::with_capacity(4 + crl.len() + signature.len());
                push_blob(&mut out, crl)?;
                push_blob(&mut out, signature)?;
                Ok(out)
            }
            Frame::ErrorClose { code } => Ok(vec![*code]),
        }
    }

    /// Encodes the frame: 12-byte header plus payload.
    ///
    /// # Errors
    ///
    /// [`TransportError::Malformed`] when the payload cannot be encoded
    /// (unknown step label, oversized blob), and
    /// [`TransportError::FrameTooLarge`] when the payload exceeds
    /// [`MAX_PAYLOAD`].
    pub fn encode(&self) -> Result<Vec<u8>, TransportError> {
        let payload = self.payload()?;
        let len = u32::try_from(payload.len()).map_err(|_| TransportError::FrameTooLarge {
            len: u32::MAX,
            max: MAX_PAYLOAD,
        })?;
        if len > MAX_PAYLOAD {
            return Err(TransportError::FrameTooLarge {
                len,
                max: MAX_PAYLOAD,
            });
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(CRYPTO_P256_SHA256);
        out.push(self.kind().code());
        out.push(0); // flags, reserved in version 1
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Decodes one frame from the front of `bytes`; returns the frame
    /// and the number of bytes consumed. Total and fail-closed: any
    /// byte soup yields a typed error, never a panic.
    ///
    /// # Errors
    ///
    /// Every [`TransportError`] decode variant: `Truncated` when the
    /// header or declared payload is incomplete, `BadMagic` /
    /// `BadVersion` / `BadCrypto` on header mismatches,
    /// `FrameTooLarge` on an oversized declared length, `Malformed` on
    /// structurally invalid payloads.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), TransportError> {
        let mut r = Reader::new(bytes);
        let (kind, len) = r.header()?;
        let payload = r.take(len as usize)?;
        let frame = Frame::decode_payload(kind, payload)?;
        Ok((frame, HEADER_LEN + len as usize))
    }

    /// Decodes a frame payload whose header was already validated.
    /// Exposed so stream transports can read the header and payload in
    /// two exact reads without re-buffering.
    ///
    /// # Errors
    ///
    /// [`TransportError::Truncated`] / [`TransportError::Malformed`] on
    /// structurally invalid payloads.
    pub fn decode_payload(kind: FrameKind, payload: &[u8]) -> Result<Frame, TransportError> {
        let mut r = Reader::new(payload);
        let frame = match kind {
            FrameKind::Hello => Frame::Hello { nonce: r.array()? },
            FrameKind::HelloAck => Frame::HelloAck {
                ca_public: r.array()?,
            },
            FrameKind::EnrollRequest => Frame::EnrollRequest {
                subject: r.array()?,
                point: r.array()?,
            },
            FrameKind::EnrollIssued => Frame::EnrollIssued {
                cert: r.array()?,
                recon_private: r.array()?,
            },
            FrameKind::HsOpen => Frame::HsOpen {
                seed: r.array()?,
                variant: r.u8()?,
                now: r.u32()?,
            },
            FrameKind::HsMessage => return decode_message(payload).map(Frame::HsMessage),
            FrameKind::CrlRequest => Frame::CrlRequest,
            FrameKind::CrlResponse => Frame::CrlResponse {
                crl: r.blob()?,
                signature: r.blob()?,
            },
            FrameKind::ErrorClose => Frame::ErrorClose { code: r.u8()? },
        };
        r.finish()?;
        Ok(frame)
    }

    /// Parses the already-validated fixed header of a frame, returning
    /// `(kind, payload length)`. Rejects bad magic/version/crypto/flags
    /// and oversized declared lengths — the first line of defense for a
    /// streaming reader, before any payload byte is read.
    ///
    /// # Errors
    ///
    /// The same header errors as [`Frame::decode`].
    pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, u32), TransportError> {
        Reader::new(header).header()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> Message {
        Message::new(
            "B1",
            vec![
                WireField::new(FieldKind::Id, vec![7; 16]),
                WireField::new(FieldKind::Cert, vec![8; 101]),
                WireField::new(FieldKind::EphemeralPoint, vec![9; 64]),
                WireField::new(FieldKind::Response, vec![10; 64]),
            ],
        )
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { nonce: [1; 32] },
            Frame::HelloAck { ca_public: [2; 33] },
            Frame::EnrollRequest {
                subject: [3; 16],
                point: [4; 33],
            },
            Frame::EnrollIssued {
                cert: [5; 101],
                recon_private: [6; 32],
            },
            Frame::HsOpen {
                seed: [7; 32],
                variant: 2,
                now: 0x0102_0304,
            },
            Frame::HsMessage(sample_message()),
            Frame::CrlRequest,
            Frame::CrlResponse {
                crl: vec![9; 40],
                signature: vec![10; 64],
            },
            Frame::ErrorClose {
                code: ErrorCode::Deadline.code(),
            },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for frame in all_frames() {
            let bytes = frame.encode().unwrap();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len(), "{:?}", frame.kind());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn header_parses_standalone() {
        let bytes = Frame::CrlRequest.encode().unwrap();
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        let (kind, len) = Frame::parse_header(&header).unwrap();
        assert_eq!(kind, FrameKind::CrlRequest);
        assert_eq!(len, 0);
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = Frame::Hello { nonce: [0; 32] }.encode().unwrap();
        bytes[4] = 2;
        assert_eq!(
            Frame::decode(&bytes),
            Err(TransportError::BadVersion { got: 2 })
        );
    }

    #[test]
    fn bad_magic_and_crypto_are_rejected() {
        let mut bytes = Frame::Hello { nonce: [0; 32] }.encode().unwrap();
        bytes[0] = b'X';
        assert_eq!(Frame::decode(&bytes), Err(TransportError::BadMagic));
        let mut bytes = Frame::Hello { nonce: [0; 32] }.encode().unwrap();
        bytes[5] = 0x18;
        assert_eq!(
            Frame::decode(&bytes),
            Err(TransportError::BadCrypto { got: 0x18 })
        );
    }

    #[test]
    fn nonzero_flags_are_rejected() {
        let mut bytes = Frame::CrlRequest.encode().unwrap();
        bytes[7] = 0x80;
        assert_eq!(Frame::decode(&bytes), Err(TransportError::Malformed));
    }

    #[test]
    fn oversized_length_is_rejected_before_payload() {
        let mut bytes = Frame::CrlRequest.encode().unwrap();
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(TransportError::FrameTooLarge {
                len: MAX_PAYLOAD + 1,
                max: MAX_PAYLOAD,
            })
        );
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = Frame::Hello { nonce: [0; 32] }.encode().unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode(&bytes[..cut]),
                Err(TransportError::Truncated),
                "cut at {cut}"
            );
        }
    }

    /// Pins `Frame::decode` on every 0–12-byte prefix of a header: a
    /// prefix is `Truncated` until the first bad byte is in, then it
    /// is that byte's error. A 4-byte bad magic is already `BadMagic`,
    /// because stream readers wait for more bytes on `Truncated`.
    #[test]
    fn header_prefixes_fail_at_their_first_bad_byte() {
        let valid = Frame::Hello { nonce: [0; 32] }.encode().unwrap();
        let header = |at: usize, bytes: &[u8]| {
            let mut h = valid[..HEADER_LEN].to_vec();
            h[at..at + bytes.len()].copy_from_slice(bytes);
            h
        };
        let oversize = (MAX_PAYLOAD + 1).to_be_bytes();
        // (header, prefix length at which the error shows, the error)
        let cases = [
            (header(0, &[]), HEADER_LEN + 1, TransportError::Truncated),
            (header(3, b"X"), 4, TransportError::BadMagic),
            (header(4, &[2]), 5, TransportError::BadVersion { got: 2 }),
            (
                header(5, &[0x18]),
                6,
                TransportError::BadCrypto { got: 0x18 },
            ),
            (header(6, &[0x55]), 7, TransportError::Malformed),
            (header(7, &[0x80]), 8, TransportError::Malformed),
            (
                header(8, &oversize),
                12,
                TransportError::FrameTooLarge {
                    len: MAX_PAYLOAD + 1,
                    max: MAX_PAYLOAD,
                },
            ),
        ];
        for (h, shows_at, error) in cases {
            for cut in 0..=HEADER_LEN {
                let expected = if cut >= shows_at {
                    error
                } else {
                    TransportError::Truncated
                };
                assert_eq!(
                    Frame::decode(&h[..cut]),
                    Err(expected),
                    "header {h:02x?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_in_payload_are_rejected() {
        // Declare one extra payload byte on a Hello — structurally
        // complete frame, semantically overlong payload.
        let mut bytes = Frame::Hello { nonce: [0; 32] }.encode().unwrap();
        bytes[8..12].copy_from_slice(&33u32.to_be_bytes());
        bytes.push(0xEE);
        assert_eq!(Frame::decode(&bytes), Err(TransportError::Malformed));
    }

    #[test]
    fn message_roundtrip_and_rejections() {
        let msg = sample_message();
        let payload = encode_message(&msg).unwrap();
        assert_eq!(decode_message(&payload).unwrap(), msg);

        // Unknown step label refuses to encode.
        let odd = Message::new("T9", vec![]);
        assert_eq!(encode_message(&odd), Err(TransportError::Malformed));

        // A field length that disagrees with its kind is refused
        // before WireField's constructor could assert.
        let mut bad = encode_message(&Message::new(
            "A1",
            vec![WireField::new(FieldKind::Ack, vec![1])],
        ))
        .unwrap();
        let last = bad.len() - 1;
        bad[last - 2] = 0; // length 0 for a 1-byte Ack…
        bad.truncate(last); // …and drop the byte itself
        assert!(decode_message(&bad).is_err());

        // Unknown field code.
        let bad = vec![0x01, 1, 0xEE, 0, 1, 0];
        assert_eq!(decode_message(&bad), Err(TransportError::Malformed));
    }

    #[test]
    fn error_codes_are_distinct() {
        let codes = [
            ErrorCode::BadFrame,
            ErrorCode::EnrollRefused,
            ErrorCode::HandshakeFailed,
            ErrorCode::Deadline,
            ErrorCode::ShuttingDown,
        ];
        let mut raw: Vec<u8> = codes.iter().map(|c| c.code()).collect();
        raw.sort_unstable();
        raw.dedup();
        assert_eq!(raw.len(), codes.len());
    }
}
