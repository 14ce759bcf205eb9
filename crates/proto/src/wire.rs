//! Typed wire messages with byte-exact size accounting.
//!
//! The paper's Table II itemizes every handshake step as a list of
//! fields with fixed sizes (`ID(16)`, `Cert(101)`, `XG(64)`, …). This
//! module models messages the same way: a [`Message`] is an ordered
//! list of [`WireField`]s, each a [`FieldKind`] plus payload bytes. The
//! canonical encoding is the plain concatenation of the payloads, so
//! `Message::wire_len` is exactly the byte count the paper reports.

use crate::error::ProtocolError;

/// The field vocabulary of the paper's Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// Device identifier, 16 bytes.
    Id,
    /// Random nonce, 32 bytes.
    Nonce,
    /// Implicit certificate, 101 bytes.
    Cert,
    /// ECDSA signature, 64 bytes.
    Signature,
    /// Ephemeral EC point `XG`, 64 bytes (raw `x‖y`).
    EphemeralPoint,
    /// Encrypted authentication response `Resp`, 64 bytes.
    Response,
    /// Message authentication code, 32 bytes.
    Mac,
    /// Hello payload (PORAMB), 32 bytes.
    Hello,
    /// Acknowledgement, 1 byte.
    Ack,
    /// Extended finished message (S-ECDSA ext.), 96 bytes.
    Fin,
    /// PORAMB finish blob, 197 bytes.
    Finish,
}

impl FieldKind {
    /// The fixed wire size of this field kind, as accounted by the
    /// paper (Table II).
    pub const fn wire_len(&self) -> usize {
        match self {
            FieldKind::Id => 16,
            FieldKind::Nonce => 32,
            FieldKind::Cert => 101,
            FieldKind::Signature => 64,
            FieldKind::EphemeralPoint => 64,
            FieldKind::Response => 64,
            FieldKind::Mac => 32,
            FieldKind::Hello => 32,
            FieldKind::Ack => 1,
            FieldKind::Fin => 96,
            FieldKind::Finish => 197,
        }
    }

    /// The paper's display label for the field.
    pub const fn label(&self) -> &'static str {
        match self {
            FieldKind::Id => "ID",
            FieldKind::Nonce => "Nonce",
            FieldKind::Cert => "Cert",
            FieldKind::Signature => "Sign",
            FieldKind::EphemeralPoint => "XG",
            FieldKind::Response => "Resp",
            FieldKind::Mac => "MAC",
            FieldKind::Hello => "Hello",
            FieldKind::Ack => "ACK",
            FieldKind::Fin => "Fin",
            FieldKind::Finish => "Finish",
        }
    }
}

/// One field of a wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireField {
    /// The field kind (fixes the expected length).
    pub kind: FieldKind,
    /// The payload bytes.
    pub bytes: Vec<u8>,
}

impl WireField {
    /// Creates a field, validating the payload length against the kind.
    ///
    /// # Panics
    ///
    /// Panics when the payload length does not match
    /// [`FieldKind::wire_len`] — protocol code constructs fields from
    /// fixed-size arrays, so a mismatch is a programming error.
    pub fn new(kind: FieldKind, bytes: Vec<u8>) -> Self {
        assert_eq!(
            bytes.len(),
            kind.wire_len(),
            "field {:?} must be {} bytes, got {}",
            kind,
            kind.wire_len(),
            bytes.len()
        );
        WireField { kind, bytes }
    }
}

/// A protocol message: a step label (the paper's "A1", "B1", …) plus an
/// ordered list of fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Step label in the paper's notation.
    pub step: &'static str,
    /// Ordered fields.
    pub fields: Vec<WireField>,
}

impl Message {
    /// Builds a message from `(kind, bytes)` pairs.
    pub fn new(step: &'static str, fields: Vec<WireField>) -> Self {
        Message { step, fields }
    }

    /// Total wire length in bytes (the Table II accounting unit).
    pub fn wire_len(&self) -> usize {
        self.fields.iter().map(|f| f.bytes.len()).sum()
    }

    /// Canonical encoding: field payloads concatenated in order.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        for f in &self.fields {
            out.extend_from_slice(&f.bytes);
        }
        out
    }

    /// Decodes a byte string against an expected field layout.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Decode`] when the total length does not match
    /// the layout.
    pub fn decode(
        step: &'static str,
        layout: &[FieldKind],
        bytes: &[u8],
    ) -> Result<Self, ProtocolError> {
        let expect: usize = layout.iter().map(|k| k.wire_len()).sum();
        if bytes.len() != expect {
            return Err(ProtocolError::Decode);
        }
        let mut fields = Vec::with_capacity(layout.len());
        let mut offset = 0;
        for kind in layout {
            let len = kind.wire_len();
            fields.push(WireField::new(*kind, bytes[offset..offset + len].to_vec()));
            offset += len;
        }
        Ok(Message { step, fields })
    }

    /// Returns the payload of the first field of `kind`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Decode`] when the field is absent.
    pub fn field(&self, kind: FieldKind) -> Result<&[u8], ProtocolError> {
        self.fields
            .iter()
            .find(|f| f.kind == kind)
            .map(|f| f.bytes.as_slice())
            .ok_or(ProtocolError::Decode)
    }

    /// A `"Label(len)"` rendering of the field list, matching the
    /// paper's Table II cells (e.g. `"ID(16), XG(64)"`).
    pub fn describe_fields(&self) -> String {
        self.fields
            .iter()
            .map(|f| format!("{}({})", f.kind.label(), f.bytes.len()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_sizes_match_paper() {
        assert_eq!(FieldKind::Id.wire_len(), 16);
        assert_eq!(FieldKind::Nonce.wire_len(), 32);
        assert_eq!(FieldKind::Cert.wire_len(), 101);
        assert_eq!(FieldKind::Signature.wire_len(), 64);
        assert_eq!(FieldKind::EphemeralPoint.wire_len(), 64);
        assert_eq!(FieldKind::Response.wire_len(), 64);
        assert_eq!(FieldKind::Mac.wire_len(), 32);
        assert_eq!(FieldKind::Hello.wire_len(), 32);
        assert_eq!(FieldKind::Ack.wire_len(), 1);
        assert_eq!(FieldKind::Fin.wire_len(), 96);
        assert_eq!(FieldKind::Finish.wire_len(), 197);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let msg = Message::new(
            "A1",
            vec![
                WireField::new(FieldKind::Id, vec![1; 16]),
                WireField::new(FieldKind::EphemeralPoint, vec![2; 64]),
            ],
        );
        assert_eq!(msg.wire_len(), 80);
        let bytes = msg.encode();
        let decoded =
            Message::decode("A1", &[FieldKind::Id, FieldKind::EphemeralPoint], &bytes).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn decode_rejects_wrong_length() {
        assert!(Message::decode("A1", &[FieldKind::Id], &[0u8; 15]).is_err());
        assert!(Message::decode("A1", &[FieldKind::Id], &[0u8; 17]).is_err());
    }

    #[test]
    #[should_panic(expected = "must be 16 bytes")]
    fn field_length_mismatch_panics() {
        WireField::new(FieldKind::Id, vec![0; 15]);
    }

    #[test]
    fn field_lookup() {
        let msg = Message::new(
            "B2",
            vec![
                WireField::new(FieldKind::Cert, vec![0; 101]),
                WireField::new(FieldKind::Nonce, vec![1; 32]),
                WireField::new(FieldKind::Nonce, vec![2; 32]),
            ],
        );
        assert_eq!(msg.field(FieldKind::Cert).unwrap().len(), 101);
        // A repeated kind yields its first occurrence.
        assert_eq!(msg.field(FieldKind::Nonce).unwrap()[0], 1);
        assert!(msg.field(FieldKind::Ack).is_err());
    }

    #[test]
    fn describe_matches_paper_style() {
        let msg = Message::new(
            "A1",
            vec![
                WireField::new(FieldKind::Id, vec![0; 16]),
                WireField::new(FieldKind::EphemeralPoint, vec![0; 64]),
            ],
        );
        assert_eq!(msg.describe_fields(), "ID(16), XG(64)");
    }
}
