//! The minimal implicit certificate encoding.
//!
//! The paper's Table II uses "the minimal certificate encoding with 101
//! total bytes" (citing SEC4). This module defines a concrete 101-byte
//! layout carrying the compressed public-key reconstruction point plus
//! the identification and validity metadata a deployment needs:
//!
//! | offset | len | field |
//! |-------:|----:|-------|
//! |      0 |   2 | magic `"EQ"` |
//! |      2 |   1 | version (1) |
//! |      3 |   8 | serial (BE) |
//! |     11 |  16 | issuer id |
//! |     27 |  16 | subject id |
//! |     43 |   4 | valid-from (BE seconds) |
//! |     47 |   4 | valid-to (BE seconds) |
//! |     51 |   1 | key-usage flags |
//! |     52 |   1 | curve id (0x17 = secp256r1) |
//! |     53 |  33 | compressed reconstruction point `P_U` |
//! |     86 |  15 | extension/profile bytes |
//!
//! Every byte of the certificate is covered by `e = H_n(Cert)`, so any
//! tamper changes the reconstructed public key and breaks the
//! possession proof.

use crate::id::DeviceId;
use crate::CertError;
use ecq_p256::encoding::{decode_compressed, encode_compressed, COMPRESSED_LEN};
use ecq_p256::point::AffinePoint;

/// Total length of the minimal certificate encoding (matches the
/// paper's `Cert(101)`).
pub const CERT_LEN: usize = 101;

const MAGIC: [u8; 2] = *b"EQ";
const VERSION: u8 = 1;
/// IANA/SEC curve identifier for secp256r1.
pub const CURVE_SECP256R1: u8 = 0x17;
const EXT_LEN: usize = 15;

/// The `N`-byte field at offset `at` of an encoding.
///
/// # Errors
///
/// [`CertError::InvalidEncoding`] when the encoding ends before it.
pub(crate) fn field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], CertError> {
    bytes
        .get(at..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .ok_or(CertError::InvalidEncoding)
}

/// An ECQV implicit certificate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ImplicitCert {
    /// Monotonic serial number assigned by the CA.
    pub serial: u64,
    /// Identifier of the issuing CA.
    pub issuer: DeviceId,
    /// Identifier of the certified device.
    pub subject: DeviceId,
    /// Validity start, seconds (epoch chosen by the deployment).
    pub valid_from: u32,
    /// Validity end, seconds.
    pub valid_to: u32,
    /// Key-usage flag bits (deployment-defined).
    pub key_usage: u8,
    /// Compressed public reconstruction point `P_U`.
    pub point: [u8; COMPRESSED_LEN],
    /// Extension/profile bytes (deployment-defined, hashed like all
    /// other fields).
    pub extensions: [u8; EXT_LEN],
}

impl ImplicitCert {
    /// Serializes to the canonical 101-byte encoding.
    pub fn to_bytes(&self) -> [u8; CERT_LEN] {
        let mut out = [0u8; CERT_LEN];
        out[0..2].copy_from_slice(&MAGIC);
        out[2] = VERSION;
        out[3..11].copy_from_slice(&self.serial.to_be_bytes());
        out[11..27].copy_from_slice(self.issuer.as_bytes());
        out[27..43].copy_from_slice(self.subject.as_bytes());
        out[43..47].copy_from_slice(&self.valid_from.to_be_bytes());
        out[47..51].copy_from_slice(&self.valid_to.to_be_bytes());
        out[51] = self.key_usage;
        out[52] = CURVE_SECP256R1;
        out[53..86].copy_from_slice(&self.point);
        out[86..101].copy_from_slice(&self.extensions);
        out
    }

    /// Parses the canonical encoding.
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidEncoding`] on wrong length, magic, version or
    /// curve id. The embedded point is validated lazily by
    /// [`Self::reconstruction_point`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CertError> {
        if bytes.len() != CERT_LEN || bytes[0..2] != MAGIC || bytes[2] != VERSION {
            return Err(CertError::InvalidEncoding);
        }
        if bytes[52] != CURVE_SECP256R1 {
            return Err(CertError::InvalidEncoding);
        }
        Ok(ImplicitCert {
            serial: u64::from_be_bytes(field(bytes, 3)?),
            issuer: DeviceId::from_bytes(field(bytes, 11)?),
            subject: DeviceId::from_bytes(field(bytes, 27)?),
            valid_from: u32::from_be_bytes(field(bytes, 43)?),
            valid_to: u32::from_be_bytes(field(bytes, 47)?),
            key_usage: bytes[51],
            point: field(bytes, 53)?,
            extensions: field(bytes, 86)?,
        })
    }

    /// Decodes the embedded reconstruction point `P_U`
    /// (the `Decode(Cert_X)` of the paper's eq. (1)).
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidPoint`] when the compressed point does not
    /// decode to a curve point.
    pub fn reconstruction_point(&self) -> Result<AffinePoint, CertError> {
        decode_compressed(&self.point).map_err(|_| CertError::InvalidPoint)
    }

    /// Checks the validity window against a deployment timestamp.
    pub fn is_valid_at(&self, now: u32) -> bool {
        self.valid_from <= now && now <= self.valid_to
    }

    /// Builder-style constructor used by the CA.
    pub fn new(
        serial: u64,
        issuer: DeviceId,
        subject: DeviceId,
        valid_from: u32,
        valid_to: u32,
        point: &AffinePoint,
    ) -> Self {
        ImplicitCert {
            serial,
            issuer,
            subject,
            valid_from,
            valid_to,
            key_usage: 0x01, // key agreement + signing
            point: encode_compressed(point),
            extensions: [0u8; EXT_LEN],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_p256::point::mul_generator_vartime;
    use ecq_p256::scalar::Scalar;

    fn sample_cert() -> ImplicitCert {
        ImplicitCert::new(
            42,
            DeviceId::from_label("CA"),
            DeviceId::from_label("alice"),
            100,
            200,
            &mul_generator_vartime(&Scalar::from_u64(9)),
        )
    }

    #[test]
    fn encoding_is_exactly_101_bytes() {
        assert_eq!(sample_cert().to_bytes().len(), CERT_LEN);
        assert_eq!(CERT_LEN, 101);
    }

    #[test]
    fn roundtrip() {
        let cert = sample_cert();
        let parsed = ImplicitCert::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(parsed, cert);
        assert_eq!(
            parsed.reconstruction_point().unwrap(),
            mul_generator_vartime(&Scalar::from_u64(9))
        );
    }

    #[test]
    fn rejects_malformed() {
        let cert = sample_cert();
        let good = cert.to_bytes();

        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert_eq!(
            ImplicitCert::from_bytes(&bad_magic),
            Err(CertError::InvalidEncoding)
        );

        let mut bad_version = good;
        bad_version[2] = 99;
        assert_eq!(
            ImplicitCert::from_bytes(&bad_version),
            Err(CertError::InvalidEncoding)
        );

        let mut bad_curve = good;
        bad_curve[52] = 0x18;
        assert_eq!(
            ImplicitCert::from_bytes(&bad_curve),
            Err(CertError::InvalidEncoding)
        );

        for len in 0..good.len() {
            assert_eq!(
                ImplicitCert::from_bytes(&good[..len]),
                Err(CertError::InvalidEncoding),
                "prefix of {len} bytes"
            );
        }
    }

    #[test]
    fn corrupt_point_detected_on_decode() {
        let mut cert = sample_cert();
        cert.point[0] = 0x05; // invalid SEC1 tag
        assert_eq!(cert.reconstruction_point(), Err(CertError::InvalidPoint));
    }

    #[test]
    fn validity_window() {
        let cert = sample_cert();
        assert!(!cert.is_valid_at(99));
        assert!(cert.is_valid_at(100));
        assert!(cert.is_valid_at(150));
        assert!(cert.is_valid_at(200));
        assert!(!cert.is_valid_at(201));
    }

    #[test]
    fn every_field_affects_encoding() {
        let base = sample_cert().to_bytes();
        let mut c1 = sample_cert();
        c1.serial = 43;
        assert_ne!(c1.to_bytes(), base);
        let mut c2 = sample_cert();
        c2.subject = DeviceId::from_label("bob");
        assert_ne!(c2.to_bytes(), base);
        let mut c3 = sample_cert();
        c3.extensions[14] = 1;
        assert_ne!(c3.to_bytes(), base);
    }
}
