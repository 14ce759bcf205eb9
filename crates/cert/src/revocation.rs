//! Certificate revocation.
//!
//! ECQV certificates carry no signature to invalidate, so revocation in
//! the paper's centralized architecture (Fig. 1) is a *distribution*
//! problem: the CA gateway maintains a list of revoked serials and
//! pushes it to devices, which must consult it before (and during)
//! sessions. This module provides the registry plus a compact wire
//! encoding suitable for a CAN-FD/ISO-TP push.
//!
//! The node-capture row of Table III motivates this: once a device is
//! known compromised, forward secrecy protects *past* traffic, but only
//! revocation stops *future* sessions.

use crate::certificate::{field, ImplicitCert};
use crate::CertError;
use std::collections::BTreeSet;

/// Magic prefix of the revocation-list wire encoding.
const MAGIC: [u8; 2] = *b"RL";
/// Encoding version.
const VERSION: u8 = 1;

/// A CA-issued list of revoked certificate serials.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RevocationList {
    /// Monotonic list sequence number (devices keep the newest).
    pub sequence: u32,
    revoked: BTreeSet<u64>,
}

impl RevocationList {
    /// Creates an empty list with sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of revoked serials.
    pub fn len(&self) -> usize {
        self.revoked.len()
    }

    /// Whether no serial is revoked.
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty()
    }

    /// Revokes a serial and bumps the sequence number.
    /// Returns `true` when the serial was newly revoked.
    pub fn revoke(&mut self, serial: u64) -> bool {
        let inserted = self.revoked.insert(serial);
        if inserted {
            self.sequence += 1;
        }
        inserted
    }

    /// Whether a serial is revoked.
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revoked.contains(&serial)
    }

    /// Certificate-level check combining revocation and validity:
    /// the gate a device applies before accepting a peer.
    ///
    /// # Errors
    ///
    /// * [`CertError::Revoked`] when the serial is on the list;
    /// * [`CertError::Expired`] outside the validity window;
    /// * [`CertError::ReconstructionMismatch`] is *not* checked here —
    ///   possession is the session protocol's job.
    pub fn check(&self, cert: &ImplicitCert, now: u32) -> Result<(), CertError> {
        if self.is_revoked(cert.serial) {
            return Err(CertError::Revoked);
        }
        if !cert.is_valid_at(now) {
            return Err(CertError::Expired);
        }
        Ok(())
    }

    /// Compact wire encoding:
    /// `"RL" ‖ version ‖ sequence(4) ‖ count(4) ‖ serials(8·count)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(11 + 8 * self.revoked.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&(self.revoked.len() as u32).to_be_bytes());
        for serial in &self.revoked {
            out.extend_from_slice(&serial.to_be_bytes());
        }
        out
    }

    /// Parses the wire encoding.
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidEncoding`] on malformed input, including a
    /// repeated serial: [`Self::to_bytes`] never emits duplicates, and
    /// silently deduplicating would leave `len()` disagreeing with the
    /// wire `count` (and mask a corrupted or forged list).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CertError> {
        if bytes.len() < 11 || bytes[0..2] != MAGIC || bytes[2] != VERSION {
            return Err(CertError::InvalidEncoding);
        }
        let sequence = u32::from_be_bytes(field(bytes, 3)?);
        let count = u32::from_be_bytes(field(bytes, 7)?) as usize;
        let (serials, tail) = bytes[11..].as_chunks::<8>();
        if serials.len() != count || !tail.is_empty() {
            return Err(CertError::InvalidEncoding);
        }
        let mut revoked = BTreeSet::new();
        for serial in serials {
            if !revoked.insert(u64::from_be_bytes(*serial)) {
                return Err(CertError::InvalidEncoding);
            }
        }
        Ok(RevocationList { sequence, revoked })
    }

    /// Whether `other` supersedes this list (devices keep the higher
    /// sequence; ties keep the current list).
    pub fn superseded_by(&self, other: &RevocationList) -> bool {
        other.sequence > self.sequence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::DeviceId;
    use ecq_p256::point::mul_generator_vartime;
    use ecq_p256::scalar::Scalar;

    fn cert(serial: u64) -> ImplicitCert {
        ImplicitCert::new(
            serial,
            DeviceId::from_label("CA"),
            DeviceId::from_label("dev"),
            0,
            100,
            &mul_generator_vartime(&Scalar::from_u64(7)),
        )
    }

    #[test]
    fn revoke_and_check() {
        let mut rl = RevocationList::new();
        assert!(rl.is_empty());
        assert!(rl.revoke(42));
        assert!(!rl.revoke(42), "double revocation is a no-op");
        assert!(rl.is_revoked(42));
        assert!(!rl.is_revoked(43));
        assert_eq!(rl.len(), 1);
        assert_eq!(rl.sequence, 1);

        assert_eq!(rl.check(&cert(42), 10).unwrap_err(), CertError::Revoked);
        assert!(rl.check(&cert(43), 10).is_ok());
        assert_eq!(rl.check(&cert(43), 200).unwrap_err(), CertError::Expired);
        // Revocation takes precedence over expiry.
        assert_eq!(rl.check(&cert(42), 200).unwrap_err(), CertError::Revoked);
    }

    #[test]
    fn wire_roundtrip() {
        let mut rl = RevocationList::new();
        for s in [1u64, 99, u64::MAX] {
            rl.revoke(s);
        }
        let parsed = RevocationList::from_bytes(&rl.to_bytes()).unwrap();
        assert_eq!(parsed, rl);
        assert_eq!(parsed.sequence, 3);
    }

    #[test]
    fn rejects_malformed() {
        assert!(RevocationList::from_bytes(b"").is_err());
        assert!(RevocationList::from_bytes(b"XX\x01\0\0\0\0\0\0\0\0").is_err());
        let mut good = RevocationList::new();
        good.revoke(5);
        let mut bytes = good.to_bytes();
        bytes.pop(); // truncate a serial
        assert!(RevocationList::from_bytes(&bytes).is_err());
        // Wrong version.
        let mut bytes = good.to_bytes();
        bytes[2] = 9;
        assert!(RevocationList::from_bytes(&bytes).is_err());
        // Every strict prefix of a valid list.
        good.revoke(9);
        let bytes = good.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                RevocationList::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes"
            );
        }
    }

    #[test]
    fn rejects_duplicate_serials() {
        // Hand-craft a list whose count says 2 but repeats one serial:
        // accepting it would make len() == 1 disagree with the wire.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RL\x01");
        bytes.extend_from_slice(&7u32.to_be_bytes()); // sequence
        bytes.extend_from_slice(&2u32.to_be_bytes()); // count
        bytes.extend_from_slice(&5u64.to_be_bytes());
        bytes.extend_from_slice(&5u64.to_be_bytes());
        assert_eq!(
            RevocationList::from_bytes(&bytes).unwrap_err(),
            CertError::InvalidEncoding
        );
    }

    #[test]
    fn sequence_supersession() {
        let mut old = RevocationList::new();
        old.revoke(1);
        let mut new = old.clone();
        new.revoke(2);
        assert!(old.superseded_by(&new));
        assert!(!new.superseded_by(&old));
        assert!(!old.superseded_by(&old.clone()));
    }

    #[test]
    fn empty_list_encodes_minimally() {
        let rl = RevocationList::new();
        assert_eq!(rl.to_bytes().len(), 11);
        // Fits a single CAN-FD frame even with dozens of entries via
        // ISO-TP; 6 entries ≈ 59 B — single frame.
        let mut six = RevocationList::new();
        for s in 0..6u64 {
            six.revoke(s);
        }
        assert!(six.to_bytes().len() <= 62);
    }
}
