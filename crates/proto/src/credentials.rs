//! Device credentials: the output of the paper's deployment phases
//! (1) device authentication and (2) certificate derivation (Fig. 1).
//!
//! Every session protocol starts from a [`Credentials`] bundle: the
//! device identity, its implicit certificate, the reconstructed key
//! pair and the CA public key needed to derive peers' keys.

use crate::ProtocolError;
use ecq_cert::ca::CertificateAuthority;
use ecq_cert::requester::CertRequester;
use ecq_cert::{CertError, DeviceId, ImplicitCert};
use ecq_crypto::HmacDrbg;
use ecq_p256::keys::KeyPair;
use ecq_p256::point::AffinePoint;

/// Long-term credential state of one device. The private key lives in
/// [`KeyPair`], which wipes it when the credentials (or a clone of
/// them) drop.
#[derive(Clone, Debug)]
pub struct Credentials {
    /// The device identity.
    pub id: DeviceId,
    /// The device's implicit certificate (`Cert_X`).
    pub cert: ImplicitCert,
    /// The ECQV-reconstructed key pair (`Prk_X`, `Puk_X`).
    pub keys: KeyPair,
    /// The CA public key `Q_CA` used for implicit derivation of peers.
    pub ca_public: AffinePoint,
}

impl Credentials {
    /// Runs the full provisioning flow against a CA: request →
    /// issuance → key reconstruction (the paper's phases 1–2).
    ///
    /// # Errors
    ///
    /// Propagates [`CertError`] from issuance or reconstruction.
    pub fn provision(
        ca: &CertificateAuthority,
        id: DeviceId,
        valid_from: u32,
        valid_to: u32,
        rng: &mut HmacDrbg,
    ) -> Result<Self, CertError> {
        let requester = CertRequester::generate(id, rng);
        let issued = ca.issue(&requester.request(), valid_from, valid_to, rng)?;
        let keys = requester.reconstruct(&issued, &ca.public_key())?;
        Ok(Credentials {
            id,
            cert: issued.certificate,
            keys,
            ca_public: ca.public_key(),
        })
    }

    /// Certificate renewal: re-runs the request/issue flow for the
    /// same identity with a new validity window. ECQV renewal is a
    /// fresh issuance — the new certificate embeds a fresh CA blinding
    /// and the device draws a fresh request secret, so the long-term
    /// key pair rotates with the certificate. This is exactly the
    /// paper's §I observation about static KD: keys "would only be
    /// changed by the change of the certificates".
    ///
    /// # Errors
    ///
    /// Propagates [`CertError`] from issuance or reconstruction.
    pub fn renew(
        &self,
        ca: &CertificateAuthority,
        valid_from: u32,
        valid_to: u32,
        rng: &mut HmacDrbg,
    ) -> Result<Self, CertError> {
        Self::provision(ca, self.id, valid_from, valid_to, rng)
    }
}

/// Checks a peer's certificate against the identity the peer claimed
/// on the wire, before any key is derived from it: the certificate
/// must name `claimed` and be valid at `now`. Every state machine runs
/// this one check.
///
/// # Errors
///
/// [`ProtocolError::AuthenticationFailed`] when the subject is not
/// `claimed`; otherwise `ProtocolError::Cert(CertError::Expired)` when
/// `now` is outside the validity window.
pub fn check_peer_cert(cert: &ImplicitCert, claimed: &[u8], now: u32) -> Result<(), ProtocolError> {
    if cert.subject.as_bytes() != claimed {
        return Err(ProtocolError::AuthenticationFailed);
    }
    if !cert.is_valid_at(now) {
        return Err(ProtocolError::Cert(CertError::Expired));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::reconstruct_public_key;

    #[test]
    fn provisioning_yields_consistent_credentials() {
        let mut rng = HmacDrbg::from_seed(81);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let creds = Credentials::provision(&ca, DeviceId::from_label("ecu"), 0, 100, &mut rng)
            .expect("provisioning succeeds");
        assert!(creds.keys.is_consistent());
        assert_eq!(creds.cert.subject, creds.id);
        assert_eq!(
            reconstruct_public_key(&creds.cert, &creds.ca_public).unwrap(),
            creds.keys.public
        );
    }

    #[test]
    fn two_devices_same_ca_interoperate() {
        let mut rng = HmacDrbg::from_seed(82);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let a = Credentials::provision(&ca, DeviceId::from_label("a"), 0, 100, &mut rng).unwrap();
        let b = Credentials::provision(&ca, DeviceId::from_label("b"), 0, 100, &mut rng).unwrap();
        // Each can implicitly derive the other's public key.
        assert_eq!(
            reconstruct_public_key(&b.cert, &a.ca_public).unwrap(),
            b.keys.public
        );
        assert_eq!(
            reconstruct_public_key(&a.cert, &b.ca_public).unwrap(),
            a.keys.public
        );
    }
}
