//! Device credentials: the output of the paper's deployment phases
//! (1) device authentication and (2) certificate derivation (Fig. 1).
//!
//! Every session protocol starts from a [`Credentials`] bundle: the
//! device identity, its implicit certificate, the reconstructed key
//! pair and the CA public key needed to derive peers' keys.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::requester::CertRequester;
use ecq_cert::{CertError, DeviceId, ImplicitCert};
use ecq_crypto::zeroize::Zeroize;
use ecq_crypto::HmacDrbg;
use ecq_p256::keys::KeyPair;
use ecq_p256::point::AffinePoint;

/// Long-term credential state of one device. Every copy wipes its
/// private key when dropped.
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

impl Zeroize for Credentials {
    /// Wipes the private key `Prk_X`; the rest is public.
    fn zeroize(&mut self) {
        self.keys.zeroize();
    }
}

impl Drop for Credentials {
    /// Wipes the long-term private key: `KeyPair` is `Copy` and wipes
    /// nothing itself, so every holder (endpoints, fleet devices, the
    /// service daemon) relies on this.
    fn drop(&mut self) {
        self.zeroize();
    }
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
    fn zeroize_wipes_only_the_private_key() {
        let mut rng = HmacDrbg::from_seed(83);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let creds = Credentials::provision(&ca, DeviceId::from_label("ecu"), 0, 100, &mut rng)
            .expect("provisioning succeeds");
        let mut wiped = creds.clone();
        wiped.zeroize();
        assert!(wiped.keys.private.is_zero());
        assert!(!creds.keys.private.is_zero());
        assert_eq!(wiped.id, creds.id);
        assert_eq!(wiped.cert, creds.cert);
        assert_eq!(wiped.keys.public, creds.keys.public);
        assert_eq!(wiped.ca_public, creds.ca_public);
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
