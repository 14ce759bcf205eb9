//! Key-compromise impersonation (KCI).
//!
//! The paper's introduction singles KCI out: "a man-in-the-middle
//! attack where an attacker can impersonate the trusted server side to
//! manipulate the key derivation process" \[12\]. The attacker model:
//! the *victim's* long-term key has leaked; can the attacker now
//! impersonate *someone else* to the victim?
//!
//! * **SCIANC** falls: authentication MACs are keyed by the session
//!   key, and the session key is `KDF(Prk_victim·Q_peer, nonces)` —
//!   computable from the victim's leaked key plus public certificates.
//!   The attacker answers the victim's handshake as "bob" and passes
//!   authentication without ever holding Bob's key.
//! * **STS** resists: the attacker can pick its own ephemeral (and
//!   thus knows the session key), but the authentication response must
//!   contain a signature under *Bob's* implicitly certified key over
//!   the ephemeral exchange — which the victim's leaked key cannot
//!   produce.

use super::TestDeployment;
use ecq_baselines::scianc::{self, SciancInitiator};
use ecq_crypto::HmacDrbg;
use ecq_p256::encoding::{decode_raw, encode_raw};
use ecq_p256::point::mul_generator_vartime;
use ecq_p256::scalar::Scalar;
use ecq_proto::{
    Endpoint, FieldKind, Message, ProtocolError, Role, SessionKey, StepOutput, WireField,
};
use ecq_sts::auth::{auth_response, DIR_RESPONDER};
use ecq_sts::{StsConfig, StsInitiator};

/// Outcome of a KCI attempt against a victim initiator.
#[derive(Debug, PartialEq, Eq)]
pub enum KciOutcome {
    /// The victim accepted the impersonation AND the attacker knows
    /// the established session key — full compromise.
    Compromised,
    /// The victim rejected the handshake.
    Rejected(ProtocolError),
}

/// KCI against SCIANC: impersonate Bob to Alice using only Alice's
/// leaked private key and public certificates.
pub fn scianc_kci(deployment: &mut TestDeployment) -> KciOutcome {
    let leaked_alice_priv: Scalar = deployment.alice.keys.private; // the compromise
    let bob_cert = deployment.bob.cert; // public
    let ca_public = deployment.ca.public_key(); // public

    let mut alice = SciancInitiator::new(deployment.alice.clone(), 0, &mut deployment.rng);
    let a1 = alice.step(None).expect("kickoff").into_sent().expect("A1");
    let nonce_a = a1.field(FieldKind::Nonce).expect("nonce").to_vec();

    // Attacker crafts B1 with Bob's public certificate and its own nonce.
    let mut attacker_rng = HmacDrbg::from_seed(0xA77A_C0DE);
    let nonce_e = attacker_rng.bytes32();
    let b1 = Message::new(
        "B1",
        vec![
            WireField::new(FieldKind::Id, bob_cert.subject.as_bytes().to_vec()),
            WireField::new(FieldKind::Nonce, nonce_e.to_vec()),
            WireField::new(FieldKind::Cert, bob_cert.to_bytes().to_vec()),
        ],
    );

    let a2 = match alice.step(Some(&b1)) {
        Ok(StepOutput::Send(m)) => m,
        Ok(_) => return KciOutcome::Rejected(ProtocolError::UnexpectedMessage),
        Err(e) => return KciOutcome::Rejected(e),
    };

    // The attacker derives the same session key from the LEAKED key:
    // KS = KDF(Prk_alice · Q_bob, nonce_a ‖ nonce_e).
    let q_bob = ecq_cert::reconstruct_public_key(&bob_cert, &ca_public).expect("public derivation");
    let premaster = ecq_p256::ecdh::shared_secret(&leaked_alice_priv, &q_bob).expect("ecdh");
    let salt = [nonce_a.as_slice(), nonce_e.as_slice()].concat();
    let ks = SessionKey::derive(premaster.as_slice(), &salt, scianc::KDF_LABEL);

    // Sanity: the attacker's A2 check confirms it holds Alice's key.
    let expect_a2 = scianc::auth_mac(&ks, Role::Initiator, &nonce_a, &nonce_e);
    if a2.field(FieldKind::Mac).expect("mac") != expect_a2 {
        return KciOutcome::Rejected(ProtocolError::AuthenticationFailed);
    }

    // Forge Bob's authentication MAC.
    let forged = scianc::auth_mac(&ks, Role::Responder, &nonce_a, &nonce_e);
    let b2 = Message::new("B2", vec![WireField::new(FieldKind::Mac, forged.to_vec())]);
    match alice.step(Some(&b2)) {
        Ok(_) if alice.is_established() => KciOutcome::Compromised,
        Ok(_) => KciOutcome::Rejected(ProtocolError::Stalled),
        Err(e) => KciOutcome::Rejected(e),
    }
}

/// KCI against STS: the same attacker model. The attacker controls
/// the session key (its own ephemeral) but must forge Bob's signature
/// over the ephemeral exchange — with only Alice's key, the best
/// forgery is a signature under the *wrong* key.
pub fn sts_kci(deployment: &mut TestDeployment) -> KciOutcome {
    let leaked_alice_priv = deployment.alice.keys.private;
    let bob_cert = deployment.bob.cert;

    let config = StsConfig::default();
    let mut alice = StsInitiator::new(deployment.alice.clone(), config, &mut deployment.rng);
    let a1 = alice.step(None).expect("kickoff").into_sent().expect("A1");
    let xg_a: [u8; 64] = a1
        .field(FieldKind::EphemeralPoint)
        .expect("xg")
        .try_into()
        .expect("64 bytes");

    // Attacker's own ephemeral: it will know the session key.
    let x_e = Scalar::from_u64(0x5EED_5EED);
    let xg_e = encode_raw(&mul_generator_vartime(&x_e));
    let alice_point = decode_raw(&xg_a).expect("valid point");
    let premaster = ecq_p256::ecdh::shared_secret(&x_e, &alice_point).expect("ecdh");
    let salt = [xg_a.as_slice(), xg_e.as_slice()].concat();
    let ks = SessionKey::derive(premaster.as_slice(), &salt, ecq_sts::KDF_LABEL);

    // Forge the response: the only private key available is Alice's.
    let mut scratch = ecq_proto::OpTrace::new();
    let resp = auth_response(
        &ks,
        &leaked_alice_priv,
        &xg_e,
        &xg_a,
        DIR_RESPONDER,
        &mut scratch,
    );

    let b1 = Message::new(
        "B1",
        vec![
            WireField::new(FieldKind::Id, bob_cert.subject.as_bytes().to_vec()),
            WireField::new(FieldKind::Cert, bob_cert.to_bytes().to_vec()),
            WireField::new(FieldKind::EphemeralPoint, xg_e.to_vec()),
            WireField::new(FieldKind::Response, resp.to_vec()),
        ],
    );
    match alice.step(Some(&b1)) {
        Ok(_) if alice.is_established() => KciOutcome::Compromised,
        Ok(_) => {
            // Handshake continued; it can only complete if the forged
            // signature verified — which it must not have.
            KciOutcome::Compromised
        }
        Err(e) => KciOutcome::Rejected(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scianc_falls_to_kci() {
        let mut d = TestDeployment::new(331);
        assert_eq!(scianc_kci(&mut d), KciOutcome::Compromised);
    }

    #[test]
    fn sts_resists_kci() {
        let mut d = TestDeployment::new(332);
        assert_eq!(
            sts_kci(&mut d),
            KciOutcome::Rejected(ProtocolError::AuthenticationFailed)
        );
    }
}
