//! The forward-secrecy experiment (threat T1, "past data exposure").
//!
//! Scenario: a passive eavesdropper records a complete handshake plus
//! encrypted application traffic. *Later*, the devices' long-term
//! private keys leak (node capture, extraction, disclosure — the
//! OWASP/SEC-Consult scenarios the paper's introduction cites). Can
//! the recorded traffic now be decrypted?
//!
//! * **S-ECDSA**: yes. The premaster is `Prk_A·Q_B`; the attacker
//!   holds `Prk_A`, derives `Q_B` implicitly from the certificate in
//!   the recorded `B1`, reads the nonces from `A1`/`B1`, and re-runs
//!   the KDF.
//! * **STS**: no. The premaster is `X_A·XG_B` over ephemeral secrets
//!   that were erased when the session closed; the long-term keys only
//!   ever signed. The best the attacker can do is the static secret —
//!   which derives a different key.

use super::TestDeployment;
use ecq_baselines::s_ecdsa;
use ecq_cert::ImplicitCert;
use ecq_p256::point::AffinePoint;
use ecq_p256::scalar::Scalar;
use ecq_proto::{FieldKind, Message, ProtocolError, ProtocolKind, SessionKey, Transcript};
use ecq_sts::{establish, StsConfig};

/// Everything a passive eavesdropper captures.
#[derive(Debug)]
pub struct CapturedSession {
    /// The recorded handshake.
    pub transcript: Transcript,
    /// Recorded ciphertext of application data sent under the session
    /// key after establishment.
    pub ciphertext: Vec<u8>,
    /// The true plaintext (known to the experiment for verification,
    /// not to the attacker).
    pub plaintext: Vec<u8>,
    /// The true session key (for verification only).
    pub true_key: SessionKey,
}

/// CTR direction byte used for the recorded application data.
const APP_DIR: u8 = 0xDD;

fn encrypt_app_data(key: &SessionKey, plaintext: &[u8]) -> Vec<u8> {
    let mut data = plaintext.to_vec();
    key.apply_stream(APP_DIR, &mut data);
    data
}

/// Runs an S-ECDSA session and records it.
///
/// # Errors
///
/// Propagates handshake errors.
pub fn capture_s_ecdsa(deployment: &mut TestDeployment) -> Result<CapturedSession, ProtocolError> {
    let out = ecq_baselines::establish(
        ProtocolKind::SEcdsa,
        &deployment.alice,
        &deployment.bob,
        0,
        &mut deployment.rng,
    )?;
    let plaintext = b"BMS cell telemetry: v=3.71V t=25.4C soc=81%".to_vec();
    let ciphertext = encrypt_app_data(&out.initiator_key, &plaintext);
    Ok(CapturedSession {
        transcript: out.transcript,
        ciphertext,
        plaintext,
        true_key: out.initiator_key,
    })
}

/// Runs an STS session and records it.
///
/// # Errors
///
/// Propagates handshake errors.
pub fn capture_sts(deployment: &mut TestDeployment) -> Result<CapturedSession, ProtocolError> {
    let out = establish(
        &deployment.alice,
        &deployment.bob,
        &StsConfig::default(),
        &mut deployment.rng,
    )?;
    let plaintext = b"BMS cell telemetry: v=3.71V t=25.4C soc=81%".to_vec();
    let ciphertext = encrypt_app_data(&out.initiator_key, &plaintext);
    Ok(CapturedSession {
        transcript: out.transcript,
        ciphertext,
        plaintext,
        true_key: out.initiator_key,
    })
}

/// Offline S-ECDSA decryption with a leaked long-term key.
///
/// The attacker holds `leaked_alice_private` and the public CA key;
/// everything else is read from the recorded transcript.
///
/// Returns the recovered plaintext when the attack succeeds.
pub fn s_ecdsa_offline_decrypt(
    captured: &CapturedSession,
    leaked_alice_private: &Scalar,
    ca_public: &AffinePoint,
) -> Option<Vec<u8>> {
    // Parse A1 and B1 from the recorded bytes.
    let a1 = Message::decode(
        "A1",
        &[FieldKind::Id, FieldKind::Nonce],
        &captured.transcript.messages().first()?.bytes,
    )
    .ok()?;
    let b1 = Message::decode(
        "B1",
        &[
            FieldKind::Id,
            FieldKind::Cert,
            FieldKind::Signature,
            FieldKind::Nonce,
        ],
        &captured.transcript.messages().get(1)?.bytes,
    )
    .ok()?;

    let nonce_a = a1.field(FieldKind::Nonce).ok()?;
    let nonce_b = b1.field(FieldKind::Nonce).ok()?;
    let cert_b = ImplicitCert::from_bytes(b1.field(FieldKind::Cert).ok()?).ok()?;

    // Implicit public-key derivation needs only public material.
    let q_b = ecq_cert::reconstruct_public_key(&cert_b, ca_public).ok()?;
    let premaster = ecq_p256::ecdh::shared_secret(leaked_alice_private, &q_b).ok()?;
    let salt = [nonce_a, nonce_b].concat();
    let key = SessionKey::derive(premaster.as_slice(), &salt, s_ecdsa::KDF_LABEL);

    let mut plain = captured.ciphertext.clone();
    key.apply_stream(APP_DIR, &mut plain);
    Some(plain)
}

/// The best offline attack against a recorded STS session with leaked
/// long-term keys: recompute the *static* secret and try it (with the
/// recorded ephemeral points as salt). Returns the candidate
/// "plaintext" — which the caller will find to be garbage.
pub fn sts_offline_decrypt_attempt(
    captured: &CapturedSession,
    leaked_alice_private: &Scalar,
    ca_public: &AffinePoint,
) -> Option<Vec<u8>> {
    let a1 = Message::decode(
        "A1",
        &[FieldKind::Id, FieldKind::EphemeralPoint],
        &captured.transcript.messages().first()?.bytes,
    )
    .ok()?;
    let b1 = Message::decode(
        "B1",
        &[
            FieldKind::Id,
            FieldKind::Cert,
            FieldKind::EphemeralPoint,
            FieldKind::Response,
        ],
        &captured.transcript.messages().get(1)?.bytes,
    )
    .ok()?;
    let xg_a = a1.field(FieldKind::EphemeralPoint).ok()?;
    let xg_b = b1.field(FieldKind::EphemeralPoint).ok()?;
    let cert_b = ImplicitCert::from_bytes(b1.field(FieldKind::Cert).ok()?).ok()?;

    // The attacker knows Prk_A and Q_B — but the session premaster was
    // X_A·XG_B, and X_A is gone. The static secret is the only thing
    // derivable:
    let q_b = ecq_cert::reconstruct_public_key(&cert_b, ca_public).ok()?;
    let static_secret = ecq_p256::ecdh::shared_secret(leaked_alice_private, &q_b).ok()?;
    let salt = [xg_a, xg_b].concat();
    let candidate = SessionKey::derive(static_secret.as_slice(), &salt, ecq_sts::KDF_LABEL);

    let mut plain = captured.ciphertext.clone();
    candidate.apply_stream(APP_DIR, &mut plain);
    Some(plain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s_ecdsa_past_traffic_decrypts_after_key_leak() {
        let mut d = TestDeployment::new(301);
        let captured = capture_s_ecdsa(&mut d).unwrap();
        let leaked = d.alice.keys.private; // the later compromise
        let recovered =
            s_ecdsa_offline_decrypt(&captured, &leaked, &d.ca.public_key()).expect("attack runs");
        assert_eq!(
            recovered, captured.plaintext,
            "S-ECDSA lacks forward secrecy"
        );
    }

    #[test]
    fn s_ecdsa_attack_also_works_with_bobs_key() {
        // Symmetric: either side's leak suffices. With Bob's key the
        // attacker derives Q_A from Cert_A in A2 — equivalent attack,
        // demonstrated through the recomputed static secret.
        let mut d = TestDeployment::new(302);
        let captured = capture_s_ecdsa(&mut d).unwrap();
        // Recompute from Bob's side directly (Q_A from credentials is
        // public via the certificate):
        let premaster =
            ecq_p256::ecdh::shared_secret(&d.bob.keys.private, &d.alice.keys.public).unwrap();
        let a1 = &captured.transcript.messages()[0].bytes;
        let b1 = &captured.transcript.messages()[1].bytes;
        let salt = [&a1[16..48], &b1[181..213]].concat();
        let key = SessionKey::derive(premaster.as_slice(), &salt, s_ecdsa::KDF_LABEL);
        assert_eq!(key, captured.true_key);
    }

    #[test]
    fn sts_past_traffic_survives_key_leak() {
        let mut d = TestDeployment::new(303);
        let captured = capture_sts(&mut d).unwrap();
        let leaked_a = d.alice.keys.private;
        let leaked_b = d.bob.keys.private;
        let attempt =
            sts_offline_decrypt_attempt(&captured, &leaked_a, &d.ca.public_key()).unwrap();
        assert_ne!(attempt, captured.plaintext, "STS must keep forward secrecy");
        // Even with BOTH long-term keys the static secret is wrong.
        let attempt_b =
            sts_offline_decrypt_attempt(&captured, &leaked_b, &d.ca.public_key()).unwrap();
        assert_ne!(attempt_b, captured.plaintext);
    }

    #[test]
    fn sts_key_is_not_the_static_key() {
        let mut d = TestDeployment::new(304);
        let captured = capture_sts(&mut d).unwrap();
        let static_secret =
            ecq_p256::ecdh::shared_secret(&d.alice.keys.private, &d.bob.keys.public).unwrap();
        // No salt choice makes the static secret equal the session key.
        let candidate = SessionKey::derive(static_secret.as_slice(), b"", ecq_sts::KDF_LABEL);
        assert_ne!(candidate, captured.true_key);
    }
}
