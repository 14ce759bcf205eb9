//! Man-in-the-middle experiments (threat T2).
//!
//! Two attacker models against STS:
//!
//! 1. **Rogue-certificate attacker**: holds a syntactically valid
//!    implicit certificate — but from a different CA. The implicit
//!    derivation (eq. (1)) under the victim's CA key yields a public
//!    key the attacker does not control, so the authentication
//!    response never verifies.
//! 2. **Point-substitution attacker**: relays the handshake but
//!    replaces an ephemeral point with its own (the classic unauth-DH
//!    MitM). The STS signatures cover `XG_own ‖ XG_peer`, so the
//!    substitution breaks verification.

use super::TestDeployment;
use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_p256::encoding::encode_raw;
use ecq_p256::point::mul_generator_vartime;
use ecq_p256::scalar::Scalar;
use ecq_proto::{Credentials, Endpoint, FieldKind, ProtocolError};
use ecq_sts::{StsConfig, StsInitiator, StsResponder};

/// Outcome of a MitM attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum MitmOutcome {
    /// The victim rejected the attacker (the desired result).
    Rejected(ProtocolError),
    /// The victim established a session with the attacker.
    Compromised,
}

/// Attack 1: a rogue-CA attacker answers Alice's STS request with its
/// own certificate chain.
pub fn sts_rogue_certificate(deployment: &mut TestDeployment) -> MitmOutcome {
    // The attacker runs its own CA and provisions itself — everything
    // self-consistent, just not rooted in the victim's CA.
    let mut attacker_rng = HmacDrbg::from_seed(0xEE11);
    let rogue_ca = CertificateAuthority::new(DeviceId::from_label("rogueCA"), &mut attacker_rng);
    let attacker_creds = Credentials::provision(
        &rogue_ca,
        DeviceId::from_label("bob"), // even claims to be bob
        0,
        1000,
        &mut attacker_rng,
    )
    .expect("attacker self-provisioning");

    let config = StsConfig::default();
    let mut alice = StsInitiator::new(deployment.alice.clone(), config, &mut deployment.rng);
    // The attacker plays a fully honest STS responder — with the wrong root.
    let mut attacker = StsResponder::new(attacker_creds, config, &mut attacker_rng);

    let a1 = alice.step(None).expect("kickoff").into_sent().expect("A1");
    let b1 = attacker
        .step(Some(&a1))
        .expect("attacker replies")
        .into_sent()
        .expect("B1");
    match alice.step(Some(&b1)) {
        Err(e) => MitmOutcome::Rejected(e),
        Ok(_) => MitmOutcome::Compromised,
    }
}

/// Attack 2: a relay attacker substitutes Bob's ephemeral point with
/// its own in flight.
pub fn sts_point_substitution(deployment: &mut TestDeployment) -> MitmOutcome {
    let config = StsConfig::default();
    let mut rng_b = HmacDrbg::new(&deployment.rng.bytes32(), b"bob");
    let mut alice = StsInitiator::new(deployment.alice.clone(), config, &mut deployment.rng);
    let mut bob = StsResponder::new(deployment.bob.clone(), config, &mut rng_b);

    let a1 = alice.step(None).expect("kickoff").into_sent().expect("A1");
    let mut b1 = bob
        .step(Some(&a1))
        .expect("bob replies")
        .into_sent()
        .expect("B1");

    // The attacker swaps XG_B for a point it controls.
    let evil_scalar = Scalar::from_u64(0xEEEE);
    let evil_point = encode_raw(&mul_generator_vartime(&evil_scalar));
    for f in &mut b1.fields {
        if f.kind == FieldKind::EphemeralPoint {
            f.bytes = evil_point.to_vec();
        }
    }
    match alice.step(Some(&b1)) {
        Err(e) => MitmOutcome::Rejected(e),
        Ok(_) => MitmOutcome::Compromised,
    }
}

/// Attack 3: a replay attacker records Bob's `B1` from an old session
/// and replays it into a new handshake with Alice. The old signature
/// covers the *old* ephemeral pair, so the fresh `XG_A` breaks it —
/// STS is replay-safe by construction.
pub fn sts_replay(deployment: &mut TestDeployment) -> MitmOutcome {
    let config = StsConfig::default();

    // Session 1: honest; the attacker records B1.
    let mut rng_b = HmacDrbg::new(&deployment.rng.bytes32(), b"bob1");
    let mut alice1 = StsInitiator::new(deployment.alice.clone(), config, &mut deployment.rng);
    let mut bob1 = StsResponder::new(deployment.bob.clone(), config, &mut rng_b);
    let a1 = alice1.step(None).expect("kickoff").into_sent().expect("A1");
    let recorded_b1 = bob1
        .step(Some(&a1))
        .expect("bob replies")
        .into_sent()
        .expect("B1");

    // Session 2: the attacker answers Alice's fresh request with the
    // recorded message.
    let mut alice2 = StsInitiator::new(deployment.alice.clone(), config, &mut deployment.rng);
    alice2.step(None).expect("kickoff");
    match alice2.step(Some(&recorded_b1)) {
        Err(e) => MitmOutcome::Rejected(e),
        Ok(_) => MitmOutcome::Compromised,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rogue_certificate_rejected() {
        let mut d = TestDeployment::new(321);
        assert_eq!(
            sts_rogue_certificate(&mut d),
            MitmOutcome::Rejected(ProtocolError::AuthenticationFailed)
        );
    }

    #[test]
    fn point_substitution_rejected() {
        let mut d = TestDeployment::new(322);
        assert_eq!(
            sts_point_substitution(&mut d),
            MitmOutcome::Rejected(ProtocolError::AuthenticationFailed)
        );
    }

    #[test]
    fn replayed_b1_rejected() {
        let mut d = TestDeployment::new(323);
        assert_eq!(
            sts_replay(&mut d),
            MitmOutcome::Rejected(ProtocolError::AuthenticationFailed)
        );
    }
}
