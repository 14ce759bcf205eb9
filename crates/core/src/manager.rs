//! Session lifecycle management.
//!
//! §II-A of the paper distinguishes the **certificate session** (the
//! validity of the issued certificates, e.g. one vehicle ignition
//! cycle) from the **communication session** (one message exchange).
//! The paper's core complaint about fielded systems is that "either
//! due to the limitations in the system's architecture, constrained
//! nature of the devices, or neglect from the developers", the same
//! session key lives far longer than intended.
//!
//! [`SessionManager`] encodes the discipline: a rekey policy bounds
//! the key's age and use count, certificate expiry forcibly ends the
//! key regardless of policy, and every rekey runs a full fresh STS
//! handshake (cheap to demand here, because the DKD makes rekeying
//! safe — no key material is shared between epochs).

use crate::{establish_hinted, ReconstructionHint, StsConfig};
use ecq_crypto::HmacDrbg;
use ecq_proto::{Credentials, ProtocolError, SessionKey, SessionOutcome};

/// When a session key must be replaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RekeyPolicy {
    /// Maximum key age in seconds of deployment time.
    pub max_age_secs: u32,
    /// Maximum number of protected messages under one key.
    pub max_messages: u64,
}

impl Default for RekeyPolicy {
    /// One hour or 10 000 messages, whichever first.
    fn default() -> Self {
        RekeyPolicy {
            max_age_secs: 3600,
            max_messages: 10_000,
        }
    }
}

/// Why the manager rekeyed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RekeyReason {
    /// First session of this manager.
    Initial,
    /// The key exceeded [`RekeyPolicy::max_age_secs`].
    Aged,
    /// The key protected [`RekeyPolicy::max_messages`] messages.
    Exhausted,
}

/// Statistics about the current key epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochInfo {
    /// Deployment time the epoch started.
    pub established_at: u32,
    /// Messages protected so far.
    pub messages_used: u64,
    /// What triggered this epoch.
    pub reason: RekeyReason,
}

/// Manages a long-lived secure relationship between two devices over
/// successive STS communication sessions.
///
/// # Example
///
/// Aged-out keys are replaced by a transparent fresh handshake:
///
/// ```
/// use ecq_cert::{ca::CertificateAuthority, DeviceId};
/// use ecq_crypto::HmacDrbg;
/// use ecq_proto::Credentials;
/// use ecq_sts::{RekeyPolicy, SessionManager, StsConfig};
///
/// let mut rng = HmacDrbg::from_seed(9);
/// let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
/// let bms = Credentials::provision(&ca, DeviceId::from_label("BMS"), 0, 86_400, &mut rng)?;
/// let evcc = Credentials::provision(&ca, DeviceId::from_label("EVCC"), 0, 86_400, &mut rng)?;
///
/// let policy = RekeyPolicy { max_age_secs: 600, max_messages: 1_000 };
/// let mut mgr = SessionManager::new(bms, evcc, policy, StsConfig::default(), rng);
///
/// let k1 = mgr.key_for(0)?;    // first use runs the initial handshake
/// assert_eq!(mgr.key_for(300)?, k1); // same epoch, same key
/// let k2 = mgr.key_for(700)?;  // aged out: fresh STS handshake
/// assert_ne!(k1, k2);
/// assert_eq!(mgr.rekey_count(), 2);
/// # Ok::<(), ecq_proto::ProtocolError>(())
/// ```
#[derive(Debug)]
pub struct SessionManager {
    local: Credentials,
    peer: Credentials,
    policy: RekeyPolicy,
    config: StsConfig,
    rng: HmacDrbg,
    key: Option<SessionKey>,
    epoch: Option<EpochInfo>,
    rekey_count: u64,
    // Cached eq. (1) evaluations `(for the initiator, for the
    // responder)`: the same certificate pair recurs on every rekey of
    // this relationship, so the reconstruction runs once per manager
    // instead of twice per handshake.
    hints: Option<(ReconstructionHint, ReconstructionHint)>,
}

impl SessionManager {
    /// Creates a manager; no session exists until the first
    /// [`Self::key_for`] call.
    ///
    /// Note: `peer` credentials are held here because the simulation
    /// drives both endpoints in-process; a deployment would hold only
    /// the peer's identity and talk over a transport.
    pub fn new(
        local: Credentials,
        peer: Credentials,
        policy: RekeyPolicy,
        config: StsConfig,
        rng: HmacDrbg,
    ) -> Self {
        SessionManager {
            local,
            peer,
            policy,
            config,
            rng,
            key: None,
            epoch: None,
            rekey_count: 0,
            hints: None,
        }
    }

    /// Number of completed handshakes.
    pub fn rekey_count(&self) -> u64 {
        self.rekey_count
    }

    /// The current epoch, if a session exists.
    pub fn epoch(&self) -> Option<&EpochInfo> {
        self.epoch.as_ref()
    }

    fn needs_rekey(&self, now: u32) -> Option<RekeyReason> {
        let epoch = match &self.epoch {
            None => return Some(RekeyReason::Initial),
            Some(e) => e,
        };
        if now.saturating_sub(epoch.established_at) >= self.policy.max_age_secs {
            return Some(RekeyReason::Aged);
        }
        if epoch.messages_used >= self.policy.max_messages {
            return Some(RekeyReason::Exhausted);
        }
        None
    }

    fn rekey(&mut self, now: u32, reason: RekeyReason) -> Result<(), ProtocolError> {
        // Certificate expiry ends the certificate session: no amount
        // of rekeying revives it (phase 2 must re-run).
        if !self.local.cert.is_valid_at(now) || !self.peer.cert.is_valid_at(now) {
            return Err(ProtocolError::Cert(ecq_cert::CertError::Expired));
        }
        let config = StsConfig { now, ..self.config };
        // Lazily cache the eq. (1) reconstructions on the first rekey;
        // every later epoch of this certificate pair reuses them.
        if self.hints.is_none() {
            let for_initiator = ReconstructionHint::compute(&self.peer.cert, &self.local.ca_public)
                .map_err(ProtocolError::Cert)?;
            let for_responder = ReconstructionHint::compute(&self.local.cert, &self.peer.ca_public)
                .map_err(ProtocolError::Cert)?;
            self.hints = Some((for_initiator, for_responder));
        }
        let (hint_a, hint_b) = self.hints.as_ref().expect("hints cached above");
        let outcome: SessionOutcome = establish_hinted(
            &self.local,
            &self.peer,
            &config,
            &mut self.rng,
            Some(hint_a),
            Some(hint_b),
        )?;
        // The superseded epoch's key drops here, and the outcome's
        // responder copy at the end of this scope; both wipe themselves.
        self.key = Some(outcome.initiator_key);
        self.epoch = Some(EpochInfo {
            established_at: now,
            messages_used: 0,
            reason,
        });
        self.rekey_count += 1;
        Ok(())
    }

    /// Returns the session key to protect one message at deployment
    /// time `now`, transparently running a fresh STS handshake when
    /// the policy demands it.
    ///
    /// # Errors
    ///
    /// Handshake errors, or certificate expiry
    /// ([`ecq_cert::CertError::Expired`]) ending the certificate
    /// session.
    pub fn key_for(&mut self, now: u32) -> Result<SessionKey, ProtocolError> {
        if let Some(reason) = self.needs_rekey(now) {
            self.rekey(now, reason)?;
        }
        let epoch = self.epoch.as_mut().expect("epoch exists after rekey");
        epoch.messages_used += 1;
        Ok(self.key.clone().expect("key exists after rekey"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;
    use ecq_cert::DeviceId;

    fn manager(seed: u64, policy: RekeyPolicy, valid_to: u32) -> SessionManager {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let a =
            Credentials::provision(&ca, DeviceId::from_label("a"), 0, valid_to, &mut rng).unwrap();
        let b =
            Credentials::provision(&ca, DeviceId::from_label("b"), 0, valid_to, &mut rng).unwrap();
        SessionManager::new(a, b, policy, StsConfig::default(), rng)
    }

    #[test]
    fn first_use_establishes() {
        let mut m = manager(401, RekeyPolicy::default(), 100_000);
        assert!(m.epoch().is_none());
        let k = m.key_for(0).unwrap();
        assert_eq!(m.rekey_count(), 1);
        assert_eq!(m.epoch().unwrap().reason, RekeyReason::Initial);
        // Stable within the epoch.
        assert_eq!(m.key_for(1).unwrap(), k);
        assert_eq!(m.rekey_count(), 1);
    }

    #[test]
    fn age_triggers_rekey_with_fresh_key() {
        let mut m = manager(
            402,
            RekeyPolicy {
                max_age_secs: 10,
                max_messages: u64::MAX,
            },
            100_000,
        );
        let k1 = m.key_for(0).unwrap();
        let k2 = m.key_for(9).unwrap();
        assert_eq!(k1, k2);
        let k3 = m.key_for(10).unwrap();
        assert_ne!(k1, k3, "aged-out epoch must derive a fresh key");
        assert_eq!(m.epoch().unwrap().reason, RekeyReason::Aged);
        assert_eq!(m.rekey_count(), 2);
    }

    #[test]
    fn message_budget_triggers_rekey() {
        let mut m = manager(
            403,
            RekeyPolicy {
                max_age_secs: u32::MAX,
                max_messages: 3,
            },
            100_000,
        );
        let k1 = m.key_for(0).unwrap();
        assert_eq!(m.key_for(0).unwrap(), k1);
        assert_eq!(m.key_for(0).unwrap(), k1);
        let k2 = m.key_for(0).unwrap(); // 4th message
        assert_ne!(k1, k2);
        assert_eq!(m.epoch().unwrap().reason, RekeyReason::Exhausted);
    }

    #[test]
    fn certificate_expiry_ends_the_certificate_session() {
        let mut m = manager(
            404,
            RekeyPolicy {
                max_age_secs: 10,
                max_messages: u64::MAX,
            },
            50, // certs die at t=50
        );
        assert!(m.key_for(0).is_ok());
        assert!(m.key_for(45).is_ok());
        // Next rekey falls after expiry: the certificate session is over.
        let err = m.key_for(60).unwrap_err();
        assert_eq!(err, ProtocolError::Cert(ecq_cert::CertError::Expired));
    }

    #[test]
    fn every_epoch_key_is_distinct() {
        let mut m = manager(
            406,
            RekeyPolicy {
                max_age_secs: u32::MAX,
                max_messages: 1,
            },
            100_000,
        );
        let mut keys = Vec::new();
        for _ in 0..8 {
            keys.push(*m.key_for(0).unwrap().as_bytes());
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 8);
    }
}
