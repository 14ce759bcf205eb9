//! SCIANC: Sciancalepore et al. \[4\] — public-key authentication and key
//! agreement with minimal airtime.
//!
//! Wire format (Table II):
//!
//! ```text
//! A1: ID(16), Nonce(32), Cert(101)
//! B1: ID(16), Nonce(32), Cert(101)
//! A2: Auth MAC(32)
//! B2: Auth MAC(32)
//! Total 4 steps, 362 B
//! ```
//!
//! Both sides exchange certificates and nonces in one round, derive the
//! **static** premaster implicitly (`Prk_own · Q_peer`), stretch it with
//! the nonces, and mutually authenticate with HMAC tags *keyed by the
//! session key itself*. The paper's §V-D critique is structural and
//! reproduced here: the nonces diversify but do not protect (they are
//! public), and because authentication is keyed by `KS`, a session-key
//! compromise also compromises future authentications ("key derivation
//! exploitation": ∆ in Table III).

use crate::skd::static_premaster_traced;
use ecq_cert::ImplicitCert;
use ecq_crypto::hmac::hmac_sha256_concat;
use ecq_crypto::HmacDrbg;
use ecq_proto::{
    check_peer_cert, Credentials, Endpoint, EndpointCore, FieldKind, Message, OpTrace, PrimitiveOp,
    ProtocolError, Role, SessionKey, StsPhase, WireField,
};

/// Domain-separation label for the SCIANC KDF.
pub const KDF_LABEL: &[u8] = b"ecqv-scianc-v1";

fn derive_ks(
    own: &Credentials,
    peer_cert: &ImplicitCert,
    nonce_a: &[u8],
    nonce_b: &[u8],
    trace: &mut OpTrace,
) -> Result<SessionKey, ProtocolError> {
    let premaster = static_premaster_traced(own, peer_cert, trace)?;
    let salt = [nonce_a, nonce_b].concat();
    trace.record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
    Ok(SessionKey::derive(premaster.as_slice(), &salt, KDF_LABEL))
}

/// The authentication MAC: keyed directly by the session key (the
/// design choice the security analysis penalizes). Public so the
/// attack simulations in `ecq-analysis` can act as a protocol-aware
/// adversary.
pub fn auth_mac(ks: &SessionKey, role: Role, nonce_a: &[u8], nonce_b: &[u8]) -> [u8; 32] {
    let role_tag: &[u8] = match role {
        Role::Initiator => b"A-auth",
        Role::Responder => b"B-auth",
    };
    hmac_sha256_concat(ks.as_bytes(), &[role_tag, nonce_a, nonce_b])
}

#[derive(Clone, Copy, Debug)]
enum InitState {
    Start,
    AwaitB1,
    AwaitMac,
}

/// Initiator-side SCIANC state machine.
#[derive(Debug)]
pub struct SciancInitiator {
    creds: Credentials,
    now: u32,
    nonce: [u8; 32],
    peer_nonce: Option<[u8; 32]>,
    state: InitState,
    core: EndpointCore,
}

impl SciancInitiator {
    /// Creates an initiator; draws its nonce eagerly.
    pub fn new(creds: Credentials, now: u32, rng: &mut HmacDrbg) -> Self {
        let mut core = EndpointCore::new(Role::Initiator);
        core.record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 32 });
        SciancInitiator {
            creds,
            now,
            nonce: rng.bytes32(),
            peer_nonce: None,
            state: InitState::Start,
            core,
        }
    }

    fn handle_b1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let id_b = msg.field(FieldKind::Id)?;
        let nonce_b: [u8; 32] = msg
            .field(FieldKind::Nonce)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let cert_b = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;

        // SCIANC validates the certificate's ID binding and validity —
        // but note (paper §III): this does NOT authenticate the device;
        // certificates are public and replayable.
        check_peer_cert(&cert_b, id_b, self.now)?;

        let ks = derive_ks(
            &self.creds,
            &cert_b,
            &self.nonce,
            &nonce_b,
            self.core.trace_mut(),
        )?;
        self.core.record(StsPhase::Other, PrimitiveOp::MacTag);
        let mac = auth_mac(&ks, Role::Initiator, &self.nonce, &nonce_b);

        self.peer_nonce = Some(nonce_b);
        self.core.set_key(ks);
        self.state = InitState::AwaitMac;
        Ok(Some(Message::new(
            "A2",
            vec![WireField::new(FieldKind::Mac, mac.to_vec())],
        )))
    }

    fn handle_mac(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let mac = msg.field(FieldKind::Mac)?;
        let ks = self.core.derived_key()?;
        let nonce_b = self.peer_nonce.ok_or(ProtocolError::UnexpectedMessage)?;
        self.core.record(StsPhase::Other, PrimitiveOp::MacVerify);
        let expect = auth_mac(&ks, Role::Responder, &self.nonce, &nonce_b);
        if !ecq_crypto::ct::eq(&expect, mac) {
            return Err(ProtocolError::AuthenticationFailed);
        }
        self.core.establish();
        Ok(None)
    }
}

impl Endpoint for SciancInitiator {
    fn core(&self) -> &EndpointCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut EndpointCore {
        &mut self.core
    }
    fn advance(&mut self, incoming: Option<&Message>) -> Result<Option<Message>, ProtocolError> {
        match (self.state, incoming) {
            (InitState::Start, None) => {
                self.state = InitState::AwaitB1;
                Ok(Some(Message::new(
                    "A1",
                    vec![
                        WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
                        WireField::new(FieldKind::Nonce, self.nonce.to_vec()),
                        WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
                    ],
                )))
            }
            (InitState::AwaitB1, Some(msg)) => self.handle_b1(msg),
            (InitState::AwaitMac, Some(msg)) => self.handle_mac(msg),
            _ => Err(ProtocolError::UnexpectedMessage),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum RespState {
    AwaitA1,
    AwaitA2,
}

/// Responder-side SCIANC state machine.
#[derive(Debug)]
pub struct SciancResponder {
    creds: Credentials,
    now: u32,
    rng: HmacDrbg,
    nonce: Option<[u8; 32]>,
    peer_nonce: Option<[u8; 32]>,
    state: RespState,
    core: EndpointCore,
}

impl SciancResponder {
    /// Creates a responder.
    pub fn new(creds: Credentials, now: u32, rng: &mut HmacDrbg) -> Self {
        SciancResponder {
            creds,
            now,
            rng: HmacDrbg::new(&rng.bytes32(), b"scianc-responder"),
            nonce: None,
            peer_nonce: None,
            state: RespState::AwaitA1,
            core: EndpointCore::new(Role::Responder),
        }
    }

    fn handle_a1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let id_a = msg.field(FieldKind::Id)?;
        let nonce_a: [u8; 32] = msg
            .field(FieldKind::Nonce)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let cert_a = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        check_peer_cert(&cert_a, id_a, self.now)?;

        self.core
            .record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 32 });
        let nonce_b = self.rng.bytes32();
        let ks = derive_ks(
            &self.creds,
            &cert_a,
            &nonce_a,
            &nonce_b,
            self.core.trace_mut(),
        )?;

        self.nonce = Some(nonce_b);
        self.peer_nonce = Some(nonce_a);
        self.core.set_key(ks);
        self.state = RespState::AwaitA2;
        Ok(Some(Message::new(
            "B1",
            vec![
                WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
                WireField::new(FieldKind::Nonce, nonce_b.to_vec()),
                WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
            ],
        )))
    }

    fn handle_a2(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let mac = msg.field(FieldKind::Mac)?;
        let ks = self.core.derived_key()?;
        let nonce_a = self.peer_nonce.ok_or(ProtocolError::UnexpectedMessage)?;
        let nonce_b = self.nonce.ok_or(ProtocolError::UnexpectedMessage)?;
        self.core.record(StsPhase::Other, PrimitiveOp::MacVerify);
        let expect = auth_mac(&ks, Role::Initiator, &nonce_a, &nonce_b);
        if !ecq_crypto::ct::eq(&expect, mac) {
            return Err(ProtocolError::AuthenticationFailed);
        }
        self.core.record(StsPhase::Other, PrimitiveOp::MacTag);
        let own = auth_mac(&ks, Role::Responder, &nonce_a, &nonce_b);
        self.core.establish();
        Ok(Some(Message::new(
            "B2",
            vec![WireField::new(FieldKind::Mac, own.to_vec())],
        )))
    }
}

impl Endpoint for SciancResponder {
    fn core(&self) -> &EndpointCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut EndpointCore {
        &mut self.core
    }
    fn advance(&mut self, incoming: Option<&Message>) -> Result<Option<Message>, ProtocolError> {
        match (self.state, incoming) {
            (_, None) => Ok(None),
            (RespState::AwaitA1, Some(msg)) => self.handle_a1(msg),
            (RespState::AwaitA2, Some(msg)) => self.handle_a2(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;
    use ecq_cert::DeviceId;
    use ecq_proto::ProtocolKind;

    fn setup(seed: u64) -> (Credentials, Credentials, HmacDrbg) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let a = Credentials::provision(&ca, DeviceId::from_label("a"), 0, 100, &mut rng).unwrap();
        let b = Credentials::provision(&ca, DeviceId::from_label("b"), 0, 100, &mut rng).unwrap();
        (a, b, rng)
    }

    #[test]
    fn mac_keyed_by_session_key() {
        // A holder of KS can forge future authentication MACs — the
        // structural tie the security analysis penalizes.
        let (a, b, mut rng) = setup(231);
        let out = crate::establish(ProtocolKind::Scianc, &a, &b, 0, &mut rng).unwrap();
        let ks = out.initiator_key;
        let forged = auth_mac(&ks, Role::Initiator, &[0u8; 32], &[1u8; 32]);
        let recomputed = auth_mac(&ks, Role::Initiator, &[0u8; 32], &[1u8; 32]);
        assert_eq!(forged, recomputed);
    }

    #[test]
    fn tampered_mac_detected() {
        let (a, b, mut rng) = setup(232);
        let mut rng_a = HmacDrbg::new(&rng.bytes32(), b"x");
        let mut rng_b = HmacDrbg::new(&rng.bytes32(), b"y");
        let mut alice = SciancInitiator::new(a, 0, &mut rng_a);
        let mut bob = SciancResponder::new(b, 0, &mut rng_b);
        let a1 = alice.step(None).unwrap().into_sent().unwrap();
        let b1 = bob.step(Some(&a1)).unwrap().into_sent().unwrap();
        let mut a2 = alice.step(Some(&b1)).unwrap().into_sent().unwrap();
        a2.fields[0].bytes[5] ^= 1;
        assert_eq!(
            bob.step(Some(&a2)).unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }

    #[test]
    fn ec_operation_count_is_two_per_side() {
        // SCIANC's Table I advantage: only reconstruction + ECDH, no
        // signatures. The trace must show exactly 2 EC multiplications
        // per side.
        let (a, b, mut rng) = setup(233);
        let out = crate::establish(ProtocolKind::Scianc, &a, &b, 0, &mut rng).unwrap();
        for role in [Role::Initiator, Role::Responder] {
            let t = out.transcript.trace(role);
            assert_eq!(t.count_op(PrimitiveOp::PublicKeyReconstruction), 1);
            assert_eq!(t.count_op(PrimitiveOp::EcdhDerive), 1);
            assert_eq!(t.count_op(PrimitiveOp::EcdsaSign), 0);
            assert_eq!(t.count_op(PrimitiveOp::EcdsaVerify), 0);
        }
    }

    #[test]
    fn id_cert_mismatch_rejected() {
        let (a, b, mut rng) = setup(234);
        let mut rng_b = HmacDrbg::new(&rng.bytes32(), b"y");
        let mut bob = SciancResponder::new(b, 0, &mut rng_b);
        // Present alice's cert under a different claimed ID.
        let msg = Message::new(
            "A1",
            vec![
                WireField::new(FieldKind::Id, vec![9u8; 16]),
                WireField::new(FieldKind::Nonce, vec![0u8; 32]),
                WireField::new(FieldKind::Cert, a.cert.to_bytes().to_vec()),
            ],
        );
        assert_eq!(
            bob.step(Some(&msg)).unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }
}
