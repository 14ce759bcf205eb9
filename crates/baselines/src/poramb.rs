//! PORAMB: Porambage et al. \[3\] — two-phase certificate-based pairwise
//! key establishment for wireless sensor networks.
//!
//! Wire format (Table II):
//!
//! ```text
//! A1: Hello(32), ID(16)
//! B1: Hello(32), ID(16)
//! A2: Cert(101), Nonce(32), MAC(32)
//! B2: Cert(101), Nonce(32), MAC(32)
//! A3: Finish(197)
//! B3: Finish(197)
//! Total 6 steps, 820 B
//! ```
//!
//! Phase 1 exchanges hellos and identities; phase 2 exchanges
//! certificates and nonces authenticated with a **pre-shared pairwise
//! key** (the deployment burden §V-D criticizes: one stored key per
//! peer), then both sides derive the session key and confirm it with
//! `Finish` blobs.
//!
//! Key derivation (four EC multiplications per side, matching the
//! paper's consistent 2× ratio over SCIANC in Table I):
//!
//! 1. implicit reconstruction of the peer's public key (eq. (1));
//! 2. authenticator validation: re-derivation of the *own* public key
//!    from the own certificate, checked against the stored key pair;
//! 3. static pairwise secret `S1 = Prk_own · Q_peer`;
//! 4. nonce-bound session point `S2 = H_n(hellos ‖ nonces) · S1`.
//!
//! `S2` diversifies per session, but — as with every SKD — an attacker
//! holding a long-term private key recomputes `S1` and therefore every
//! past and future `S2` from public transcripts.

use ecq_cert::{reconstruct_public_key, ImplicitCert};
use ecq_crypto::hmac::hmac_sha256_concat;
use ecq_crypto::sha256::sha256_concat;
use ecq_crypto::HmacDrbg;
use ecq_p256::scalar::Scalar;
use ecq_proto::{
    check_peer_cert, Credentials, Endpoint, EndpointCore, FieldKind, Message, OpTrace, PrimitiveOp,
    ProtocolError, Role, SessionKey, StsPhase, WireField,
};

/// Domain-separation label for the PORAMB KDF.
pub const KDF_LABEL: &[u8] = b"ecqv-poramb-v1";

/// Length of the pre-shared pairwise authentication key.
pub const PAIRWISE_KEY_LEN: usize = 32;

struct SessionInputs {
    hello_a: [u8; 32],
    hello_b: [u8; 32],
    nonce_a: [u8; 32],
    nonce_b: [u8; 32],
}

/// Derives the PORAMB session key (four EC multiplications).
fn derive_ks(
    own: &Credentials,
    peer_cert: &ImplicitCert,
    inputs: &SessionInputs,
    trace: &mut OpTrace,
) -> Result<SessionKey, ProtocolError> {
    // (1) implicit derivation of the peer public key.
    trace.record(
        StsPhase::Op2KeyDerivation,
        PrimitiveOp::PublicKeyReconstruction,
    );
    let q_peer = reconstruct_public_key(peer_cert, &own.ca_public)?;

    // (2) authenticator validation of the own certificate: the scheme
    // re-derives the own public key and checks it against the stored
    // pair before using the private key.
    trace.record(
        StsPhase::Op2KeyDerivation,
        PrimitiveOp::PublicKeyReconstruction,
    );
    let q_own = reconstruct_public_key(&own.cert, &own.ca_public)?;
    if q_own != own.keys.public {
        return Err(ProtocolError::AuthenticationFailed);
    }

    // (3) static pairwise point S1 = Prk_own · Q_peer.
    trace.record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
    let s1 = q_peer.mul_ct(&own.keys.private);
    if s1.infinity {
        return Err(ProtocolError::Curve(ecq_p256::CurveError::InfinityResult));
    }

    // (4) nonce-bound session point S2 = H_n(hellos ‖ nonces) · S1.
    let h = sha256_concat(&[
        &inputs.hello_a,
        &inputs.hello_b,
        &inputs.nonce_a,
        &inputs.nonce_b,
    ]);
    let s = Scalar::from_be_bytes_reduced(&h);
    trace.record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
    let s2 = s1.mul_ct(&s);
    if s2.infinity {
        return Err(ProtocolError::Curve(ecq_p256::CurveError::InfinityResult));
    }

    let salt = [
        inputs.hello_a.as_slice(),
        inputs.hello_b.as_slice(),
        inputs.nonce_a.as_slice(),
        inputs.nonce_b.as_slice(),
    ]
    .concat();
    trace.record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
    Ok(SessionKey::derive(&s2.x.to_be_bytes(), &salt, KDF_LABEL))
}

/// Phase-2 MAC under the pre-shared pairwise key.
fn phase2_mac(
    pairwise: &[u8; PAIRWISE_KEY_LEN],
    role: Role,
    peer_hello: &[u8],
    nonce: &[u8],
    cert: &ImplicitCert,
) -> [u8; 32] {
    let role_tag: &[u8] = match role {
        Role::Initiator => b"A-p2",
        Role::Responder => b"B-p2",
    };
    hmac_sha256_concat(pairwise, &[role_tag, peer_hello, nonce, &cert.to_bytes()])
}

/// Builds the 197-byte finish blob: pairwise MAC (32) + own certificate
/// echo (101) + two key-confirmation tags under the session MAC key
/// (64).
fn finish_blob(
    pairwise: &[u8; PAIRWISE_KEY_LEN],
    ks: &SessionKey,
    role: Role,
    own_cert: &ImplicitCert,
    trace: &mut OpTrace,
) -> Vec<u8> {
    let role_tag: &[u8] = match role {
        Role::Initiator => b"A-fin",
        Role::Responder => b"B-fin",
    };
    for _ in 0..3 {
        trace.record(StsPhase::Other, PrimitiveOp::MacTag);
    }
    let cert_bytes = own_cert.to_bytes();
    let m1 = hmac_sha256_concat(pairwise, &[b"finish", role_tag, &cert_bytes]);
    let k1 = hmac_sha256_concat(&ks.mac_key(), &[b"kc1", role_tag]);
    let k2 = hmac_sha256_concat(&ks.mac_key(), &[b"kc2", role_tag]);
    let mut out = Vec::with_capacity(197);
    out.extend_from_slice(&m1);
    out.extend_from_slice(&cert_bytes);
    out.extend_from_slice(&k1);
    out.extend_from_slice(&k2);
    out
}

fn verify_finish(
    pairwise: &[u8; PAIRWISE_KEY_LEN],
    ks: &SessionKey,
    peer_role: Role,
    peer_cert: &ImplicitCert,
    blob: &[u8],
    trace: &mut OpTrace,
) -> Result<(), ProtocolError> {
    let mut scratch = OpTrace::new();
    let expect = finish_blob(pairwise, ks, peer_role, peer_cert, &mut scratch);
    for _ in 0..3 {
        trace.record(StsPhase::Other, PrimitiveOp::MacVerify);
    }
    if ecq_crypto::ct::eq(&expect, blob) {
        Ok(())
    } else {
        Err(ProtocolError::AuthenticationFailed)
    }
}

#[derive(Clone, Copy, Debug)]
enum InitState {
    Start,
    AwaitB1,
    AwaitB2,
    AwaitB3,
}

/// Initiator-side PORAMB state machine.
#[derive(Debug)]
pub struct PorambInitiator {
    creds: Credentials,
    pairwise: [u8; PAIRWISE_KEY_LEN],
    now: u32,
    hello: [u8; 32],
    nonce: [u8; 32],
    peer_hello: Option<[u8; 32]>,
    peer_id: Option<Vec<u8>>,
    peer_cert: Option<ImplicitCert>,
    state: InitState,
    core: EndpointCore,
}

impl PorambInitiator {
    /// Creates an initiator holding the pre-shared pairwise key.
    pub fn new(
        creds: Credentials,
        pairwise: [u8; PAIRWISE_KEY_LEN],
        now: u32,
        rng: &mut HmacDrbg,
    ) -> Self {
        let mut core = EndpointCore::new(Role::Initiator);
        core.record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 64 });
        PorambInitiator {
            creds,
            pairwise,
            now,
            hello: rng.bytes32(),
            nonce: rng.bytes32(),
            peer_hello: None,
            peer_id: None,
            peer_cert: None,
            state: InitState::Start,
            core,
        }
    }

    fn handle_b1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let hello_b: [u8; 32] = msg
            .field(FieldKind::Hello)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        self.peer_id = Some(msg.field(FieldKind::Id)?.to_vec());
        self.peer_hello = Some(hello_b);

        self.core.record(StsPhase::Other, PrimitiveOp::MacTag);
        let mac = phase2_mac(
            &self.pairwise,
            Role::Initiator,
            &hello_b,
            &self.nonce,
            &self.creds.cert,
        );
        self.state = InitState::AwaitB2;
        Ok(Some(Message::new(
            "A2",
            vec![
                WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::Nonce, self.nonce.to_vec()),
                WireField::new(FieldKind::Mac, mac.to_vec()),
            ],
        )))
    }

    fn handle_b2(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let cert_b = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        let nonce_b: [u8; 32] = msg
            .field(FieldKind::Nonce)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let mac = msg.field(FieldKind::Mac)?;

        let claimed = self
            .peer_id
            .as_deref()
            .ok_or(ProtocolError::UnexpectedMessage)?;
        check_peer_cert(&cert_b, claimed, self.now)?;
        self.core.record(StsPhase::Other, PrimitiveOp::MacVerify);
        let expect = phase2_mac(
            &self.pairwise,
            Role::Responder,
            &self.hello,
            &nonce_b,
            &cert_b,
        );
        if !ecq_crypto::ct::eq(&expect, mac) {
            return Err(ProtocolError::AuthenticationFailed);
        }

        let hello_b = self.peer_hello.ok_or(ProtocolError::UnexpectedMessage)?;
        let inputs = SessionInputs {
            hello_a: self.hello,
            hello_b,
            nonce_a: self.nonce,
            nonce_b,
        };
        let ks = derive_ks(&self.creds, &cert_b, &inputs, self.core.trace_mut())?;
        let finish = finish_blob(
            &self.pairwise,
            &ks,
            Role::Initiator,
            &self.creds.cert,
            self.core.trace_mut(),
        );
        self.peer_cert = Some(cert_b);
        self.core.set_key(ks);
        self.state = InitState::AwaitB3;
        Ok(Some(Message::new(
            "A3",
            vec![WireField::new(FieldKind::Finish, finish)],
        )))
    }

    fn handle_b3(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let blob = msg.field(FieldKind::Finish)?;
        let ks = self.core.derived_key()?;
        let cert_b = self.peer_cert.ok_or(ProtocolError::UnexpectedMessage)?;
        verify_finish(
            &self.pairwise,
            &ks,
            Role::Responder,
            &cert_b,
            blob,
            self.core.trace_mut(),
        )?;
        self.core.establish();
        Ok(None)
    }
}

impl Endpoint for PorambInitiator {
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
                        WireField::new(FieldKind::Hello, self.hello.to_vec()),
                        WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
                    ],
                )))
            }
            (InitState::AwaitB1, Some(msg)) => self.handle_b1(msg),
            (InitState::AwaitB2, Some(msg)) => self.handle_b2(msg),
            (InitState::AwaitB3, Some(msg)) => self.handle_b3(msg),
            _ => Err(ProtocolError::UnexpectedMessage),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum RespState {
    AwaitA1,
    AwaitA2,
    AwaitA3,
}

/// Responder-side PORAMB state machine.
#[derive(Debug)]
pub struct PorambResponder {
    creds: Credentials,
    pairwise: [u8; PAIRWISE_KEY_LEN],
    now: u32,
    rng: HmacDrbg,
    hello: Option<[u8; 32]>,
    nonce: Option<[u8; 32]>,
    peer_hello: Option<[u8; 32]>,
    peer_id: Option<Vec<u8>>,
    peer_cert: Option<ImplicitCert>,
    state: RespState,
    core: EndpointCore,
}

impl PorambResponder {
    /// Creates a responder holding the pre-shared pairwise key.
    pub fn new(
        creds: Credentials,
        pairwise: [u8; PAIRWISE_KEY_LEN],
        now: u32,
        rng: &mut HmacDrbg,
    ) -> Self {
        PorambResponder {
            creds,
            pairwise,
            now,
            rng: HmacDrbg::new(&rng.bytes32(), b"poramb-responder"),
            hello: None,
            nonce: None,
            peer_hello: None,
            peer_id: None,
            peer_cert: None,
            state: RespState::AwaitA1,
            core: EndpointCore::new(Role::Responder),
        }
    }

    fn handle_a1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let hello_a: [u8; 32] = msg
            .field(FieldKind::Hello)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let id_a = msg.field(FieldKind::Id)?.to_vec();
        self.core
            .record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 32 });
        let hello_b = self.rng.bytes32();
        self.hello = Some(hello_b);
        self.peer_hello = Some(hello_a);
        self.peer_id = Some(id_a);
        self.state = RespState::AwaitA2;
        Ok(Some(Message::new(
            "B1",
            vec![
                WireField::new(FieldKind::Hello, hello_b.to_vec()),
                WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
            ],
        )))
    }

    fn handle_a2(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let cert_a = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        let nonce_a: [u8; 32] = msg
            .field(FieldKind::Nonce)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let mac = msg.field(FieldKind::Mac)?;

        let claimed = self
            .peer_id
            .as_deref()
            .ok_or(ProtocolError::UnexpectedMessage)?;
        check_peer_cert(&cert_a, claimed, self.now)?;
        let hello_b = self.hello.ok_or(ProtocolError::UnexpectedMessage)?;
        let hello_a = self.peer_hello.ok_or(ProtocolError::UnexpectedMessage)?;
        self.core.record(StsPhase::Other, PrimitiveOp::MacVerify);
        let expect = phase2_mac(&self.pairwise, Role::Initiator, &hello_b, &nonce_a, &cert_a);
        if !ecq_crypto::ct::eq(&expect, mac) {
            return Err(ProtocolError::AuthenticationFailed);
        }

        self.core
            .record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 32 });
        let nonce_b = self.rng.bytes32();
        self.core.record(StsPhase::Other, PrimitiveOp::MacTag);
        let own_mac = phase2_mac(
            &self.pairwise,
            Role::Responder,
            &hello_a,
            &nonce_b,
            &self.creds.cert,
        );

        let inputs = SessionInputs {
            hello_a,
            hello_b,
            nonce_a,
            nonce_b,
        };
        let ks = derive_ks(&self.creds, &cert_a, &inputs, self.core.trace_mut())?;

        self.nonce = Some(nonce_b);
        self.peer_cert = Some(cert_a);
        self.core.set_key(ks);
        self.state = RespState::AwaitA3;
        Ok(Some(Message::new(
            "B2",
            vec![
                WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::Nonce, nonce_b.to_vec()),
                WireField::new(FieldKind::Mac, own_mac.to_vec()),
            ],
        )))
    }

    fn handle_a3(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let blob = msg.field(FieldKind::Finish)?;
        let ks = self.core.derived_key()?;
        let cert_a = self.peer_cert.ok_or(ProtocolError::UnexpectedMessage)?;
        verify_finish(
            &self.pairwise,
            &ks,
            Role::Initiator,
            &cert_a,
            blob,
            self.core.trace_mut(),
        )?;
        let own = finish_blob(
            &self.pairwise,
            &ks,
            Role::Responder,
            &self.creds.cert,
            self.core.trace_mut(),
        );
        self.core.establish();
        Ok(Some(Message::new(
            "B3",
            vec![WireField::new(FieldKind::Finish, own)],
        )))
    }
}

impl Endpoint for PorambResponder {
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
            (RespState::AwaitA3, Some(msg)) => self.handle_a3(msg),
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
    fn wrong_pairwise_key_fails() {
        // Porambage's authentication rests on the pre-shared key: a
        // peer without it cannot produce valid phase-2 MACs.
        let (a, b, mut rng) = setup(241);
        use ecq_proto::run_handshake;
        let mut rng_a = HmacDrbg::new(&rng.bytes32(), b"x");
        let mut rng_b = HmacDrbg::new(&rng.bytes32(), b"y");
        let mut alice = PorambInitiator::new(a, [1u8; 32], 0, &mut rng_a);
        let mut bob = PorambResponder::new(b, [2u8; 32], 0, &mut rng_b);
        assert_eq!(
            run_handshake(&mut alice, &mut bob).unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }

    #[test]
    fn four_ec_mults_per_side() {
        // The Table I cost structure: 2 reconstructions + 2 ECDH-class
        // multiplications per side (2× SCIANC).
        let (a, b, mut rng) = setup(242);
        let out = crate::establish(ProtocolKind::Poramb, &a, &b, 0, &mut rng).unwrap();
        for role in [Role::Initiator, Role::Responder] {
            let t = out.transcript.trace(role);
            assert_eq!(t.count_op(PrimitiveOp::PublicKeyReconstruction), 2);
            assert_eq!(t.count_op(PrimitiveOp::EcdhDerive), 2);
            assert_eq!(t.count_op(PrimitiveOp::EcdsaSign), 0);
        }
    }

    #[test]
    fn session_keys_diversify_with_nonces() {
        let (a, b, mut rng) = setup(243);
        let o1 = crate::establish(ProtocolKind::Poramb, &a, &b, 0, &mut rng).unwrap();
        let o2 = crate::establish(ProtocolKind::Poramb, &a, &b, 0, &mut rng).unwrap();
        assert_ne!(o1.initiator_key, o2.initiator_key);
    }

    #[test]
    fn tampered_finish_detected() {
        let (a, b, mut rng) = setup(244);
        use ecq_proto::Endpoint as _;
        let mut rng_a = HmacDrbg::new(&rng.bytes32(), b"x");
        let mut rng_b = HmacDrbg::new(&rng.bytes32(), b"y");
        let mut alice = PorambInitiator::new(a, [7u8; 32], 0, &mut rng_a);
        let mut bob = PorambResponder::new(b, [7u8; 32], 0, &mut rng_b);
        let a1 = alice.step(None).unwrap().into_sent().unwrap();
        let b1 = bob.step(Some(&a1)).unwrap().into_sent().unwrap();
        let a2 = alice.step(Some(&b1)).unwrap().into_sent().unwrap();
        let b2 = bob.step(Some(&a2)).unwrap().into_sent().unwrap();
        let mut a3 = alice.step(Some(&b2)).unwrap().into_sent().unwrap();
        a3.fields[0].bytes[50] ^= 1; // inside the cert echo
        assert_eq!(
            bob.step(Some(&a3)).unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }

    #[test]
    fn certificate_must_name_the_phase_one_id() {
        // A device holding the pairwise key claims to be `b` in phase
        // 1 but presents its own certificate, for `c`, in phase 2. The
        // MAC verifies, so only the ID binding refuses it.
        let mut rng = HmacDrbg::from_seed(245);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let a = Credentials::provision(&ca, DeviceId::from_label("a"), 0, 100, &mut rng).unwrap();
        let c = Credentials::provision(&ca, DeviceId::from_label("c"), 0, 100, &mut rng).unwrap();
        use ecq_proto::Endpoint as _;
        let mut rng_a = HmacDrbg::new(&rng.bytes32(), b"x");
        let mut rng_c = HmacDrbg::new(&rng.bytes32(), b"y");
        let mut alice = PorambInitiator::new(a, [7u8; 32], 0, &mut rng_a);
        let mut mallory = PorambResponder::new(c, [7u8; 32], 0, &mut rng_c);
        let a1 = alice.step(None).unwrap().into_sent().unwrap();
        let mut b1 = mallory.step(Some(&a1)).unwrap().into_sent().unwrap();
        let id = b1.fields.iter_mut().find(|f| f.kind == FieldKind::Id);
        id.unwrap().bytes = DeviceId::from_label("b").as_bytes().to_vec();
        let a2 = alice.step(Some(&b1)).unwrap().into_sent().unwrap();
        let b2 = mallory.step(Some(&a2)).unwrap().into_sent().unwrap();
        assert_eq!(
            alice.step(Some(&b2)).unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
        assert!(alice.session_key().is_err());
    }
}
