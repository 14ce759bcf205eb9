//! S-ECDSA: the static ECDSA key-derivation protocol of Basic et
//! al. \[5\], the paper's primary comparison point.
//!
//! Wire format (Table II):
//!
//! ```text
//! A1: ID(16), Nonce(32)
//! B1: ID(16), Cert(101), Sign(64), Nonce(32)
//! A2: Cert(101), Sign(64)
//! B2: ACK(1)            [+ext: Fin(96)]
//! A3: [+ext: Fin(96)]
//! Total 4(+1) steps, 427(+192) B
//! ```
//!
//! Signatures authenticate the nonce exchange (`Sign_B` over
//! `Nonce_A ‖ Nonce_B ‖ ID_B`, `Sign_A` over `Nonce_B ‖ Nonce_A ‖
//! ID_A`); the session key is the **static** Diffie–Hellman premaster
//! diversified by the nonces: `KS = KDF(Prk_a·Puk_b, Nonce_A ‖
//! Nonce_B)`. The nonces are public, so the entropy of `KS` rests
//! entirely on the certificate-bound premaster — no forward secrecy.
//!
//! The extended variant adds the finished-message handling the paper
//! adopts from Porambage et al. \[3\]: each side confirms the derived key
//! with a 96-byte `Fin` blob of three HMAC tags (transcript, nonces and
//! key-confirmation labels) under the session MAC key.

use ecq_cert::ImplicitCert;
use ecq_crypto::hmac::hmac_sha256_concat;
use ecq_crypto::HmacDrbg;
use ecq_p256::ecdsa::{self, Signature};
use ecq_proto::{
    check_peer_cert, Credentials, Endpoint, EndpointCore, FieldKind, Message, OpTrace, PrimitiveOp,
    ProtocolError, Role, SessionKey, StsPhase, WireField,
};

/// Domain-separation label for the S-ECDSA KDF.
pub const KDF_LABEL: &[u8] = b"ecqv-s-ecdsa-v1";

fn sign_material(nonce_first: &[u8], nonce_second: &[u8], id: &[u8]) -> Vec<u8> {
    [nonce_first, nonce_second, id].concat()
}

/// Builds the 96-byte extended finished blob: three HMAC tags under the
/// session MAC key (transcript-binding, nonce-echo, key-confirmation).
fn fin_blob(
    ks: &SessionKey,
    role: Role,
    nonce_a: &[u8],
    nonce_b: &[u8],
    trace: &mut OpTrace,
) -> Vec<u8> {
    let key = ks.mac_key();
    let role_tag: &[u8] = match role {
        Role::Initiator => b"A-fin",
        Role::Responder => b"B-fin",
    };
    for _ in 0..3 {
        trace.record(StsPhase::Other, PrimitiveOp::MacTag);
    }
    let t1 = hmac_sha256_concat(&key, &[b"transcript", role_tag, nonce_a, nonce_b]);
    let t2 = hmac_sha256_concat(&key, &[b"nonce-echo", role_tag, nonce_b, nonce_a]);
    let t3 = hmac_sha256_concat(&key, &[b"key-confirm", role_tag]);
    [t1.as_slice(), t2.as_slice(), t3.as_slice()].concat()
}

fn verify_fin(
    ks: &SessionKey,
    peer_role: Role,
    nonce_a: &[u8],
    nonce_b: &[u8],
    fin: &[u8],
    trace: &mut OpTrace,
) -> Result<(), ProtocolError> {
    let mut check_trace = OpTrace::new();
    let expect = fin_blob(ks, peer_role, nonce_a, nonce_b, &mut check_trace);
    for _ in 0..3 {
        trace.record(StsPhase::Other, PrimitiveOp::MacVerify);
    }
    if ecq_crypto::ct::eq(&expect, fin) {
        Ok(())
    } else {
        Err(ProtocolError::AuthenticationFailed)
    }
}

#[derive(Clone, Copy, Debug)]
enum InitState {
    Start,
    AwaitB1,
    AwaitAck,
}

/// Initiator-side S-ECDSA state machine.
#[derive(Debug)]
pub struct SEcdsaInitiator {
    creds: Credentials,
    now: u32,
    extended: bool,
    nonce: [u8; 32],
    peer_nonce: Option<[u8; 32]>,
    state: InitState,
    core: EndpointCore,
}

impl SEcdsaInitiator {
    /// Creates an initiator; draws its nonce eagerly.
    pub fn new(creds: Credentials, now: u32, extended: bool, rng: &mut HmacDrbg) -> Self {
        let mut core = EndpointCore::new(Role::Initiator);
        core.record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 32 });
        SEcdsaInitiator {
            creds,
            now,
            extended,
            nonce: rng.bytes32(),
            peer_nonce: None,
            state: InitState::Start,
            core,
        }
    }

    fn handle_b1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let id_b = msg.field(FieldKind::Id)?;
        let cert_b = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        let sig_b = Signature::from_bytes(msg.field(FieldKind::Signature)?)
            .map_err(|_| ProtocolError::AuthenticationFailed)?;
        let nonce_b: [u8; 32] = msg
            .field(FieldKind::Nonce)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;

        check_peer_cert(&cert_b, id_b, self.now)?;

        // Implicitly derive Q_B and verify the nonce signature.
        self.core.record(
            StsPhase::Op2KeyDerivation,
            PrimitiveOp::PublicKeyReconstruction,
        );
        let q_b = ecq_cert::reconstruct_public_key(&cert_b, &self.creds.ca_public)?;
        self.core
            .record(StsPhase::Op4DecryptVerify, PrimitiveOp::EcdsaVerify);
        let material = sign_material(&self.nonce, &nonce_b, id_b);
        if !ecdsa::verify(&q_b, &material, &sig_b) {
            return Err(ProtocolError::AuthenticationFailed);
        }

        // Static KD. Note the reconstruction already happened for the
        // signature check; the implementation reuses Q_B, so only the
        // ECDH multiplication is billed here.
        self.core
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
        let premaster = ecq_p256::ecdh::shared_secret(&self.creds.keys.private, &q_b)?;
        let salt = [self.nonce.as_slice(), nonce_b.as_slice()].concat();
        self.core
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
        let ks = SessionKey::derive(premaster.as_slice(), &salt, KDF_LABEL);

        // Our own signature over (Nonce_B ‖ Nonce_A ‖ ID_A).
        self.core
            .record(StsPhase::Op3SignEncrypt, PrimitiveOp::EcdsaSign);
        let sig_a = ecdsa::sign(
            &self.creds.keys.private,
            &sign_material(&nonce_b, &self.nonce, self.creds.id.as_bytes()),
        );

        self.peer_nonce = Some(nonce_b);
        self.core.set_key(ks);
        self.state = InitState::AwaitAck;
        Ok(Some(Message::new(
            "A2",
            vec![
                WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::Signature, sig_a.to_bytes().to_vec()),
            ],
        )))
    }

    fn handle_ack(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        if msg.field(FieldKind::Ack)? != [0x01] {
            return Err(ProtocolError::AuthenticationFailed);
        }
        let ks = self.core.derived_key()?;
        let nonce_b = self.peer_nonce.ok_or(ProtocolError::UnexpectedMessage)?;
        if self.extended {
            let fin = msg.field(FieldKind::Fin)?;
            verify_fin(
                &ks,
                Role::Responder,
                &self.nonce,
                &nonce_b,
                fin,
                self.core.trace_mut(),
            )?;
            let own_fin = fin_blob(
                &ks,
                Role::Initiator,
                &self.nonce,
                &nonce_b,
                self.core.trace_mut(),
            );
            self.core.establish();
            return Ok(Some(Message::new(
                "A3",
                vec![WireField::new(FieldKind::Fin, own_fin)],
            )));
        }
        self.core.establish();
        Ok(None)
    }
}

impl Endpoint for SEcdsaInitiator {
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
                    ],
                )))
            }
            (InitState::AwaitB1, Some(msg)) => self.handle_b1(msg),
            (InitState::AwaitAck, Some(msg)) => self.handle_ack(msg),
            _ => Err(ProtocolError::UnexpectedMessage),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum RespState {
    AwaitA1,
    AwaitA2,
    AwaitFin,
}

/// Responder-side S-ECDSA state machine.
#[derive(Debug)]
pub struct SEcdsaResponder {
    creds: Credentials,
    now: u32,
    extended: bool,
    rng: HmacDrbg,
    nonce: Option<[u8; 32]>,
    peer_id: Option<Vec<u8>>,
    peer_nonce: Option<[u8; 32]>,
    state: RespState,
    core: EndpointCore,
}

impl SEcdsaResponder {
    /// Creates a responder.
    pub fn new(creds: Credentials, now: u32, extended: bool, rng: &mut HmacDrbg) -> Self {
        SEcdsaResponder {
            creds,
            now,
            extended,
            rng: HmacDrbg::new(&rng.bytes32(), b"secdsa-responder"),
            nonce: None,
            peer_id: None,
            peer_nonce: None,
            state: RespState::AwaitA1,
            core: EndpointCore::new(Role::Responder),
        }
    }

    fn handle_a1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let id_a = msg.field(FieldKind::Id)?.to_vec();
        let nonce_a: [u8; 32] = msg
            .field(FieldKind::Nonce)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;

        self.core
            .record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 32 });
        let nonce_b = self.rng.bytes32();

        self.core
            .record(StsPhase::Op3SignEncrypt, PrimitiveOp::EcdsaSign);
        let sig_b = ecdsa::sign(
            &self.creds.keys.private,
            &sign_material(&nonce_a, &nonce_b, self.creds.id.as_bytes()),
        );

        self.nonce = Some(nonce_b);
        self.peer_id = Some(id_a);
        self.peer_nonce = Some(nonce_a);
        self.state = RespState::AwaitA2;
        Ok(Some(Message::new(
            "B1",
            vec![
                WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
                WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::Signature, sig_b.to_bytes().to_vec()),
                WireField::new(FieldKind::Nonce, nonce_b.to_vec()),
            ],
        )))
    }

    fn handle_a2(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let cert_a = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        let sig_a = Signature::from_bytes(msg.field(FieldKind::Signature)?)
            .map_err(|_| ProtocolError::AuthenticationFailed)?;

        let claimed = self
            .peer_id
            .as_deref()
            .ok_or(ProtocolError::UnexpectedMessage)?;
        check_peer_cert(&cert_a, claimed, self.now)?;
        let nonce_a = self.peer_nonce.ok_or(ProtocolError::UnexpectedMessage)?;
        let nonce_b = self.nonce.ok_or(ProtocolError::UnexpectedMessage)?;

        self.core.record(
            StsPhase::Op2KeyDerivation,
            PrimitiveOp::PublicKeyReconstruction,
        );
        let q_a = ecq_cert::reconstruct_public_key(&cert_a, &self.creds.ca_public)?;
        self.core
            .record(StsPhase::Op4DecryptVerify, PrimitiveOp::EcdsaVerify);
        let material = sign_material(&nonce_b, &nonce_a, claimed);
        if !ecdsa::verify(&q_a, &material, &sig_a) {
            return Err(ProtocolError::AuthenticationFailed);
        }

        self.core
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
        let premaster = ecq_p256::ecdh::shared_secret(&self.creds.keys.private, &q_a)?;
        let salt = [nonce_a.as_slice(), nonce_b.as_slice()].concat();
        self.core
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
        let ks = SessionKey::derive(premaster.as_slice(), &salt, KDF_LABEL);

        let mut fields = vec![WireField::new(FieldKind::Ack, vec![0x01])];
        if self.extended {
            let fin = fin_blob(
                &ks,
                Role::Responder,
                &nonce_a,
                &nonce_b,
                self.core.trace_mut(),
            );
            fields.push(WireField::new(FieldKind::Fin, fin));
            self.state = RespState::AwaitFin;
        } else {
            self.core.establish();
        }
        self.core.set_key(ks);
        Ok(Some(Message::new("B2", fields)))
    }

    fn handle_fin(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let fin = msg.field(FieldKind::Fin)?;
        let ks = self.core.derived_key()?;
        let nonce_a = self.peer_nonce.ok_or(ProtocolError::UnexpectedMessage)?;
        let nonce_b = self.nonce.ok_or(ProtocolError::UnexpectedMessage)?;
        verify_fin(
            &ks,
            Role::Initiator,
            &nonce_a,
            &nonce_b,
            fin,
            self.core.trace_mut(),
        )?;
        self.core.establish();
        Ok(None)
    }
}

impl Endpoint for SEcdsaResponder {
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
            (RespState::AwaitFin, Some(msg)) => self.handle_fin(msg),
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
    fn same_certificates_same_premaster_different_nonce_keys() {
        // KS changes with nonces, but the premaster does not — the
        // structural weakness Table III records as "key data reuse".
        let (a, b, mut rng) = setup(221);
        let o1 = crate::establish(ProtocolKind::SEcdsa, &a, &b, 0, &mut rng).unwrap();
        let o2 = crate::establish(ProtocolKind::SEcdsa, &a, &b, 0, &mut rng).unwrap();
        assert_ne!(o1.initiator_key, o2.initiator_key); // nonce diversified
        let p1 = crate::skd::static_premaster(&a, &b.cert).unwrap();
        let p2 = crate::skd::static_premaster(&a, &b.cert).unwrap();
        assert_eq!(p1, p2); // but the secret base is static
    }

    #[test]
    fn cross_ca_fails() {
        let mut rng = HmacDrbg::from_seed(222);
        let ca1 = CertificateAuthority::new(DeviceId::from_label("CA1"), &mut rng);
        let ca2 = CertificateAuthority::new(DeviceId::from_label("CA2"), &mut rng);
        let a = Credentials::provision(&ca1, DeviceId::from_label("a"), 0, 100, &mut rng).unwrap();
        let b = Credentials::provision(&ca2, DeviceId::from_label("b"), 0, 100, &mut rng).unwrap();
        assert!(crate::establish(ProtocolKind::SEcdsa, &a, &b, 0, &mut rng).is_err());
    }

    #[test]
    fn expired_cert_fails() {
        let (a, b, mut rng) = setup(223);
        assert!(crate::establish(ProtocolKind::SEcdsa, &a, &b, 5000, &mut rng).is_err());
    }

    #[test]
    fn extended_handshake_traces_mac_work() {
        let (a, b, mut rng) = setup(224);
        let out = crate::establish(ProtocolKind::SEcdsaExt, &a, &b, 0, &mut rng).unwrap();
        let a_macs = out
            .transcript
            .trace(Role::Initiator)
            .count_op(PrimitiveOp::MacTag);
        assert_eq!(a_macs, 3); // one Fin blob
        let b_macs = out
            .transcript
            .trace(Role::Responder)
            .count_op(PrimitiveOp::MacTag);
        assert_eq!(b_macs, 3);
    }

    #[test]
    fn signature_swap_detected() {
        // An attacker relaying tampered B1 signatures must be caught.
        let (a, b, mut rng) = setup(225);
        let mut rng_a = HmacDrbg::new(&rng.bytes32(), b"x");
        let mut rng_b = HmacDrbg::new(&rng.bytes32(), b"y");
        let mut alice = SEcdsaInitiator::new(a, 0, false, &mut rng_a);
        let mut bob = SEcdsaResponder::new(b, 0, false, &mut rng_b);
        let a1 = alice.step(None).unwrap().into_sent().unwrap();
        let mut b1 = bob.step(Some(&a1)).unwrap().into_sent().unwrap();
        // Flip one signature byte.
        for f in &mut b1.fields {
            if f.kind == FieldKind::Signature {
                f.bytes[10] ^= 0x40;
            }
        }
        assert_eq!(
            alice.step(Some(&b1)).unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }
}
