//! The STS initiator (ALICE in the paper's Fig. 2).

use crate::auth::{
    auth_response, verify_response_hinted, ReconstructionHint, DIR_INITIATOR, DIR_RESPONDER,
};
use crate::{StsConfig, KDF_LABEL};
use ecq_cert::{DeviceId, ImplicitCert};
use ecq_crypto::zeroize::Zeroize;
use ecq_crypto::HmacDrbg;
use ecq_p256::ecdh;
use ecq_p256::encoding::{decode_raw, encode_raw};
use ecq_p256::keys::KeyPair;
use ecq_p256::scalar::Scalar;
use ecq_proto::{
    Credentials, Endpoint, FieldKind, Message, OpTrace, PrimitiveOp, ProtocolError, Role,
    SessionKey, StsPhase, WireField,
};

#[derive(Debug)]
enum State {
    Start,
    AwaitB1,
    AwaitAck,
    Established,
    Failed,
}

/// Initiator-side STS state machine.
#[derive(Debug)]
pub struct StsInitiator {
    creds: Credentials,
    config: StsConfig,
    ephemeral: KeyPair,
    xg_own: [u8; 64],
    peer_hint: Option<ReconstructionHint>,
    session: Option<SessionKey>,
    state: State,
    trace: OpTrace,
}

impl StsInitiator {
    /// Creates an initiator; draws the ephemeral secret eagerly
    /// (the paper's Op1 happens in the request phase).
    pub fn new(creds: Credentials, config: StsConfig, rng: &mut HmacDrbg) -> Self {
        let mut trace = OpTrace::new();
        trace.record(StsPhase::Op1Request, PrimitiveOp::RandomBytes { bytes: 32 });
        trace.record(StsPhase::Op1Request, PrimitiveOp::EphemeralKeyGen);
        let x = Scalar::random(rng);
        let ephemeral = KeyPair::from_private(x);
        let xg_own = encode_raw(&ephemeral.public);
        StsInitiator {
            creds,
            config,
            ephemeral,
            xg_own,
            peer_hint: None,
            session: None,
            state: State::Start,
            trace,
        }
    }

    /// Installs a cached eq. (1) evaluation for the expected peer.
    ///
    /// When the responder's certificate matches the hint, the Op2
    /// public-key reconstruction is skipped (and not traced); a
    /// mismatched hint silently falls back to the full reconstruction.
    #[must_use]
    pub fn with_peer_hint(mut self, hint: ReconstructionHint) -> Self {
        self.peer_hint = Some(hint);
        self
    }

    fn check_peer_cert(&self, cert: &ImplicitCert, claimed: &[u8]) -> Result<(), ProtocolError> {
        if cert.subject.as_bytes() != claimed {
            return Err(ProtocolError::AuthenticationFailed);
        }
        if !cert.is_valid_at(self.config.now) {
            return Err(ProtocolError::Cert(ecq_cert::CertError::Expired));
        }
        Ok(())
    }

    fn handle_b1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let id_b = msg.field(FieldKind::Id)?;
        let cert_b = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        let xg_b_bytes: [u8; 64] = msg
            .field(FieldKind::EphemeralPoint)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let resp_b = msg.field(FieldKind::Response)?;

        self.check_peer_cert(&cert_b, id_b)?;
        let xg_b = decode_raw(&xg_b_bytes)?;

        // Op2: premaster KPM = X_A · XG_B, then KS = KDF(KPM, salt).
        self.trace
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
        let premaster = ecdh::shared_secret(&self.ephemeral.private, &xg_b)?;
        let salt = [self.xg_own.as_slice(), xg_b_bytes.as_slice()].concat();
        self.trace
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
        // `premaster` wipes itself when it drops at the end of this
        // scope; only the derived session key survives.
        let ks = SessionKey::derive(premaster.as_slice(), &salt, KDF_LABEL);

        // Op4 (+ the Op2 public-key reconstruction inside, unless a
        // matching hint already carries it).
        verify_response_hinted(
            &ks,
            resp_b,
            &cert_b,
            &self.creds.ca_public,
            &xg_b_bytes,
            &self.xg_own,
            DIR_RESPONDER,
            &mut self.trace,
            self.peer_hint.as_ref(),
        )?;

        // Op3: our own authentication response.
        let resp_a = auth_response(
            &ks,
            &self.creds.keys.private,
            &self.xg_own,
            &xg_b_bytes,
            DIR_INITIATOR,
            &mut self.trace,
        );

        self.session = Some(ks);
        self.state = State::AwaitAck;
        Ok(Some(Message::new(
            "A2",
            vec![
                WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::Response, resp_a.to_vec()),
            ],
        )))
    }
}

impl Drop for StsInitiator {
    /// Wipes the ephemeral secret `X_A` and any derived session key:
    /// forward secrecy is only as good as the lifetime of the
    /// ephemerals (paper §V, node-capture row of Table III).
    fn drop(&mut self) {
        self.ephemeral.zeroize();
        if let Some(key) = self.session.as_mut() {
            key.zeroize();
        }
    }
}

impl Endpoint for StsInitiator {
    fn id(&self) -> DeviceId {
        self.creds.id
    }

    fn role(&self) -> Role {
        Role::Initiator
    }

    fn start(&mut self) -> Result<Option<Message>, ProtocolError> {
        match self.state {
            State::Start => {
                self.state = State::AwaitB1;
                Ok(Some(Message::new(
                    "A1",
                    vec![
                        WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
                        WireField::new(FieldKind::EphemeralPoint, self.xg_own.to_vec()),
                    ],
                )))
            }
            _ => Err(ProtocolError::UnexpectedMessage),
        }
    }

    fn on_message(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let result = match self.state {
            State::AwaitB1 => self.handle_b1(msg),
            State::AwaitAck => {
                let ack = msg.field(FieldKind::Ack)?;
                if ack == [0x01] {
                    self.state = State::Established;
                    Ok(None)
                } else {
                    Err(ProtocolError::AuthenticationFailed)
                }
            }
            _ => Err(ProtocolError::UnexpectedMessage),
        };
        if result.is_err() {
            self.state = State::Failed;
            // Wipe in place before dropping the Option: clearing it
            // alone would leave the key bytes resident (and invisible
            // to our Drop impl) for the endpoint's remaining lifetime.
            if let Some(key) = self.session.as_mut() {
                key.zeroize();
            }
            self.session = None;
        }
        result
    }

    fn is_established(&self) -> bool {
        matches!(self.state, State::Established)
    }

    fn session_key(&self) -> Result<SessionKey, ProtocolError> {
        match self.state {
            State::Established => self.session.ok_or(ProtocolError::NotEstablished),
            _ => Err(ProtocolError::NotEstablished),
        }
    }

    fn trace(&self) -> &OpTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;

    fn creds(seed: u64) -> (Credentials, HmacDrbg) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let c = Credentials::provision(&ca, DeviceId::from_label("a"), 0, 10, &mut rng).unwrap();
        (c, rng)
    }

    #[test]
    fn start_emits_a1_with_correct_layout() {
        let (c, mut rng) = creds(121);
        let mut init = StsInitiator::new(c, StsConfig::default(), &mut rng);
        let a1 = init.start().unwrap().unwrap();
        assert_eq!(a1.step, "A1");
        assert_eq!(a1.wire_len(), 80);
        assert!(!init.is_established());
        assert!(init.session_key().is_err());
    }

    #[test]
    fn double_start_rejected() {
        let (c, mut rng) = creds(122);
        let mut init = StsInitiator::new(c, StsConfig::default(), &mut rng);
        init.start().unwrap();
        assert!(init.start().is_err());
    }

    #[test]
    fn op1_traced_at_construction() {
        let (c, mut rng) = creds(123);
        let init = StsInitiator::new(c, StsConfig::default(), &mut rng);
        assert_eq!(init.trace().count_op(PrimitiveOp::EphemeralKeyGen), 1);
    }

    #[test]
    fn unexpected_message_fails_cleanly() {
        let (c, mut rng) = creds(124);
        let mut init = StsInitiator::new(c, StsConfig::default(), &mut rng);
        init.start().unwrap();
        let bogus = Message::new("B2", vec![WireField::new(FieldKind::Ack, vec![1])]);
        // AwaitB1 state: an ACK has no Id field -> decode error.
        assert!(init.on_message(&bogus).is_err());
        assert!(!init.is_established());
    }
}
