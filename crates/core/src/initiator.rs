//! The STS initiator (ALICE in the paper's Fig. 2).

use crate::auth::{
    auth_response, verify_response_hinted, ReconstructionHint, DIR_INITIATOR, DIR_RESPONDER,
};
use crate::{StsConfig, KDF_LABEL};
use ecq_cert::ImplicitCert;
use ecq_crypto::HmacDrbg;
use ecq_p256::ecdh;
use ecq_p256::encoding::{decode_raw, encode_raw};
use ecq_p256::keys::KeyPair;
use ecq_p256::scalar::Scalar;
use ecq_proto::{
    check_peer_cert, Credentials, Endpoint, EndpointCore, FieldKind, Message, PrimitiveOp,
    ProtocolError, Role, SessionKey, StsPhase, WireField,
};

#[derive(Clone, Copy, Debug)]
enum State {
    Start,
    AwaitB1,
    AwaitAck,
}

/// Initiator-side STS state machine.
#[derive(Debug)]
pub struct StsInitiator {
    creds: Credentials,
    config: StsConfig,
    ephemeral: KeyPair,
    xg_own: [u8; 64],
    peer_hint: Option<ReconstructionHint>,
    state: State,
    core: EndpointCore,
}

impl StsInitiator {
    /// Creates an initiator; draws the ephemeral secret eagerly
    /// (the paper's Op1 happens in the request phase).
    pub fn new(creds: Credentials, config: StsConfig, rng: &mut HmacDrbg) -> Self {
        let mut core = EndpointCore::new(Role::Initiator);
        core.record(StsPhase::Op1Request, PrimitiveOp::RandomBytes { bytes: 32 });
        core.record(StsPhase::Op1Request, PrimitiveOp::EphemeralKeyGen);
        let x = Scalar::random(rng);
        let ephemeral = KeyPair::from_private(x);
        let xg_own = encode_raw(&ephemeral.public);
        StsInitiator {
            creds,
            config,
            ephemeral,
            xg_own,
            peer_hint: None,
            state: State::Start,
            core,
        }
    }

    /// Installs a cached eq. (1) evaluation for the expected peer.
    ///
    /// When the responder's certificate and this side's CA key match the
    /// hint, the Op2 public-key reconstruction is skipped (and not
    /// traced); a mismatched hint silently falls back to the full path.
    #[must_use]
    pub fn with_peer_hint(mut self, hint: ReconstructionHint) -> Self {
        self.peer_hint = Some(hint);
        self
    }

    fn handle_b1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let id_b = msg.field(FieldKind::Id)?;
        let cert_b = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        let xg_b_bytes: [u8; 64] = msg
            .field(FieldKind::EphemeralPoint)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let resp_b = msg.field(FieldKind::Response)?;

        check_peer_cert(&cert_b, id_b, self.config.now)?;
        let xg_b = decode_raw(&xg_b_bytes)?;

        // Op2: premaster KPM = X_A · XG_B, then KS = KDF(KPM, salt).
        self.core
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
        let premaster = ecdh::shared_secret(&self.ephemeral.private, &xg_b)?;
        let salt = [self.xg_own.as_slice(), xg_b_bytes.as_slice()].concat();
        self.core
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
            self.core.trace_mut(),
            self.peer_hint.as_ref(),
        )?;

        // Op3: our own authentication response.
        let resp_a = auth_response(
            &ks,
            &self.creds.keys.private,
            &self.xg_own,
            &xg_b_bytes,
            DIR_INITIATOR,
            self.core.trace_mut(),
        );

        self.core.set_key(ks);
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

impl Endpoint for StsInitiator {
    fn core(&self) -> &EndpointCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EndpointCore {
        &mut self.core
    }

    fn advance(&mut self, incoming: Option<&Message>) -> Result<Option<Message>, ProtocolError> {
        match (self.state, incoming) {
            (State::Start, None) => {
                self.state = State::AwaitB1;
                Ok(Some(Message::new(
                    "A1",
                    vec![
                        WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
                        WireField::new(FieldKind::EphemeralPoint, self.xg_own.to_vec()),
                    ],
                )))
            }
            (State::AwaitB1, Some(msg)) => self.handle_b1(msg),
            (State::AwaitAck, Some(msg)) => {
                if msg.field(FieldKind::Ack)? != [0x01] {
                    return Err(ProtocolError::AuthenticationFailed);
                }
                self.core.establish();
                Ok(None)
            }
            _ => Err(ProtocolError::UnexpectedMessage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;
    use ecq_cert::DeviceId;
    use ecq_proto::StepOutput;

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
        let StepOutput::Send(a1) = init.step(None).unwrap() else {
            panic!("the kickoff must send A1");
        };
        assert_eq!(a1.step, "A1");
        assert_eq!(a1.wire_len(), 80);
        assert!(!init.is_established());
        assert!(init.session_key().is_err());
    }

    #[test]
    fn double_start_rejected() {
        let (c, mut rng) = creds(122);
        let mut init = StsInitiator::new(c, StsConfig::default(), &mut rng);
        init.step(None).unwrap();
        assert_eq!(
            init.step(None).unwrap_err(),
            ProtocolError::UnexpectedMessage
        );
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
        init.step(None).unwrap();
        let bogus = Message::new("B2", vec![WireField::new(FieldKind::Ack, vec![1])]);
        // AwaitB1 state: an ACK has no Id field -> decode error.
        assert!(init.step(Some(&bogus)).is_err());
        assert!(!init.is_established());
    }
}
