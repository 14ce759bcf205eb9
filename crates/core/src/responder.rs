//! The STS responder (BOB in the paper's Fig. 2).

use crate::auth::{
    auth_response, verify_response_hinted, ReconstructionHint, DIR_INITIATOR, DIR_RESPONDER,
};
use crate::{StsConfig, KDF_LABEL};
use ecq_cert::ImplicitCert;
use ecq_crypto::HmacDrbg;
use ecq_p256::ecdh;
use ecq_p256::encoding::{decode_raw, encode_raw};
use ecq_p256::keys::KeyPair;
use ecq_proto::{
    check_peer_cert, Credentials, Endpoint, EndpointCore, FieldKind, Message, PrimitiveOp,
    ProtocolError, Role, SessionKey, StsPhase, WireField,
};

#[derive(Clone, Copy, Debug)]
enum State {
    AwaitA1,
    AwaitA2,
}

/// Responder-side STS state machine.
#[derive(Debug)]
pub struct StsResponder {
    creds: Credentials,
    config: StsConfig,
    rng: HmacDrbg,
    xg_own: Option<[u8; 64]>,
    peer_hint: Option<ReconstructionHint>,
    peer_id: Option<Vec<u8>>,
    peer_xg: Option<[u8; 64]>,
    state: State,
    core: EndpointCore,
}

impl StsResponder {
    /// Creates a responder. The ephemeral key is drawn lazily on `A1`
    /// (the responder's Op1 runs after the request arrives — Fig. 2).
    pub fn new(creds: Credentials, config: StsConfig, rng: &mut HmacDrbg) -> Self {
        StsResponder {
            creds,
            config,
            rng: HmacDrbg::new(&rng.bytes32(), b"sts-responder-session"),
            xg_own: None,
            peer_hint: None,
            peer_id: None,
            peer_xg: None,
            state: State::AwaitA1,
            core: EndpointCore::new(Role::Responder),
        }
    }

    /// Installs a cached eq. (1) evaluation for the expected peer.
    ///
    /// When the initiator's certificate and this side's CA key match the
    /// hint, the Op2 public-key reconstruction is skipped (and not
    /// traced); a mismatched hint silently falls back to the full path.
    #[must_use]
    pub fn with_peer_hint(mut self, hint: ReconstructionHint) -> Self {
        self.peer_hint = Some(hint);
        self
    }

    fn handle_a1(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let id_a = msg.field(FieldKind::Id)?.to_vec();
        let xg_a_bytes: [u8; 64] = msg
            .field(FieldKind::EphemeralPoint)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let xg_a = decode_raw(&xg_a_bytes)?;

        // Op1: our own ephemeral point XG_B.
        self.core
            .record(StsPhase::Op1Request, PrimitiveOp::RandomBytes { bytes: 32 });
        self.core
            .record(StsPhase::Op1Request, PrimitiveOp::EphemeralKeyGen);
        // `x_b` wipes itself when it drops at the end of this step;
        // only XG_B outlives it.
        let x_b = KeyPair::generate(&mut self.rng);
        let xg_b_bytes = encode_raw(&x_b.public);

        // Op2: KPM = X_B · XG_A; KS = KDF(KPM, XG_A ‖ XG_B).
        self.core
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
        let premaster = ecdh::shared_secret(&x_b.private, &xg_a)?;
        let salt = [xg_a_bytes.as_slice(), xg_b_bytes.as_slice()].concat();
        self.core
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
        // `premaster` wipes itself when it drops at the end of this
        // scope; only the derived session key survives.
        let ks = SessionKey::derive(premaster.as_slice(), &salt, KDF_LABEL);

        // Op3: Resp_B = E_KS(sign(Prk_B, XG_B ‖ XG_A)).
        let resp_b = auth_response(
            &ks,
            &self.creds.keys.private,
            &xg_b_bytes,
            &xg_a_bytes,
            DIR_RESPONDER,
            self.core.trace_mut(),
        );

        self.xg_own = Some(xg_b_bytes);
        self.peer_id = Some(id_a);
        self.peer_xg = Some(xg_a_bytes);
        self.core.set_key(ks);
        self.state = State::AwaitA2;

        Ok(Some(Message::new(
            "B1",
            vec![
                WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
                WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::EphemeralPoint, xg_b_bytes.to_vec()),
                WireField::new(FieldKind::Response, resp_b.to_vec()),
            ],
        )))
    }

    fn handle_a2(&mut self, msg: &Message) -> Result<Option<Message>, ProtocolError> {
        let cert_a = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        let resp_a = msg.field(FieldKind::Response)?;

        let claimed = self
            .peer_id
            .as_deref()
            .ok_or(ProtocolError::UnexpectedMessage)?;
        check_peer_cert(&cert_a, claimed, self.config.now)?;

        let ks = self.core.derived_key()?;
        let xg_a = self.peer_xg.ok_or(ProtocolError::UnexpectedMessage)?;
        let xg_b = self.xg_own.ok_or(ProtocolError::UnexpectedMessage)?;

        verify_response_hinted(
            &ks,
            resp_a,
            &cert_a,
            &self.creds.ca_public,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            self.core.trace_mut(),
            self.peer_hint.as_ref(),
        )?;

        self.core.establish();
        Ok(Some(Message::new(
            "B2",
            vec![WireField::new(FieldKind::Ack, vec![0x01])],
        )))
    }
}

impl Endpoint for StsResponder {
    fn core(&self) -> &EndpointCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EndpointCore {
        &mut self.core
    }

    fn advance(&mut self, incoming: Option<&Message>) -> Result<Option<Message>, ProtocolError> {
        match (self.state, incoming) {
            (_, None) => Ok(None),
            (State::AwaitA1, Some(msg)) => self.handle_a1(msg),
            (State::AwaitA2, Some(msg)) => self.handle_a2(msg),
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
        let c = Credentials::provision(&ca, DeviceId::from_label("b"), 0, 10, &mut rng).unwrap();
        (c, rng)
    }

    #[test]
    fn responder_starts_silent() {
        let (c, mut rng) = creds(131);
        let mut resp = StsResponder::new(c, StsConfig::default(), &mut rng);
        assert_eq!(resp.step(None).unwrap(), StepOutput::Wait);
        assert!(!resp.is_established());
    }

    #[test]
    fn rejects_garbage_a1() {
        let (c, mut rng) = creds(132);
        let mut resp = StsResponder::new(c, StsConfig::default(), &mut rng);
        // Off-curve ephemeral point must be rejected before any use.
        let msg = Message::new(
            "A1",
            vec![
                WireField::new(FieldKind::Id, vec![0; 16]),
                WireField::new(FieldKind::EphemeralPoint, vec![0; 64]),
            ],
        );
        assert!(resp.step(Some(&msg)).is_err());
        assert!(!resp.is_established());
        assert!(resp.session_key().is_err());
    }

    #[test]
    fn a2_before_a1_rejected() {
        let (c, mut rng) = creds(133);
        let mut resp = StsResponder::new(c.clone(), StsConfig::default(), &mut rng);
        let msg = Message::new(
            "A2",
            vec![
                WireField::new(FieldKind::Cert, c.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::Response, vec![0; 64]),
            ],
        );
        // In AwaitA1, an A2-shaped message lacks the Id field.
        assert!(resp.step(Some(&msg)).is_err());
    }
}
