//! The per-layer replay of a traced run: a sample of the workloads'
//! operation mix, driven through the public functions of each lower
//! layer with every call in a span.
//!
//! The sample enrolls its own devices under a CA derived from the run's
//! seed, so every run replays fresh keys of the same distribution the
//! workloads use.

use crate::report::{median, Metrics};
use crate::trace::Tracer;
use ecq_cert::ca::CertificateAuthority;
use ecq_cert::requester::CertRequester;
use ecq_cert::{cert_hash, reconstruct_public_key, DeviceId};
use ecq_crypto::HmacDrbg;
use ecq_devices::DevicePreset;
use ecq_p256::ecdsa;
use ecq_p256::point::mul_generator_ct;
use ecq_proto::transport::Transport;
use ecq_proto::{Credentials, Endpoint, Frame, Message, OpTrace, PrimitiveOp, Role, StepOutput};
use ecq_simnet::CanLink;
use ecq_sts::{ReconstructionHint, StsConfig, StsInitiator, StsResponder, StsVariant};
use std::hint::black_box;

const BATCHES: usize = 8;
const BATCH: usize = 32;
const SAMPLES: usize = 64;

/// Primitive counts of one handshake, both sides together.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    pub keygen: f64,
    pub ecdh: f64,
    pub sign: f64,
    pub verify: f64,
    pub eq1: f64,
}

impl OpCounts {
    fn of(traces: [&OpTrace; 2]) -> OpCounts {
        let count = |op| traces.iter().map(|t| t.count_op(op)).sum::<usize>() as f64;
        OpCounts {
            keygen: count(PrimitiveOp::EphemeralKeyGen),
            ecdh: count(PrimitiveOp::EcdhDerive),
            sign: count(PrimitiveOp::EcdsaSign),
            verify: count(PrimitiveOp::EcdsaVerify),
            eq1: count(PrimitiveOp::PublicKeyReconstruction),
        }
    }
}

/// Median replayed costs in microseconds (per certificate, per
/// operation or per handshake, as named).
#[derive(Debug, Default)]
pub struct Costs {
    pub drbg: f64,
    pub generate: f64,
    pub issue_batch: f64,
    pub reconstruct_batch: f64,
    pub issue: f64,
    pub reconstruct: f64,
    pub eq1: f64,
    pub base_mul_ct: f64,
    pub point_mul_ct: f64,
    pub point_mul_vartime: f64,
    pub sign: f64,
    pub verify: f64,
    pub new: f64,
    pub steps: [f64; 5],
    pub first_contact: f64,
    pub hint: f64,
    pub hinted: f64,
    pub link_per_hs: f64,
    pub frames_per_hs: f64,
    pub codec_per_hs: f64,
    pub bytes_per_hs: f64,
    pub first_contact_ops: OpCounts,
    pub hinted_ops: OpCounts,
}

impl Costs {
    /// Curve work of `ops` priced at the replayed unit costs, in µs.
    pub fn ecc_us(&self, ops: OpCounts) -> f64 {
        ops.keygen * self.base_mul_ct
            + ops.ecdh * self.point_mul_ct
            + ops.sign * self.sign
            + ops.verify * self.verify
            + ops.eq1 * self.eq1
    }

    /// Curve work of enrolling one device: the request point, the CA's
    /// blinding and the possession check are fixed-base multiplies, and
    /// the device evaluates eq. (1) once.
    pub fn enroll_ecc_us(&self) -> f64 {
        3.0 * self.base_mul_ct + self.eq1
    }
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Runs the replay. Returns the costs, their metrics, and any failed
/// check.
pub fn replay_layers(seed: u64, tracer: &mut Tracer) -> (Costs, Metrics, Vec<String>) {
    let mut c = Costs::default();
    let mut problems = Vec::new();

    // crypto: DRBG instantiation plus one 32-byte draw.
    let seed_bytes = seed.to_le_bytes();
    let drbg: Vec<f64> = (0..4 * SAMPLES as u64)
        .map(|i| {
            let (bytes, took) = tracer.span("crypto.drbg", i, |_| {
                HmacDrbg::new(&seed_bytes, b"perfbench-drbg").bytes32()
            });
            black_box(bytes);
            us(took)
        })
        .collect();
    c.drbg = med(&drbg);

    let creds = match enroll_sample(seed, tracer, &mut c) {
        Ok(creds) => creds,
        Err(e) => {
            problems.push(format!("replayed enrollment failed: {e}"));
            return (c, Metrics::default(), problems);
        }
    };
    replay_p256(&creds, tracer, &mut c, &mut problems);
    replay_handshakes(seed, &creds, tracer, &mut c, &mut problems);
    let metrics = cost_metrics(&c);
    (c, metrics, problems)
}

/// Enrolls `BATCHES` batches through `issue_batch` /
/// `reconstruct_batch` and `BATCH` devices one by one, and evaluates
/// eq. (1) on every batch certificate. Returns the batch credentials.
fn enroll_sample(
    seed: u64,
    tracer: &mut Tracer,
    c: &mut Costs,
) -> Result<Vec<Credentials>, ecq_cert::CertError> {
    let mut rng = HmacDrbg::new(&seed.to_le_bytes(), b"perfbench-replay");
    let ca = CertificateAuthority::new(DeviceId::from_label("perfbench-ca"), &mut rng);
    let ca_public = ca.public_key();
    let label = |i: usize| DeviceId::from_label(&format!("replay-{i:08}"));
    let (mut generate, mut issue_batch, mut reconstruct_batch) = (vec![], vec![], vec![]);
    let mut creds = Vec::new();
    for b in 0..BATCHES {
        let requesters: Vec<CertRequester> = (0..BATCH)
            .map(|i| {
                let id = label(b * BATCH + i);
                let (r, took) = tracer.span("cert.generate", i as u64, |_| {
                    CertRequester::generate(id, &mut rng)
                });
                generate.push(us(took));
                r
            })
            .collect();
        let requests: Vec<_> = requesters.iter().map(|r| r.request()).collect();
        let (issued, took) = tracer.span("cert.issue_batch", b as u64, |_| {
            ca.issue_batch(&requests, 0, u32::MAX, &mut rng)
        });
        let issued = issued?;
        issue_batch.push(us(took) / BATCH as f64);
        let (keys, took) = tracer.span("cert.reconstruct_batch", b as u64, |_| {
            CertRequester::reconstruct_batch(&requesters, &issued, &ca_public)
        });
        reconstruct_batch.push(us(took) / BATCH as f64);
        for ((r, cert), keys) in requests.iter().zip(&issued).zip(keys?) {
            creds.push(Credentials {
                id: r.subject,
                cert: cert.certificate,
                keys,
                ca_public,
            });
        }
    }
    let (mut issue, mut reconstruct) = (vec![], vec![]);
    for i in 0..BATCH {
        let requester = CertRequester::generate(label(BATCHES * BATCH + i), &mut rng);
        let (issued, took) = tracer.span("cert.issue", i as u64, |_| {
            ca.issue(&requester.request(), 0, u32::MAX, &mut rng)
        });
        let issued = issued?;
        issue.push(us(took));
        let (keys, took) = tracer.span("cert.reconstruct", i as u64, |_| {
            requester.reconstruct(&issued, &ca_public)
        });
        black_box(keys?);
        reconstruct.push(us(took));
    }
    let mut eq1 = Vec::new();
    for (i, cred) in creds.iter().enumerate() {
        let (q, took) = tracer.span("cert.eq1", i as u64, |_| {
            reconstruct_public_key(&cred.cert, &ca_public)
        });
        black_box(q?);
        eq1.push(us(took));
    }
    c.generate = med(&generate);
    c.issue_batch = med(&issue_batch);
    c.reconstruct_batch = med(&reconstruct_batch);
    c.issue = med(&issue);
    c.reconstruct = med(&reconstruct);
    c.eq1 = med(&eq1);
    Ok(creds)
}

/// The curve primitives a handshake runs, on the sample's own keys:
/// ephemeral `k·G`, ECDH `k·P`, the vartime multiply of eq. (1) on a
/// certificate's public point and hash, and ECDSA sign and verify over
/// a transcript-sized message.
fn replay_p256(
    creds: &[Credentials],
    tracer: &mut Tracer,
    c: &mut Costs,
    problems: &mut Vec<String>,
) {
    let mut t: [Vec<f64>; 5] = Default::default();
    for i in 0..SAMPLES {
        let a = &creds[(2 * i) % creds.len()];
        let b = &creds[(2 * i + 1) % creds.len()];
        let req = i as u64;
        let (p, took) = tracer.span("p256.base_mul_ct", req, |_| {
            mul_generator_ct(&a.keys.private)
        });
        black_box(p);
        t[0].push(us(took));
        let (p, took) = tracer.span("p256.point_mul_ct", req, |_| {
            b.keys.public.mul_ct(&a.keys.private)
        });
        black_box(p);
        t[1].push(us(took));
        let point = match a.cert.reconstruction_point() {
            Ok(point) => point,
            Err(e) => {
                problems.push(format!("sample certificate point: {e}"));
                return;
            }
        };
        let e = cert_hash(&a.cert);
        let (p, took) = tracer.span("p256.point_mul_vartime", req, |_| point.mul_vartime(&e));
        black_box(p);
        t[2].push(us(took));
        let mut msg = [0u8; 128];
        msg[..64].copy_from_slice(&a.cert.to_bytes()[..64]);
        msg[64..].copy_from_slice(&b.cert.to_bytes()[..64]);
        let (sig, took) = tracer.span("p256.ecdsa_sign", req, |_| {
            ecdsa::sign(&a.keys.private, &msg)
        });
        t[3].push(us(took));
        let (ok, took) = tracer.span("p256.ecdsa_verify", req, |_| {
            ecdsa::verify(&a.keys.public, &msg, &sig)
        });
        t[4].push(us(took));
        if !ok {
            problems.push("replayed ECDSA signature did not verify".into());
        }
    }
    c.base_mul_ct = med(&t[0]);
    c.point_mul_ct = med(&t[1]);
    c.point_mul_vartime = med(&t[2]);
    c.sign = med(&t[3]);
    c.verify = med(&t[4]);
}

const STEPS: [&str; 5] = [
    "sts.step_a1",
    "sts.step_b1",
    "sts.step_a2",
    "sts.step_b2",
    "sts.step_fin",
];

/// Hands `message` to the link and takes it off at its delivery time.
fn carry(link: &mut CanLink, from: Role, message: Message) -> Result<Message, String> {
    let at = link
        .send_frame(from, message, 0)
        .map_err(|e| e.to_string())?;
    link.recv_frame(from.peer(), at, at)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "link delivered nothing".to_string())
}

/// The messages of one replayed handshake, and the time its steps and
/// its link crossings took in µs.
struct Stepped {
    messages: Vec<Message>,
    steps_us: f64,
    link_us: f64,
}

/// Steps one handshake to completion, alternating initiator and
/// responder, with each step in its span and its time added to
/// `step_us`. With a link, every message crosses it inside a
/// `simnet.link` span.
fn step_through(
    ini: &mut StsInitiator,
    resp: &mut StsResponder,
    mut link: Option<&mut CanLink>,
    tracer: &mut Tracer,
    req: u64,
    step_us: &mut [Vec<f64>; 5],
) -> Result<Stepped, String> {
    let mut done = Stepped {
        messages: Vec::new(),
        steps_us: 0.0,
        link_us: 0.0,
    };
    let mut incoming: Option<Message> = None;
    for (k, name) in STEPS.iter().enumerate() {
        let initiator = k % 2 == 0;
        let (out, took) = tracer.span(name, req, |_| {
            if initiator {
                ini.step(incoming.as_ref())
            } else {
                resp.step(incoming.as_ref())
            }
        });
        step_us[k].push(us(took));
        done.steps_us += us(took);
        match out.map_err(|e| format!("{name}: {e}"))? {
            StepOutput::Send(message) => {
                done.messages.push(message.clone());
                let from = if initiator {
                    Role::Initiator
                } else {
                    Role::Responder
                };
                incoming = Some(match link.as_deref_mut() {
                    Some(link) => {
                        let (m, took) =
                            tracer.span("simnet.link", req, |_| carry(link, from, message));
                        done.link_us += us(took);
                        m?
                    }
                    None => message,
                });
            }
            StepOutput::Wait | StepOutput::Established => {}
        }
    }
    match (ini.session_key(), resp.session_key()) {
        (Ok(a), Ok(b)) if a == b => Ok(done),
        _ => Err("replayed handshake did not agree on a key".into()),
    }
}

/// First-contact handshakes over `CanLink`, the service frame codec of
/// each, and hinted handshakes (the rekey path) with their hints.
fn replay_handshakes(
    seed: u64,
    creds: &[Credentials],
    tracer: &mut Tracer,
    c: &mut Costs,
    problems: &mut Vec<String>,
) {
    let config = StsConfig {
        now: 0,
        variant: StsVariant::Conventional,
    };
    let mut rng = HmacDrbg::new(&seed.to_le_bytes(), b"perfbench-handshakes");
    let mut step_us: [Vec<f64>; 5] = Default::default();
    let (mut new_us, mut first, mut links, mut frames) = (vec![], vec![], vec![], vec![]);
    let (mut codec, mut bytes) = (vec![], vec![]);
    let (mut hint_us, mut hinted) = (vec![], vec![]);
    let mut hinted_steps: [Vec<f64>; 5] = Default::default();
    for i in 0..SAMPLES {
        let a = &creds[(2 * i) % creds.len()];
        let b = &creds[(2 * i + 1) % creds.len()];
        let req = i as u64;
        let (seed_a, seed_b) = (rng.bytes32(), rng.bytes32());
        let endpoints = |tracer: &mut Tracer| {
            tracer.span("sts.new", req, |_| {
                let mut rng_a = HmacDrbg::new(&seed_a, b"sts-initiator");
                let mut rng_b = HmacDrbg::new(&seed_b, b"sts-responder");
                (
                    StsInitiator::new(a.clone(), config, &mut rng_a),
                    StsResponder::new(b.clone(), config, &mut rng_b),
                )
            })
        };

        // First contact: both sides evaluate eq. (1).
        let ((mut ini, mut resp), took) = endpoints(tracer);
        new_us.push(us(took));
        let presets = [DevicePreset::ALL[i % 4], DevicePreset::ALL[(i + 1) % 4]];
        let mut link = CanLink::for_pair(i as u16, &presets[0].profile(), &presets[1].profile());
        let (out, _) = tracer.span("sts.handshake", req, |tracer| {
            step_through(
                &mut ini,
                &mut resp,
                Some(&mut link),
                tracer,
                req,
                &mut step_us,
            )
        });
        let stepped = match out {
            Ok(stepped) => stepped,
            Err(e) => {
                problems.push(format!("first-contact replay: {e}"));
                return;
            }
        };
        first.push(us(took) + stepped.steps_us);
        links.push(stepped.link_us);
        frames.push(link.frames_carried() as f64);
        c.first_contact_ops = OpCounts::of([ini.trace(), resp.trace()]);

        // The same handshake's service frames through the codec.
        let wire = crate::service::handshake_frames(seed_b, stepped.messages);
        let (coded, took) = tracer.span("proto.codec", req, |_| {
            let mut len = 0;
            for frame in &wire {
                let encoded = frame.encode().map_err(|e| e.to_string())?;
                let (decoded, used) = Frame::decode(&encoded).map_err(|e| e.to_string())?;
                if decoded != *frame || used != encoded.len() {
                    return Err("frame did not round-trip".to_string());
                }
                len += encoded.len();
            }
            Ok(len)
        });
        match coded {
            Ok(len) => bytes.push(len as f64),
            Err(e) => problems.push(format!("codec replay: {e}")),
        }
        codec.push(us(took));

        // Rekey: the same pair with each side's hint for its peer.
        let ((hint_a, hint_b), took) = tracer.span("sts.hint", req, |_| {
            (
                ReconstructionHint::compute(&b.cert, &a.ca_public),
                ReconstructionHint::compute(&a.cert, &b.ca_public),
            )
        });
        hint_us.push(us(took) / 2.0);
        let (Ok(hint_a), Ok(hint_b)) = (hint_a, hint_b) else {
            problems.push("hint computation failed".into());
            return;
        };
        let (out, took) = tracer.span("sts.hinted_handshake", req, |tracer| {
            let ((ini, resp), _) = endpoints(tracer);
            let (mut ini, mut resp) = (ini.with_peer_hint(hint_a), resp.with_peer_hint(hint_b));
            step_through(&mut ini, &mut resp, None, tracer, req, &mut hinted_steps)
                .map(|_| OpCounts::of([ini.trace(), resp.trace()]))
        });
        match out {
            Ok(ops) => c.hinted_ops = ops,
            Err(e) => problems.push(format!("hinted replay: {e}")),
        }
        hinted.push(us(took));
    }
    c.new = med(&new_us);
    c.steps = step_us.map(|v| med(&v));
    c.first_contact = med(&first);
    c.link_per_hs = med(&links);
    c.frames_per_hs = med(&frames);
    c.codec_per_hs = med(&codec);
    c.bytes_per_hs = med(&bytes);
    c.hint = med(&hint_us);
    c.hinted = med(&hinted);
}

fn cost_metrics(c: &Costs) -> Metrics {
    let mut m = Metrics::default();
    m.put("crypto.drbg_us", c.drbg, "us");
    m.put("cert.generate_us", c.generate, "us");
    m.put("cert.issue_batch_us", c.issue_batch, "us");
    m.put("cert.reconstruct_batch_us", c.reconstruct_batch, "us");
    m.put("cert.issue_us", c.issue, "us");
    m.put("cert.reconstruct_us", c.reconstruct, "us");
    m.put("cert.eq1_us", c.eq1, "us");
    m.put("p256.base_mul_ct_us", c.base_mul_ct, "us");
    m.put("p256.point_mul_ct_us", c.point_mul_ct, "us");
    m.put("p256.point_mul_vartime_us", c.point_mul_vartime, "us");
    m.put("p256.ecdsa_sign_us", c.sign, "us");
    m.put("p256.ecdsa_verify_us", c.verify, "us");
    m.put("sts.new_us", c.new, "us");
    for (name, v) in STEPS.iter().zip(c.steps) {
        m.put(format!("{name}_us"), v, "us");
    }
    m.put("sts.first_contact_us", c.first_contact, "us");
    m.put("sts.hint_us", c.hint, "us");
    m.put("sts.hinted_us", c.hinted, "us");
    m.put("simnet.link_us_per_hs", c.link_per_hs, "us");
    m.put("simnet.frames_per_hs", c.frames_per_hs, "count");
    m.put("proto.codec_us_per_hs", c.codec_per_hs, "us");
    m.put("proto.bytes_per_hs", c.bytes_per_hs, "count");
    m
}
