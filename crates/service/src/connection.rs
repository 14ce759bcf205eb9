//! Per-connection frame dispatch.
//!
//! `handle_connection` is a panic-reachability root for `ecq_lint`:
//! everything reachable from here must fail closed with a typed
//! [`ErrorCode`] frame, never a panic — a hostile peer controls every
//! byte this module reads.

use crate::daemon::Shared;
use crate::stream::ServiceStream;
use crate::variant_from_code;
use ecq_cert::requester::CertRequest;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_p256::point::AffinePoint;
use ecq_proto::framing::ErrorCode;
use ecq_proto::socket::write_frame;
use ecq_proto::{Endpoint, Frame, StepOutput, TransportError};
use ecq_sts::{StsConfig, StsResponder};
use std::io::Read;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Poll granularity: a connection wakes this often to notice a daemon
/// shutdown or an expired idle deadline. The accept loop, which blocks
/// in `accept`, waits this long only after a failed accept.
pub(crate) const TICK: Duration = Duration::from_millis(50);

/// Per-connection write timeout for response frames.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How one service of a frame (or a read attempt) ends.
enum Outcome {
    /// A complete frame was decoded.
    Frame(Frame),
    /// The idle deadline passed without a complete frame.
    Deadline,
    /// The daemon is shutting down.
    Shutdown,
    /// The peer closed the stream (or an unrecoverable read error).
    Closed,
    /// The byte stream is not a valid frame stream.
    Bad,
}

/// Accumulates stream bytes and yields complete frames.
struct FrameSource {
    buf: Vec<u8>,
}

impl FrameSource {
    fn new() -> Self {
        FrameSource { buf: Vec::new() }
    }

    /// Blocks (in `TICK` steps) until a complete frame arrives, the
    /// idle budget runs out, the daemon shuts down, or the stream
    /// fails. The budget runs from the call, so a peer that trickles a
    /// frame byte by byte still meets it. Buffered surplus bytes carry
    /// over to the next call, so a peer may batch frames in one write.
    ///
    /// This and `serve_handshake` are named apart from `Iterator::next`
    /// and `AppMessage::handshake`: `ecq_lint` resolves calls by simple
    /// name, and a shared name would pull this host-timed daemon code
    /// into the determinism pass's report cone.
    fn next_frame(&mut self, stream: &mut ServiceStream, shared: &Shared) -> Outcome {
        let started = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if !self.buf.is_empty() {
                match Frame::decode(&self.buf) {
                    Ok((frame, used)) => {
                        self.buf.drain(..used);
                        return Outcome::Frame(frame);
                    }
                    Err(TransportError::Truncated) => {} // need more bytes
                    Err(_) => return Outcome::Bad,
                }
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                return Outcome::Shutdown;
            }
            if started.elapsed() >= shared.read_timeout {
                return Outcome::Deadline;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Outcome::Closed,
                Ok(n) => {
                    if let Some(bytes) = chunk.get(..n) {
                        self.buf.extend_from_slice(bytes);
                    }
                }
                Err(e) => match e.kind() {
                    std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::Interrupted => {}
                    _ => return Outcome::Closed,
                },
            }
        }
    }
}

/// Serves one accepted connection to completion. Never panics; every
/// abnormal end sends a typed [`ErrorCode`] frame before closing.
pub(crate) fn handle_connection(shared: &Shared, mut stream: ServiceStream) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    if stream.set_read_deadline(Some(TICK)).is_err()
        || stream.set_write_deadline(Some(WRITE_TIMEOUT)).is_err()
    {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if let Err(Some(code)) = serve(shared, &mut stream) {
        // Administrative closes (daemon shutdown) are not peer
        // faults; everything else counts as a connection error.
        if code != ErrorCode::ShuttingDown {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        let _ = write_frame(&mut stream, &Frame::ErrorClose { code: code.code() });
    }
}

/// The dispatch loop. `Err(Some(code))` closes with a typed error
/// frame; `Err(None)` is a silent close (the peer already went away).
fn serve(shared: &Shared, stream: &mut ServiceStream) -> Result<(), Option<ErrorCode>> {
    let mut source = FrameSource::new();
    loop {
        match source.next_frame(stream, shared) {
            Outcome::Frame(Frame::Hello { nonce: _ }) => {
                let ca_public = shared
                    .ca
                    .public_key()
                    .to_bytes_compressed()
                    .map_err(|_| Some(ErrorCode::BadFrame))?;
                write_frame(stream, &Frame::HelloAck { ca_public }).map_err(|_| None)?;
            }
            Outcome::Frame(Frame::EnrollRequest { subject, point }) => {
                let issued = enroll(shared, subject, &point)?;
                write_frame(stream, &issued).map_err(|_| None)?;
                shared.stats.enrollments.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Frame(Frame::HsOpen { seed, variant, now }) => {
                serve_handshake(shared, stream, &mut source, &seed, variant, now)?;
                shared.stats.handshakes.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Frame(Frame::CrlRequest) => {
                let reply = crl_response(shared)?;
                write_frame(stream, &reply).map_err(|_| None)?;
                shared.stats.crl_fetches.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Frame(Frame::ErrorClose { .. }) => return Ok(()),
            // Server-to-client frames (and stray handshake messages
            // outside a session) are protocol violations here.
            Outcome::Frame(_) => return Err(Some(ErrorCode::BadFrame)),
            Outcome::Deadline => return Err(Some(ErrorCode::Deadline)),
            Outcome::Shutdown => return Err(Some(ErrorCode::ShuttingDown)),
            Outcome::Closed => return Ok(()),
            Outcome::Bad => return Err(Some(ErrorCode::BadFrame)),
        }
    }
}

fn enroll(
    shared: &Shared,
    subject: [u8; 16],
    point: &[u8; 33],
) -> Result<Frame, Option<ErrorCode>> {
    let subject = DeviceId::from_bytes(subject);
    // The daemon's own identities are not for a client to claim.
    if subject == shared.responder.cert.subject || subject == shared.ca.id() {
        return Err(Some(ErrorCode::EnrollRefused));
    }
    let point =
        AffinePoint::from_bytes_compressed(point).map_err(|_| Some(ErrorCode::EnrollRefused))?;
    let request = CertRequest { subject, point };
    let mut rng = shared
        .issue_rng
        .lock()
        .map_err(|_| Some(ErrorCode::EnrollRefused))?;
    let issued = shared
        .ca
        .issue(&request, shared.valid_from, shared.valid_to, &mut rng)
        .map_err(|_| Some(ErrorCode::EnrollRefused))?;
    Ok(Frame::EnrollIssued {
        cert: issued.certificate.to_bytes(),
        recon_private: issued.recon_private.to_be_bytes(),
    })
}

fn serve_handshake(
    shared: &Shared,
    stream: &mut ServiceStream,
    source: &mut FrameSource,
    seed: &[u8; 32],
    variant: u8,
    now: u32,
) -> Result<(), Option<ErrorCode>> {
    let variant = variant_from_code(variant).ok_or(Some(ErrorCode::BadFrame))?;
    let config = StsConfig { now, variant };
    // A daemon with a secret seed ignores the client's: a seed sent in
    // clear would hand any observer the responder's ephemeral key. In
    // deterministic mode the stream derives from the client's seed
    // exactly as `ecq_sts::establish` derives it, which is what makes
    // socket transcripts comparable to simulator runs.
    let mut rng = match &shared.responder_rng {
        Some(own) => {
            let mut own = own.lock().map_err(|_| Some(ErrorCode::HandshakeFailed))?;
            HmacDrbg::new(&own.bytes32(), b"sts-responder")
        }
        None => HmacDrbg::new(seed, b"sts-responder"),
    };
    let mut responder = StsResponder::new(shared.responder.clone(), config, &mut rng);
    while !responder.is_established() {
        let message = match source.next_frame(stream, shared) {
            Outcome::Frame(Frame::HsMessage(message)) => message,
            Outcome::Frame(_) => return Err(Some(ErrorCode::BadFrame)),
            Outcome::Deadline => return Err(Some(ErrorCode::Deadline)),
            Outcome::Shutdown => return Err(Some(ErrorCode::ShuttingDown)),
            Outcome::Closed => return Err(None),
            Outcome::Bad => return Err(Some(ErrorCode::BadFrame)),
        };
        match responder.step(Some(&message)) {
            Ok(StepOutput::Send(reply)) => {
                write_frame(stream, &Frame::HsMessage(reply)).map_err(|_| None)?;
            }
            Ok(StepOutput::Wait) | Ok(StepOutput::Established) => {}
            Err(_) => return Err(Some(ErrorCode::HandshakeFailed)),
        }
    }
    Ok(())
}

fn crl_response(shared: &Shared) -> Result<Frame, Option<ErrorCode>> {
    let crl = shared
        .crl
        .lock()
        .map_err(|_| Some(ErrorCode::BadFrame))?
        .to_bytes();
    let signature = shared.ca.sign_revocation_list(&crl).to_bytes().to_vec();
    Ok(Frame::CrlResponse { crl, signature })
}
