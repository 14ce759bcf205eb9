//! ISO 15765-2 (CAN-TP) transport over CAN-FD.
//!
//! The paper's prototype uses "the CAN-FD derivation with an
//! implemented CAN-TP layer for message fragmentation" \[20\]. This
//! module implements the four N_PDU types over 64-byte CAN-FD frames:
//!
//! * **SF** single frame — payloads up to 62 bytes
//!   (escaped FD encoding: PCI `0x00`, length byte);
//! * **FF** first frame — PCI `0x1L LL` with the 12-bit total length;
//! * **CF** consecutive frame — PCI `0x2S` with a 4-bit sequence
//!   number;
//! * **FC** flow control — `0x30`, block size, STmin.
//!
//! [`segment`] splits a payload, [`Reassembler`] rebuilds it, and
//! [`transfer_time_ns`] accounts the full exchange including flow
//! control and inter-frame separation.

use crate::canfd::{BitTiming, CanFdFrame, MAX_PAYLOAD};
use crate::SimNanos;

/// Maximum payload of an escaped-SF over CAN-FD (64 − 2 PCI bytes).
pub const SF_CAPACITY: usize = MAX_PAYLOAD - 2;
/// Payload carried by a first frame (64 − 2 PCI bytes).
pub const FF_CAPACITY: usize = MAX_PAYLOAD - 2;
/// Payload carried by each consecutive frame (64 − 1 PCI byte).
pub const CF_CAPACITY: usize = MAX_PAYLOAD - 1;
/// Maximum total message length (12-bit FF length field).
pub const MAX_MESSAGE: usize = 4095;

/// Transport-layer configuration (flow-control parameters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsoTpConfig {
    /// CAN identifier used for data frames.
    pub tx_id: u16,
    /// CAN identifier used for flow-control frames (receiver → sender).
    pub fc_id: u16,
    /// Block size: CFs per flow-control round (0 = unlimited).
    pub block_size: u8,
    /// Minimum separation time between CFs, in microseconds.
    pub st_min_us: u32,
}

impl Default for IsoTpConfig {
    fn default() -> Self {
        IsoTpConfig {
            tx_id: 0x100,
            fc_id: 0x101,
            block_size: 0, // no blocking: one FC after the FF
            st_min_us: 0,
        }
    }
}

/// Errors from the transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsoTpError {
    /// Payload exceeds the 12-bit length field.
    TooLong,
    /// A frame's PCI was malformed or unexpected.
    ProtocolViolation,
    /// A consecutive frame arrived with the wrong sequence number.
    SequenceError,
}

impl core::fmt::Display for IsoTpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IsoTpError::TooLong => write!(f, "message exceeds ISO-TP length limit"),
            IsoTpError::ProtocolViolation => write!(f, "malformed or unexpected N_PDU"),
            IsoTpError::SequenceError => write!(f, "consecutive-frame sequence mismatch"),
        }
    }
}

impl std::error::Error for IsoTpError {}

/// Segments `payload` into CAN-FD frames (without flow control, which
/// the receiver interleaves).
///
/// # Errors
///
/// [`IsoTpError::TooLong`] for payloads above [`MAX_MESSAGE`].
pub fn segment(payload: &[u8], config: &IsoTpConfig) -> Result<Vec<CanFdFrame>, IsoTpError> {
    if payload.len() > MAX_MESSAGE {
        return Err(IsoTpError::TooLong);
    }
    if payload.len() <= SF_CAPACITY {
        // Escaped single frame: [0x00, len, data…]
        let mut bytes = Vec::with_capacity(payload.len() + 2);
        bytes.push(0x00);
        bytes.push(payload.len() as u8);
        bytes.extend_from_slice(payload);
        return Ok(vec![CanFdFrame::new(config.tx_id, &bytes)]);
    }
    let mut frames = Vec::new();
    // First frame: [0x10 | len_hi, len_lo, data…]
    let len = payload.len();
    let mut bytes = Vec::with_capacity(MAX_PAYLOAD);
    bytes.push(0x10 | ((len >> 8) as u8 & 0x0F));
    bytes.push((len & 0xFF) as u8);
    bytes.extend_from_slice(&payload[..FF_CAPACITY]);
    frames.push(CanFdFrame::new(config.tx_id, &bytes));

    let mut offset = FF_CAPACITY;
    let mut seq: u8 = 1;
    while offset < len {
        let take = (len - offset).min(CF_CAPACITY);
        let mut bytes = Vec::with_capacity(take + 1);
        bytes.push(0x20 | (seq & 0x0F));
        bytes.extend_from_slice(&payload[offset..offset + take]);
        frames.push(CanFdFrame::new(config.tx_id, &bytes));
        offset += take;
        seq = (seq + 1) & 0x0F;
    }
    Ok(frames)
}

/// Builds a flow-control frame (`FC.CTS`).
pub fn flow_control_frame(config: &IsoTpConfig) -> CanFdFrame {
    let st_min_encoded = if config.st_min_us == 0 {
        0x00
    } else if config.st_min_us < 1000 {
        // 100–900 µs range encodes as 0xF1–0xF9.
        0xF0 + (config.st_min_us / 100).clamp(1, 9) as u8
    } else {
        (config.st_min_us / 1000).min(0x7F) as u8
    };
    CanFdFrame::new(config.fc_id, &[0x30, config.block_size, st_min_encoded])
}

/// Streaming reassembler for one inbound ISO-TP message.
#[derive(Debug, Default)]
pub struct Reassembler {
    buffer: Vec<u8>,
    expected_len: usize,
    next_seq: u8,
    in_progress: bool,
}

impl Reassembler {
    /// Creates an idle reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a multi-frame message is mid-reassembly.
    pub fn in_progress(&self) -> bool {
        self.in_progress
    }

    /// Feeds one data frame. Returns the completed message when the
    /// last frame arrives.
    ///
    /// # Errors
    ///
    /// [`IsoTpError::ProtocolViolation`] or
    /// [`IsoTpError::SequenceError`] on malformed input; the
    /// reassembler resets itself on error.
    pub fn accept(&mut self, frame: &CanFdFrame) -> Result<Option<Vec<u8>>, IsoTpError> {
        let result = self.accept_inner(frame);
        if result.is_err() {
            *self = Self::default();
        }
        result
    }

    fn accept_inner(&mut self, frame: &CanFdFrame) -> Result<Option<Vec<u8>>, IsoTpError> {
        let bytes = &frame.payload;
        if bytes.is_empty() {
            return Err(IsoTpError::ProtocolViolation);
        }
        match bytes[0] >> 4 {
            0x0 => {
                // Escaped SF: [0x00, len, data…]
                if self.in_progress || bytes.len() < 2 || bytes[0] != 0x00 {
                    return Err(IsoTpError::ProtocolViolation);
                }
                let len = bytes[1] as usize;
                if len > SF_CAPACITY || bytes.len() < 2 + len {
                    return Err(IsoTpError::ProtocolViolation);
                }
                Ok(Some(bytes[2..2 + len].to_vec()))
            }
            0x1 => {
                if self.in_progress || bytes.len() < 2 {
                    return Err(IsoTpError::ProtocolViolation);
                }
                let len = (((bytes[0] & 0x0F) as usize) << 8) | bytes[1] as usize;
                if len <= SF_CAPACITY {
                    return Err(IsoTpError::ProtocolViolation);
                }
                self.buffer.clear();
                self.buffer
                    .extend_from_slice(&bytes[2..(2 + FF_CAPACITY).min(bytes.len())]);
                self.expected_len = len;
                self.next_seq = 1;
                self.in_progress = true;
                Ok(None)
            }
            0x2 => {
                if !self.in_progress {
                    return Err(IsoTpError::ProtocolViolation);
                }
                let seq = bytes[0] & 0x0F;
                if seq != self.next_seq {
                    return Err(IsoTpError::SequenceError);
                }
                self.next_seq = (self.next_seq + 1) & 0x0F;
                let remaining = self.expected_len - self.buffer.len();
                let take = remaining.min(CF_CAPACITY).min(bytes.len() - 1);
                self.buffer.extend_from_slice(&bytes[1..1 + take]);
                if self.buffer.len() == self.expected_len {
                    self.in_progress = false;
                    Ok(Some(std::mem::take(&mut self.buffer)))
                } else {
                    Ok(None)
                }
            }
            0x3 => Ok(None), // FC frames are handled by the sender side
            _ => Err(IsoTpError::ProtocolViolation),
        }
    }
}

/// Total bus time to move `payload_len` bytes through ISO-TP,
/// including the FF→FC round trip, per-block flow control and STmin
/// gaps. This is the per-message cost the Fig. 7 timeline charges.
pub fn transfer_time_ns(payload_len: usize, timing: &BitTiming, config: &IsoTpConfig) -> SimNanos {
    let payload = vec![0u8; payload_len];
    let frames = segment(&payload, config).expect("length validated by caller");
    let mut total: SimNanos = 0;
    for f in &frames {
        total += f.frame_time_ns(timing);
    }
    if frames.len() > 1 {
        let fc = flow_control_frame(config);
        // One FC after the FF, plus one per full block of CFs.
        let cf_count = frames.len() - 1;
        let fc_rounds = cf_count
            .saturating_sub(1)
            .checked_div(config.block_size as usize)
            .map_or(1, |blocks| 1 + blocks);
        total += fc.frame_time_ns(timing) * fc_rounds as u64;
        total += (config.st_min_us as u64) * 1000 * cf_count as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(len: usize) {
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let config = IsoTpConfig::default();
        let frames = segment(&payload, &config).unwrap();
        let mut r = Reassembler::new();
        let mut out = None;
        for f in &frames {
            out = r.accept(f).unwrap();
        }
        assert_eq!(out.expect("message completes"), payload, "len {len}");
    }

    #[test]
    fn single_frame_roundtrip() {
        for len in [0usize, 1, 32, 61, 62] {
            roundtrip(len);
        }
    }

    #[test]
    fn multi_frame_roundtrip() {
        // The handshake message sizes of Table II, plus boundaries.
        for len in [
            63usize, 64, 80, 101, 125, 126, 165, 197, 245, 427, 491, 820, 4095,
        ] {
            roundtrip(len);
        }
    }

    #[test]
    fn too_long_rejected() {
        let config = IsoTpConfig::default();
        assert_eq!(
            segment(&vec![0u8; 4096], &config).unwrap_err(),
            IsoTpError::TooLong
        );
    }

    #[test]
    fn frame_counts() {
        let config = IsoTpConfig::default();
        assert_eq!(segment(&[0u8; 62], &config).unwrap().len(), 1);
        // 245 B (STS B1): FF carries 62, then ceil(183/63) = 3 CFs.
        assert_eq!(segment(&[0u8; 245], &config).unwrap().len(), 4);
    }

    #[test]
    fn sequence_error_detected_and_resets() {
        let config = IsoTpConfig::default();
        let frames = segment(&[0u8; 200], &config).unwrap();
        let mut r = Reassembler::new();
        r.accept(&frames[0]).unwrap();
        // Skip CF #1, deliver CF #2.
        assert_eq!(r.accept(&frames[2]).unwrap_err(), IsoTpError::SequenceError);
        assert!(!r.in_progress());
    }

    #[test]
    fn cf_without_ff_rejected() {
        let config = IsoTpConfig::default();
        let frames = segment(&[0u8; 200], &config).unwrap();
        let mut r = Reassembler::new();
        assert_eq!(
            r.accept(&frames[1]).unwrap_err(),
            IsoTpError::ProtocolViolation
        );
    }

    #[test]
    fn fc_frames_ignored_by_reassembler() {
        let config = IsoTpConfig::default();
        let mut r = Reassembler::new();
        assert_eq!(r.accept(&flow_control_frame(&config)).unwrap(), None);
    }

    #[test]
    fn handshake_messages_under_two_ms() {
        // The paper: "The CAN-FD transfer time over the physical link
        // was negligible (< 1 ms)" per message; our model with the FC
        // round trip lands at or below ~1.6 ms for the largest STS
        // message and well under 1 ms for single-frame messages.
        let timing = BitTiming::default();
        let config = IsoTpConfig::default();
        for len in [80usize, 165, 245] {
            let t = transfer_time_ns(len, &timing, &config);
            assert!(t < 2_000_000, "{len} B took {t} ns");
        }
        assert!(transfer_time_ns(1, &timing, &config) < 500_000);
    }

    #[test]
    fn st_min_adds_gaps() {
        let timing = BitTiming::default();
        let fast = IsoTpConfig::default();
        let slow = IsoTpConfig {
            st_min_us: 1000,
            ..fast
        };
        let t_fast = transfer_time_ns(245, &timing, &fast);
        let t_slow = transfer_time_ns(245, &timing, &slow);
        assert_eq!(t_slow - t_fast, 3 * 1000 * 1000); // 3 CFs × 1 ms
    }

    #[test]
    fn block_size_adds_fc_rounds() {
        let timing = BitTiming::default();
        let unblocked = IsoTpConfig::default();
        let blocked = IsoTpConfig {
            block_size: 1,
            ..unblocked
        };
        assert!(
            transfer_time_ns(245, &timing, &blocked) > transfer_time_ns(245, &timing, &unblocked)
        );
    }
}
