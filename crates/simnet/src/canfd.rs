//! CAN-FD frames and bit-level timing.
//!
//! CAN-FD transmits the arbitration/control phase at the *nominal* bit
//! rate and switches to the *data* bit rate for the payload and CRC
//! (the paper configures 0.5 Mbit/s and 2 Mbit/s respectively). The
//! frame-time model here counts the protocol fields of ISO 11898-1 and
//! applies a conservative stuffing estimate; it is an approximation,
//! but at 3.2-second handshakes a ±10 % error on a 0.3 ms frame is
//! irrelevant (which is the paper's own point about transfer time).

use crate::SimNanos;

/// Valid CAN-FD payload sizes.
pub const DLC_SIZES: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32, 48, 64];

/// Maximum CAN-FD payload per frame.
pub const MAX_PAYLOAD: usize = 64;

/// Returns the smallest valid DLC payload size ≥ `len`.
///
/// # Panics
///
/// Panics when `len > 64` (callers segment via ISO-TP first).
pub fn padded_len(len: usize) -> usize {
    assert!(len <= MAX_PAYLOAD, "CAN-FD payload exceeds 64 bytes");
    DLC_SIZES
        .into_iter()
        .find(|&cap| cap >= len)
        .unwrap_or(MAX_PAYLOAD)
}

/// Bit-rate configuration of the bus.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BitTiming {
    /// Arbitration/control phase bit rate (bit/s).
    pub nominal_bps: f64,
    /// Data phase bit rate (bit/s).
    pub data_bps: f64,
}

impl Default for BitTiming {
    /// The paper's prototype configuration: 0.5 Mbit/s / 2 Mbit/s.
    fn default() -> Self {
        BitTiming {
            nominal_bps: 500_000.0,
            data_bps: 2_000_000.0,
        }
    }
}

/// A CAN-FD data frame (11-bit base identifier).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanFdFrame {
    /// The 11-bit arbitration identifier (lower wins arbitration).
    pub id: u16,
    /// Payload, padded to a valid DLC size on construction.
    pub payload: Vec<u8>,
    /// Number of meaningful payload bytes (≤ `payload.len()`).
    pub used_len: usize,
}

impl CanFdFrame {
    /// Builds a frame, padding the payload to the next DLC size.
    ///
    /// # Panics
    ///
    /// Panics when `id` exceeds 11 bits or the payload exceeds 64
    /// bytes.
    pub fn new(id: u16, data: &[u8]) -> Self {
        assert!(id < 0x800, "11-bit identifier required");
        let padded = padded_len(data.len());
        let mut payload = data.to_vec();
        payload.resize(padded, 0x00); // ISO-TP pads with 0x00 here
        CanFdFrame {
            id,
            payload,
            used_len: data.len(),
        }
    }

    /// Flips bits of one meaningful payload byte (XOR `0xA5`), the
    /// fault-injection model of a corrupted-on-the-wire frame that
    /// still passes the receiving controller's CRC. `offset` is reduced
    /// modulo [`CanFdFrame::used_len`]; a no-op on empty frames.
    pub fn corrupt_byte(&mut self, offset: usize) {
        let at = offset.checked_rem(self.used_len);
        if let Some(byte) = at.and_then(|i| self.payload.get_mut(i)) {
            *byte ^= 0xA5;
        }
    }

    /// Transmission time of this frame under `timing`.
    ///
    /// Field accounting (ISO 11898-1, base format, BRS set):
    ///
    /// * nominal phase: SOF(1) + ID(11) + RRS/IDE/FDF/res(4) +
    ///   BRS(1) ≈ 18 bits, plus ACK+DEL(2) + EOF(7) + IFS(3) = 12
    ///   trailing bits;
    /// * data phase: ESI(1) + DLC(4) + payload·8 + stuff-count(4) +
    ///   CRC(17 for ≤16 B payload, 21 above) + CRC-delimiter(1);
    /// * stuffing: +10 % on the stuffable nominal header and data
    ///   fields (worst case is +20 %; typical traffic sees less).
    pub fn frame_time_ns(&self, timing: &BitTiming) -> SimNanos {
        let crc_bits = if self.payload.len() <= 16 { 17.0 } else { 21.0 };
        let header_nominal_bits = 18.0 * 1.10;
        let trailer_nominal_bits = 12.0; // fixed-form, no stuffing
        let data_bits = (1.0 + 4.0 + 8.0 * self.payload.len() as f64 + 4.0 + crc_bits + 1.0) * 1.10;
        let seconds = (header_nominal_bits + trailer_nominal_bits) / timing.nominal_bps
            + data_bits / timing.data_bps;
        (seconds * 1e9).round() as SimNanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dlc_mapping() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(7), 7);
        assert_eq!(padded_len(9), 12);
        assert_eq!(padded_len(13), 16);
        assert_eq!(padded_len(33), 48);
        assert_eq!(padded_len(64), 64);
    }

    #[test]
    #[should_panic(expected = "exceeds 64")]
    fn oversize_payload_panics() {
        padded_len(65);
    }

    #[test]
    fn frame_pads_payload() {
        let f = CanFdFrame::new(0x123, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(f.payload.len(), 12);
        assert_eq!(f.used_len, 9);
        assert_eq!(&f.payload[9..], &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "11-bit")]
    fn oversize_id_panics() {
        CanFdFrame::new(0x800, &[]);
    }

    #[test]
    fn full_frame_under_half_millisecond() {
        // 64-byte frame at 0.5/2 Mbit/s: ~60 µs nominal + ~300 µs data.
        let f = CanFdFrame::new(0x100, &[0xAA; 64]);
        let t = f.frame_time_ns(&BitTiming::default());
        assert!(t > 200_000, "implausibly fast: {t} ns");
        assert!(t < 500_000, "implausibly slow: {t} ns");
    }

    #[test]
    fn faster_data_rate_shortens_frames() {
        let f = CanFdFrame::new(0x100, &[0xAA; 64]);
        let slow = f.frame_time_ns(&BitTiming {
            nominal_bps: 500_000.0,
            data_bps: 1_000_000.0,
        });
        let fast = f.frame_time_ns(&BitTiming {
            nominal_bps: 500_000.0,
            data_bps: 8_000_000.0,
        });
        assert!(fast < slow);
    }

    #[test]
    fn bigger_payload_takes_longer() {
        let small = CanFdFrame::new(0x1, &[0; 8]).frame_time_ns(&BitTiming::default());
        let large = CanFdFrame::new(0x1, &[0; 64]).frame_time_ns(&BitTiming::default());
        assert!(large > small);
    }
}
