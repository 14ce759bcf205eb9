//! SEC1 point encodings.
//!
//! The ECQV minimal certificate of the paper (Table II: `Cert(101)`)
//! carries the public reconstruction point in *compressed* form
//! (33 bytes); the STS ephemeral points travel as raw 64-byte `x‖y`
//! pairs (`XG(64)`), matching the paper's overhead accounting.

use crate::field::FieldElement;
use crate::point::{curve_rhs, AffinePoint};
use crate::CurveError;

/// Length of a compressed SEC1 point encoding.
pub const COMPRESSED_LEN: usize = 33;
/// Length of a raw `x‖y` encoding (no tag), as used for `XG` on the wire.
pub const RAW_LEN: usize = 64;

/// Encodes a point in compressed SEC1 form (`02/03 ‖ x`).
///
/// # Panics
///
/// Panics on the point at infinity, which has no SEC1 encoding here;
/// protocol code never legitimately transmits it.
pub fn encode_compressed(p: &AffinePoint) -> [u8; COMPRESSED_LEN] {
    assert!(!p.infinity, "cannot encode the point at infinity");
    let mut out = [0u8; COMPRESSED_LEN];
    out[0] = if p.y.is_odd() { 0x03 } else { 0x02 };
    out[1..].copy_from_slice(&p.x.to_be_bytes());
    out
}

/// Decodes a compressed SEC1 point, recomputing `y` via a square root.
///
/// # Errors
///
/// [`CurveError::InvalidPoint`] on a bad tag, out-of-range `x`, or an
/// `x` with no corresponding curve point.
pub fn decode_compressed(bytes: &[u8]) -> Result<AffinePoint, CurveError> {
    if bytes.len() != COMPRESSED_LEN || (bytes[0] != 0x02 && bytes[0] != 0x03) {
        return Err(CurveError::InvalidPoint);
    }
    let mut xb = [0u8; 32];
    xb.copy_from_slice(&bytes[1..]);
    let x = FieldElement::from_be_bytes(&xb).ok_or(CurveError::InvalidPoint)?;
    let mut y = curve_rhs(&x).sqrt().ok_or(CurveError::InvalidPoint)?;
    let want_odd = bytes[0] == 0x03;
    if y.is_odd() != want_odd {
        y = y.neg();
    }
    AffinePoint::from_coords(x, y).ok_or(CurveError::InvalidPoint)
}

/// Encodes a point as a raw 64-byte `x ‖ y` pair (the paper's `XG(64)`).
///
/// # Panics
///
/// Panics on the point at infinity.
pub fn encode_raw(p: &AffinePoint) -> [u8; RAW_LEN] {
    assert!(!p.infinity, "cannot encode the point at infinity");
    let mut out = [0u8; RAW_LEN];
    out[..32].copy_from_slice(&p.x.to_be_bytes());
    out[32..].copy_from_slice(&p.y.to_be_bytes());
    out
}

/// Decodes a raw 64-byte `x ‖ y` pair, validating the curve equation.
///
/// # Errors
///
/// [`CurveError::InvalidPoint`] on malformed input or off-curve points.
pub fn decode_raw(bytes: &[u8]) -> Result<AffinePoint, CurveError> {
    if bytes.len() != RAW_LEN {
        return Err(CurveError::InvalidPoint);
    }
    let mut xb = [0u8; 32];
    let mut yb = [0u8; 32];
    xb.copy_from_slice(&bytes[..32]);
    yb.copy_from_slice(&bytes[32..]);
    let x = FieldElement::from_be_bytes(&xb).ok_or(CurveError::InvalidPoint)?;
    let y = FieldElement::from_be_bytes(&yb).ok_or(CurveError::InvalidPoint)?;
    AffinePoint::from_coords(x, y).ok_or(CurveError::InvalidPoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::mul_generator_vartime;
    use crate::scalar::Scalar;
    use ecq_crypto::HmacDrbg;

    #[test]
    fn compressed_roundtrip() {
        let mut rng = HmacDrbg::from_seed(21);
        for _ in 0..4 {
            let p = mul_generator_vartime(&Scalar::random(&mut rng));
            let enc = encode_compressed(&p);
            let dec = decode_compressed(&enc).unwrap();
            assert_eq!(dec, p);
        }
    }

    #[test]
    fn raw_roundtrip() {
        let p = mul_generator_vartime(&Scalar::from_u64(77));
        assert_eq!(decode_raw(&encode_raw(&p)).unwrap(), p);
    }

    #[test]
    fn parity_tag_distinguishes_y() {
        let p = mul_generator_vartime(&Scalar::from_u64(5));
        let enc_p = encode_compressed(&p);
        let enc_neg = encode_compressed(&p.neg());
        assert_ne!(enc_p[0], enc_neg[0]);
        assert_eq!(enc_p[1..], enc_neg[1..]);
    }

    #[test]
    fn rejects_bad_encodings() {
        assert!(decode_compressed(&[0u8; 33]).is_err()); // bad tag
        assert!(decode_compressed(&[0x02; 10]).is_err()); // bad length
        assert!(decode_raw(&[0u8; 64]).is_err()); // (0,0) not on curve
        assert!(decode_raw(&[0u8; 63]).is_err());
        // x >= p must be rejected.
        let mut bad = [0xffu8; 33];
        bad[0] = 0x02;
        assert!(decode_compressed(&bad).is_err());
    }

    #[test]
    fn rejects_non_residue_x() {
        // Find an x with no curve point: x = 5 happens to be one for
        // P-256 (x³−3x+b is a non-residue); verify decode fails cleanly
        // for at least one small x.
        let mut rejected = 0;
        for x in 1u8..20 {
            let mut enc = [0u8; 33];
            enc[0] = 0x02;
            enc[32] = x;
            if decode_compressed(&enc).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "some small x must be off-curve");
    }

    #[test]
    #[should_panic(expected = "infinity")]
    fn encoding_infinity_panics() {
        encode_compressed(&AffinePoint::identity());
    }
}
