//! Blocking frame I/O over a byte stream.
//!
//! [`read_frame`] and [`write_frame`] move one versioned
//! [`crate::framing`] frame at a time over any [`Read`] / [`Write`]
//! stream (TCP, Unix domain sockets). The service client and daemon
//! frame their traffic with them. A read deadline set on the stream
//! surfaces as [`TransportError::Timeout`].

use crate::error::TransportError;
use crate::framing::{Frame, HEADER_LEN};
use std::io::{Read, Write};

/// Reads exactly one frame from `stream`: a 12-byte header (validated
/// before any payload byte is read) followed by the declared payload.
///
/// # Errors
///
/// Header/payload decode errors from [`crate::framing`], plus
/// [`TransportError::Timeout`] / [`TransportError::Closed`] from the
/// stream itself.
pub fn read_frame<S: Read>(stream: &mut S) -> Result<Frame, TransportError> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    let (kind, len) = Frame::parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Frame::decode_payload(kind, &payload)
}

/// Writes one frame to `stream` and flushes it.
///
/// # Errors
///
/// Frame-encode errors plus stream I/O errors, as [`TransportError`].
pub fn write_frame<S: Write>(stream: &mut S, frame: &Frame) -> Result<(), TransportError> {
    let bytes = frame.encode()?;
    stream.write_all(&bytes)?;
    stream.flush()?;
    Ok(())
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    #[test]
    fn recv_deadline_times_out() {
        // Nothing in flight: the read deadline on the blocking socket
        // must surface as a typed timeout, not as an I/O error.
        let (mut a, _b) = UnixStream::pair().unwrap();
        a.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        assert_eq!(read_frame(&mut a).unwrap_err(), TransportError::Timeout);
    }
}
