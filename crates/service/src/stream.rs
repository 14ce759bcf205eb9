//! A unified byte stream over the daemon's two listener families.

use ecq_proto::TransportError;
use std::io::{Read, Write};
use std::time::Duration;

/// Either a TCP or a Unix-domain connection, behind one type so the
/// connection handler and the client are listener-agnostic.
#[derive(Debug)]
pub enum ServiceStream {
    /// A TCP connection.
    Tcp(std::net::TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl ServiceStream {
    /// Sets the read timeout (`None` blocks indefinitely).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure as [`TransportError`].
    pub fn set_read_deadline(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        match self {
            ServiceStream::Tcp(s) => s.set_read_timeout(timeout).map_err(TransportError::from),
            #[cfg(unix)]
            ServiceStream::Unix(s) => s.set_read_timeout(timeout).map_err(TransportError::from),
        }
    }

    /// Sets the write timeout (`None` blocks indefinitely).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure as [`TransportError`].
    pub fn set_write_deadline(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        match self {
            ServiceStream::Tcp(s) => s.set_write_timeout(timeout).map_err(TransportError::from),
            #[cfg(unix)]
            ServiceStream::Unix(s) => s.set_write_timeout(timeout).map_err(TransportError::from),
        }
    }
}

impl Read for ServiceStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ServiceStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ServiceStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ServiceStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ServiceStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ServiceStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ServiceStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ServiceStream::Unix(s) => s.flush(),
        }
    }
}
