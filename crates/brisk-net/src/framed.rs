//! Shared framing over any stream socket.
//!
//! Both the TCP and Unix-domain transports speak the same wire framing — a
//! 4-byte big-endian length prefix per frame. [`FramedConnection`]
//! implements it once over anything satisfying [`RawStream`].
//!
//! This is the first consumer of raw wire bytes, so its decode path must
//! never panic regardless of input.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::traits::Connection;
use crate::MAX_FRAME_BYTES;
use brisk_core::{BriskError, Result};
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

/// The socket operations framing needs beyond `Read + Write`.
pub trait RawStream: Read + Write + Send {
    /// Set (or clear) the read timeout.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Toggle non-blocking mode.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;
    /// Human-readable peer identity.
    fn peer_label(&self) -> String;
    /// The underlying OS file descriptor, if any (reactor polling).
    fn raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        None
    }
}

impl RawStream for std::net::TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        std::net::TcpStream::set_nonblocking(self, nonblocking)
    }

    fn peer_label(&self) -> String {
        self.peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }

    fn raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        use std::os::unix::io::AsRawFd;
        Some(self.as_raw_fd())
    }
}

#[cfg(unix)]
impl RawStream for std::os::unix::net::UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::set_nonblocking(self, nonblocking)
    }

    fn peer_label(&self) -> String {
        self.peer_addr()
            .ok()
            .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
            .unwrap_or_else(|| "<unix-peer>".into())
    }

    fn raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        use std::os::unix::io::AsRawFd;
        Some(self.as_raw_fd())
    }
}

/// Initial receive-buffer size, and the least spare room a read asks the
/// kernel to fill.
const READ_CHUNK: usize = 64 * 1024;

/// One framed connection over a raw stream socket.
pub struct FramedConnection<S: RawStream> {
    stream: S,
    /// Receive buffer: `rbuf[rpos..rend]` holds bytes received but not yet
    /// consumed as whole frames (a timeout may strike mid-frame; the
    /// partial bytes wait here so nothing is lost), and reads land in the
    /// spare tail `rbuf[rend..]`. Frames are consumed by advancing
    /// `rpos`; the unread bytes move to the front only when the tail runs
    /// short, so a read that brings many frames costs one copy per frame
    /// out, not a shift of the whole buffer per frame. The buffer is
    /// zero-filled once, when it is created or grown, never per read.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// Send scratch: prefix + payload are combined into one `write` — one
    /// syscall per frame, and (on Unix sockets) one kernel skb instead of
    /// two, which doubles how many small unread frames fit in the socket
    /// buffer before backpressure.
    wbuf: Vec<u8>,
    peer: String,
}

impl<S: RawStream> FramedConnection<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> Self {
        let peer = stream.peer_label();
        FramedConnection {
            stream,
            rbuf: vec![0; READ_CHUNK],
            rpos: 0,
            rend: 0,
            wbuf: Vec::with_capacity(4 * 1024),
            peer,
        }
    }

    /// If the unread bytes hold a complete frame, detach and return it.
    fn try_extract_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let unread = &self.rbuf[self.rpos..self.rend];
        let Some(prefix) = unread.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_be_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(BriskError::Protocol(format!(
                "frame length {len} exceeds {MAX_FRAME_BYTES}"
            )));
        }
        let Some(frame) = unread.get(4..4 + len) else {
            return Ok(None);
        };
        let frame = frame.to_vec();
        self.rpos += 4 + len;
        if self.rpos == self.rend {
            self.rpos = 0;
            self.rend = 0;
        }
        Ok(Some(frame))
    }

    /// Make at least a quarter of [`READ_CHUNK`] of spare room after the
    /// unread bytes: move them to the front when the tail runs short, and
    /// grow the buffer when even that is not enough (a frame larger than
    /// the buffer).
    fn make_room(&mut self) {
        if self.rbuf.len() - self.rend >= READ_CHUNK / 4 {
            return;
        }
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.rend -= self.rpos;
            self.rpos = 0;
        }
        if self.rbuf.len() - self.rend < READ_CHUNK / 4 {
            let grown = (2 * self.rbuf.len()).max(self.rend + READ_CHUNK);
            self.rbuf.resize(grown, 0);
        }
    }

    fn recv_inner(&mut self) -> Result<Option<Vec<u8>>> {
        loop {
            if let Some(frame) = self.try_extract_frame()? {
                return Ok(Some(frame));
            }
            self.make_room();
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => return Err(BriskError::Disconnected),
                Ok(n) => self.rend += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl<S: RawStream> Connection for FramedConnection<S> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        if frame.len() > MAX_FRAME_BYTES {
            return Err(BriskError::Protocol(format!(
                "frame length {} exceeds {MAX_FRAME_BYTES}",
                frame.len()
            )));
        }
        self.wbuf.clear();
        self.wbuf
            .extend_from_slice(&(frame.len() as u32).to_be_bytes());
        self.wbuf.extend_from_slice(frame);
        self.stream.write_all(&self.wbuf)?;
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>> {
        // A zero timeout means "poll without blocking": the EXS uses it on
        // its hot path, so it must cost one non-blocking read, not a 1 ms
        // stall. std rejects Duration::ZERO in set_read_timeout, hence the
        // nonblocking-mode branch.
        let nonblocking = timeout == Some(Duration::ZERO);
        if nonblocking {
            self.stream.set_nonblocking(true)?;
        } else {
            self.stream.set_nonblocking(false)?;
            let timeout = timeout.map(|t| t.max(Duration::from_millis(1)));
            self.stream.set_read_timeout(timeout)?;
        }
        let result = self.recv_inner();
        if nonblocking {
            self.stream.set_nonblocking(false)?;
        }
        result
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        self.stream.raw_fd()
    }

    fn has_buffered(&self) -> bool {
        self.rpos < self.rend
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A stream that hands out scripted reads: each `read` returns the
    /// next chunk (or as much of it as fits), then `WouldBlock` once the
    /// script runs dry.
    struct Scripted {
        reads: VecDeque<Vec<u8>>,
        calls: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let Some(mut chunk) = self.reads.pop_front() else {
                return Err(ErrorKind::WouldBlock.into());
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.reads.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl RawStream for Scripted {
        fn set_read_timeout(&self, _: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
        fn set_nonblocking(&self, _: bool) -> std::io::Result<()> {
            Ok(())
        }
        fn peer_label(&self) -> String {
            "scripted".into()
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    fn conn(reads: Vec<Vec<u8>>) -> FramedConnection<Scripted> {
        FramedConnection::new(Scripted {
            reads: reads.into(),
            calls: 0,
        })
    }

    #[test]
    fn many_frames_in_one_read_come_out_in_order_from_one_read() {
        let payloads: Vec<Vec<u8>> = (0..500u32)
            .map(|i| vec![i as u8; (i % 97) as usize])
            .collect();
        let burst: Vec<u8> = payloads.iter().flat_map(|p| framed(p)).collect();
        assert!(burst.len() < READ_CHUNK, "one read delivers the burst");
        let mut c = conn(vec![burst]);
        for p in &payloads {
            assert_eq!(c.recv(Some(Duration::ZERO)).unwrap().as_ref(), Some(p));
        }
        assert_eq!(c.stream.calls, 1, "every frame came out of the one read");
        assert!(!c.has_buffered());
        assert_eq!(c.recv(Some(Duration::ZERO)).unwrap(), None);
    }

    #[test]
    fn a_frame_split_across_reads_is_reassembled() {
        let big: Vec<u8> = (0..3 * READ_CHUNK as u32).map(|i| i as u8).collect();
        let wire = [framed(b"head"), framed(&big), framed(b"tail")].concat();
        // Split the stream at awkward points: inside the first prefix,
        // inside the big frame's prefix, and many times inside its body.
        let mut cuts = vec![2, 9, 10, 11];
        cuts.extend((1..40).map(|k| 10 + k * 5_003));
        let mut reads = Vec::new();
        let mut at = 0;
        for cut in cuts {
            reads.push(wire[at..cut].to_vec());
            at = cut;
        }
        reads.push(wire[at..].to_vec());
        let mut c = conn(reads);
        let mut got = Vec::new();
        while got.len() < 3 {
            match c.recv(Some(Duration::ZERO)).unwrap() {
                Some(frame) => got.push(frame),
                None => panic!("script ran dry after {} frames", got.len()),
            }
        }
        assert_eq!(got, vec![b"head".to_vec(), big, b"tail".to_vec()]);
        assert!(!c.has_buffered());
    }

    #[test]
    fn a_partial_frame_waits_for_the_rest() {
        let wire = framed(b"payload");
        let mut c = conn(vec![wire[..6].to_vec()]);
        assert_eq!(c.recv(Some(Duration::ZERO)).unwrap(), None);
        assert!(c.has_buffered(), "the partial frame is kept");
        c.stream.reads.push_back(wire[6..].to_vec());
        assert_eq!(
            c.recv(Some(Duration::ZERO)).unwrap(),
            Some(b"payload".to_vec())
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut c = conn(vec![((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec()]);
        assert!(c.recv(Some(Duration::ZERO)).is_err());
    }
}
