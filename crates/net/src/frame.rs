//! Length-prefixed framing: the lowest layer of the wire protocol.
//!
//! Every message travels as one *frame*: a 4-byte little-endian payload
//! length followed by the payload itself. The payload's first byte is a
//! message tag interpreted by [`proto`](crate::proto); this module only
//! moves opaque byte vectors.
//!
//! Two consumers share the format: blocking socket I/O goes through
//! [`write_frame_vectored`] / [`read_frame`], and the incremental
//! [`FrameReader`] reassembles frames from arbitrarily-chunked input
//! (partial writes, coalesced writes) for callers that feed bytes as
//! they arrive.

use std::io::{IoSlice, Read, Write};

use galloper_erasure::stream::write_all_vectored;

use crate::proto::ProtocolError;

/// Hard ceiling on one frame's payload (64 MiB). A peer announcing a
/// larger frame is malformed or hostile; the connection is torn down
/// before any allocation happens.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of the length prefix.
pub const FRAME_HEADER: usize = 4;

/// Writes one frame as a single vectored write: the 4-byte length
/// prefix and the payload leave in one `writev(2)` call (continued
/// through partial writes), so an unbuffered socket sees one syscall
/// and one TCP segment boundary per frame instead of two `write(2)`s
/// or an interposed copy through a [`std::io::BufWriter`].
///
/// # Errors
///
/// [`ProtocolError::Oversize`] when the payload exceeds [`MAX_FRAME`];
/// otherwise I/O errors from the writer.
pub fn write_frame_vectored(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.len() > MAX_FRAME {
        return Err(ProtocolError::Oversize {
            len: payload.len() as u64,
            max: MAX_FRAME,
        });
    }
    let header = (payload.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    write_all_vectored(w, &mut slices)?;
    Ok(())
}

/// Reads one complete frame, blocking until it arrives.
///
/// # Errors
///
/// [`ProtocolError::Oversize`] for a length prefix beyond
/// [`MAX_FRAME`]; [`ProtocolError::Io`] for EOF or socket errors
/// (a clean EOF *before* the length prefix surfaces as
/// [`std::io::ErrorKind::UnexpectedEof`], which callers treat as
/// peer-went-away).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversize {
            len: len as u64,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Incremental frame reassembly over arbitrarily-chunked input.
///
/// Feed whatever bytes the transport delivers with [`FrameReader::push`],
/// then drain complete frames with [`FrameReader::pop`]. The reader
/// never blocks and never loses bytes across `push` boundaries, so a
/// frame split into single-byte writes reassembles identically to one
/// delivered whole.
///
/// ```
/// use galloper_net::frame::FrameReader;
///
/// let mut r = FrameReader::new();
/// r.push(&[3, 0, 0, 0, b'a'])?; // length prefix + 1 of 3 payload bytes
/// assert!(r.pop().is_none());
/// r.push(b"bc")?;
/// assert_eq!(r.pop().as_deref(), Some(&b"abc"[..]));
/// # Ok::<(), galloper_net::ProtocolError>(())
/// ```
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by popped frames (compacted
    /// lazily so a burst of small frames does not memmove per pop).
    consumed: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends transport bytes.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Oversize`] as soon as a length prefix beyond
    /// [`MAX_FRAME`] is visible — the connection should be dropped; the
    /// reader is poisoned in the sense that the oversize frame stays at
    /// the head.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), ProtocolError> {
        self.buf.extend_from_slice(bytes);
        self.check_head()
    }

    /// Pops the next complete frame, if one has fully arrived.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < FRAME_HEADER {
            return None;
        }
        let len = u32::from_le_bytes(pending[..FRAME_HEADER].try_into().expect("4 bytes")) as usize;
        if pending.len() < FRAME_HEADER + len {
            return None;
        }
        let frame = pending[FRAME_HEADER..FRAME_HEADER + len].to_vec();
        self.consumed += FRAME_HEADER + len;
        // Compact once the dead prefix dominates, amortizing the move.
        if self.consumed > 4096 && self.consumed * 2 > self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Some(frame)
    }

    /// Bytes buffered but not yet popped (incomplete frame tail).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    fn check_head(&self) -> Result<(), ProtocolError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() >= FRAME_HEADER {
            let len =
                u32::from_le_bytes(pending[..FRAME_HEADER].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME {
                return Err(ProtocolError::Oversize {
                    len: len as u64,
                    max: MAX_FRAME,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_io() {
        let mut wire = Vec::new();
        write_frame_vectored(&mut wire, b"hello").unwrap();
        write_frame_vectored(&mut wire, b"").unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(read_frame(&mut cursor).is_err()); // EOF
    }

    #[test]
    fn vectored_writer_produces_identical_wire_bytes() {
        for payload in [&b""[..], b"x", &[0xABu8; 300][..]] {
            let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(payload);
            let mut vectored = Vec::new();
            write_frame_vectored(&mut vectored, payload).unwrap();
            assert_eq!(expected, vectored, "payload len {}", payload.len());
            let mut cursor = &vectored[..];
            assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        }
    }

    #[test]
    fn vectored_writer_rejects_oversize_before_writing() {
        let mut wire = Vec::new();
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame_vectored(&mut wire, &big),
            Err(ProtocolError::Oversize { .. })
        ));
        assert!(wire.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn reader_handles_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame_vectored(&mut wire, b"abc").unwrap();
        write_frame_vectored(&mut wire, &[0xFF; 300]).unwrap();
        let mut r = FrameReader::new();
        let mut frames = Vec::new();
        for b in wire {
            r.push(&[b]).unwrap();
            while let Some(f) = r.pop() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], b"abc");
        assert_eq!(frames[1], vec![0xFF; 300]);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn oversize_prefix_is_rejected_immediately() {
        let mut r = FrameReader::new();
        let err = r
            .push(&(u32::MAX).to_le_bytes())
            .expect_err("oversize must be rejected");
        assert!(matches!(err, ProtocolError::Oversize { .. }));
    }
}
