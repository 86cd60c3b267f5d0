//! A blocking request/response connection over one [`TcpStream`].
//!
//! The protocol is strictly half-duplex per connection: one side sends
//! a request frame, the other answers with exactly one response frame.
//! That single-outstanding-request discipline *is* the per-connection
//! backpressure — a client cannot queue a second request into the
//! server until its first answer has been drained off the socket.
//! Concurrency comes from opening more connections, which the
//! gateway's admission queue bounds globally.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::env_positive;
use crate::frame::{read_frame, write_frame_vectored, MAX_FRAME};
use crate::proto::{ErrorKind, ProtocolError, Request, Response, TraceContext};

/// Largest object that still travels as one whole [`Request::PutObject`]
/// / [`Response::Blob`] frame. The margin under
/// [`MAX_FRAME`] covers the frame's envelope (tag, name, length
/// prefixes, trace extension); anything bigger goes chunked.
pub const WHOLE_OBJECT_MAX: usize = MAX_FRAME - 4096;

/// Default chunk size for chunked transfers (see
/// [`chunk_bytes_from_env`]).
pub const DEFAULT_CHUNK_BYTES: usize = 4 << 20;

/// Chunk size for chunked object transfers, from `GALLOPER_CHUNK_BYTES`
/// (bytes; default [`DEFAULT_CHUNK_BYTES`]). Values are clamped to fit
/// one frame; unparseable values warn once per call and fall back to
/// the default, consistent with the other env knobs.
pub fn chunk_bytes_from_env() -> usize {
    env_positive("GALLOPER_CHUNK_BYTES", DEFAULT_CHUNK_BYTES).min(WHOLE_OBJECT_MAX)
}

/// One framed, half-duplex protocol connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Set when a transport-level failure (or an abandoned chunked
    /// transfer) leaves the stream in an undefined half-duplex state:
    /// a poisoned connection refuses further requests and must never
    /// be recycled into a pool.
    poisoned: bool,
}

impl Conn {
    /// Wraps an accepted or connected stream. `TCP_NODELAY` is set
    /// (request/response traffic is latency-bound, and every frame is
    /// flushed whole); failures to set it are ignored.
    pub fn new(stream: TcpStream) -> Conn {
        let _ = stream.set_nodelay(true);
        Conn {
            stream,
            poisoned: false,
        }
    }

    /// Whether a transport failure has left this connection in an
    /// undefined state (see [`Conn::poisoned`](struct@Conn) docs —
    /// pools must drop such connections instead of recycling them).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Marks the connection poisoned on error — every frame-level I/O
    /// funnels through this, so no failed exchange can leave the
    /// connection looking reusable.
    fn guard<T>(&mut self, res: Result<T, ProtocolError>) -> Result<T, ProtocolError> {
        if res.is_err() {
            self.poisoned = true;
        }
        res
    }

    /// Connects to `addr` within `timeout`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] on refusal, timeout, or address parse
    /// failure.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Conn, ProtocolError> {
        let sockaddr = addr
            .parse()
            .map_err(|_| ProtocolError::Malformed("unparseable socket address"))?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
        Ok(Conn::new(stream))
    }

    /// Sets (or clears, with `None`) the blocking-read timeout.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] if the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ProtocolError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request frame. When the calling thread has an
    /// operation in progress (see `galloper_obs::op`), its context is
    /// stamped onto the frame as a trailing extension, so the server's
    /// spans join this request's trace tree — distributed trace
    /// propagation costs one thread-local read here and nothing when
    /// no operation is active.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on frame or socket failure.
    pub fn send_request(&mut self, req: &Request) -> Result<(), ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError::Unexpected(
                "request on a poisoned connection",
            ));
        }
        let ctx = galloper_obs::op::current();
        let ctx = ctx.is_active().then_some(TraceContext {
            op: ctx.op,
            span: ctx.span,
        });
        // One vectored write puts header + payload on the socket in a
        // single syscall — no per-call BufWriter allocation, no copy of
        // the payload into an intermediate buffer, nothing to flush.
        let res = write_frame_vectored(&mut &self.stream, &req.encode_with_ctx(ctx));
        self.guard(res)
    }

    /// Receives one response frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on frame, socket, or decode failure; a clean
    /// peer disconnect surfaces as
    /// [`std::io::ErrorKind::UnexpectedEof`] inside
    /// [`ProtocolError::Io`].
    pub fn recv_response(&mut self) -> Result<Response, ProtocolError> {
        let res = read_frame(&mut self.stream).and_then(|p| Response::decode(&p));
        self.guard(res)
    }

    /// One full request/response exchange.
    ///
    /// # Errors
    ///
    /// As [`Conn::send_request`] / [`Conn::recv_response`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        self.send_request(req)?;
        self.recv_response()
    }

    /// Stores an object of any size, choosing the wire shape by length:
    /// at most [`WHOLE_OBJECT_MAX`] bytes travel as one
    /// [`Request::PutObject`] frame (byte-identical to the historical
    /// encoding, so old servers interoperate); anything larger streams
    /// as `PutStart`/`PutChunk`/`PutCommit`. Returns [`Response::Ok`]
    /// on success or the server's typed error.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure (the connection is then
    /// poisoned).
    pub fn put_object(&mut self, name: &str, data: &[u8]) -> Result<Response, ProtocolError> {
        if data.len() <= WHOLE_OBJECT_MAX {
            return self.call(&Request::PutObject {
                name: name.to_string(),
                bytes: data.to_vec(),
            });
        }
        self.put_chunked(name, data.len() as u64, &mut &*data)
    }

    /// [`Conn::put_object`] for a source that streams: reads exactly
    /// `len` bytes from `reader`, never holding more than one chunk in
    /// memory on the chunked path.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure or a short/failed read
    /// from `reader` (both poison the connection — a half-sent
    /// transfer cannot be resumed).
    pub fn put_reader(
        &mut self,
        name: &str,
        len: u64,
        reader: &mut impl Read,
    ) -> Result<Response, ProtocolError> {
        if len <= WHOLE_OBJECT_MAX as u64 {
            let mut data = vec![0u8; len as usize];
            if let Err(e) = reader.read_exact(&mut data) {
                return Err(ProtocolError::Io(e));
            }
            return self.call(&Request::PutObject {
                name: name.to_string(),
                bytes: data,
            });
        }
        self.put_chunked(name, len, reader)
    }

    fn put_chunked(
        &mut self,
        name: &str,
        len: u64,
        reader: &mut impl Read,
    ) -> Result<Response, ProtocolError> {
        let chunk = chunk_bytes_from_env();
        let id = match self.call(&Request::PutStart {
            name: name.to_string(),
            object_len: len,
        })? {
            Response::PutBegun { id } => id,
            other => return Ok(other),
        };
        let mut buf = vec![0u8; chunk];
        let mut seq = 0u64;
        let mut sent = 0u64;
        while sent < len {
            let take = (chunk as u64).min(len - sent) as usize;
            if let Err(e) = reader.read_exact(&mut buf[..take]) {
                // The server still holds an open transfer on this
                // connection; abandoning it mid-stream makes the
                // connection unusable for anything else.
                self.poisoned = true;
                return Err(ProtocolError::Io(e));
            }
            match self.call(&Request::PutChunk {
                id,
                seq,
                bytes: buf[..take].to_vec(),
            })? {
                Response::Ok => {}
                // A typed error aborts the transfer server-side; the
                // frame stream stays aligned, so no poisoning.
                other => return Ok(other),
            }
            seq += 1;
            sent += take as u64;
        }
        self.call(&Request::PutCommit { id })
    }

    /// Reads a whole object, transparently falling back to chunked
    /// transfer when the server reports it will not fit one frame.
    /// Returns [`Response::Blob`] with the bytes, or the server's typed
    /// error.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure.
    pub fn get_object(&mut self, name: &str) -> Result<Response, ProtocolError> {
        let mut buf = Vec::new();
        match self.get_writer(name, &mut buf)? {
            Response::Ok => Ok(Response::Blob(buf)),
            other => Ok(other),
        }
    }

    /// [`Conn::get_object`] for a destination that streams: the object
    /// bytes go straight to `out` chunk by chunk, never whole in
    /// memory on the chunked path. Returns [`Response::Ok`] once every
    /// byte is written, or the server's typed error (nothing or a
    /// prefix may have been written by then).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure or a failed local write
    /// (the latter poisons the connection — the transfer is abandoned
    /// mid-stream).
    pub fn get_writer(
        &mut self,
        name: &str,
        out: &mut impl Write,
    ) -> Result<Response, ProtocolError> {
        match self.call(&Request::GetObject {
            name: name.to_string(),
        })? {
            Response::Blob(bytes) => {
                if let Err(e) = out.write_all(&bytes) {
                    return Err(ProtocolError::Io(e));
                }
                Ok(Response::Ok)
            }
            // The server's whole-frame refusal for oversize objects:
            // switch to the chunked protocol on the same (still
            // aligned) connection.
            Response::Err {
                kind: ErrorKind::OutOfRange,
                ..
            } => self.get_chunked(name, out),
            other => Ok(other),
        }
    }

    fn get_chunked(&mut self, name: &str, out: &mut impl Write) -> Result<Response, ProtocolError> {
        let (id, object_len) = match self.call(&Request::GetStart {
            name: name.to_string(),
        })? {
            Response::GetBegun { id, object_len, .. } => (id, object_len),
            other => return Ok(other),
        };
        let mut got = 0u64;
        loop {
            match self.call(&Request::GetChunk { id })? {
                Response::Chunk {
                    id: rid,
                    eof,
                    bytes,
                } => {
                    if rid != id {
                        self.poisoned = true;
                        return Err(ProtocolError::Unexpected("chunk for a different transfer"));
                    }
                    got += bytes.len() as u64;
                    if let Err(e) = out.write_all(&bytes) {
                        self.poisoned = true;
                        return Err(ProtocolError::Io(e));
                    }
                    if eof {
                        if got != object_len {
                            self.poisoned = true;
                            return Err(ProtocolError::Unexpected(
                                "chunked transfer ended at the wrong length",
                            ));
                        }
                        return Ok(Response::Ok);
                    }
                }
                other => return Ok(other),
            }
        }
    }
}
