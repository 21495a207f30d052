//! Length-prefixed framing for byte streams.
//!
//! Each frame is a little-endian `u32` length followed by that many payload
//! bytes (one encoded [`Msg`]). Two tiers of API:
//!
//! - [`FrameDecoder`] / [`FrameEncoder`] — the incremental sans-IO codec
//!   the event-driven reactor transport runs on: the decoder accumulates
//!   arbitrary partial reads and yields decoded messages (chunk payloads
//!   sliced zero-copy out of the frame buffer), the encoder keeps a
//!   resumable outbound buffer that survives short writes on nonblocking
//!   sockets;
//! - [`read_frame`] / [`write_frame`] — blocking helpers for `std::io`
//!   streams (bounded connect handshakes, the blocking resolver
//!   sideband, raw test and bench clients).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};

use bytes::Bytes;

use crate::codec::{Wire, Writer};
use crate::error::ProtoError;
use crate::ids::{ChunkId, RequestId};
use crate::msg::Msg;

/// Default maximum accepted frame: 64 MiB (comfortably above the largest
/// chunk payload stdchk ships).
pub const MAX_FRAME: u32 = 64 << 20;

/// Decode state of one in-flight frame.
#[derive(Debug)]
enum DecodeState {
    /// Accumulating the 4-byte length header.
    Header { buf: [u8; 4], have: usize },
    /// Accumulating the frame body (`buf.len()` of `need` bytes present).
    Body { buf: Vec<u8>, need: usize },
}

/// Incremental frame **message** decoder for readiness-based transports.
///
/// Feed it whatever byte slices the socket produces — single bytes,
/// frame-straddling chunks, many coalesced frames — and it yields decoded
/// [`Msg`]s exactly as the blocking [`read_frame`] would have. Byte
/// payloads (`PutChunk::data`, `GetChunkOk::data`) are sliced out of the
/// accumulated frame buffer as shared [`Bytes`] without copying.
///
/// Errors (oversized frame declaration, undecodable body) poison the
/// decoder: the connection is beyond resynchronization and must be
/// dropped, exactly like the blocking reader's `InvalidData`.
///
/// # Examples
///
/// ```
/// use stdchk_proto::frame::{encode_frame, FrameDecoder, MAX_FRAME};
/// use stdchk_proto::ids::RequestId;
/// use stdchk_proto::msg::Msg;
///
/// let wire = encode_frame(&Msg::Ack { req: RequestId(7) });
/// let mut dec = FrameDecoder::new(MAX_FRAME);
/// let mut out = Vec::new();
/// for b in &wire {
///     dec.feed(std::slice::from_ref(b), &mut out).unwrap();
/// }
/// assert_eq!(out, vec![Msg::Ack { req: RequestId(7) }]);
/// assert!(!dec.mid_frame());
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    state: DecodeState,
    max_frame: u32,
    poisoned: bool,
}

impl FrameDecoder {
    /// Creates a decoder that rejects frames larger than `max_frame`.
    pub fn new(max_frame: u32) -> FrameDecoder {
        FrameDecoder {
            state: DecodeState::Header {
                buf: [0; 4],
                have: 0,
            },
            max_frame,
            poisoned: false,
        }
    }

    /// Appends incoming bytes, pushing every message they complete onto
    /// `out`.
    ///
    /// # Errors
    ///
    /// [`ProtoError::FrameTooLarge`] for an over-limit header,
    /// [`ProtoError::Malformed`]/[`ProtoError::Truncated`] for an
    /// undecodable body. Any error poisons the decoder; subsequent feeds
    /// keep failing.
    pub fn feed(&mut self, mut data: &[u8], out: &mut Vec<Msg>) -> Result<(), ProtoError> {
        if self.poisoned {
            return Err(ProtoError::bad("frame decoder poisoned"));
        }
        while !data.is_empty() {
            match &mut self.state {
                DecodeState::Header { buf, have } => {
                    let n = (4 - *have).min(data.len());
                    buf[*have..*have + n].copy_from_slice(&data[..n]);
                    *have += n;
                    data = &data[n..];
                    if *have == 4 {
                        let len = u32::from_le_bytes(*buf);
                        if len > self.max_frame {
                            self.poisoned = true;
                            return Err(ProtoError::FrameTooLarge {
                                declared: len,
                                max: self.max_frame,
                            });
                        }
                        self.state = DecodeState::Body {
                            buf: Vec::with_capacity(len as usize),
                            need: len as usize,
                        };
                    }
                }
                DecodeState::Body { buf, need } => {
                    let n = (*need - buf.len()).min(data.len());
                    buf.extend_from_slice(&data[..n]);
                    data = &data[n..];
                    if buf.len() == *need {
                        let frame = Bytes::from(std::mem::take(buf));
                        self.state = DecodeState::Header {
                            buf: [0; 4],
                            have: 0,
                        };
                        match Msg::from_frame(&frame) {
                            Ok(msg) => out.push(msg),
                            Err(e) => {
                                self.poisoned = true;
                                return Err(e);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// True while a frame is partially accumulated: EOF now would be a
    /// torn frame (the blocking reader's `UnexpectedEof` mid-body), not a
    /// clean close.
    pub fn mid_frame(&self) -> bool {
        match &self.state {
            DecodeState::Header { have, .. } => *have != 0,
            DecodeState::Body { .. } => true,
        }
    }

    /// True once a feed failed; the connection must be dropped.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// One queued outbound frame. The bytes on the wire are
/// `head ‖ payload ‖ tail`: for chunk-bearing messages the payload stays a
/// shared [`Bytes`] slice (no copy into the outbound buffer) and `head`
/// carries everything up to and including the payload length prefix; for
/// all other messages `head` is the whole encoded frame.
#[derive(Debug)]
struct OutFrame {
    head: Vec<u8>,
    payload: Bytes,
    tail: Vec<u8>,
    token: Option<u64>,
}

impl OutFrame {
    fn len(&self) -> usize {
        self.head.len() + self.payload.len() + self.tail.len()
    }

    fn segments(&self) -> [&[u8]; 3] {
        [&self.head, &self.payload, &self.tail]
    }
}

/// Most slices handed to one `writev`: enough to coalesce several small
/// frames (or a few header+payload pairs) per syscall without building an
/// unbounded iovec for a deep queue.
const MAX_WRITE_VEC: usize = 16;

/// Resumable frame encoder for readiness-based transports.
///
/// [`FrameEncoder::push`] serializes a message onto the outbound buffer;
/// [`FrameEncoder::write_to`] flushes as much as the (typically
/// nonblocking) sink accepts and can be resumed after `WouldBlock` —
/// partial frames pick up exactly where the previous short write stopped.
/// Each frame may carry a completion token reported once its last byte
/// reaches the sink (drivers use this to end transmit windows).
///
/// By default chunk payloads (`PutChunk::data`, `GetChunkOk::data`,
/// `DeltaPutChunk::delta`) are kept as shared [`Bytes`] segments and
/// flushed together with their frame header in one gathered
/// `write_vectored` call — the byte stream is identical to the flattened
/// encoding, but the payload is never copied into the outbound buffer.
/// [`FrameEncoder::with_vectored`]`(false)` restores the copying baseline
/// for A/B measurement.
#[derive(Debug)]
pub struct FrameEncoder {
    /// Encoded frames awaiting transmission; the front frame may be
    /// partially written (`head_off` bytes already gone).
    frames: VecDeque<OutFrame>,
    head_off: usize,
    pending: usize,
    vectored: bool,
    copied_payload: u64,
    shared_payload: u64,
}

impl Default for FrameEncoder {
    fn default() -> FrameEncoder {
        FrameEncoder::with_vectored(true)
    }
}

impl FrameEncoder {
    /// An empty encoder with the zero-copy vectored payload path enabled.
    pub fn new() -> FrameEncoder {
        FrameEncoder::default()
    }

    /// An empty encoder; `vectored: false` flattens every frame into one
    /// contiguous buffer (the pre-zero-copy baseline).
    pub fn with_vectored(vectored: bool) -> FrameEncoder {
        FrameEncoder {
            frames: VecDeque::new(),
            head_off: 0,
            pending: 0,
            vectored,
            copied_payload: 0,
            shared_payload: 0,
        }
    }

    /// Serializes `msg` onto the outbound buffer.
    pub fn push(&mut self, msg: &Msg) {
        self.push_tracked(msg, None);
    }

    /// Serializes `msg`, tagging the frame with a completion `token`
    /// reported by [`FrameEncoder::write_to`] once fully written.
    pub fn push_tracked(&mut self, msg: &Msg, token: Option<u64>) {
        let frame = match self.vectored.then(|| split_frame(msg)).flatten() {
            Some((head, payload, tail)) => {
                self.shared_payload += payload.len() as u64;
                OutFrame {
                    head,
                    payload,
                    tail,
                    token,
                }
            }
            None => {
                self.copied_payload += payload_len(msg);
                OutFrame {
                    head: encode_frame(msg),
                    payload: Bytes::new(),
                    tail: Vec::new(),
                    token,
                }
            }
        };
        self.pending += frame.len();
        self.frames.push_back(frame);
    }

    /// Bytes not yet accepted by the sink.
    pub fn pending_bytes(&self) -> usize {
        self.pending
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Cumulative payload bytes enqueued flattened (copied into the
    /// outbound buffer) over this encoder's lifetime.
    pub fn copied_payload_bytes(&self) -> u64 {
        self.copied_payload
    }

    /// Cumulative payload bytes enqueued as shared slices (zero-copy) over
    /// this encoder's lifetime.
    pub fn shared_payload_bytes(&self) -> u64 {
        self.shared_payload
    }

    /// Writes as much as `w` accepts, gathering up to `MAX_WRITE_VEC`
    /// frame segments per `write_vectored` call. Tokens of frames whose
    /// last byte was written are appended to `completed`. Returns
    /// `Ok(true)` when the buffer drained, `Ok(false)` when the sink would
    /// block.
    ///
    /// # Errors
    ///
    /// Propagates sink errors other than `WouldBlock` (`Interrupted` is
    /// retried); a sink accepting zero bytes surfaces as `WriteZero`.
    pub fn write_to<W: Write>(&mut self, w: &mut W, completed: &mut Vec<u64>) -> io::Result<bool> {
        while !self.frames.is_empty() {
            let res = {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_WRITE_VEC);
                let mut skip = self.head_off;
                'gather: for f in &self.frames {
                    for seg in f.segments() {
                        if skip >= seg.len() {
                            skip -= seg.len();
                            continue;
                        }
                        slices.push(IoSlice::new(&seg[skip..]));
                        skip = 0;
                        if slices.len() == MAX_WRITE_VEC {
                            break 'gather;
                        }
                    }
                }
                w.write_vectored(&slices)
            };
            match res {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.advance(n, completed),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Accounts `n` freshly written bytes: pops completed frames (reporting
    /// their tokens) and leaves `head_off` mid-frame for the remainder.
    fn advance(&mut self, n: usize, completed: &mut Vec<u64>) {
        self.pending -= n;
        let mut n = self.head_off + n;
        while let Some(f) = self.frames.front() {
            let flen = f.len();
            if n < flen {
                self.head_off = n;
                return;
            }
            n -= flen;
            if let Some(t) = f.token {
                completed.push(t);
            }
            self.frames.pop_front();
        }
        self.head_off = 0;
        debug_assert_eq!(n, 0, "advanced past the queued bytes");
    }
}

/// Splits a chunk-bearing message into (head, shared payload, tail) whose
/// concatenation is byte-identical to [`encode_frame`]. Returns `None` for
/// messages without a `Bytes` payload.
fn split_frame(msg: &Msg) -> Option<(Vec<u8>, Bytes, Vec<u8>)> {
    let (payload, tail) = match msg {
        Msg::PutChunk {
            data, background, ..
        } => (data.clone(), vec![*background as u8]),
        Msg::GetChunkOk { data, .. } => (data.clone(), Vec::new()),
        Msg::DeltaPutChunk { delta, .. } => (delta.clone(), Vec::new()),
        _ => return None,
    };
    let head = frame_head(msg, payload.len() as u32, tail.len())?;
    Some((head, payload, tail))
}

/// Payload bytes a flattened encode of `msg` copies into the frame buffer.
fn payload_len(msg: &Msg) -> u64 {
    match msg {
        Msg::PutChunk { data, .. } | Msg::GetChunkOk { data, .. } => data.len() as u64,
        Msg::DeltaPutChunk { delta, .. } => delta.len() as u64,
        _ => 0,
    }
}

/// Encodes the frame length prefix, message tag, leading fields, and the
/// `u32` payload length prefix of a chunk-bearing message — everything on
/// the wire *before* the payload bytes. The frame length accounts for
/// `payload_len` payload bytes plus `tail_len` trailing field bytes.
fn frame_head(msg: &Msg, payload_len: u32, tail_len: usize) -> Option<Vec<u8>> {
    let mut w = Writer::with_capacity(96);
    w.put_u32(0); // frame length, patched below
    w.put_u8(msg.wire_tag());
    match msg {
        Msg::PutChunk {
            req, chunk, size, ..
        }
        | Msg::GetChunkOk {
            req, chunk, size, ..
        } => {
            req.encode(&mut w);
            chunk.encode(&mut w);
            w.put_u32(*size);
        }
        Msg::DeltaPutChunk {
            req,
            chunk,
            basis,
            size,
            ..
        } => {
            req.encode(&mut w);
            chunk.encode(&mut w);
            basis.encode(&mut w);
            w.put_u32(*size);
        }
        _ => return None,
    }
    w.put_u32(payload_len);
    let mut head = w.into_bytes();
    let body = head.len() - 4 + payload_len as usize + tail_len;
    head[..4].copy_from_slice(&(body as u32).to_le_bytes());
    Some(head)
}

/// Frame head for a `GetChunkOk` whose `payload_len` payload bytes the
/// transport will append from an external source (e.g. `sendfile` straight
/// out of a sealed segment file). The caller must follow these bytes with
/// exactly `payload_len` raw payload bytes to complete the frame.
pub fn get_chunk_ok_frame_head(
    req: RequestId,
    chunk: ChunkId,
    size: u32,
    payload_len: u32,
) -> Vec<u8> {
    let msg = Msg::GetChunkOk {
        req,
        chunk,
        size,
        data: Bytes::new(),
    };
    frame_head(&msg, payload_len, 0).expect("GetChunkOk always splits")
}

/// Encodes `msg` as one frame into a fresh buffer.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let body = msg.to_wire_bytes();
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Writes `msg` as one frame to a blocking stream.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write>(mut w: W, msg: &Msg) -> io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Reads one complete frame from a blocking stream and decodes the message.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary. EOF *inside* a
/// frame — even inside the 4-byte header — is a torn frame and errors
/// (`UnexpectedEof`), matching [`FrameDecoder::mid_frame`].
///
/// # Errors
///
/// I/O errors propagate; decode failures and oversized frames surface as
/// `io::ErrorKind::InvalidData`.
pub fn read_frame<R: Read>(mut r: R) -> io::Result<Option<Msg>> {
    let mut hdr = [0u8; 4];
    let mut have = 0;
    while have < 4 {
        match r.read(&mut hdr[have..]) {
            Ok(0) if have == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => have += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(hdr);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::FrameTooLarge {
                declared: len,
                max: MAX_FRAME,
            },
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    // Decode through the shared-buffer path: byte payloads slice out of
    // the frame allocation instead of being copied a second time.
    let body = Bytes::from(body);
    let msg = Msg::from_frame(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, RequestId};
    use crate::msg::Role;

    fn sample() -> Msg {
        Msg::Hello {
            role: Role::Client,
            node: NodeId(3),
        }
    }

    #[test]
    fn stream_roundtrip() {
        let msgs = vec![
            sample(),
            Msg::Ack { req: RequestId(1) },
            Msg::Ack { req: RequestId(2) },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for m in &msgs {
            let got = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, m);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut wire = encode_frame(&sample());
        wire.truncate(wire.len() - 1);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn decoder_yields_messages_across_splits() {
        let msgs = vec![
            sample(),
            Msg::Ack { req: RequestId(7) },
            Msg::PutChunk {
                req: RequestId(8),
                chunk: crate::ids::ChunkId::for_content(b"xyz"),
                size: 3,
                data: Bytes::from_static(b"xyz"),
                background: false,
            },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_frame(m));
        }
        for split in 1..wire.len().min(48) {
            let mut dec = FrameDecoder::new(MAX_FRAME);
            let mut out = Vec::new();
            for part in wire.chunks(split) {
                dec.feed(part, &mut out).unwrap();
            }
            assert_eq!(out, msgs, "split={split}");
            assert!(!dec.mid_frame());
        }
    }

    #[test]
    fn decoder_rejects_oversize_and_poisons() {
        let mut dec = FrameDecoder::new(16);
        let mut out = Vec::new();
        let data = (17u32).to_le_bytes();
        assert!(matches!(
            dec.feed(&data, &mut out),
            Err(ProtoError::FrameTooLarge {
                declared: 17,
                max: 16
            })
        ));
        assert!(dec.is_poisoned());
        assert!(dec.feed(&[0], &mut out).is_err());
    }

    #[test]
    fn decoder_reports_torn_frames() {
        let wire = encode_frame(&sample());
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut out = Vec::new();
        dec.feed(&wire[..wire.len() - 1], &mut out).unwrap();
        assert!(out.is_empty());
        assert!(dec.mid_frame(), "EOF here would tear the frame");
    }

    #[test]
    fn decoder_slices_payload_without_copying() {
        let payload = vec![42u8; 4096];
        let msg = Msg::PutChunk {
            req: RequestId(1),
            chunk: crate::ids::ChunkId::for_content(&payload),
            size: payload.len() as u32,
            data: Bytes::from(payload.clone()),
            background: false,
        };
        let wire = encode_frame(&msg);
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut out = Vec::new();
        dec.feed(&wire, &mut out).unwrap();
        let Msg::PutChunk { data, .. } = &out[0] else {
            panic!("wrong message");
        };
        assert_eq!(&data[..], &payload[..]);
    }

    #[test]
    fn encoder_resumes_across_short_writes() {
        struct Dribble {
            out: Vec<u8>,
            budget: usize,
        }
        impl io::Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(self.budget).min(3);
                self.out.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let msgs = vec![sample(), Msg::Ack { req: RequestId(2) }];
        let mut enc = FrameEncoder::new();
        enc.push_tracked(&msgs[0], Some(10));
        enc.push_tracked(&msgs[1], Some(11));
        let total = enc.pending_bytes();
        let mut sink = Dribble {
            out: Vec::new(),
            budget: 0,
        };
        let mut completed = Vec::new();
        // Repeatedly grant tiny write budgets until everything drains.
        let mut drained = false;
        for _ in 0..total + 8 {
            sink.budget = 2;
            if enc.write_to(&mut sink, &mut completed).unwrap() {
                drained = true;
                break;
            }
        }
        assert!(drained);
        assert_eq!(completed, vec![10, 11]);
        // The dribbled byte stream is the exact concatenated frames.
        let mut expect = Vec::new();
        for m in &msgs {
            expect.extend_from_slice(&encode_frame(m));
        }
        assert_eq!(sink.out, expect);
    }

    #[test]
    fn split_frames_match_flattened_encoding() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let msgs = vec![
            Msg::PutChunk {
                req: RequestId(3),
                chunk: crate::ids::ChunkId::for_content(&payload),
                size: payload.len() as u32,
                data: payload.clone(),
                background: true,
            },
            Msg::GetChunkOk {
                req: RequestId(4),
                chunk: crate::ids::ChunkId::for_content(&payload),
                size: payload.len() as u32,
                data: payload.clone(),
            },
            Msg::DeltaPutChunk {
                req: RequestId(5),
                chunk: crate::ids::ChunkId::for_content(b"new"),
                basis: crate::ids::ChunkId::for_content(b"old"),
                size: 4096,
                delta: payload.clone(),
            },
        ];
        for m in &msgs {
            let (head, body, tail) = split_frame(m).expect("chunk messages split");
            let mut joined = head;
            joined.extend_from_slice(&body);
            joined.extend_from_slice(&tail);
            assert_eq!(joined, encode_frame(m), "{m:?}");
        }
        // Non-payload messages do not split.
        assert!(split_frame(&sample()).is_none());
    }

    #[test]
    fn external_frame_head_matches_inline_encoding() {
        let payload = Bytes::from(vec![9u8; 300]);
        let chunk = crate::ids::ChunkId::for_content(&payload);
        let inline = encode_frame(&Msg::GetChunkOk {
            req: RequestId(6),
            chunk,
            size: payload.len() as u32,
            data: payload.clone(),
        });
        let mut external = get_chunk_ok_frame_head(
            RequestId(6),
            chunk,
            payload.len() as u32,
            payload.len() as u32,
        );
        external.extend_from_slice(&payload);
        assert_eq!(external, inline);
    }

    #[test]
    fn vectored_encoder_counts_shared_payloads() {
        let payload = Bytes::from(vec![1u8; 512]);
        let msg = Msg::GetChunkOk {
            req: RequestId(1),
            chunk: crate::ids::ChunkId::for_content(&payload),
            size: payload.len() as u32,
            data: payload.clone(),
        };
        let mut vec_enc = FrameEncoder::new();
        vec_enc.push(&msg);
        vec_enc.push(&sample());
        assert_eq!(vec_enc.shared_payload_bytes(), 512);
        assert_eq!(vec_enc.copied_payload_bytes(), 0);

        let mut flat_enc = FrameEncoder::with_vectored(false);
        flat_enc.push(&msg);
        assert_eq!(flat_enc.shared_payload_bytes(), 0);
        assert_eq!(flat_enc.copied_payload_bytes(), 512);

        // Both encoders produce the identical byte stream.
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut completed = Vec::new();
        assert!(vec_enc.write_to(&mut a, &mut completed).unwrap());
        let mut flat_ref = FrameEncoder::with_vectored(false);
        flat_ref.push(&msg);
        flat_ref.push(&sample());
        assert!(flat_ref.write_to(&mut b, &mut completed).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn garbage_body_is_invalid_data() {
        let mut wire = (2u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[255, 255]);
        let err = read_frame(std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
