//! Sans-io incremental frame decoding.
//!
//! Both record-plane protocols frame messages as `len:u32be payload`
//! (`pbio`'s format server) or `len:u32be kind:u8 payload` (`xmit`
//! messaging).  The server event loop reads sockets in whatever chunks
//! the kernel delivers, so the decoder must accept arbitrary byte
//! fragments and emit complete frames as they materialize — no blocking
//! reads inside the parser.  [`LengthFramer`] is that decoder; the
//! blocking transports keep their APIs by wrapping it with
//! [`read_frame_blocking`], which reads exactly the bytes the framer
//! still needs (so a blocking caller never over-reads past a frame
//! boundary and pipelined peers stay in sync).
//!
//! The untrusted-length discipline of [`crate::read_exact_capped`]
//! carries over: the framer only ever buffers bytes that actually
//! arrived, and a length prefix beyond `max_frame` is rejected as soon
//! as the header is complete — a malicious 4-byte header can never pin
//! more memory than the peer transmitted.

use std::io::{self, Read};

use crate::framing::READ_CHUNK;

/// How much drained prefix the framer tolerates before compacting its
/// buffer (keeps steady-state keep-alive connections from growing).
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// Incremental decoder for length-prefixed frames.
///
/// Feed bytes with [`LengthFramer::push`] as they arrive (in any
/// fragmentation), then drain complete frames with
/// [`LengthFramer::next_frame`].  Construct with [`LengthFramer::new`]
/// for `len:u32be payload` frames or [`LengthFramer::with_kind_byte`]
/// for `len:u32be kind:u8 payload` frames (the kind byte is *not*
/// counted by `len`, matching the `xmit` wire format).
#[derive(Debug)]
pub struct LengthFramer {
    max_frame: usize,
    kind_byte: bool,
    buf: Vec<u8>,
    pos: usize,
}

impl LengthFramer {
    /// A framer for `len:u32be payload` frames with payloads capped at
    /// `max_frame` bytes.
    pub fn new(max_frame: usize) -> LengthFramer {
        LengthFramer { max_frame, kind_byte: false, buf: Vec::new(), pos: 0 }
    }

    /// A framer for `len:u32be kind:u8 payload` frames (the `xmit`
    /// messaging layout).
    pub fn with_kind_byte(max_frame: usize) -> LengthFramer {
        LengthFramer { max_frame, kind_byte: true, buf: Vec::new(), pos: 0 }
    }

    fn header_len(&self) -> usize {
        4 + usize::from(self.kind_byte)
    }

    /// Append newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet emitted as part of a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when no partial frame is pending — an EOF here is a clean
    /// close, not a mid-frame truncation.
    pub fn is_empty(&self) -> bool {
        self.buffered() == 0
    }

    /// How many more bytes are needed before [`LengthFramer::next_frame`]
    /// can emit (1 when the need is unknowable until more header bytes
    /// arrive is never the case here: the header length is fixed).
    /// Returns 0 when a complete frame is already buffered.
    pub fn bytes_needed(&self) -> usize {
        let avail = self.buffered();
        let header = self.header_len();
        if avail < header {
            return header - avail;
        }
        let len = self.peek_len();
        (header + len).saturating_sub(avail)
    }

    fn peek_len(&self) -> usize {
        let b = &self.buf[self.pos..self.pos + 4];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize
    }

    /// Emit the next complete frame as `(kind, payload)` — `kind` is 0
    /// for framers without a kind byte.  `Ok(None)` means more bytes are
    /// needed; an oversized length prefix is an `InvalidData` error.
    pub fn next_frame(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        let header = self.header_len();
        if self.buffered() < header {
            return Ok(None);
        }
        let len = self.peek_len();
        if len > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        if self.buffered() < header + len {
            return Ok(None);
        }
        let kind = if self.kind_byte { self.buf[self.pos + 4] } else { 0 };
        let start = self.pos + header;
        let payload = self.buf[start..start + len].to_vec();
        self.pos += header + len;
        Ok(Some((kind, payload)))
    }
}

/// A frame's header bytes, as built by [`frame_header`].
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader([u8; 5], usize);

impl std::ops::Deref for FrameHeader {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[..self.1]
    }
}

/// The header of a frame carrying `len` payload bytes: `len:u32be`, or
/// `len:u32be kind:u8` when `kind` is given — the two layouts
/// [`LengthFramer`] reads.  `max` is the receiving framer's cap; a
/// longer payload is `InvalidInput` here, before anything is written,
/// rather than a frame the receiver rejects mid-stream.
pub fn frame_header(len: usize, kind: Option<u8>, max: usize) -> io::Result<FrameHeader> {
    let prefix = u32::try_from(len).ok().filter(|_| len <= max).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the receiver's {max}-byte limit"),
        )
    })?;
    let mut bytes = [0u8; 5];
    bytes[..4].copy_from_slice(&prefix.to_be_bytes());
    if let Some(kind) = kind {
        bytes[4] = kind;
    }
    Ok(FrameHeader(bytes, 4 + usize::from(kind.is_some())))
}

/// Drive a [`LengthFramer`] from a blocking reader: the thin wrapper the
/// pre-event-loop transports keep their APIs with.
///
/// Reads exactly the bytes the framer still needs (in [`READ_CHUNK`]
/// steps, preserving the capped-allocation property), so the reader is
/// never advanced past the frame boundary.  `Ok(None)` reports a clean
/// EOF at a frame boundary; EOF mid-frame is `UnexpectedEof`, and read
/// deadlines surface unchanged (see [`crate::is_timeout`]).
pub fn read_frame_blocking<R: Read + ?Sized>(
    reader: &mut R,
    framer: &mut LengthFramer,
) -> io::Result<Option<(u8, Vec<u8>)>> {
    loop {
        if let Some(frame) = framer.next_frame()? {
            return Ok(Some(frame));
        }
        let need = framer.bytes_needed().min(READ_CHUNK);
        let mut chunk = vec![0u8; need];
        match reader.read(&mut chunk) {
            Ok(0) => {
                if framer.is_empty() {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => framer.push(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut v = (payload.len() as u32).to_be_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    }

    fn kind_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut v = (payload.len() as u32).to_be_bytes().to_vec();
        v.push(kind);
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn frame_header_allows_max_and_refuses_one_more() {
        for kind in [None, Some(9)] {
            let hdr = frame_header(64, kind, 64).unwrap();
            let mut f = if kind.is_some() {
                LengthFramer::with_kind_byte(64)
            } else {
                LengthFramer::new(64)
            };
            f.push(&hdr);
            f.push(&[0xab; 64]);
            assert_eq!(f.next_frame().unwrap(), Some((kind.unwrap_or(0), vec![0xab; 64])));

            let err = frame_header(65, kind, 64).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{kind:?}");
        }
        assert_eq!(&*frame_header(5, None, 64).unwrap(), &[0, 0, 0, 5]);
        assert_eq!(&*frame_header(5, Some(2), 64).unwrap(), &[0, 0, 0, 5, 2]);
    }

    #[test]
    fn whole_frame_in_one_push() {
        let mut f = LengthFramer::new(1024);
        f.push(&frame(b"hello"));
        assert_eq!(f.next_frame().unwrap(), Some((0, b"hello".to_vec())));
        assert_eq!(f.next_frame().unwrap(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn byte_at_a_time_reassembles() {
        let wire = kind_frame(7, b"payload");
        let mut f = LengthFramer::with_kind_byte(1024);
        for (i, b) in wire.iter().enumerate() {
            assert_eq!(f.next_frame().unwrap(), None, "premature frame at byte {i}");
            f.push(&[*b]);
        }
        assert_eq!(f.next_frame().unwrap(), Some((7, b"payload".to_vec())));
    }

    #[test]
    fn pipelined_frames_split_cleanly() {
        let mut wire = frame(b"one");
        wire.extend_from_slice(&frame(b""));
        wire.extend_from_slice(&frame(b"three"));
        let mut f = LengthFramer::new(1024);
        f.push(&wire);
        assert_eq!(f.next_frame().unwrap(), Some((0, b"one".to_vec())));
        assert_eq!(f.next_frame().unwrap(), Some((0, Vec::new())));
        assert_eq!(f.next_frame().unwrap(), Some((0, b"three".to_vec())));
        assert_eq!(f.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_rejected_at_header() {
        let mut f = LengthFramer::new(16);
        f.push(&17u32.to_be_bytes());
        let err = f.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bytes_needed_tracks_header_then_payload() {
        let mut f = LengthFramer::with_kind_byte(1024);
        assert_eq!(f.bytes_needed(), 5);
        f.push(&8u32.to_be_bytes());
        assert_eq!(f.bytes_needed(), 1);
        f.push(&[2]);
        assert_eq!(f.bytes_needed(), 8);
        f.push(&[0; 3]);
        assert_eq!(f.bytes_needed(), 5);
        f.push(&[0; 5]);
        assert_eq!(f.bytes_needed(), 0);
        assert!(f.next_frame().unwrap().is_some());
    }

    #[test]
    fn compaction_keeps_buffer_bounded() {
        let mut f = LengthFramer::new(1024);
        let one = frame(&[9u8; 512]);
        for _ in 0..1000 {
            f.push(&one);
            assert!(f.next_frame().unwrap().is_some());
        }
        assert!(f.buf.capacity() < 64 * 1024, "capacity {}", f.buf.capacity());
    }

    #[test]
    fn blocking_wrapper_reads_frames_and_reports_clean_eof() {
        let mut wire = frame(b"alpha");
        wire.extend_from_slice(&frame(b"beta"));
        let mut cursor = Cursor::new(wire);
        let mut f = LengthFramer::new(1024);
        assert_eq!(read_frame_blocking(&mut cursor, &mut f).unwrap(), Some((0, b"alpha".to_vec())));
        assert_eq!(read_frame_blocking(&mut cursor, &mut f).unwrap(), Some((0, b"beta".to_vec())));
        assert_eq!(read_frame_blocking(&mut cursor, &mut f).unwrap(), None);
    }

    #[test]
    fn blocking_wrapper_errors_on_midframe_eof() {
        let mut wire = frame(b"alpha");
        wire.truncate(6); // header + 2 of 5 payload bytes
        let mut cursor = Cursor::new(wire);
        let mut f = LengthFramer::new(1024);
        let err = read_frame_blocking(&mut cursor, &mut f).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn blocking_wrapper_never_overreads_past_the_frame() {
        let mut wire = frame(b"first");
        wire.extend_from_slice(b"LEFTOVER");
        let mut cursor = Cursor::new(wire);
        let mut f = LengthFramer::new(1024);
        assert_eq!(read_frame_blocking(&mut cursor, &mut f).unwrap(), Some((0, b"first".to_vec())));
        let mut rest = Vec::new();
        cursor.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"LEFTOVER");
    }
}
