//! Sans-io incremental frame decoding.
//!
//! Both record-plane protocols frame messages as `len:u32be payload`
//! (`pbio`'s format server) or `len:u32be kind:u8 payload` (`xmit`
//! messaging).  The server event loop reads sockets in whatever chunks
//! the kernel delivers, so the decoder must accept arbitrary byte
//! fragments and emit complete frames as they materialize — no blocking
//! reads inside the parser.  [`LengthFramer`] is that decoder.  Blocking
//! transports use [`read_frame_blocking`] instead, which keeps only the
//! header in the framer and reads the payload straight into a
//! caller-owned buffer reused across frames.  It reads exactly the bytes
//! the current frame still needs, so a blocking caller never over-reads
//! past a frame boundary and pipelined peers stay in sync.
//!
//! The untrusted-length discipline of [`crate::read_exact_capped`]
//! carries over: both paths only ever buffer bytes that actually
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

    /// The complete header at the read position as `(kind, len)`; an
    /// oversized `len` is an `InvalidData` error.
    fn header(&self) -> io::Result<(u8, usize)> {
        let len = self.peek_len();
        if len > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        Ok((if self.kind_byte { self.buf[self.pos + 4] } else { 0 }, len))
    }

    fn peek_len(&self) -> usize {
        let b = &self.buf[self.pos..self.pos + 4];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize
    }

    /// Drop `n` emitted bytes from the read position.
    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
    }

    /// Emit the next complete frame as `(kind, payload)` — `kind` is 0
    /// for framers without a kind byte.  `Ok(None)` means more bytes are
    /// needed; an oversized length prefix is an `InvalidData` error.
    pub fn next_frame(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        let header = self.header_len();
        if self.buffered() < header {
            return Ok(None);
        }
        let (kind, len) = self.header()?;
        if self.buffered() < header + len {
            return Ok(None);
        }
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

/// Read one frame from a blocking reader: the payload lands in
/// `payload` (replaced, and reused across frames so steady traffic
/// allocates nothing) and the frame's kind is returned — 0 for framers
/// without a kind byte.
///
/// Only the header passes through `framer`; the payload is read straight
/// into `payload`, filling the capacity it already has and growing it in
/// [`READ_CHUNK`] steps only as bytes arrive (a header claiming
/// `max_frame` with nothing behind it pins at most one step).  Exactly
/// the bytes this frame still needs are read, so the reader is never
/// advanced past the frame boundary.
/// `Ok(None)` reports a clean EOF at a frame boundary; EOF mid-frame is
/// `UnexpectedEof`, and read deadlines surface unchanged (see
/// [`crate::is_timeout`]).  After a deadline the partial frame is kept —
/// its header in `framer`, its payload so far in `payload` — so calling
/// again with the same pair resumes it.
///
/// `framer` must be one this function drives alone: bytes `push`ed into
/// it are not consulted.
pub fn read_frame_blocking<R: Read + ?Sized>(
    reader: &mut R,
    framer: &mut LengthFramer,
    payload: &mut Vec<u8>,
) -> io::Result<Option<u8>> {
    let header = framer.header_len();
    debug_assert!(framer.buffered() <= header, "framer was fed by push()");
    if framer.is_empty() {
        payload.clear();
    }
    while framer.buffered() < header {
        let mut bytes = [0u8; 5];
        match reader.read(&mut bytes[..header - framer.buffered()]) {
            Ok(0) if framer.is_empty() => return Ok(None),
            Ok(0) => return Err(closed_mid_frame()),
            Ok(n) => framer.push(&bytes[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let (kind, len) = framer.header()?;
    while payload.len() < len {
        // Fill the capacity the buffer already has, growing it by at most
        // one step past that: bytes the header only promises pin nothing.
        let start = payload.len();
        let step = (len - start).min(READ_CHUNK.max(payload.capacity() - start));
        payload.reserve(step);
        // `read_to_end` reads into the spare capacity without zeroing it
        // first, and keeps what it read when a deadline interrupts it.
        if Read::take(&mut *reader, step as u64).read_to_end(payload)? < step {
            return Err(closed_mid_frame());
        }
    }
    framer.consume(header);
    Ok(Some(kind))
}

fn closed_mid_frame() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame")
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

    /// Read every frame of `reader` through one framer and one reused
    /// payload buffer, as `(kind, payload, reader position after it)`.
    fn read_all<R: Read + AsPos>(reader: &mut R, f: &mut LengthFramer) -> Vec<(u8, Vec<u8>, u64)> {
        let mut payload = Vec::new();
        let mut out = Vec::new();
        while let Some(kind) = read_frame_blocking(reader, f, &mut payload).unwrap() {
            out.push((kind, payload.clone(), reader.pos()));
        }
        out
    }

    trait AsPos {
        fn pos(&self) -> u64;
    }

    impl AsPos for Cursor<Vec<u8>> {
        fn pos(&self) -> u64 {
            self.position()
        }
    }

    /// A reader that hands out at most one byte per `read`.
    struct OneByte(Cursor<Vec<u8>>);

    impl Read for OneByte {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    impl AsPos for OneByte {
        fn pos(&self) -> u64 {
            self.0.position()
        }
    }

    #[test]
    fn blocking_reader_reads_frames_and_reports_clean_eof() {
        let mut wire = kind_frame(1, b"alpha");
        wire.extend_from_slice(&kind_frame(2, b""));
        wire.extend_from_slice(&kind_frame(3, b"beta"));
        let mut f = LengthFramer::with_kind_byte(1024);
        let got = read_all(&mut Cursor::new(wire), &mut f);
        let frames: Vec<(u8, Vec<u8>)> = got.into_iter().map(|(k, p, _)| (k, p)).collect();
        assert_eq!(frames, vec![(1, b"alpha".to_vec()), (2, Vec::new()), (3, b"beta".to_vec())]);
        assert!(f.is_empty());
    }

    #[test]
    fn blocking_reader_stops_exactly_at_each_frame_end() {
        let payloads = [vec![7u8; 3], vec![], vec![9u8; READ_CHUNK + 11], vec![1u8; 40]];
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for (k, p) in payloads.iter().enumerate() {
            wire.extend_from_slice(&kind_frame(k as u8, p));
            ends.push(wire.len() as u64);
        }
        let mut f = LengthFramer::with_kind_byte(1 << 20);
        let got = read_all(&mut Cursor::new(wire.clone()), &mut f);
        assert_eq!(got.iter().map(|g| g.2).collect::<Vec<_>>(), ends);
        for (k, (kind, p, _)) in got.iter().enumerate() {
            assert_eq!((*kind, p), (k as u8, &payloads[k]));
        }

        // Trailing bytes behind a frame stay unread.
        let mut wire = frame(b"first");
        wire.extend_from_slice(b"LEFTOVER");
        let mut cursor = Cursor::new(wire);
        let (mut f, mut payload) = (LengthFramer::new(1024), Vec::new());
        assert_eq!(read_frame_blocking(&mut cursor, &mut f, &mut payload).unwrap(), Some(0));
        assert_eq!(payload, b"first");
        let mut rest = Vec::new();
        cursor.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"LEFTOVER");
    }

    #[test]
    fn one_byte_reads_yield_identical_frames() {
        let mut wire = Vec::new();
        for k in 0..5u8 {
            let p: Vec<u8> = (0..(k as usize * 37)).map(|i| (i * 7) as u8).collect();
            wire.extend_from_slice(&kind_frame(k, &p));
        }
        let whole =
            read_all(&mut Cursor::new(wire.clone()), &mut LengthFramer::with_kind_byte(1024));
        let dribbled =
            read_all(&mut OneByte(Cursor::new(wire)), &mut LengthFramer::with_kind_byte(1024));
        assert_eq!(whole.len(), 5);
        assert_eq!(dribbled, whole);
    }

    #[test]
    fn eof_mid_header_or_mid_payload_is_unexpected() {
        let wire = kind_frame(4, b"payload");
        for cut in 1..wire.len() {
            let mut cursor = Cursor::new(wire[..cut].to_vec());
            let (mut f, mut payload) = (LengthFramer::with_kind_byte(1024), Vec::new());
            let err = read_frame_blocking(&mut cursor, &mut f, &mut payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        let mut cursor = Cursor::new(Vec::new());
        let (mut f, mut payload) = (LengthFramer::with_kind_byte(1024), Vec::new());
        assert_eq!(read_frame_blocking(&mut cursor, &mut f, &mut payload).unwrap(), None);
    }

    #[test]
    fn bare_max_frame_header_pins_at_most_one_chunk() {
        const MAX: usize = 64 << 20;
        let mut header = (MAX as u32).to_be_bytes().to_vec();
        header.push(2);
        let mut cursor = Cursor::new(header);
        let (mut f, mut payload) = (LengthFramer::with_kind_byte(MAX), Vec::new());
        let err = read_frame_blocking(&mut cursor, &mut f, &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(payload.capacity() <= READ_CHUNK, "capacity {}", payload.capacity());

        // One byte over the cap is refused at the header.
        let mut cursor = Cursor::new(((MAX + 1) as u32).to_be_bytes().to_vec());
        cursor.get_mut().push(2);
        let mut f = LengthFramer::with_kind_byte(MAX);
        let err = read_frame_blocking(&mut cursor, &mut f, &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn equal_frames_reuse_the_buffer_after_the_first() {
        let body = vec![0x5a; 3 * READ_CHUNK + 5];
        let wire: Vec<u8> = (0..8).flat_map(|_| kind_frame(2, &body)).collect();
        let mut cursor = Cursor::new(wire);
        let (mut f, mut payload) = (LengthFramer::with_kind_byte(1 << 20), Vec::new());
        assert_eq!(read_frame_blocking(&mut cursor, &mut f, &mut payload).unwrap(), Some(2));
        let (ptr, cap) = (payload.as_ptr(), payload.capacity());
        for _ in 1..8 {
            assert_eq!(read_frame_blocking(&mut cursor, &mut f, &mut payload).unwrap(), Some(2));
            assert_eq!(payload, body);
            assert_eq!((payload.as_ptr(), payload.capacity()), (ptr, cap), "reallocated");
        }
        assert_eq!(read_frame_blocking(&mut cursor, &mut f, &mut payload).unwrap(), None);
    }

    /// A reader whose every other call times out, as a socket read
    /// deadline does.
    struct Stalling {
        inner: Cursor<Vec<u8>>,
        stall: bool,
    }

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.stall = !self.stall;
            if self.stall {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(3);
            self.inner.read(&mut buf[..n])
        }
    }

    #[test]
    fn a_deadline_mid_frame_resumes_on_the_next_call() {
        let mut wire = kind_frame(6, b"resumable payload");
        wire.extend_from_slice(&kind_frame(7, b"next"));
        let mut r = Stalling { inner: Cursor::new(wire), stall: false };
        let (mut f, mut payload) = (LengthFramer::with_kind_byte(1024), Vec::new());
        let mut frames = Vec::new();
        loop {
            match read_frame_blocking(&mut r, &mut f, &mut payload) {
                Ok(Some(kind)) => frames.push((kind, payload.clone())),
                Ok(None) => break,
                Err(e) => assert!(crate::is_timeout(&e), "{e}"),
            }
        }
        assert_eq!(frames, vec![(6, b"resumable payload".to_vec()), (7, b"next".to_vec())]);
    }
}
