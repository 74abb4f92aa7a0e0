//! The byte-level wire format: length-prefixed frames and the
//! hand-rolled payload codec.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [u32 len][u8 tag][payload ...]
//!           \________len________/
//! ```
//!
//! `len` counts the tag byte plus the payload, so a frame occupies
//! `4 + len` bytes on the wire and `len >= 1` always. The maximum `len`
//! is a per-endpoint policy ([`MAX_FRAME`] by default): a larger prefix
//! is rejected *before* any buffer of that size is allocated, so a
//! corrupt or hostile peer cannot OOM the receiver with five bytes.
//!
//! Payloads are encoded with [`PayloadWriter`]/[`PayloadReader`]: fixed
//! little-endian integers, `u32`-length-prefixed UTF-8 strings, chars as
//! `u32` scalar values, and `Option<T>` as a presence byte. serde is
//! unavailable in this workspace (see `DESIGN.md` §6), so the codec is
//! hand-rolled and decoding is total: every input either decodes or
//! returns a typed [`NetError`] — it never panics.

use crate::error::{NetError, Result};

/// Default maximum frame length (tag + payload). Snapshots of large
/// documents are the biggest frames; 16 MiB ≈ a 1M-character document
/// with full tombstone history.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes a frame spends before its payload: the length prefix and the tag.
const FRAME_HEADER: usize = 5;

/// Builds a payload byte-by-byte.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Start a complete wire frame: the payload is written directly
    /// behind the `[len][tag]` header, and [`PayloadWriter::into_frame`]
    /// fills the length in — no separate payload buffer to copy from.
    /// `payload_capacity` presizes the buffer for a payload of known size.
    pub fn frame(tag: u8, payload_capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(FRAME_HEADER + payload_capacity);
        buf.extend_from_slice(&[0; 4]);
        buf.push(tag);
        PayloadWriter { buf }
    }

    /// Finish a frame begun with [`PayloadWriter::frame`].
    pub fn into_frame(mut self) -> Vec<u8> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }

    /// Bytes written so far: the offset the next value lands at, for a
    /// later [`PayloadWriter::set_u32`].
    pub(crate) fn position(&self) -> usize {
        self.buf.len()
    }

    /// Overwrite the `u32` written at offset `at` — a count known only
    /// once what it counts has been written behind it.
    pub(crate) fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn chr(&mut self, c: char) {
        self.u32(c as u32);
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    pub fn opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
}

/// Decodes a payload; every accessor is bounds-checked and returns a
/// typed error on truncation or malformed content.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    tag: u8,
}

impl<'a> PayloadReader<'a> {
    pub fn new(tag: u8, buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0, tag }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, borrowed from the payload.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(NetError::Truncated {
                tag: self.tag,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn bad(&self, reason: impl Into<String>) -> NetError {
        NetError::BadPayload {
            tag: self.tag,
            reason: reason.into(),
        }
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.bad(format!("bool byte {b}"))),
        }
    }

    pub fn chr(&mut self) -> Result<char> {
        let v = self.u32()?;
        char::from_u32(v).ok_or_else(|| self.bad(format!("invalid char scalar {v:#x}")))
    }

    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_owned)
    }

    /// A length-prefixed string, borrowed from the payload.
    pub(crate) fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        // A string cannot be longer than the bytes that remain; checking
        // first turns a hostile length into `Truncated`, not a huge
        // allocation.
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| self.bad(format!("invalid utf-8: {e}")))
    }

    pub fn opt_u64(&mut self) -> Result<Option<u64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            b => Err(self.bad(format!("option byte {b}"))),
        }
    }

    pub fn opt_str(&mut self) -> Result<Option<String>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            b => Err(self.bad(format!("option byte {b}"))),
        }
    }

    /// Fail if the payload has trailing bytes — a frame must decode
    /// exactly, or the stream framing is suspect.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(NetError::BadPayload {
                tag: self.tag,
                reason: format!("{} trailing bytes", self.remaining()),
            });
        }
        Ok(())
    }
}

/// Encode one frame: `[u32 len][tag][payload]`.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let len = 1 + payload.len() as u32;
    let mut out = Vec::with_capacity(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(payload);
    out
}

/// Incremental frame assembly over a byte stream.
///
/// Socket reads append whatever arrived; [`FrameBuffer::try_frame`]
/// yields complete `(tag, payload)` frames as soon as their bytes are
/// in. A read that ends mid-frame leaves the partial bytes buffered —
/// framing never desynchronizes on short reads or timeouts.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    max_frame: u32,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        Self::new(MAX_FRAME)
    }
}

impl FrameBuffer {
    pub fn new(max_frame: u32) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Append bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact once consumed bytes dominate, so the buffer does not
        // grow with connection lifetime.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete frame, if its bytes have all arrived.
    ///
    /// `Err` means the stream is unrecoverable (oversized or empty
    /// length prefix): the caller must drop the connection — there is no
    /// way to find the next frame boundary after a corrupt prefix.
    pub fn try_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>> {
        Ok(self
            .next_frame()?
            .map(|(tag, payload)| (tag, payload.to_vec())))
    }

    /// [`FrameBuffer::try_frame`] without the copy: the payload is a view
    /// into the buffer, valid until the next call on it.
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len == 0 {
            return Err(NetError::EmptyFrame);
        }
        if len > self.max_frame {
            return Err(NetError::FrameTooLarge {
                len,
                max: self.max_frame,
            });
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame_start = self.start;
        self.start += total;
        let frame = &self.buf[frame_start..frame_start + total];
        Ok(Some((frame[4], &frame[FRAME_HEADER..])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_byte_by_byte() {
        let frame = encode_frame(0x42, b"hello");
        let mut fb = FrameBuffer::default();
        for (i, b) in frame.iter().enumerate() {
            fb.extend(&[*b]);
            let got = fb.try_frame().unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none(), "frame completed early at byte {i}");
            } else {
                assert_eq!(got, Some((0x42, b"hello".to_vec())));
            }
        }
        assert_eq!(fb.try_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut fb = FrameBuffer::new(1024);
        fb.extend(&u32::MAX.to_le_bytes());
        match fb.try_frame() {
            Err(NetError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let mut fb = FrameBuffer::default();
        fb.extend(&0u32.to_le_bytes());
        assert!(matches!(fb.try_frame(), Err(NetError::EmptyFrame)));
    }

    #[test]
    fn reader_truncation_is_typed() {
        let mut w = PayloadWriter::new();
        w.u64(7);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(0x01, &bytes[..4]);
        assert!(matches!(r.u64(), Err(NetError::Truncated { .. })));
    }

    #[test]
    fn string_length_cannot_exceed_payload() {
        // A string claiming 1 GiB inside a 10-byte payload must fail as
        // truncated, not allocate.
        let mut w = PayloadWriter::new();
        w.u32(1 << 30);
        w.u8(b'x');
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(0x02, &bytes);
        assert!(matches!(r.str(), Err(NetError::Truncated { .. })));
    }

    #[test]
    fn invalid_utf8_and_char_are_typed() {
        let mut w = PayloadWriter::new();
        w.u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = PayloadReader::new(0x03, &bytes);
        assert!(matches!(r.str(), Err(NetError::BadPayload { .. })));

        let mut w = PayloadWriter::new();
        w.u32(0xD800); // surrogate: not a scalar value
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(0x03, &bytes);
        assert!(matches!(r.chr(), Err(NetError::BadPayload { .. })));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = PayloadWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(0x04, &bytes);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(NetError::BadPayload { .. })));
    }

    #[test]
    fn writer_reader_roundtrip_all_primitives() {
        let mut w = PayloadWriter::new();
        w.u8(0xAB);
        w.u16(0xCDEF);
        w.u32(0xDEADBEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.bool(true);
        w.chr('𝕊');
        w.str("héllo");
        w.opt_u64(None);
        w.opt_u64(Some(9));
        w.opt_str(Some("s"));
        w.opt_str(None);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(0x05, &bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xCDEF);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.bool().unwrap());
        assert_eq!(r.chr().unwrap(), '𝕊');
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_str().unwrap(), Some("s".into()));
        assert_eq!(r.opt_str().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn buffer_compaction_keeps_partial_frames() {
        let mut fb = FrameBuffer::default();
        // Push many small frames to trigger compaction, interleaved with
        // a partial frame at the end.
        for _ in 0..2000 {
            fb.extend(&encode_frame(1, b"xxxx"));
            assert!(fb.try_frame().unwrap().is_some());
        }
        let frame = encode_frame(2, b"tail");
        fb.extend(&frame[..6]);
        assert!(fb.try_frame().unwrap().is_none());
        fb.extend(&frame[6..]);
        assert_eq!(fb.try_frame().unwrap(), Some((2, b"tail".to_vec())));
    }
}
