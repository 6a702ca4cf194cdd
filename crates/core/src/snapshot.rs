//! Binary checkpoint encoding.
//!
//! A tiny hand-rolled little-endian codec for [`crate::obs::Session`]
//! snapshots: fixed-width scalars, length-prefixed byte blocks, and a
//! fail-closed [`Reader`] that reports truncation instead of panicking.
//! Everything is deterministic — the same state always serializes to
//! the same bytes, which the checkpoint/resume byte-identity tests rely
//! on.

use crate::error::CoreError;

/// Magic prefix of every snapshot ("SCRIPCKP" as bytes).
pub(crate) const MAGIC: [u8; 8] = *b"SCRIPCKP";
/// Format version; bump on any layout change.
pub(crate) const VERSION: u32 = 2;

/// An append-only snapshot encoder.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer starting with the magic prefix and format version.
    pub(crate) fn with_header() -> Self {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&MAGIC);
        w.put_u32(VERSION);
        w
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed opaque block (probe state, nested sections).
    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far (trace payloads hash and copy these
    /// without consuming the writer).
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the buffer so a long-lived writer can re-encode without
    /// reallocating (the per-event trace hot path).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }
}

/// A fail-closed snapshot decoder over a byte slice.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `data` with no header check — for nested blocks (e.g.
    /// per-probe state) written by a plain [`Writer::default`].
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Wraps `data`, checking the magic prefix and format version.
    pub(crate) fn with_header(data: &'a [u8]) -> Result<Self, CoreError> {
        let mut r = Reader { data, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(CoreError::Checkpoint(
                "not a scrip checkpoint (bad magic)".into(),
            ));
        }
        let version = r.take_u32()?;
        if version != VERSION {
            return Err(CoreError::Checkpoint(format!(
                "unsupported snapshot version {version} (this build reads {VERSION})"
            )));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(CoreError::Checkpoint(format!(
                "truncated snapshot: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len()
            )));
        };
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_bool(&mut self) -> Result<bool, CoreError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CoreError::Checkpoint(format!("invalid bool byte {b}"))),
        }
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A length-prefixed block written by [`Writer::put_bytes`].
    pub(crate) fn take_bytes(&mut self) -> Result<&'a [u8], CoreError> {
        let len = self.take_u64()?;
        let len = usize::try_from(len)
            .map_err(|_| CoreError::Checkpoint(format!("block length {len} overflows usize")))?;
        self.take(len)
    }

    /// Fails if any bytes remain unread (catches writer/reader drift).
    pub(crate) fn finish(self) -> Result<(), CoreError> {
        if self.pos != self.data.len() {
            return Err(CoreError::Checkpoint(format!(
                "snapshot has {} trailing bytes",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// FNV-1a over a byte string — the configuration fingerprint stored in
/// every snapshot so a resume against a different scenario fails loudly
/// instead of silently diverging.
pub(crate) fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_blocks() {
        let mut w = Writer::with_header();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.125);
        w.put_bytes(b"hello");
        let bytes = w.into_bytes();

        let mut r = Reader::with_header(&bytes).expect("valid header");
        assert_eq!(r.take_u8().expect("u8"), 7);
        assert!(r.take_bool().expect("bool"));
        assert_eq!(r.take_u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().expect("u64"), u64::MAX - 1);
        assert_eq!(r.take_f64().expect("f64"), -0.125);
        assert_eq!(r.take_bytes().expect("bytes"), b"hello");
        r.finish().expect("fully consumed");
    }

    #[test]
    fn rejects_bad_magic_truncation_and_trailing_bytes() {
        assert!(Reader::with_header(b"NOTASNAP____").is_err());
        let mut w = Writer::with_header();
        w.put_u64(42);
        let bytes = w.into_bytes();
        // Truncated mid-scalar.
        let mut r = Reader::with_header(&bytes[..bytes.len() - 2]).expect("header ok");
        assert!(r.take_u64().is_err());
        // Trailing garbage.
        let r = Reader::with_header(&bytes).expect("header ok");
        assert!(r.finish().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
    }
}
