//! Binary checkpoint encoding.
//!
//! A tiny hand-rolled little-endian codec for [`crate::obs::Session`]
//! snapshots: fixed-width scalars, length-prefixed byte blocks, and a
//! fail-closed [`Reader`] that reports truncation instead of panicking.
//! Everything is deterministic — the same state always serializes to
//! the same bytes, which the checkpoint/resume byte-identity tests rely
//! on. The framing around a snapshot (magic, version, checksum) is the
//! trace container's state frame ([`scrip_des::trace`]).

use scrip_topology::NodeId;

use crate::error::CoreError;

/// Little-endian encoding of fixed-width scalars and length-prefixed
/// blocks into any byte sink: a `Vec<u8>` (a trace writer's staging
/// buffer, a probe's state block) or a [`Fingerprint`] fold. One
/// encoder per state, whichever sink it ends up in.
pub(crate) trait Put {
    /// Appends raw bytes.
    fn put_raw(&mut self, bytes: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Length-prefixed opaque block (probe state, nested sections).
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_raw(v);
    }
}

impl Put for Vec<u8> {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// [`fingerprint`] computed on the fly: folding puts into the hash as
/// they arrive gives the value `fingerprint` gives for the bytes the same
/// puts would have written, with no buffer (a market's state digest
/// would otherwise serialize tens of MB first).
pub(crate) struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(FNV_OFFSET)
    }
}

impl Fingerprint {
    /// The digest of everything put so far.
    pub(crate) fn value(&self) -> u64 {
        self.0
    }
}

impl Put for Fingerprint {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fail-closed snapshot decoder over a byte slice.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `data`: a state frame's payload or a nested block (e.g.
    /// per-probe state).
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
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

    /// A node ID, written as its raw `u64`. A value past the 32-bit ID
    /// space ([`NodeId::MAX_RAW`]) is an error, not a truncation.
    pub(crate) fn take_id(&mut self) -> Result<NodeId, CoreError> {
        let raw = self.take_u64()?;
        if raw > NodeId::MAX_RAW {
            return Err(CoreError::Checkpoint(format!(
                "node id {raw} is past the 32-bit id space"
            )));
        }
        Ok(NodeId::from_raw(raw))
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// An element count for a sequence whose elements encode to at
    /// least `min_bytes` each. Fails unless the unread bytes could hold
    /// that many, so a corrupted count is an error before it can size
    /// an allocation.
    pub(crate) fn take_count(&mut self, min_bytes: usize) -> Result<usize, CoreError> {
        let count = self.take_u64()?;
        let fits = usize::try_from(count).ok().filter(|&c| {
            c.checked_mul(min_bytes)
                .is_some_and(|b| b <= self.remaining())
        });
        fits.ok_or_else(|| {
            CoreError::Checkpoint(format!(
                "count {count} of {min_bytes}-byte elements overruns the {} bytes left",
                self.remaining()
            ))
        })
    }

    /// A length-prefixed block written by [`Put::put_bytes`].
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
/// instead of silently diverging, and the job-name fingerprint in the
/// daemon's sample-log headers.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_blocks() {
        let mut bytes = Vec::new();
        bytes.put_u8(7);
        bytes.put_bool(true);
        bytes.put_u32(0xDEAD_BEEF);
        bytes.put_u64(u64::MAX - 1);
        bytes.put_f64(-0.125);
        bytes.put_bytes(b"hello");

        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().expect("u8"), 7);
        assert!(r.take_bool().expect("bool"));
        assert_eq!(r.take_u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().expect("u64"), u64::MAX - 1);
        assert_eq!(r.take_f64().expect("f64"), -0.125);
        assert_eq!(r.take_bytes().expect("bytes"), b"hello");
        r.finish().expect("fully consumed");
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let mut bytes = Vec::new();
        bytes.put_u64(42);
        // Truncated mid-scalar.
        let mut r = Reader::new(&bytes[..bytes.len() - 2]);
        assert!(r.take_u64().is_err());
        // Trailing garbage.
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u32().expect("u32"), 42);
        assert!(r.finish().is_err());
    }

    #[test]
    fn ids_past_the_32_bit_space_are_errors() {
        let mut bytes = Vec::new();
        bytes.put_u64(NodeId::MAX_RAW);
        bytes.put_u64(NodeId::MAX_RAW + 1);
        bytes.put_u64(u64::MAX);
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.take_id().expect("largest id"),
            NodeId::from_raw(NodeId::MAX_RAW)
        );
        assert!(matches!(r.take_id(), Err(CoreError::Checkpoint(_))));
        assert!(matches!(r.take_id(), Err(CoreError::Checkpoint(_))));
    }

    #[test]
    fn counts_are_bounded_by_the_unread_bytes() {
        let mut bytes = Vec::new();
        bytes.put_u64(2);
        bytes.put_u64(10);
        bytes.put_u64(20);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_count(8).expect("two u64s follow"), 2);
        assert_eq!(r.remaining(), 16);
        let mut r = Reader::new(&bytes);
        assert!(r.take_count(9).is_err(), "two 9-byte elements do not fit");
        for huge in [u64::MAX, u64::MAX / 8 + 1, 1 << 40] {
            let mut bytes = Vec::new();
            bytes.put_u64(huge);
            assert!(Reader::new(&bytes).take_count(8).is_err(), "{huge}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
    }

    #[test]
    fn streamed_fingerprint_equals_the_buffered_one() {
        fn encode(p: &mut impl Put) {
            p.put_u8(3);
            p.put_bool(false);
            p.put_u32(77);
            p.put_u64(u64::MAX - 5);
            p.put_f64(0.1);
            p.put_bytes(b"block");
        }
        let mut bytes = Vec::new();
        encode(&mut bytes);
        let mut f = Fingerprint::default();
        encode(&mut f);
        assert_eq!(f.value(), fingerprint(&bytes));
        assert_eq!(Fingerprint::default().value(), fingerprint(&[]));
    }
}
