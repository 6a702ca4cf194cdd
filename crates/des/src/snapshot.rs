//! Binary state encoding: the byte primitives of checkpoints and trace
//! payloads, and the state sections every simulator shares.
//!
//! A tiny hand-rolled little-endian codec: fixed-width scalars,
//! length-prefixed byte blocks, and a fail-closed [`Reader`] that
//! reports truncation instead of panicking. Everything is deterministic
//! — the same state always serializes to the same bytes, which the
//! checkpoint/resume byte-identity tests rely on. The framing around a
//! snapshot (magic, version, checksum) is the trace container's state
//! frame ([`crate::trace`]).
//!
//! The sections below encode the kernel-side state both market
//! granularities carry — RNG words with the fault plan, fault counters,
//! and a [`TimeSeries`] — once, so each kind of state has one encoder
//! and one decoder whichever model it sits in.

use std::fmt;

use crate::fault::{FaultPlan, FaultStats};
use crate::rng::SimRng;
use crate::stats::TimeSeries;
use crate::time::SimTime;

/// A snapshot that cannot be decoded: truncated or inconsistent bytes,
/// or a size the allocator refuses. The message names what failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian encoding of fixed-width scalars and length-prefixed
/// blocks into any byte sink: a `Vec<u8>` (a trace writer's staging
/// buffer, a probe's state block) or a [`Fingerprint`] fold. One
/// encoder per state, whichever sink it ends up in.
pub trait Put {
    /// Appends raw bytes.
    fn put_raw(&mut self, bytes: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Appends a bool as one byte, 0 or 1.
    #[inline]
    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends an `f64` by its bits.
    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Length-prefixed opaque block (probe state, nested sections).
    #[inline]
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_raw(v);
    }
}

impl Put for Vec<u8> {
    #[inline]
    fn put_raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// [`fingerprint`] computed on the fly: folding puts into the hash as
/// they arrive gives the value `fingerprint` gives for the bytes the same
/// puts would have written, with no buffer (a market's state digest
/// would otherwise serialize tens of MB first).
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(FNV_OFFSET)
    }
}

impl Fingerprint {
    /// The digest of everything put so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Put for Fingerprint {
    #[inline]
    fn put_raw(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a byte string — the configuration fingerprint stored in
/// every snapshot so a resume against a different scenario fails loudly
/// instead of silently diverging, and the job-name fingerprint in the
/// daemon's sample-log headers.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// A fail-closed snapshot decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `data`: a state frame's payload or a nested block (e.g.
    /// per-probe state).
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(SnapshotError(format!(
                "truncated snapshot: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len()
            )));
        };
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// A bool byte; anything but 0 or 1 is an error.
    #[inline]
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError(format!("invalid bool byte {b}"))),
        }
    }

    /// A `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// An `f64` by its bits.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// An element count for a sequence whose elements encode to at
    /// least `min_bytes` each. Fails unless the unread bytes could hold
    /// that many, so a corrupted count is an error before it can size
    /// an allocation.
    pub fn take_count(&mut self, min_bytes: usize) -> Result<usize, SnapshotError> {
        let count = self.take_u64()?;
        let fits = usize::try_from(count).ok().filter(|&c| {
            c.checked_mul(min_bytes)
                .is_some_and(|b| b <= self.remaining())
        });
        fits.ok_or_else(|| {
            SnapshotError(format!(
                "count {count} of {min_bytes}-byte elements overruns the {} bytes left",
                self.remaining()
            ))
        })
    }

    /// A length-prefixed block written by [`Put::put_bytes`].
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_u64()?;
        let len = usize::try_from(len)
            .map_err(|_| SnapshotError(format!("block length {len} overflows usize")))?;
        self.take(len)
    }

    /// Fails if any bytes remain unread (catches writer/reader drift).
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.data.len() {
            return Err(SnapshotError(format!(
                "snapshot has {} trailing bytes",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// A table of `watermark` copies of `fill`, one per id below a decoded
/// id watermark. The watermark has no bytes behind it, so the table is
/// reserved before it is filled: one the allocator refuses is an error
/// naming the watermark, not an abort.
pub fn id_table<T: Clone>(watermark: u64, fill: T) -> Result<Vec<T>, SnapshotError> {
    let refused = || {
        SnapshotError(format!(
            "cannot allocate per-id tables up to the id watermark {watermark}"
        ))
    };
    let len = usize::try_from(watermark).map_err(|_| refused())?;
    let mut table = Vec::new();
    table.try_reserve_exact(len).map_err(|_| refused())?;
    table.resize(len, fill);
    Ok(table)
}

/// The RNG section: a model's four RNG words, then whether a fault plan
/// is installed and, if so, the plan's four RNG words and its count of
/// outcomes drawn.
pub fn put_rng_and_plan(w: &mut impl Put, rng: &SimRng, plan: Option<&FaultPlan>) {
    for word in rng.state() {
        w.put_u64(word);
    }
    w.put_bool(plan.is_some());
    if let Some(plan) = plan {
        for word in plan.rng_state() {
            w.put_u64(word);
        }
        w.put_u64(plan.outcomes_drawn());
    }
}

/// Decodes [`put_rng_and_plan`]'s section into the model's RNG and the
/// fault plan its configuration built, which must agree on whether a
/// plan exists.
pub fn take_rng_and_plan(
    r: &mut Reader<'_>,
    plan: &mut Option<FaultPlan>,
) -> Result<SimRng, SnapshotError> {
    let words = |r: &mut Reader<'_>| -> Result<[u64; 4], SnapshotError> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.take_u64()?;
        }
        Ok(state)
    };
    let rng = SimRng::from_state(words(r)?);
    let has_plan = r.take_bool()?;
    match (plan, has_plan) {
        (Some(plan), true) => {
            let state = words(r)?;
            plan.restore(state, r.take_u64()?);
        }
        (None, false) => {}
        (plan, _) => {
            return Err(SnapshotError(format!(
                "fault plan mismatch: snapshot has_plan={has_plan}, configuration builds {}",
                if plan.is_some() { "one" } else { "none" }
            )));
        }
    }
    Ok(rng)
}

/// The fault-counter section: seven counters, then the retry-depth
/// histogram behind its length.
pub fn put_fault_stats(w: &mut impl Put, stats: &FaultStats) {
    w.put_u64(stats.delivered);
    w.put_u64(stats.dropped);
    w.put_u64(stats.defected);
    w.put_u64(stats.delayed);
    w.put_u64(stats.retries);
    w.put_u64(stats.refunded);
    w.put_u64(stats.crashes);
    w.put_u64(stats.retry_depth.len() as u64);
    for &d in &stats.retry_depth {
        w.put_u64(d);
    }
}

/// Decodes [`put_fault_stats`]'s section.
pub fn take_fault_stats(r: &mut Reader<'_>) -> Result<FaultStats, SnapshotError> {
    let mut stats = FaultStats {
        delivered: r.take_u64()?,
        dropped: r.take_u64()?,
        defected: r.take_u64()?,
        delayed: r.take_u64()?,
        retries: r.take_u64()?,
        refunded: r.take_u64()?,
        crashes: r.take_u64()?,
        retry_depth: Vec::new(),
    };
    let depth = r.take_count(8)?;
    stats.retry_depth.reserve_exact(depth);
    for _ in 0..depth {
        stats.retry_depth.push(r.take_u64()?);
    }
    Ok(stats)
}

/// The time-series section: the sample count, then each sample's
/// instant (µs) and value.
pub fn put_series(w: &mut impl Put, series: &TimeSeries) {
    w.put_u64(series.len() as u64);
    for &(t, v) in series.samples() {
        w.put_u64(t.as_micros());
        w.put_f64(v);
    }
}

/// Decodes [`put_series`]'s section.
pub fn take_series(r: &mut Reader<'_>) -> Result<TimeSeries, SnapshotError> {
    let count = r.take_count(16)?;
    let mut series = TimeSeries::new();
    for _ in 0..count {
        let t = SimTime::from_micros(r.take_u64()?);
        series.record(t, r.take_f64()?);
    }
    Ok(series)
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
    fn id_tables_the_allocator_refuses_are_errors() {
        assert_eq!(id_table(3, 7u64).expect("small table"), [7, 7, 7]);
        // u64::MAX entries overflow the address space: the reservation
        // fails without allocating, and the error names the watermark.
        let err = id_table(u64::MAX, 0u64).expect_err("refused");
        assert!(err.to_string().contains("watermark"), "{err}");
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
