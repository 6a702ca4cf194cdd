//! Versioned append-only binary event traces: record every applied
//! event, replay and diff runs, and bisect divergences.
//!
//! A trace is a header plus a flat sequence of *frames*:
//!
//! ```text
//! header:        "SCRIPTRC" | version u32 | config fingerprint u64 | seed u64
//! event frame:   0x01 | time u64 (µs) | seq u64 | len u32 | payload | checksum u64
//! digest frame:  0x02 | time u64 (µs) | events_processed u64 | digest u64 | checksum u64
//! end frame:     0x03 | time u64 (µs) | events_processed u64 | checksum u64
//! ```
//!
//! All integers are little-endian. Every frame carries an FNV-1a
//! checksum over its own bytes (tag through payload), so bit-flips are
//! caught at the frame that suffered them, not at end-of-run. Event
//! payloads are opaque to this module — the model crate encodes and
//! decodes them (the market uses its checkpoint event codec), which
//! keeps the trace format model-agnostic.
//!
//! [`TraceWriter`] sits on the simulation hot path: frames accumulate
//! in an in-memory buffer and reach the sink only at explicit
//! [`TraceWriter::flush`] calls (sampling boundaries) or when the
//! buffer passes a size threshold — always on a frame boundary, so a
//! crash mid-write leaves at most one partial frame at the tail, which
//! readers report as truncation instead of replaying garbage.
//!
//! [`TraceReader`] is the append-only consumer side: any number of
//! registered consumers hold independent cursors over the same byte
//! log, and [`TraceReader::extend`] grows the log in place so a live
//! consumer can tail a trace still being written. [`TraceTailer`]
//! packages that into a file follower: it polls a path for appended
//! bytes, treats a partial frame at the tail as "wait for the writer's
//! next flush" rather than an error, and reports completion when the
//! end frame lands.
//!
//! The end frame (written by [`TraceWriter::end`]) marks an
//! intentionally finished log. Without it, a tailing consumer cannot
//! distinguish "the writer is between flushes" from "the run is over" —
//! with it, truncation stays fail-closed even for live followers.

use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::time::SimTime;

/// Magic prefix of every trace file ("SCRIPTRC" as bytes).
pub const TRACE_MAGIC: [u8; 8] = *b"SCRIPTRC";
/// Trace format version; bump on any layout change.
pub const TRACE_VERSION: u32 = 3;

/// Frame tag for an applied event.
const TAG_EVENT: u8 = 0x01;
/// Frame tag for a state digest.
const TAG_DIGEST: u8 = 0x02;
/// Frame tag for the end-of-log marker.
const TAG_END: u8 = 0x03;

/// Byte length of the fixed header.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Buffered bytes that trigger an automatic flush at the next frame
/// boundary (1 MiB).
const AUTO_FLUSH_BYTES: usize = 1 << 20;

/// FNV-1a over 8-byte words — the per-frame checksum. Folding a word
/// per multiply instead of a byte keeps the checksum off the recording
/// hot path (the multiply chain is the frame encoder's only serial
/// dependency); any flipped bit still avalanches through the
/// multiplies. The zero-padded tail is unambiguous because every
/// checksummed region starts with its frame tag and encodes its own
/// length (event frames carry an explicit payload length; digest
/// frames are fixed-size).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors from writing or reading a trace. Reads are fail-closed:
/// truncated, corrupt, or mismatched traces produce a precise error,
/// never a garbage replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The underlying sink or source failed.
    Io(String),
    /// The file does not start with the `SCRIPTRC` magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// The byte log ends mid-header or mid-frame (e.g. a crash left a
    /// partial final frame).
    Truncated {
        /// Byte offset the incomplete header/frame starts at.
        offset: usize,
    },
    /// A frame failed its checksum or carries an unknown tag.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(msg) => write!(f, "trace I/O: {msg}"),
            TraceError::BadMagic => write!(f, "not a scrip trace (bad magic)"),
            TraceError::Version { found } => write!(
                f,
                "unsupported trace version {found} (this build reads {TRACE_VERSION})"
            ),
            TraceError::Truncated { offset } => {
                write!(f, "truncated trace: incomplete frame at byte {offset}")
            }
            TraceError::Corrupt { offset } => {
                write!(f, "corrupt trace: bad checksum or tag at byte {offset}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The fixed header identifying what a trace recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Fingerprint of the recorded run's configuration — replaying
    /// against a different scenario fails loudly instead of silently
    /// diverging.
    pub fingerprint: u64,
    /// The recorded run's root seed.
    pub seed: u64,
}

/// One decoded trace frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceFrame {
    /// An applied event, keyed by its `(time, seq)` identity.
    Event {
        /// The instant the event fired.
        time: SimTime,
        /// The event's global sequence number (FIFO tie-break key).
        seq: u64,
        /// Model-encoded event payload (opaque to the trace layer).
        payload: Vec<u8>,
    },
    /// A state digest taken at a sampling boundary.
    Digest {
        /// The boundary instant.
        time: SimTime,
        /// Events dispatched when the digest was taken.
        events_processed: u64,
        /// The model's state digest (see `MarketView::state_digest`).
        digest: u64,
    },
    /// The end-of-log marker: the writer finished intentionally.
    End {
        /// The instant the log was closed.
        time: SimTime,
        /// Total events dispatched over the recorded run.
        events_processed: u64,
    },
}

impl TraceFrame {
    /// The frame's instant (event fire time, digest boundary, or close).
    pub fn time(&self) -> SimTime {
        match self {
            TraceFrame::Event { time, .. }
            | TraceFrame::Digest { time, .. }
            | TraceFrame::End { time, .. } => *time,
        }
    }
}

/// Buffered append-only trace encoder over any [`Write`] sink.
///
/// Frames are staged in memory and hit the sink only on
/// [`TraceWriter::flush`] / [`TraceWriter::finish`] or when the staging
/// buffer exceeds a fixed threshold — always on a frame boundary.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    buf: Vec<u8>,
    frames: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on `sink`, staging the header.
    pub fn new(sink: W, header: TraceHeader) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        buf.extend_from_slice(&header.fingerprint.to_le_bytes());
        buf.extend_from_slice(&header.seed.to_le_bytes());
        TraceWriter {
            sink,
            buf,
            frames: 0,
        }
    }

    /// Frames staged or written so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Appends an event frame.
    pub fn event(&mut self, time: SimTime, seq: u64, payload: &[u8]) -> Result<(), TraceError> {
        let start = self.buf.len();
        self.buf.push(TAG_EVENT);
        self.buf.extend_from_slice(&time.as_micros().to_le_bytes());
        self.buf.extend_from_slice(&seq.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
        let check = fnv1a(&self.buf[start..]);
        self.buf.extend_from_slice(&check.to_le_bytes());
        self.frames += 1;
        self.maybe_flush()
    }

    /// Appends a state-digest frame.
    pub fn digest(
        &mut self,
        time: SimTime,
        events_processed: u64,
        digest: u64,
    ) -> Result<(), TraceError> {
        let start = self.buf.len();
        self.buf.push(TAG_DIGEST);
        self.buf.extend_from_slice(&time.as_micros().to_le_bytes());
        self.buf.extend_from_slice(&events_processed.to_le_bytes());
        self.buf.extend_from_slice(&digest.to_le_bytes());
        let check = fnv1a(&self.buf[start..]);
        self.buf.extend_from_slice(&check.to_le_bytes());
        self.frames += 1;
        self.maybe_flush()
    }

    /// Appends the end-of-log marker. The writer stays usable (so the
    /// caller can still `finish`), but a tailing reader treats the log
    /// as complete from this frame on.
    pub fn end(&mut self, time: SimTime, events_processed: u64) -> Result<(), TraceError> {
        let start = self.buf.len();
        self.buf.push(TAG_END);
        self.buf.extend_from_slice(&time.as_micros().to_le_bytes());
        self.buf.extend_from_slice(&events_processed.to_le_bytes());
        let check = fnv1a(&self.buf[start..]);
        self.buf.extend_from_slice(&check.to_le_bytes());
        self.frames += 1;
        self.maybe_flush()
    }

    fn maybe_flush(&mut self) -> Result<(), TraceError> {
        if self.buf.len() >= AUTO_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Drains the staging buffer to the sink (called at sampling
    /// boundaries so a tailing reader only ever sees whole frames).
    pub fn flush(&mut self) -> Result<(), TraceError> {
        if !self.buf.is_empty() {
            self.sink
                .write_all(&self.buf)
                .map_err(|e| TraceError::Io(e.to_string()))?;
            self.buf.clear();
        }
        self.sink.flush().map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Flushes and returns the sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.flush()?;
        Ok(self.sink)
    }
}

/// Fail-closed trace decoder with independent per-consumer cursors
/// over one append-only byte log.
#[derive(Clone, Debug)]
pub struct TraceReader {
    bytes: Vec<u8>,
    header: TraceHeader,
    /// Per-consumer `(byte offset, frames delivered)` counters.
    cursors: Vec<(usize, u64)>,
}

impl TraceReader {
    /// Wraps a complete in-memory trace, validating the header.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        if bytes.len() < TRACE_MAGIC.len() {
            return Err(TraceError::Truncated { offset: 0 });
        }
        if bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(TraceError::Truncated { offset: 0 });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != TRACE_VERSION {
            return Err(TraceError::Version { found: version });
        }
        let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let seed = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        Ok(TraceReader {
            bytes,
            header: TraceHeader { fingerprint, seed },
            cursors: Vec::new(),
        })
    }

    /// Reads and wraps a trace file.
    pub fn from_path(path: &Path) -> Result<Self, TraceError> {
        let bytes =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(bytes)
    }

    /// The trace header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Total byte length of the log (header included).
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Registers a new consumer starting at the first frame; the
    /// returned id indexes this consumer's cursor.
    pub fn register_consumer(&mut self) -> usize {
        self.cursors.push((HEADER_LEN, 0));
        self.cursors.len() - 1
    }

    /// Frames delivered to `consumer` so far.
    pub fn frames_delivered(&self, consumer: usize) -> u64 {
        self.cursors[consumer].1
    }

    /// Whether `consumer` has consumed every byte currently in the log.
    pub fn at_end(&self, consumer: usize) -> bool {
        self.cursors[consumer].0 == self.bytes.len()
    }

    /// Appends freshly-flushed bytes (append-only growth): consumers
    /// that had drained the log simply resume at the new frames.
    pub fn extend(&mut self, more: &[u8]) {
        self.bytes.extend_from_slice(more);
    }

    /// Decodes the frame `consumer` would receive next, without
    /// advancing its cursor.
    pub fn peek_frame(&self, consumer: usize) -> Result<Option<TraceFrame>, TraceError> {
        let (offset, _) = self.cursors[consumer];
        Ok(decode_frame(&self.bytes, offset)?.map(|(frame, _)| frame))
    }

    /// Decodes the next frame for `consumer`, advancing its cursor.
    /// Returns `Ok(None)` exactly at end-of-log; a partial trailing
    /// frame is [`TraceError::Truncated`], a checksum mismatch is
    /// [`TraceError::Corrupt`].
    pub fn next_frame(&mut self, consumer: usize) -> Result<Option<TraceFrame>, TraceError> {
        let (offset, _) = self.cursors[consumer];
        match decode_frame(&self.bytes, offset)? {
            None => Ok(None),
            Some((frame, next)) => {
                let cursor = &mut self.cursors[consumer];
                cursor.0 = next;
                cursor.1 += 1;
                Ok(Some(frame))
            }
        }
    }
}

/// Decodes one frame at `offset`; `Ok(None)` exactly at end-of-log.
fn decode_frame(bytes: &[u8], offset: usize) -> Result<Option<(TraceFrame, usize)>, TraceError> {
    if offset == bytes.len() {
        return Ok(None);
    }
    let take = |at: usize, n: usize| -> Result<&[u8], TraceError> {
        bytes
            .get(at..at + n)
            .ok_or(TraceError::Truncated { offset })
    };
    let u64_at = |at: usize| -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            take(at, 8)?.try_into().expect("8 bytes"),
        ))
    };
    let tag = take(offset, 1)?[0];
    match tag {
        TAG_EVENT => {
            let time = u64_at(offset + 1)?;
            let seq = u64_at(offset + 9)?;
            let len =
                u32::from_le_bytes(take(offset + 17, 4)?.try_into().expect("4 bytes")) as usize;
            let payload = take(offset + 21, len)?;
            let body_end = offset + 21 + len;
            let check = u64_at(body_end)?;
            if check != fnv1a(&bytes[offset..body_end]) {
                return Err(TraceError::Corrupt { offset });
            }
            Ok(Some((
                TraceFrame::Event {
                    time: SimTime::from_micros(time),
                    seq,
                    payload: payload.to_vec(),
                },
                body_end + 8,
            )))
        }
        TAG_DIGEST => {
            let time = u64_at(offset + 1)?;
            let events_processed = u64_at(offset + 9)?;
            let digest = u64_at(offset + 17)?;
            let check = u64_at(offset + 25)?;
            if check != fnv1a(&bytes[offset..offset + 25]) {
                return Err(TraceError::Corrupt { offset });
            }
            Ok(Some((
                TraceFrame::Digest {
                    time: SimTime::from_micros(time),
                    events_processed,
                    digest,
                },
                offset + 33,
            )))
        }
        TAG_END => {
            let time = u64_at(offset + 1)?;
            let events_processed = u64_at(offset + 9)?;
            let check = u64_at(offset + 17)?;
            if check != fnv1a(&bytes[offset..offset + 17]) {
                return Err(TraceError::Corrupt { offset });
            }
            Ok(Some((
                TraceFrame::End {
                    time: SimTime::from_micros(time),
                    events_processed,
                },
                offset + 25,
            )))
        }
        _ => Err(TraceError::Corrupt { offset }),
    }
}

/// Follows a trace file still being written: each [`TraceTailer::poll`]
/// picks up bytes appended since the last poll and decodes every whole
/// frame they complete. A partial frame at the tail (the writer is
/// between flushes, or crashed mid-write) is not an error from the
/// tailer's point of view — the frame is simply not delivered yet; the
/// caller decides how long to keep waiting. Checksum failures and
/// header mismatches stay fail-closed.
#[derive(Debug)]
pub struct TraceTailer {
    path: PathBuf,
    /// Bytes consumed from the file so far.
    offset: u64,
    /// Header bytes accumulated before the reader could be built.
    pending: Vec<u8>,
    reader: Option<TraceReader>,
    consumer: usize,
    finished: bool,
}

impl TraceTailer {
    /// Starts tailing `path`. The file may not exist yet — polling
    /// before the writer creates it simply yields no frames.
    pub fn new(path: &Path) -> Self {
        TraceTailer {
            path: path.to_path_buf(),
            offset: 0,
            pending: Vec::new(),
            reader: None,
            consumer: 0,
            finished: false,
        }
    }

    /// Whether the end-of-log frame has been delivered: the writer
    /// finished intentionally and no further frames will arrive.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The trace header, once enough bytes have landed to decode it.
    pub fn header(&self) -> Option<&TraceHeader> {
        self.reader.as_ref().map(|r| r.header())
    }

    /// Reads any bytes appended since the last poll and returns every
    /// whole frame they complete (possibly none). `Ok(vec![])` means
    /// "nothing new yet", including before the file exists.
    pub fn poll(&mut self) -> Result<Vec<TraceFrame>, TraceError> {
        let fresh = self.read_growth()?;
        if !fresh.is_empty() {
            match &mut self.reader {
                Some(reader) => reader.extend(&fresh),
                None => {
                    self.pending.extend_from_slice(&fresh);
                    if self.pending.len() >= HEADER_LEN {
                        let mut reader =
                            TraceReader::from_bytes(std::mem::take(&mut self.pending))?;
                        self.consumer = reader.register_consumer();
                        self.reader = Some(reader);
                    }
                }
            }
        }
        let mut frames = Vec::new();
        if let Some(reader) = &mut self.reader {
            loop {
                match reader.next_frame(self.consumer) {
                    Ok(Some(frame)) => {
                        if matches!(frame, TraceFrame::End { .. }) {
                            self.finished = true;
                        }
                        frames.push(frame);
                    }
                    Ok(None) => break,
                    // Partial frame at the tail: the cursor did not
                    // advance, so the next poll retries it once the
                    // writer's flush completes it.
                    Err(TraceError::Truncated { .. }) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(frames)
    }

    /// Reads file bytes past `self.offset`, advancing the offset.
    fn read_growth(&mut self) -> Result<Vec<u8>, TraceError> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(TraceError::Io(format!("{}: {e}", self.path.display()))),
        };
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| TraceError::Io(e.to_string()))?;
        let mut fresh = Vec::new();
        file.read_to_end(&mut fresh)
            .map_err(|e| TraceError::Io(e.to_string()))?;
        self.offset += fresh.len() as u64;
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<u8> {
        let mut w = TraceWriter::new(
            Vec::new(),
            TraceHeader {
                fingerprint: 0xF1F2,
                seed: 42,
            },
        );
        w.event(SimTime::from_secs(1), 0, b"alpha").expect("event");
        w.event(SimTime::from_secs(2), 1, b"").expect("event");
        w.digest(SimTime::from_secs(2), 2, 0xD1D2D3)
            .expect("digest");
        w.event(SimTime::from_secs(3), 2, b"gamma").expect("event");
        w.finish().expect("finish")
    }

    #[test]
    fn frames_round_trip_in_order() {
        let mut r = TraceReader::from_bytes(sample_trace()).expect("valid trace");
        assert_eq!(
            r.header(),
            &TraceHeader {
                fingerprint: 0xF1F2,
                seed: 42
            }
        );
        let c = r.register_consumer();
        let mut frames = Vec::new();
        while let Some(f) = r.next_frame(c).expect("clean frames") {
            frames.push(f);
        }
        assert_eq!(frames.len(), 4);
        assert_eq!(
            frames[0],
            TraceFrame::Event {
                time: SimTime::from_secs(1),
                seq: 0,
                payload: b"alpha".to_vec()
            }
        );
        assert_eq!(
            frames[2],
            TraceFrame::Digest {
                time: SimTime::from_secs(2),
                events_processed: 2,
                digest: 0xD1D2D3
            }
        );
        assert_eq!(r.frames_delivered(c), 4);
        assert!(r.at_end(c));
    }

    #[test]
    fn consumers_hold_independent_cursors() {
        let mut r = TraceReader::from_bytes(sample_trace()).expect("valid trace");
        let a = r.register_consumer();
        let b = r.register_consumer();
        let first_a = r.next_frame(a).expect("frame").expect("some");
        r.next_frame(a).expect("frame").expect("some");
        let first_b = r.next_frame(b).expect("frame").expect("some");
        assert_eq!(first_a, first_b, "consumers see the same stream");
        assert_eq!(r.frames_delivered(a), 2);
        assert_eq!(r.frames_delivered(b), 1);
    }

    #[test]
    fn extend_grows_the_log_for_tailing_consumers() {
        let full = sample_trace();
        // Split on the frame boundary after the first flush-worth.
        let mut r = TraceReader::from_bytes(full[..HEADER_LEN].to_vec()).expect("header-only");
        let c = r.register_consumer();
        assert_eq!(r.next_frame(c).expect("eof is clean"), None);
        r.extend(&full[HEADER_LEN..]);
        let mut seen = 0;
        while r.next_frame(c).expect("clean frames").is_some() {
            seen += 1;
        }
        assert_eq!(seen, 4, "all appended frames delivered");
    }

    #[test]
    fn truncation_is_fail_closed() {
        let full = sample_trace();
        // Header shorter than fixed length.
        assert_eq!(
            TraceReader::from_bytes(full[..10].to_vec()).unwrap_err(),
            TraceError::Truncated { offset: 0 }
        );
        // Partial final frame (mid-write crash).
        let mut r = TraceReader::from_bytes(full[..full.len() - 3].to_vec()).expect("header ok");
        let c = r.register_consumer();
        let last = loop {
            match r.next_frame(c) {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(
            matches!(last, Err(TraceError::Truncated { .. })),
            "partial frame must error, got {last:?}"
        );
    }

    #[test]
    fn corruption_and_header_mismatches_are_fail_closed() {
        let full = sample_trace();
        // Bit-flip inside the first frame's payload.
        let mut flipped = full.clone();
        flipped[HEADER_LEN + 25] ^= 0x40;
        let mut r = TraceReader::from_bytes(flipped).expect("header ok");
        let c = r.register_consumer();
        assert!(matches!(r.next_frame(c), Err(TraceError::Corrupt { .. })));
        // Wrong magic.
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            TraceReader::from_bytes(bad_magic).unwrap_err(),
            TraceError::BadMagic
        );
        // Wrong version.
        let mut bad_version = full;
        bad_version[8] = 99;
        assert_eq!(
            TraceReader::from_bytes(bad_version).unwrap_err(),
            TraceError::Version { found: 99 }
        );
    }

    #[test]
    fn end_frame_round_trips_and_marks_completion() {
        let mut w = TraceWriter::new(
            Vec::new(),
            TraceHeader {
                fingerprint: 9,
                seed: 3,
            },
        );
        w.event(SimTime::from_secs(1), 0, b"a").expect("event");
        w.end(SimTime::from_secs(5), 17).expect("end");
        let bytes = w.finish().expect("finish");
        let mut r = TraceReader::from_bytes(bytes).expect("valid trace");
        let c = r.register_consumer();
        r.next_frame(c).expect("frame").expect("event");
        assert_eq!(
            r.next_frame(c).expect("frame"),
            Some(TraceFrame::End {
                time: SimTime::from_secs(5),
                events_processed: 17
            })
        );
        assert_eq!(r.next_frame(c).expect("eof"), None);
    }

    #[test]
    fn tailer_delivers_frames_as_the_file_grows() {
        let path = std::env::temp_dir().join(format!(
            "scrip-tailer-{}-{:?}.trc",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut tailer = TraceTailer::new(&path);
        // Nothing exists yet: clean empty poll.
        assert_eq!(tailer.poll().expect("pre-file poll"), Vec::new());

        let full = {
            let mut w = TraceWriter::new(
                Vec::new(),
                TraceHeader {
                    fingerprint: 7,
                    seed: 11,
                },
            );
            w.event(SimTime::from_secs(1), 0, b"alpha").expect("event");
            w.digest(SimTime::from_secs(1), 1, 0xAB).expect("digest");
            w.end(SimTime::from_secs(1), 1).expect("end");
            w.finish().expect("finish")
        };

        // Write the header plus a *partial* first frame: the tailer
        // must wait, not error.
        std::fs::write(&path, &full[..HEADER_LEN + 5]).expect("write");
        assert!(tailer
            .poll()
            .expect("partial tail is not an error")
            .is_empty());
        assert!(!tailer.finished());
        assert_eq!(tailer.header().map(|h| h.seed), Some(11));

        // Complete the file: all three frames land, end observed.
        std::fs::write(&path, &full).expect("rewrite grows the file");
        let frames = tailer.poll().expect("poll");
        assert_eq!(frames.len(), 3);
        assert!(matches!(frames[2], TraceFrame::End { .. }));
        assert!(tailer.finished());
        assert_eq!(tailer.poll().expect("drained"), Vec::new());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tailer_propagates_corruption() {
        let path = std::env::temp_dir().join(format!(
            "scrip-tailer-corrupt-{}-{:?}.trc",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut full = sample_trace();
        full[HEADER_LEN + 25] ^= 0x40;
        std::fs::write(&path, &full).expect("write");
        let mut tailer = TraceTailer::new(&path);
        assert!(matches!(tailer.poll(), Err(TraceError::Corrupt { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_flushes_only_on_request_or_threshold() {
        let mut w = TraceWriter::new(
            Vec::new(),
            TraceHeader {
                fingerprint: 1,
                seed: 2,
            },
        );
        w.event(SimTime::ZERO, 0, b"x").expect("event");
        assert!(w.sink.is_empty(), "nothing reaches the sink before flush");
        w.flush().expect("flush");
        assert!(!w.sink.is_empty());
        let staged = w.sink.len();
        w.digest(SimTime::ZERO, 1, 7).expect("digest");
        assert_eq!(w.sink.len(), staged, "frame staged, not written");
        let bytes = w.finish().expect("finish");
        assert!(bytes.len() > staged);
        TraceReader::from_bytes(bytes).expect("finished trace parses");
    }
}
