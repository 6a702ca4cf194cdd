//! Versioned append-only binary event traces: record every applied
//! event, replay runs to the first divergent event, and diff traces.
//!
//! A trace is a header plus a flat sequence of *frames*:
//!
//! ```text
//! header:        "SCRIPTRC" | version u32 | config fingerprint u64 | seed u64
//! event frame:   0x01 | time u64 (µs) | seq u64 | len u32 | payload | checksum u64
//! digest frame:  0x02 | time u64 (µs) | events_processed u64 | digest u64 | checksum u64
//! end frame:     0x03 | time u64 (µs) | events_processed u64 | checksum u64
//! state frame:   0x04 | time u64 (µs) | events_processed u64 | len u64 | payload | checksum u64
//! ```
//!
//! All integers are little-endian. Every frame carries an FNV-1a
//! checksum over its own bytes (tag through payload), so bit-flips are
//! caught at the frame that suffered them, not at end-of-run. Event
//! and state payloads are opaque to this module — the model crate
//! encodes and decodes them (the market uses its checkpoint codec),
//! which keeps the trace format model-agnostic.
//!
//! The same container carries three kinds of file: `record` traces
//! (event and digest frames), the daemon's sample logs (event frames
//! whose payloads are text lines) and checkpoints, which are exactly a
//! header, one state frame holding the whole session state, and an
//! end frame at the same instant and event count. A reader bounds a
//! state frame's length by the bytes present before it allocates.
//!
//! [`TraceWriter`] sits on the simulation hot path: frames accumulate
//! in an in-memory buffer and reach the sink only at explicit
//! [`TraceWriter::flush`] calls (sampling boundaries) or when event
//! frames take the buffer past a size threshold — always on a frame
//! boundary, so a crash mid-write leaves at most one partial frame at
//! the tail, which readers report as truncation instead of replaying
//! garbage.
//!
//! [`TraceReader`] is the append-only consumer side: one cursor over
//! the byte log, and [`TraceReader::extend`] appends to the log (and
//! drops the bytes already decoded) so a live consumer can tail a
//! trace still being written. [`TraceTailer`] packages that into a file
//! follower: it polls a path for appended bytes, treats a partial frame
//! at the tail as "wait for the writer's next flush" rather than an
//! error, and reports completion when the end frame lands.
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
/// Container format version. Bump it when an existing frame's layout
/// changes; a new frame kind needs no bump, because older readers
/// refuse its unknown tag as corrupt.
pub const TRACE_VERSION: u32 = 3;

/// Frame tag for an applied event.
const TAG_EVENT: u8 = 0x01;
/// Frame tag for a state digest.
const TAG_DIGEST: u8 = 0x02;
/// Frame tag for the end-of-log marker.
const TAG_END: u8 = 0x03;
/// Frame tag for a serialized session state.
const TAG_STATE: u8 = 0x04;

/// Byte length of the fixed header.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Byte width of a payload frame's length word: a `u32` for an event
/// frame, whose payload is one event, a `u64` for a state frame.
fn len_width(tag: u8) -> usize {
    if tag == TAG_EVENT {
        4
    } else {
        8
    }
}

/// Staged event-frame bytes that trigger an automatic flush (1 MiB).
const AUTO_FLUSH_BYTES: usize = 1 << 20;

/// FNV-1a over 8-byte words — the per-frame checksum. Folding a word
/// per multiply instead of a byte keeps the checksum off the recording
/// hot path (the multiply chain is the frame encoder's only serial
/// dependency); any flipped bit still avalanches through the
/// multiplies. The zero-padded tail is unambiguous because every
/// checksummed region starts with its frame tag and encodes its own
/// length (event and state frames carry an explicit payload length;
/// digest and end frames are fixed-size). Every checksummed region is
/// longer than a word (a frame's tag and clock alone take nine bytes).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rem = chunks.remainder().len();
    if rem > 0 {
        // The zero-padded tail word: the last eight bytes shifted down
        // past the ones the loop already folded. One fixed-size load;
        // copying the `rem` bytes compiles to a `memcpy` call per frame.
        let word = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte word"));
        h ^= word >> (8 * (8 - rem));
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

impl TraceError {
    /// The error with its byte offset moved `base` bytes on: decoding
    /// reports offsets into the bytes it was given, and a reader that
    /// dropped consumed bytes started those `base` bytes into the log.
    fn rebased(self, base: usize) -> Self {
        match self {
            TraceError::Truncated { offset } => TraceError::Truncated {
                offset: offset + base,
            },
            TraceError::Corrupt { offset } => TraceError::Corrupt {
                offset: offset + base,
            },
            other => other,
        }
    }
}

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

/// One decoded trace frame. Payloads are owned (`Vec<u8>`) unless the
/// frame was read with [`TraceReader::next_frame_borrowed`], which
/// lends them from the log (`&[u8]`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceFrame<P = Vec<u8>> {
    /// An applied event, keyed by its `(time, seq)` identity.
    Event {
        /// The instant the event fired.
        time: SimTime,
        /// The event's global sequence number (FIFO tie-break key).
        seq: u64,
        /// Model-encoded event payload (opaque to the trace layer).
        payload: P,
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
    /// A serialized session state (a checkpoint).
    State {
        /// The instant the state was taken.
        time: SimTime,
        /// Events dispatched when the state was taken.
        events_processed: u64,
        /// Model-encoded state (opaque to the trace layer).
        payload: P,
    },
}

impl<P> TraceFrame<P> {
    /// The frame's instant (event fire time, digest boundary, or close).
    pub fn time(&self) -> SimTime {
        match self {
            TraceFrame::Event { time, .. }
            | TraceFrame::Digest { time, .. }
            | TraceFrame::End { time, .. }
            | TraceFrame::State { time, .. } => *time,
        }
    }
}

impl TraceFrame<&[u8]> {
    /// The frame with its payload copied out of the log.
    fn into_owned(self) -> TraceFrame {
        match self {
            TraceFrame::Event { time, seq, payload } => TraceFrame::Event {
                time,
                seq,
                payload: payload.to_vec(),
            },
            TraceFrame::Digest {
                time,
                events_processed,
                digest,
            } => TraceFrame::Digest {
                time,
                events_processed,
                digest,
            },
            TraceFrame::End {
                time,
                events_processed,
            } => TraceFrame::End {
                time,
                events_processed,
            },
            TraceFrame::State {
                time,
                events_processed,
                payload,
            } => TraceFrame::State {
                time,
                events_processed,
                payload: payload.to_vec(),
            },
        }
    }
}

/// Buffered append-only trace encoder over any [`Write`] sink.
///
/// Frames are staged in memory and hit the sink only on
/// [`TraceWriter::flush`] / [`TraceWriter::finish`] or when an event
/// frame takes the staging buffer past a fixed threshold — always on a
/// frame boundary.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    buf: Vec<u8>,
    frames: u64,
    /// Where the last staged event frame starts while its checksum
    /// slot still reads zero. An event frame is sealed when the next
    /// frame is staged or the buffer drains, by which time its bytes
    /// have left the store buffer: reading them back at once (the
    /// checksum loads words that span the header's and the payload's
    /// narrower stores) stalled every frame on store forwarding,
    /// ~12 ns of a ~15 ns frame on a Sapphire Rapids core.
    unsealed: Option<usize>,
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
            unsealed: None,
        }
    }

    /// Frames staged or written so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Appends an event frame.
    pub fn event(&mut self, time: SimTime, seq: u64, payload: &[u8]) -> Result<(), TraceError> {
        self.event_with(time, seq, |buf| buf.extend_from_slice(payload))
    }

    /// Appends an event frame whose payload `encode` appends straight
    /// into the staging buffer — the recording hot path, which thereby
    /// skips encoding into a scratch buffer and copying it over.
    /// `encode` must only append.
    pub fn event_with(
        &mut self,
        time: SimTime,
        seq: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), TraceError> {
        let start = self.payload_frame(TAG_EVENT, time, seq, encode);
        self.buf.extend_from_slice(&[0; 8]);
        self.frames += 1;
        self.unsealed = Some(start);
        // Event frames are what a long recording accumulates, so they
        // alone bound the staging buffer; every other frame is followed
        // by an explicit flush or written to memory in one go.
        if self.buf.len() >= AUTO_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Appends a state-digest frame.
    pub fn digest(&mut self, time: SimTime, events_processed: u64, digest: u64) {
        self.words_frame(TAG_DIGEST, &[time.as_micros(), events_processed, digest]);
    }

    /// Appends the end-of-log marker. The writer stays usable (so the
    /// caller can still `finish`), but a tailing reader treats the log
    /// as complete from this frame on.
    pub fn end(&mut self, time: SimTime, events_processed: u64) {
        self.words_frame(TAG_END, &[time.as_micros(), events_processed]);
    }

    /// Appends a state frame whose payload `encode` appends straight
    /// into the staging buffer, so a checkpoint is encoded once, in
    /// place. `encode` must only append.
    pub fn state_with(
        &mut self,
        time: SimTime,
        events_processed: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = self.payload_frame(TAG_STATE, time, events_processed, encode);
        self.seal(start);
    }

    /// Stages `tag | words… | checksum`.
    fn words_frame(&mut self, tag: u8, words: &[u64]) {
        self.seal_event();
        let start = self.buf.len();
        self.buf.push(tag);
        for word in words {
            self.buf.extend_from_slice(&word.to_le_bytes());
        }
        self.seal(start);
    }

    /// Stages `tag | time | word | len | payload`, where `encode`
    /// appends the payload and its length is patched in after, and
    /// returns where the frame starts; the caller seals it. The header
    /// goes in with one write, the length still zero.
    #[inline]
    fn payload_frame(
        &mut self,
        tag: u8,
        time: SimTime,
        word: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> usize {
        self.seal_event();
        let start = self.buf.len();
        let width = len_width(tag);
        let mut header = [0u8; 25];
        header[0] = tag;
        header[1..9].copy_from_slice(&time.as_micros().to_le_bytes());
        header[9..17].copy_from_slice(&word.to_le_bytes());
        self.buf.extend_from_slice(&header[..17 + width]);
        let len_at = start + 17;
        encode(&mut self.buf);
        let len = (self.buf.len() - len_at - width) as u64;
        self.buf[len_at..len_at + width].copy_from_slice(&len.to_le_bytes()[..width]);
        start
    }

    /// Closes the frame staged from `start` with its checksum.
    fn seal(&mut self, start: usize) {
        let check = fnv1a(&self.buf[start..]);
        self.buf.extend_from_slice(&check.to_le_bytes());
        self.frames += 1;
    }

    /// Fills in the checksum of the last event frame, if it is still
    /// unsealed: the last eight staged bytes.
    #[inline]
    fn seal_event(&mut self) {
        if let Some(start) = self.unsealed.take() {
            let end = self.buf.len() - 8;
            let check = fnv1a(&self.buf[start..end]);
            self.buf[end..].copy_from_slice(&check.to_le_bytes());
        }
    }

    /// Drains the staging buffer to the sink (called at sampling
    /// boundaries so a tailing reader only ever sees whole frames).
    pub fn flush(&mut self) -> Result<(), TraceError> {
        self.seal_event();
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

impl TraceWriter<Vec<u8>> {
    /// The finished in-memory log. Bytes reach the sink only on a
    /// flush, so a log written in one go (a checkpoint) hands back its
    /// staging buffer without a copy.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.seal_event();
        let TraceWriter { mut sink, buf, .. } = self;
        if sink.is_empty() {
            return buf;
        }
        sink.extend_from_slice(&buf);
        sink
    }
}

/// Fail-closed trace decoder: one cursor over one append-only byte
/// log. The log is a `Vec<u8>` the reader owns (a file, or a log that
/// [`TraceReader::extend`] grows) or a borrowed `&[u8]`, which a
/// checkpoint is read from without copying it. Error offsets are
/// offsets into the whole log, also after `extend` dropped the bytes
/// before the cursor.
#[derive(Clone, Debug)]
pub struct TraceReader<B = Vec<u8>> {
    bytes: B,
    header: TraceHeader,
    /// Offset in the log of `bytes[0]`: the number of consumed bytes
    /// [`TraceReader::extend`] has dropped.
    base: usize,
    /// Offset in `bytes` of the next frame.
    pos: usize,
}

impl<B: AsRef<[u8]>> TraceReader<B> {
    /// Wraps a complete in-memory trace, validating the header.
    pub fn from_bytes(log: B) -> Result<Self, TraceError> {
        let bytes = log.as_ref();
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
            bytes: log,
            header: TraceHeader { fingerprint, seed },
            base: 0,
            pos: HEADER_LEN,
        })
    }

    /// The trace header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Decodes the next frame without advancing the cursor.
    pub fn peek_frame(&self) -> Result<Option<TraceFrame>, TraceError> {
        let mut pos = self.pos;
        let frame =
            decode_frame(self.bytes.as_ref(), &mut pos).map_err(|e| e.rebased(self.base))?;
        Ok(frame.map(TraceFrame::into_owned))
    }

    /// Decodes the next frame, advancing the cursor. Returns `Ok(None)`
    /// exactly at end-of-log; a partial trailing frame is
    /// [`TraceError::Truncated`], a checksum mismatch is
    /// [`TraceError::Corrupt`].
    pub fn next_frame(&mut self) -> Result<Option<TraceFrame>, TraceError> {
        let frame =
            decode_frame(self.bytes.as_ref(), &mut self.pos).map_err(|e| e.rebased(self.base))?;
        Ok(frame.map(TraceFrame::into_owned))
    }
}

impl TraceReader {
    /// Reads and wraps a trace file.
    pub fn from_path(path: &Path) -> Result<Self, TraceError> {
        let bytes =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(bytes)
    }

    /// Appends freshly-flushed bytes (append-only growth): a reader
    /// that had drained the log simply resumes at the new frames. The
    /// bytes before the cursor are dropped first, so a reader that
    /// follows a growing log holds at most one partial frame plus what
    /// each call appends.
    pub fn extend(&mut self, more: &[u8]) {
        self.bytes.drain(..self.pos);
        self.base += std::mem::take(&mut self.pos);
        self.bytes.extend_from_slice(more);
    }
}

impl<'a> TraceReader<&'a [u8]> {
    /// As [`TraceReader::next_frame`], with the payload lent from the
    /// borrowed log instead of copied, for as long as the log lives.
    pub fn next_frame_borrowed(&mut self) -> Result<Option<TraceFrame<&'a [u8]>>, TraceError> {
        decode_frame(self.bytes, &mut self.pos).map_err(|e| e.rebased(self.base))
    }
}

/// Decodes the frame at `*pos` and moves `*pos` past it; `Ok(None)`
/// exactly at end-of-log. On an error `*pos` stays put.
fn decode_frame<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
) -> Result<Option<TraceFrame<&'a [u8]>>, TraceError> {
    let offset = *pos;
    if offset == bytes.len() {
        return Ok(None);
    }
    // A length word is bounded by the bytes present before anything is
    // sized from it.
    let take = |at: usize, n: usize| -> Result<&'a [u8], TraceError> {
        at.checked_add(n)
            .and_then(|end| bytes.get(at..end))
            .ok_or(TraceError::Truncated { offset })
    };
    let u64_at = |at: usize| -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            take(at, 8)?.try_into().expect("8 bytes"),
        ))
    };
    let tag = take(offset, 1)?[0];
    match tag {
        TAG_EVENT | TAG_STATE => {
            let time = SimTime::from_micros(u64_at(offset + 1)?);
            let word = u64_at(offset + 9)?;
            let width = len_width(tag);
            let mut len = [0u8; 8];
            len[..width].copy_from_slice(take(offset + 17, width)?);
            let len = usize::try_from(u64::from_le_bytes(len))
                .map_err(|_| TraceError::Truncated { offset })?;
            let payload_at = offset + 17 + width;
            let payload = take(payload_at, len)?;
            let body_end = payload_at + len;
            if u64_at(body_end)? != fnv1a(&bytes[offset..body_end]) {
                return Err(TraceError::Corrupt { offset });
            }
            *pos = body_end + 8;
            Ok(Some(if tag == TAG_EVENT {
                TraceFrame::Event {
                    time,
                    seq: word,
                    payload,
                }
            } else {
                TraceFrame::State {
                    time,
                    events_processed: word,
                    payload,
                }
            }))
        }
        TAG_DIGEST => {
            let time = u64_at(offset + 1)?;
            let events_processed = u64_at(offset + 9)?;
            let digest = u64_at(offset + 17)?;
            let check = u64_at(offset + 25)?;
            if check != fnv1a(&bytes[offset..offset + 25]) {
                return Err(TraceError::Corrupt { offset });
            }
            *pos = offset + 33;
            Ok(Some(TraceFrame::Digest {
                time: SimTime::from_micros(time),
                events_processed,
                digest,
            }))
        }
        TAG_END => {
            let time = u64_at(offset + 1)?;
            let events_processed = u64_at(offset + 9)?;
            let check = u64_at(offset + 17)?;
            if check != fnv1a(&bytes[offset..offset + 17]) {
                return Err(TraceError::Corrupt { offset });
            }
            *pos = offset + 25;
            Ok(Some(TraceFrame::End {
                time: SimTime::from_micros(time),
                events_processed,
            }))
        }
        _ => Err(TraceError::Corrupt { offset }),
    }
}

/// The most bytes one [`TraceTailer::poll`] or [`TraceFile`] refill
/// reads (1 MiB), so a reader that starts on a long finished trace
/// holds one chunk and one partial frame at a time, not the whole file.
const TAIL_CHUNK: u64 = 1 << 20;

/// Reads up to [`TAIL_CHUNK`] bytes from `file`'s current position, and
/// whether they reached the end of the file.
fn read_chunk(file: &mut std::fs::File) -> Result<(Vec<u8>, bool), TraceError> {
    let mut chunk = Vec::new();
    file.take(TAIL_CHUNK)
        .read_to_end(&mut chunk)
        .map_err(|e| TraceError::Io(e.to_string()))?;
    let at_end = (chunk.len() as u64) < TAIL_CHUNK;
    Ok((chunk, at_end))
}

/// A finished trace file decoded one bounded read at a time: the
/// reader is fed at most 1 MiB per refill through
/// [`TraceReader::extend`], so it holds one chunk plus the frame in
/// progress, not the whole file. Unlike a [`TraceTailer`], a partial
/// frame at the end of the file is the [`TraceError::Truncated`] a
/// whole-file [`TraceReader`] reports.
#[derive(Debug)]
pub struct TraceFile {
    file: std::fs::File,
    reader: TraceReader,
    at_end: bool,
}

impl TraceFile {
    /// Opens `path` and decodes its header from the first chunk.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let mut file = std::fs::File::open(path)
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        let (first, at_end) = read_chunk(&mut file)?;
        Ok(TraceFile {
            file,
            reader: TraceReader::from_bytes(first)?,
            at_end,
        })
    }

    /// The trace header.
    pub fn header(&self) -> &TraceHeader {
        self.reader.header()
    }

    /// As [`TraceReader::next_frame`] over the whole file.
    pub fn next_frame(&mut self) -> Result<Option<TraceFrame>, TraceError> {
        self.fed(|reader| reader.next_frame())
    }

    /// As [`TraceReader::peek_frame`] over the whole file.
    pub fn peek_frame(&mut self) -> Result<Option<TraceFrame>, TraceError> {
        self.fed(|reader| reader.peek_frame())
    }

    /// Runs `decode` on the reader, refilling it while the bytes it
    /// holds end before the next frame does and the file has more.
    fn fed(
        &mut self,
        mut decode: impl FnMut(&mut TraceReader) -> Result<Option<TraceFrame>, TraceError>,
    ) -> Result<Option<TraceFrame>, TraceError> {
        loop {
            match decode(&mut self.reader) {
                Ok(None) | Err(TraceError::Truncated { .. }) if !self.at_end => {
                    let (chunk, at_end) = read_chunk(&mut self.file)?;
                    self.reader.extend(&chunk);
                    self.at_end = at_end;
                }
                decoded => return decoded,
            }
        }
    }
}

/// Follows a trace file still being written: each [`TraceTailer::poll`]
/// reads up to 1 MiB of the bytes appended since the last poll and
/// decodes every whole frame they complete. A partial frame at the tail
/// (the writer is between flushes, or crashed mid-write) is not an
/// error from the tailer's point of view — the frame is simply not
/// delivered yet; the caller decides how long to keep waiting. Checksum failures and
/// header mismatches stay fail-closed.
#[derive(Debug)]
pub struct TraceTailer {
    path: PathBuf,
    /// Bytes consumed from the file so far.
    offset: u64,
    /// Header bytes accumulated before the reader could be built.
    pending: Vec<u8>,
    reader: Option<TraceReader>,
    finished: bool,
    /// Whether the last poll read up to the end of the file.
    caught_up: bool,
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
            finished: false,
            caught_up: false,
        }
    }

    /// Whether the end-of-log frame has been delivered: the writer
    /// finished intentionally and no further frames will arrive.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Whether the last [`TraceTailer::poll`] read every byte the file
    /// held (or found no file). A poll reads at most 1 MiB, so a caller
    /// catching up on a long trace polls until this holds; a poll that
    /// returns no frames may just be inside a frame larger than that.
    pub fn caught_up(&self) -> bool {
        self.caught_up
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
                        self.reader =
                            Some(TraceReader::from_bytes(std::mem::take(&mut self.pending))?);
                    }
                }
            }
        }
        let mut frames = Vec::new();
        if let Some(reader) = &mut self.reader {
            loop {
                match reader.next_frame() {
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

    /// Reads up to [`TAIL_CHUNK`] file bytes past `self.offset`,
    /// advancing the offset, and notes whether they reached the end.
    fn read_growth(&mut self) -> Result<Vec<u8>, TraceError> {
        self.caught_up = true;
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(TraceError::Io(format!("{}: {e}", self.path.display()))),
        };
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| TraceError::Io(e.to_string()))?;
        let (fresh, caught_up) = read_chunk(&mut file)?;
        self.offset += fresh.len() as u64;
        self.caught_up = caught_up;
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
        w.digest(SimTime::from_secs(2), 2, 0xD1D2D3);
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
        let first = r.peek_frame().expect("clean frame");
        let mut frames = Vec::new();
        while let Some(f) = r.next_frame().expect("clean frames") {
            frames.push(f);
        }
        assert_eq!(frames.len(), 4);
        assert_eq!(first.as_ref(), Some(&frames[0]), "peeking does not advance");
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
        assert_eq!(r.peek_frame().expect("clean end of log"), None);
    }

    #[test]
    fn extend_grows_the_log_for_tailing_consumers() {
        let full = sample_trace();
        // Split on the frame boundary after the first flush-worth.
        let mut r = TraceReader::from_bytes(full[..HEADER_LEN].to_vec()).expect("header-only");
        assert_eq!(r.next_frame().expect("eof is clean"), None);
        r.extend(&full[HEADER_LEN..]);
        let mut seen = 0;
        while r.next_frame().expect("clean frames").is_some() {
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
        let last = loop {
            match r.next_frame() {
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
        assert!(matches!(r.next_frame(), Err(TraceError::Corrupt { .. })));
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
        w.end(SimTime::from_secs(5), 17);
        let bytes = w.finish().expect("finish");
        let mut r = TraceReader::from_bytes(bytes).expect("valid trace");
        r.next_frame().expect("frame").expect("event");
        assert_eq!(
            r.next_frame().expect("frame"),
            Some(TraceFrame::End {
                time: SimTime::from_secs(5),
                events_processed: 17
            })
        );
        assert_eq!(r.next_frame().expect("eof"), None);
    }

    #[test]
    fn state_frames_round_trip_and_bound_their_length() {
        let header = TraceHeader {
            fingerprint: 4,
            seed: 8,
        };
        let mut w = TraceWriter::new(Vec::new(), header);
        w.state_with(SimTime::from_secs(7), 99, |buf| {
            buf.extend_from_slice(b"state")
        });
        w.end(SimTime::from_secs(7), 99);
        let bytes = w.into_bytes();
        let mut r = TraceReader::from_bytes(bytes.clone()).expect("valid trace");
        assert_eq!(
            r.next_frame().expect("frame"),
            Some(TraceFrame::State {
                time: SimTime::from_secs(7),
                events_processed: 99,
                payload: b"state".to_vec()
            })
        );
        assert!(matches!(r.next_frame(), Ok(Some(TraceFrame::End { .. }))));
        // A length word past the bytes present is truncation, refused
        // before it sizes anything, even when it overflows an offset.
        let len_at = HEADER_LEN + 17;
        for len in [1u64 << 40, u64::MAX] {
            let mut long = bytes.clone();
            long[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
            let mut r = TraceReader::from_bytes(long).expect("header ok");
            assert_eq!(
                r.next_frame(),
                Err(TraceError::Truncated { offset: HEADER_LEN })
            );
        }
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
            w.digest(SimTime::from_secs(1), 1, 0xAB);
            w.end(SimTime::from_secs(1), 1);
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

    /// A follower of a log written in many flushes keeps at most one
    /// partial frame plus the bytes one poll read, and delivers what a
    /// whole-file read does.
    #[test]
    fn tailer_forgets_consumed_bytes() {
        let path = std::env::temp_dir().join(format!(
            "scrip-tailer-bounded-{}-{:?}.trc",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let header = TraceHeader {
            fingerprint: 5,
            seed: 6,
        };
        let file = std::fs::File::create(&path).expect("create");
        let mut w = TraceWriter::new(file, header);
        let mut tailer = TraceTailer::new(&path);
        let mut tailed = Vec::new();
        let (mut written, mut largest_frame) = (0u64, 0usize);
        for k in 0..400u64 {
            // Payloads of 0–2999 bytes, flushed every 1–4 frames.
            let payload = vec![k as u8; (k as usize * 409) % 3_000];
            w.event(SimTime::from_micros(k), k, &payload)
                .expect("event");
            largest_frame = largest_frame.max(29 + payload.len());
            if k % 4 == k % 3 {
                w.flush().expect("flush");
                let len = std::fs::metadata(&path).expect("stat").len();
                let growth = (len - written) as usize;
                written = len;
                tailed.extend(tailer.poll().expect("poll"));
                let held = tailer.reader.as_ref().map_or(0, |r| r.bytes.len());
                assert!(
                    held <= largest_frame + growth,
                    "after frame {k} the tailer holds {held} B \
                     (largest frame {largest_frame} B, poll read {growth} B)"
                );
            }
        }
        w.end(SimTime::from_micros(400), 400);
        w.finish().expect("finish");
        tailed.extend(tailer.poll().expect("last poll"));
        assert!(tailer.finished());
        let mut whole = TraceReader::from_path(&path).expect("whole file");
        let all: Vec<TraceFrame> =
            std::iter::from_fn(|| whole.next_frame().expect("clean frame")).collect();
        assert_eq!(all.len(), 401);
        assert_eq!(tailed, all);
        let _ = std::fs::remove_file(&path);
    }

    /// A tailer that starts on a finished multi-MB trace reads it one
    /// chunk per poll: it delivers what a whole-file read does, holds at
    /// most one chunk plus one frame, and still completes a state frame
    /// larger than a chunk, over polls that return no frames.
    #[test]
    fn tailer_reads_a_long_trace_one_chunk_at_a_time() {
        let path = std::env::temp_dir().join(format!(
            "scrip-tailer-chunked-{}-{:?}.trc",
            std::process::id(),
            std::thread::current().id()
        ));
        let header = TraceHeader {
            fingerprint: 3,
            seed: 4,
        };
        let mut w = TraceWriter::new(std::fs::File::create(&path).expect("create"), header);
        let big = 5 * TAIL_CHUNK as usize / 2;
        for k in 0..60_000u64 {
            w.event(SimTime::from_micros(k), k, &k.to_le_bytes())
                .expect("event");
            if k == 30_000 {
                w.state_with(SimTime::from_micros(k), k, |buf| {
                    buf.extend((0..big).map(|i| i as u8));
                });
            }
        }
        w.end(SimTime::from_micros(60_000), 60_000);
        w.finish().expect("finish");
        let len = std::fs::metadata(&path).expect("stat").len();
        assert!(len > 4 * TAIL_CHUNK, "{len} B is not a multi-chunk trace");

        let largest_frame = 33 + big;
        let mut tailer = TraceTailer::new(&path);
        let (mut tailed, mut polls, mut empty_polls) = (Vec::new(), 0, 0);
        while !tailer.finished() {
            let frames = tailer.poll().expect("poll");
            polls += 1;
            empty_polls += usize::from(frames.is_empty());
            tailed.extend(frames);
            let held = tailer.reader.as_ref().map_or(0, |r| r.bytes.len());
            assert!(
                held <= TAIL_CHUNK as usize + largest_frame,
                "poll {polls} left the tailer holding {held} B"
            );
            assert!(polls <= 10, "the tailer stopped reading");
        }
        assert!(tailer.caught_up());
        assert!(polls >= 4, "{polls} polls for {len} B");
        assert!(empty_polls >= 1, "no poll ended inside the state frame");
        let mut whole = TraceReader::from_path(&path).expect("whole file");
        let all: Vec<TraceFrame> =
            std::iter::from_fn(|| whole.next_frame().expect("clean frame")).collect();
        assert_eq!(all.len(), 60_002);
        assert_eq!(tailed, all);
        let _ = std::fs::remove_file(&path);
    }

    /// A [`TraceFile`] over a trace several chunks long, with a state
    /// frame bigger than a chunk, decodes the frames a whole-file read
    /// does while holding at most one chunk plus the largest frame, and
    /// reports a torn last frame as the whole-file read does.
    #[test]
    fn trace_file_reads_a_long_trace_one_chunk_at_a_time() {
        let path = std::env::temp_dir().join(format!(
            "scrip-trace-file-{}-{:?}.trc",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut w = TraceWriter::new(
            std::fs::File::create(&path).expect("create"),
            TraceHeader {
                fingerprint: 5,
                seed: 6,
            },
        );
        let big = 5 * TAIL_CHUNK as usize / 2;
        for k in 0..60_000u64 {
            w.event(SimTime::from_micros(k), k, &k.to_le_bytes())
                .expect("event");
            if k == 30_000 {
                w.state_with(SimTime::from_micros(k), k, |buf| {
                    buf.extend((0..big).map(|i| i as u8));
                });
            }
        }
        w.end(SimTime::from_micros(60_000), 60_000);
        w.finish().expect("finish");
        let bytes = std::fs::read(&path).expect("read back");
        assert!(
            bytes.len() as u64 > 4 * TAIL_CHUNK,
            "not a multi-chunk trace"
        );

        let largest_frame = 33 + big;
        let mut file = TraceFile::open(&path).expect("opens");
        let mut whole = TraceReader::from_bytes(bytes.clone()).expect("whole file");
        assert_eq!(file.header(), whole.header());
        let mut frames = 0;
        loop {
            let peeked = file.peek_frame().expect("clean peek");
            let frame = file.next_frame().expect("clean frame");
            assert_eq!(peeked, frame);
            assert_eq!(frame, whole.next_frame().expect("clean frame"));
            let held = file.reader.bytes.len();
            assert!(
                held <= TAIL_CHUNK as usize + largest_frame,
                "frame {frames} left the reader holding {held} B"
            );
            if frame.is_none() {
                break;
            }
            frames += 1;
        }
        assert_eq!(frames, 60_002);

        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear the end frame");
        let mut torn = TraceFile::open(&path).expect("opens");
        let mut whole = TraceReader::from_bytes(&bytes[..bytes.len() - 3]).expect("header");
        let last = |next: &mut dyn FnMut() -> Result<Option<TraceFrame>, TraceError>| loop {
            if let Err(e) = next() {
                break e;
            }
        };
        assert_eq!(
            last(&mut || torn.next_frame()),
            last(&mut || whole.next_frame())
        );
        let _ = std::fs::remove_file(&path);
    }

    /// After `extend` drops consumed bytes, error offsets still count
    /// from the start of the log.
    #[test]
    fn extended_reader_reports_whole_log_offsets() {
        let mut full = sample_trace();
        // An event frame is 29 bytes plus its payload.
        let second = HEADER_LEN + 29 + b"alpha".len();
        full[second + 3] ^= 0x01;
        let mut r = TraceReader::from_bytes(full[..second].to_vec()).expect("header");
        assert!(r.next_frame().expect("first frame").is_some());
        r.extend(&full[second..second + 10]);
        assert_eq!(
            r.next_frame(),
            Err(TraceError::Truncated { offset: second })
        );
        r.extend(&full[second + 10..]);
        assert_eq!(r.bytes.len(), full.len() - second, "consumed bytes dropped");
        assert_eq!(r.peek_frame(), Err(TraceError::Corrupt { offset: second }));
        assert_eq!(r.next_frame(), Err(TraceError::Corrupt { offset: second }));
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
        w.digest(SimTime::ZERO, 1, 7);
        assert_eq!(w.sink.len(), staged, "frame staged, not written");
        let bytes = w.finish().expect("finish");
        assert!(bytes.len() > staged);
        TraceReader::from_bytes(bytes).expect("finished trace parses");
    }
}
