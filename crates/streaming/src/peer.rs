//! Per-peer protocol state.

use scrip_des::snapshot::{Put, Reader, SnapshotError};

use crate::chunk::BufferMap;

/// Playback/transfer counters for one peer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Chunks played on time.
    pub played: u64,
    /// Chunks missed at their playback deadline.
    pub missed: u64,
    /// Chunks received from other peers.
    pub received_from_peers: u64,
    /// Chunks received directly from the source.
    pub received_from_source: u64,
    /// Chunks uploaded to other peers.
    pub uploaded: u64,
    /// Requests refused by the trade policy (buyer could not pay).
    pub denied: u64,
}

impl PeerStats {
    /// Playback continuity: fraction of deadlines met. 1.0 before any
    /// deadline has passed.
    pub fn continuity(&self) -> f64 {
        let total = self.played + self.missed;
        if total == 0 {
            1.0
        } else {
            self.played as f64 / total as f64
        }
    }

    /// Total chunks received from any provider.
    pub fn received(&self) -> u64 {
        self.received_from_peers + self.received_from_source
    }
}

/// The set of chunk ids a peer is currently fetching: a sorted `Vec`
/// instead of a tree, because it holds at most `max_pending` (≈ a
/// dozen) entries — binary search plus a short memmove beats pointer
/// chasing at that size, and the backing allocation is reused for the
/// peer's whole lifetime (the trade hot path never allocates for it in
/// steady state).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PendingSet {
    chunks: Vec<u64>,
}

impl PendingSet {
    /// An empty set.
    pub fn new() -> Self {
        PendingSet::default()
    }

    /// Whether `chunk` is being fetched.
    #[inline]
    pub fn contains(&self, chunk: u64) -> bool {
        self.chunks.binary_search(&chunk).is_ok()
    }

    /// Starts tracking `chunk`. Returns `true` if newly inserted.
    pub fn insert(&mut self, chunk: u64) -> bool {
        match self.chunks.binary_search(&chunk) {
            Ok(_) => false,
            Err(pos) => {
                self.chunks.insert(pos, chunk);
                true
            }
        }
    }

    /// Stops tracking `chunk`. Returns `true` if it was present.
    pub fn remove(&mut self, chunk: u64) -> bool {
        match self.chunks.binary_search(&chunk) {
            Ok(pos) => {
                self.chunks.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of in-flight requests.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether no request is in flight.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The in-flight chunk ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().copied()
    }
}

/// The protocol state of one streaming peer.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerState {
    /// Held chunks within the sliding window.
    pub buffer: BufferMap,
    /// Next chunk to play, once playback has started.
    pub playback_pos: Option<u64>,
    /// Chunk ids currently being fetched (requests in flight).
    pub pending: PendingSet,
    /// Number of uploads currently in progress from this peer.
    pub active_uploads: usize,
    /// Counters.
    pub stats: PeerStats,
}

impl PeerState {
    /// A fresh peer with an empty buffer of the given window width.
    pub fn new(window: usize) -> Self {
        PeerState {
            buffer: BufferMap::new(window),
            playback_pos: None,
            pending: PendingSet::new(),
            active_uploads: 0,
            stats: PeerStats::default(),
        }
    }

    /// Whether playback has started.
    pub fn started(&self) -> bool {
        self.playback_pos.is_some()
    }

    /// Whether this peer can accept another upload task.
    pub fn can_upload(&self, max_uploads: usize) -> bool {
        self.active_uploads < max_uploads
    }

    /// The peer section: buffer map, playback position, pending chunks,
    /// upload count and counters.
    pub fn write_state(&self, w: &mut impl Put) {
        self.buffer.write_state(w);
        w.put_bool(self.playback_pos.is_some());
        w.put_u64(self.playback_pos.unwrap_or(0));
        w.put_u64(self.pending.len() as u64);
        for chunk in self.pending.iter() {
            w.put_u64(chunk);
        }
        w.put_u64(self.active_uploads as u64);
        let s = &self.stats;
        for counter in [
            s.played,
            s.missed,
            s.received_from_peers,
            s.received_from_source,
            s.uploaded,
            s.denied,
        ] {
            w.put_u64(counter);
        }
    }

    /// Decodes [`PeerState::write_state`]'s section for a buffer window
    /// of `window` chunks, when `next_chunk` chunks have been emitted:
    /// the playback position cannot pass `next_chunk`, and held and
    /// pending chunks lie below it.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] for truncated bytes or state no run
    /// reaches.
    pub fn read_state(
        window: usize,
        next_chunk: u64,
        r: &mut Reader<'_>,
    ) -> Result<Self, SnapshotError> {
        let buffer = BufferMap::read_state(window, next_chunk, r)?;
        let started = r.take_bool()?;
        let pos = r.take_u64()?;
        if pos > next_chunk || (!started && pos != 0) {
            return Err(SnapshotError(format!(
                "playback position {pos} is past the {next_chunk} chunks emitted"
            )));
        }
        let mut pending = PendingSet::new();
        let count = r.take_count(8)?;
        pending.chunks.reserve_exact(count);
        for _ in 0..count {
            let chunk = r.take_u64()?;
            if chunk >= next_chunk || pending.chunks.last().is_some_and(|&c| c >= chunk) {
                return Err(SnapshotError(format!(
                    "pending chunks are not ascending below the {next_chunk} chunks emitted"
                )));
            }
            pending.chunks.push(chunk);
        }
        let active_uploads = usize::try_from(r.take_u64()?)
            .map_err(|_| SnapshotError("upload count overflows usize".into()))?;
        let mut counter = || r.take_u64();
        let stats = PeerStats {
            played: counter()?,
            missed: counter()?,
            received_from_peers: counter()?,
            received_from_source: counter()?,
            uploaded: counter()?,
            denied: counter()?,
        };
        Ok(PeerState {
            buffer,
            playback_pos: started.then_some(pos),
            pending,
            active_uploads,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuity_starts_perfect() {
        let s = PeerStats::default();
        assert_eq!(s.continuity(), 1.0);
    }

    #[test]
    fn continuity_ratio() {
        let s = PeerStats {
            played: 30,
            missed: 10,
            ..Default::default()
        };
        assert!((s.continuity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn received_totals() {
        let s = PeerStats {
            received_from_peers: 5,
            received_from_source: 2,
            ..Default::default()
        };
        assert_eq!(s.received(), 7);
    }

    #[test]
    fn upload_capacity() {
        let mut p = PeerState::new(16);
        assert!(p.can_upload(2));
        p.active_uploads = 2;
        assert!(!p.can_upload(2));
        assert!(!p.started());
        p.playback_pos = Some(3);
        assert!(p.started());
    }

    #[test]
    fn peer_states_round_trip_and_refuse_unemitted_chunks() {
        let mut p = PeerState::new(16);
        p.buffer.insert(4);
        p.playback_pos = Some(5);
        p.pending.insert(7);
        p.pending.insert(6);
        p.active_uploads = 2;
        p.stats.played = 9;
        p.stats.denied = 1;
        let mut bytes = Vec::new();
        p.write_state(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(PeerState::read_state(16, 8, &mut r).expect("decodes"), p);
        r.finish().expect("whole section read");
        // With only 7 chunks emitted, pending chunk 7 cannot exist.
        let err = PeerState::read_state(16, 7, &mut Reader::new(&bytes)).expect_err("refused");
        assert!(err.0.contains("pending"), "{err}");
    }

    #[test]
    fn pending_set_behaves_like_a_set() {
        let mut p = PendingSet::new();
        assert!(p.is_empty());
        assert!(p.insert(5));
        assert!(p.insert(2));
        assert!(!p.insert(5), "duplicate insert");
        assert_eq!(p.len(), 2);
        assert!(p.contains(2) && p.contains(5) && !p.contains(3));
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![2, 5], "sorted");
        assert!(p.remove(2));
        assert!(!p.remove(2), "double remove");
        assert_eq!(p.len(), 1);
    }
}
