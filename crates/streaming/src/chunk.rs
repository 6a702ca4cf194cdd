//! Chunk identifiers and sliding-window buffer maps.

use scrip_des::snapshot::{Put, Reader, SnapshotError};

/// A peer's buffer map: which chunks it currently holds, within a sliding
/// window of fixed width.
///
/// Chunks are identified by their sequence number (`u64`). The window
/// covers `[base, base + width)`; inserting a chunk beyond the head
/// slides the window forward, discarding the oldest entries — exactly how
/// live-streaming peers cache only a recent interval of the stream.
///
/// ```
/// use scrip_streaming::BufferMap;
///
/// let mut map = BufferMap::new(8);
/// assert!(map.insert(3));
/// assert!(map.has(3));
/// // Inserting far ahead slides the window; chunk 3 falls out.
/// assert!(map.insert(100));
/// assert!(!map.has(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferMap {
    base: u64,
    bits: Vec<bool>,
    held: usize,
}

impl BufferMap {
    /// Creates an empty buffer map with the given window width (chunks).
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "buffer window must be positive");
        BufferMap {
            base: 0,
            bits: vec![false; width],
            held: 0,
        }
    }

    /// The window width in chunks.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The lowest chunk id still inside the window.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the highest chunk id inside the window.
    pub fn head(&self) -> u64 {
        self.base + self.bits.len() as u64
    }

    /// Number of chunks currently held.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Whether the peer holds `chunk`.
    pub fn has(&self, chunk: u64) -> bool {
        if chunk < self.base {
            return false;
        }
        let offset = (chunk - self.base) as usize;
        offset < self.bits.len() && self.bits[offset]
    }

    /// Inserts `chunk`. Chunks older than the window are rejected
    /// (returns `false`); chunks beyond the head slide the window
    /// forward. Returns `true` if newly inserted.
    pub fn insert(&mut self, chunk: u64) -> bool {
        if chunk < self.base {
            return false;
        }
        if chunk >= self.head() {
            let new_base = chunk + 1 - self.bits.len() as u64;
            self.advance_to(new_base);
        }
        let offset = (chunk - self.base) as usize;
        if self.bits[offset] {
            false
        } else {
            self.bits[offset] = true;
            self.held += 1;
            true
        }
    }

    /// Slides the window so that `new_base` is the lowest retained chunk,
    /// discarding anything older. A no-op if `new_base <= base`.
    pub fn advance_to(&mut self, new_base: u64) {
        if new_base <= self.base {
            return;
        }
        let shift = (new_base - self.base) as usize;
        let width = self.bits.len();
        if shift >= width {
            self.bits.fill(false);
            self.held = 0;
        } else {
            for i in 0..width - shift {
                self.bits[i] = self.bits[i + shift];
            }
            for i in width - shift..width {
                self.bits[i] = false;
            }
            self.held = self.bits.iter().filter(|&&b| b).count();
        }
        self.base = new_base;
    }

    /// Iterates over held chunk ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(i, _)| self.base + i as u64)
    }

    /// Number of chunks in `other`'s buffer that this map lacks and that
    /// fall within this map's window — the "useful chunks" measure that
    /// drives credit-routing probabilities in the paper ("credit transfer
    /// probabilities to neighbors are decided by their data chunks
    /// availability").
    pub fn useful_from(&self, other: &BufferMap) -> usize {
        other
            .iter()
            .filter(|&c| c >= self.base && c < self.head() && !self.has(c))
            .count()
    }

    /// Lowest held chunk id, if any.
    pub fn first_held(&self) -> Option<u64> {
        self.iter().next()
    }

    /// The buffer-map section: the window base, then the window's bits
    /// packed into `u64` words, lowest chunk in the lowest bit.
    pub fn write_state(&self, w: &mut impl Put) {
        w.put_u64(self.base);
        for bits in self.bits.chunks(64) {
            let word = (0..)
                .zip(bits)
                .fold(0u64, |acc, (i, &b)| acc | u64::from(b) << i);
            w.put_u64(word);
        }
    }

    /// Decodes [`BufferMap::write_state`]'s section for a window of
    /// `width` chunks, of which only chunks below `limit` (the chunks
    /// emitted so far) can be held, and the base cannot pass it.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] for truncated bytes, a bit set past the
    /// width, or a base or held chunk at or past `limit`.
    pub fn read_state(width: usize, limit: u64, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut map = BufferMap::new(width);
        map.base = r.take_u64()?;
        if map.base > limit {
            return Err(SnapshotError(format!(
                "buffer window base {} is past the {limit} chunks emitted",
                map.base
            )));
        }
        for bits in map.bits.chunks_mut(64) {
            let word = r.take_u64()?;
            if bits.len() < 64 && word >> bits.len() != 0 {
                return Err(SnapshotError(
                    "buffer map sets a bit past its window".into(),
                ));
            }
            for (i, bit) in (0..).zip(bits.iter_mut()) {
                *bit = word >> i & 1 == 1;
            }
        }
        map.held = map.bits.iter().filter(|&&b| b).count();
        if map.iter().any(|chunk| chunk >= limit) {
            return Err(SnapshotError(format!(
                "buffer map holds a chunk past the {limit} chunks emitted"
            )));
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut m = BufferMap::new(16);
        assert!(!m.has(0));
        assert!(m.insert(0));
        assert!(!m.insert(0), "duplicate insert");
        assert!(m.insert(5));
        assert_eq!(m.held(), 2);
        assert!(m.has(0) && m.has(5) && !m.has(3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        BufferMap::new(0);
    }

    #[test]
    fn window_slides_on_future_insert() {
        let mut m = BufferMap::new(4);
        m.insert(0);
        m.insert(1);
        m.insert(2);
        m.insert(3);
        assert_eq!(m.held(), 4);
        // Chunk 5 forces base to 2; chunks 0 and 1 drop.
        assert!(m.insert(5));
        assert_eq!(m.base(), 2);
        assert!(!m.has(0) && !m.has(1));
        assert!(m.has(2) && m.has(3) && m.has(5));
        assert_eq!(m.held(), 3);
    }

    #[test]
    fn stale_inserts_rejected() {
        let mut m = BufferMap::new(4);
        m.insert(10);
        assert!(m.base() > 0);
        assert!(!m.insert(0));
        assert_eq!(m.held(), 1);
    }

    #[test]
    fn advance_to_discards() {
        let mut m = BufferMap::new(8);
        for c in 0..8 {
            m.insert(c);
        }
        m.advance_to(5);
        assert_eq!(m.base(), 5);
        assert_eq!(m.held(), 3);
        assert!(!m.has(4) && m.has(5) && m.has(7));
        // Advancing past everything empties the map.
        m.advance_to(100);
        assert_eq!(m.held(), 0);
        assert_eq!(m.base(), 100);
        // No-op backwards.
        m.advance_to(50);
        assert_eq!(m.base(), 100);
    }

    #[test]
    fn iter_ascending() {
        let mut m = BufferMap::new(10);
        for c in [7u64, 2, 5] {
            m.insert(c);
        }
        let held: Vec<u64> = m.iter().collect();
        assert_eq!(held, vec![2, 5, 7]);
    }

    #[test]
    fn useful_from_counts_gaps() {
        let mut a = BufferMap::new(10);
        a.insert(1);
        let mut b = BufferMap::new(10);
        b.insert(1);
        b.insert(2);
        b.insert(3);
        assert_eq!(a.useful_from(&b), 2);
        assert_eq!(b.useful_from(&a), 0);
    }

    #[test]
    fn buffer_maps_round_trip_and_refuse_unemitted_chunks() {
        let mut m = BufferMap::new(70);
        for c in [3u64, 64, 71, 72] {
            m.insert(c);
        }
        let mut bytes = Vec::new();
        m.write_state(&mut bytes);
        assert_eq!(bytes.len(), 8 + 2 * 8);
        let mut r = Reader::new(&bytes);
        assert_eq!(BufferMap::read_state(70, 73, &mut r).expect("decodes"), m);
        r.finish().expect("whole section read");
        assert!(BufferMap::read_state(70, 72, &mut Reader::new(&bytes)).is_err());
        // A bit past the 70-chunk window.
        let mut padded = bytes.clone();
        padded[23] |= 0x80;
        assert!(BufferMap::read_state(70, 73, &mut Reader::new(&padded)).is_err());
    }

    #[test]
    fn contiguous_run() {
        let mut m = BufferMap::new(10);
        for c in [3u64, 4, 5, 7] {
            m.insert(c);
        }
        assert_eq!(m.first_held(), Some(3));
    }
}
