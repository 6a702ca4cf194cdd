//! The join index: O(log n) neighbor selection for joining peers.
//!
//! A joiner picks its neighbors either by degree (preferential
//! attachment) or uniformly among the live peers. Done directly, both
//! cost O(n) per join: collect the ascending live ids, then walk a
//! degree-weight list or shuffle the id list. [`JoinIndex`] answers the
//! same questions in O(log n) from two Fenwick trees keyed by raw
//! [`NodeId`] (ids are dense and never reused, so the raw value is the
//! leaf index):
//!
//! * `degree`: weight `degree + 1` for a live id, `0` for a dead one;
//! * `live`: weight `1` for a live id, `0` for a dead one.
//!
//! Every weight is a small integer, so all sums are exact in `f64` and
//! a Fenwick descent returns the same id the linear walks over the
//! ascending live list would, for the same draw: a dead id's zero weight
//! is never selected and never moves the target. The topology proptests
//! (`tests/proptests.rs`) check this against the walks themselves.
//!
//! The index is derived state of a [`crate::Graph`]: built in O(n) on
//! first use by [`crate::Graph::join_index`] and kept current by the
//! graph's mutators in O(log n) after that.

use scrip_des::FenwickSampler;

use crate::graph::NodeId;

/// Degree and liveness Fenwick trees over raw node ids. See the module
/// docs.
#[derive(Clone, Debug, Default)]
pub struct JoinIndex {
    /// Raw id → `degree + 1` (live) or `0` (dead).
    degree: FenwickSampler,
    /// Raw id → `1` (live) or `0` (dead).
    live: FenwickSampler,
}

impl JoinIndex {
    /// Builds the index over raw ids `0..`, given each id's degree
    /// (`None` for a dead id), in O(n).
    pub(crate) fn build(degrees: impl ExactSizeIterator<Item = Option<usize>>) -> Self {
        let mut index = JoinIndex {
            degree: FenwickSampler::with_capacity(degrees.len()),
            live: FenwickSampler::with_capacity(degrees.len()),
        };
        for degree in degrees {
            index.degree.push(degree.map_or(0.0, |d| (d + 1) as f64));
            index.live.push(if degree.is_some() { 1.0 } else { 0.0 });
        }
        index.degree.build();
        index.live.build();
        index
    }

    /// Registers a freshly added, isolated node (the next raw id).
    pub(crate) fn push_node(&mut self) {
        self.degree.append(1.0);
        self.live.append(1.0);
    }

    /// Records a live node's new degree.
    pub(crate) fn set_degree(&mut self, id: NodeId, degree: usize) {
        self.degree.update(id.index(), (degree + 1) as f64);
    }

    /// Records a node's removal.
    pub(crate) fn remove_node(&mut self, id: NodeId) {
        self.degree.update(id.index(), 0.0);
        self.live.update(id.index(), 0.0);
    }

    /// Heap bytes reserved by both trees (≈ 32 B per id ever allocated).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.degree.heap_bytes() + self.live.heap_bytes()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live.total() as usize
    }

    /// Whether no node is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Σ (degree + 1)` over the live nodes, exactly as the linear walk
    /// sums it (`node_count + 2 × edge_count`).
    pub fn degree_total(&self) -> f64 {
        self.degree.total()
    }

    /// The live node a degree-proportional walk over the ascending live
    /// ids selects for `target`: the first id whose cumulative
    /// `degree + 1` exceeds `target`. When `target` reaches the total
    /// the walk runs off its end and keeps its fallback, the largest
    /// live id; so does this.
    ///
    /// # Panics
    /// Panics if no node is live.
    pub fn pick_by_degree(&self, target: f64) -> NodeId {
        if target < self.degree.total() {
            NodeId::from_raw(self.degree.pick(target) as u64)
        } else {
            self.nth(self.len() - 1)
        }
    }

    /// The live node of rank `rank` in ascending id order (0-based).
    ///
    /// # Panics
    /// Panics if `rank >= len()`.
    pub fn nth(&self, rank: usize) -> NodeId {
        assert!(
            rank < self.len(),
            "rank {rank} of {} live nodes",
            self.len()
        );
        NodeId::from_raw(self.live.pick(rank as f64) as u64)
    }

    /// The first `want` entries of a partial Fisher–Yates shuffle of the
    /// ascending live-id list, without building the list: step `i` swaps
    /// position `i` with position `draw(i, len)`, which must lie in
    /// `i..len`. Only the displaced positions are stored, so this costs
    /// O(want² + want · log n) and calls `draw` exactly as the shuffle
    /// over a materialised list would.
    ///
    /// # Panics
    /// Panics if `want > len()`.
    pub fn shuffled_prefix(
        &self,
        want: usize,
        mut draw: impl FnMut(usize, usize) -> usize,
    ) -> Vec<NodeId> {
        let len = self.len();
        assert!(want <= len, "want {want} of {len} live nodes");
        // (position, id) for every position a swap wrote past the
        // prefix; the latest entry for a position wins.
        let mut displaced: Vec<(usize, NodeId)> = Vec::with_capacity(want);
        let at = |displaced: &[(usize, NodeId)], pos: usize| {
            displaced
                .iter()
                .rev()
                .find(|&&(p, _)| p == pos)
                .map_or_else(|| self.nth(pos), |&(_, id)| id)
        };
        let mut prefix = Vec::with_capacity(want);
        for i in 0..want {
            let j = draw(i, len);
            let (at_i, at_j) = (at(&displaced, i), at(&displaced, j));
            displaced.push((j, at_i));
            prefix.push(at_j);
        }
        prefix
    }
}
