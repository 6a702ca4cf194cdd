//! Weighted index sampling with incremental updates.
//!
//! [`FenwickSampler`] replaces the O(deg) cumulative-weight walk on the
//! market spend path with an O(log deg) Fenwick-tree descent that is
//! **draw-compatible** with the walk it replaces: the caller feeds the
//! sampler the same weights in the same order, the sampler reports the
//! same left-to-right sequential total (so `u * total` is bit-identical
//! to what the walk would have computed), and [`FenwickSampler::pick`]
//! inverts the cumulative sum with the same boundary convention
//! (`target < prefix` selects, ties move right, all-zero weight vectors
//! fall back to the last index).
//!
//! The descent associates partial sums in tree order rather than strictly
//! left-to-right, so for adversarial floating-point weights the selected
//! index can differ from the walk's within a one-ULP window around a
//! prefix boundary (probability ~1e-13 per draw for uniformly random
//! targets). For integer-valued weights whose total stays below 2^53 all
//! arithmetic is exact and the descent is provably identical to the walk;
//! the proptests in `crates/des/tests/proptests.rs` pin both regimes.

/// A Fenwick (binary-indexed) tree over a dense weight vector supporting
/// O(n) rebuild, O(log n) point update, and O(log n) weighted inversion
/// of a cumulative-sum target.
///
/// ```
/// use scrip_des::FenwickSampler;
/// let mut s = FenwickSampler::new();
/// s.clear();
/// for w in [1.0, 3.0, 2.0] {
///     s.push(w);
/// }
/// s.build();
/// assert_eq!(s.total(), 6.0);
/// assert_eq!(s.pick(0.5), 0); // target < 1.0
/// assert_eq!(s.pick(1.0), 1); // boundary moves right, like the walk
/// assert_eq!(s.pick(5.9), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FenwickSampler {
    /// 1-based Fenwick array; `tree[0]` is a sentinel. After
    /// [`FenwickSampler::build`], `tree[i]` holds the sum of the leaf
    /// range `(i - lowbit(i), i]`.
    tree: Vec<f64>,
    /// Raw leaf weights, kept so [`FenwickSampler::update`] can derive
    /// deltas and tests can audit the state.
    weights: Vec<f64>,
    /// Left-to-right sequential sum of the pushed weights. This is the
    /// exact value the linear walk's accumulator would hold, preserved
    /// so `rng.uniform() * total` matches the legacy draw bit-for-bit.
    total: f64,
}

impl FenwickSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        FenwickSampler::default()
    }

    /// Creates an empty sampler with storage for `capacity` weights, so
    /// steady-state rebuilds of up to that many entries never allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        FenwickSampler {
            tree: Vec::with_capacity(capacity + 1),
            weights: Vec::with_capacity(capacity),
            total: 0.0,
        }
    }

    /// Resets to zero entries, retaining allocated storage.
    pub fn clear(&mut self) {
        self.tree.clear();
        self.weights.clear();
        self.total = 0.0;
    }

    /// Appends a weight. Weights must be pushed in the same order the
    /// replaced walk iterated them; the running total accumulates
    /// left-to-right so it is bit-identical to the walk's sum.
    ///
    /// Call [`FenwickSampler::build`] after the last push and before the
    /// first [`FenwickSampler::pick`].
    pub fn push(&mut self, weight: f64) {
        self.total += weight;
        self.weights.push(weight);
    }

    /// Builds the Fenwick array over the pushed weights in O(n).
    pub fn build(&mut self) {
        let n = self.weights.len();
        self.tree.clear();
        self.tree.reserve(n + 1);
        self.tree.push(0.0);
        self.tree.extend_from_slice(&self.weights);
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the sampler holds no weights.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of weights the sampler can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.weights.capacity()
    }

    /// Heap bytes reserved by the tree and weight vectors (capacities,
    /// the allocator's view). Sized by the *largest neighborhood seen*,
    /// not the population, so the arena layout audit reports it as a
    /// fixed scratch cost.
    pub fn heap_bytes(&self) -> usize {
        (self.tree.capacity() + self.weights.capacity()) * std::mem::size_of::<f64>()
    }

    /// The left-to-right sequential sum of the current weights.
    ///
    /// After [`FenwickSampler::update`] this is the delta-adjusted sum,
    /// which equals the sequential rebuild sum exactly whenever the
    /// weights are integer-valued (or otherwise exactly representable).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The weight at `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Sets the weight at `i`, propagating the delta through the tree in
    /// O(log n). The availability-feedback hot path rebuilds instead
    /// (its weights time-decay, so every entry changes per query), but
    /// integer-weight users mutate in place through this.
    ///
    /// # Panics
    /// Panics if `i >= len()` or if called before [`FenwickSampler::build`].
    pub fn update(&mut self, i: usize, weight: f64) {
        assert!(
            self.tree.len() == self.weights.len() + 1,
            "update() requires build() first"
        );
        let delta = weight - self.weights[i];
        self.weights[i] = weight;
        self.total += delta;
        let n = self.weights.len();
        let mut j = i + 1;
        while j <= n {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
    }

    /// Appends a weight to a built sampler in O(log n), keeping it ready
    /// for [`FenwickSampler::pick`] without a rebuild. The new node
    /// `i` covers the leaves `(i - lowbit(i), i]`: the weight itself
    /// plus its child nodes `i - lowbit(i)/2, …, i - 2, i - 1`, added in
    /// that order so the node is bit-identical to what
    /// [`FenwickSampler::build`] computes.
    ///
    /// # Panics
    /// Panics if called before [`FenwickSampler::build`].
    pub fn append(&mut self, weight: f64) {
        assert!(
            self.tree.len() == self.weights.len() + 1,
            "append() requires build() first"
        );
        let i = self.tree.len();
        let mut node = weight;
        let mut k = (i & i.wrapping_neg()) >> 1;
        while k > 0 {
            node += self.tree[i - k];
            k >>= 1;
        }
        self.tree.push(node);
        self.weights.push(weight);
        self.total += weight;
    }

    /// Returns the index the linear cumulative walk would select for
    /// `target`: the first `k` with `prefix(k + 1) > target`, clamped to
    /// the last index when `target` reaches or exceeds the total (the
    /// walk's all-weights-consumed fallback).
    ///
    /// # Panics
    /// Panics if the sampler is empty.
    pub fn pick(&self, target: f64) -> usize {
        let n = self.weights.len();
        assert!(n > 0, "pick() on an empty sampler");
        debug_assert!(
            self.tree.len() == n + 1,
            "pick() requires build() after the last push"
        );
        let mut pos = 0usize;
        let mut remaining = target;
        // Largest power of two <= n.
        let mut step = 1usize << (usize::BITS - 1 - n.leading_zeros());
        while step > 0 {
            let next = pos + step;
            // `<=` (not `<`) mirrors the walk: a target exactly on a
            // prefix boundary belongs to the entry *after* the boundary,
            // and zero-weight entries are never selected.
            if next <= n && self.tree[next] <= remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos.min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The O(deg) walk this sampler replaces, verbatim.
    fn linear_walk(weights: &[f64], mut target: f64) -> usize {
        let mut pick = weights.len() - 1;
        for (k, &w) in weights.iter().enumerate() {
            if target < w {
                pick = k;
                break;
            }
            target -= w;
        }
        pick
    }

    fn built(weights: &[f64]) -> FenwickSampler {
        let mut s = FenwickSampler::new();
        for &w in weights {
            s.push(w);
        }
        s.build();
        s
    }

    #[test]
    fn matches_walk_on_simple_vectors() {
        let weights = [1.0, 3.0, 2.0, 4.0];
        let s = built(&weights);
        for t in [0.0, 0.5, 0.99, 1.0, 3.9, 4.0, 5.5, 9.9, 10.0, 25.0] {
            assert_eq!(s.pick(t), linear_walk(&weights, t), "target {t}");
        }
    }

    #[test]
    fn zero_weight_entries_are_never_picked() {
        let weights = [0.0, 2.0, 0.0, 0.0, 1.0, 0.0];
        let s = built(&weights);
        for t in [0.0, 1.0, 1.999, 2.0, 2.5, 2.999] {
            let k = s.pick(t);
            assert_eq!(k, linear_walk(&weights, t));
            assert!(weights[k] > 0.0, "picked zero-weight index {k}");
        }
        // At/after the total both fall back to the last index.
        assert_eq!(s.pick(3.0), linear_walk(&weights, 3.0));
        assert_eq!(s.pick(3.0), 5);
    }

    #[test]
    fn all_zero_weights_fall_back_to_last_index() {
        let weights = [0.0; 7];
        let s = built(&weights);
        assert_eq!(s.pick(0.0), linear_walk(&weights, 0.0));
        assert_eq!(s.pick(0.0), 6);
    }

    #[test]
    fn single_element_vector() {
        let s = built(&[2.5]);
        assert_eq!(s.pick(0.0), 0);
        assert_eq!(s.pick(2.4), 0);
        assert_eq!(s.pick(99.0), 0);
    }

    #[test]
    fn sequential_total_matches_walk_accumulator() {
        // 0.1 is inexact in binary; the sequential sum differs from a
        // tree-associated sum in the low bits. The sampler must report
        // the *sequential* one.
        let weights = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
        let s = built(&weights);
        let mut acc = 0.0f64;
        for &w in &weights {
            acc += w;
        }
        assert_eq!(s.total().to_bits(), acc.to_bits());
    }

    #[test]
    fn update_matches_rebuild_for_integer_weights() {
        let mut s = built(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        s.update(2, 9.0);
        s.update(0, 0.0);
        let fresh = built(&[0.0, 1.0, 9.0, 1.0, 5.0]);
        assert_eq!(s.total(), fresh.total());
        for t in [0.0, 0.5, 1.0, 9.5, 10.0, 14.9, 15.0, 16.0] {
            assert_eq!(s.pick(t), fresh.pick(t), "target {t}");
        }
    }

    #[test]
    fn append_matches_rebuild() {
        let weights = [
            0.3, 0.0, 4.0, 0.1, 5.0, 9.0, 0.2, 6.0, 5.0, 3.0, 0.7, 8.0, 9.0,
        ];
        let mut s = built(&weights[..1]);
        for (len, &w) in weights.iter().enumerate().skip(1) {
            s.append(w);
            let fresh = built(&weights[..=len]);
            // Bit-identical even for inexact weights: same summation order.
            assert_eq!(s.tree, fresh.tree, "after {} weights", len + 1);
            assert_eq!(s.total().to_bits(), fresh.total().to_bits());
        }
        let mut empty = built(&[]);
        empty.append(2.0);
        assert_eq!(empty.pick(1.5), 0);
    }

    #[test]
    fn rebuild_reuses_storage() {
        let mut s = FenwickSampler::with_capacity(64);
        for round in 0..100 {
            s.clear();
            for k in 0..64 {
                s.push(((k + round) % 7) as f64);
            }
            s.build();
            let _ = s.pick(s.total() * 0.5);
        }
        assert_eq!(s.capacity(), 64);
        assert!(s.tree.capacity() <= 65 + 64, "tree over-allocated");
    }
}
