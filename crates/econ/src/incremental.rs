//! Incremental Gini: O(|Δ|) per wealth move, O(1) per sample.
//!
//! The market simulators used to recompute the Gini index from a freshly
//! allocated, freshly sorted balance vector at every sample — O(n log n)
//! with n the population. [`IncrementalGini`] instead maintains the Gini
//! index *online* under single-wallet updates. With `c(t)` the number of
//! wallets holding at most `t`, the total pairwise absolute difference is
//!
//! ```text
//! D = Σᵢⱼ |xᵢ − xⱼ| = 2 · Σ_t c(t) · (n − c(t)),
//! ```
//!
//! so moving one wallet down from `a` to `b` changes `D` by
//! `2 · Σ_{t=b}^{a−1} (n − 1 − 2c(t))` and then raises `c` by one on
//! `[b, a)`; moving it up is the mirror case. A unit-price transfer thus
//! reads and writes one counter per side.
//!
//! `c` is stored as a **blocked rank array**: values are grouped into
//! blocks of [`IncrementalGini::BLOCK`], each block carries an additive
//! offset and the exact sum of its counts, and `c(t)` is the block's
//! offset plus a per-value rank. Adding ±1 to `c` over a range touches
//! the per-value ranks only at the range's two ragged ends (which lie
//! inside the range) and one block record per whole block in between,
//! and reading `Σ c(t)` over the range costs the same. So a move of
//! `p` credits costs `O(min(p, C/B + B))`, and an insert or remove —
//! a range reaching to the top of the tracked values `C` — costs
//! `O(C/B + B)`. Ranks and offsets are kept modulo 2³²; only their sum
//! has to be exact, and it always lies in `0..=n`.
//!
//! All bookkeeping is exact integer arithmetic (u64 block sums, u128
//! difference total), so [`IncrementalGini::gini`] reproduces the
//! reference [`crate::gini_u64`] *bit for bit* whenever the rank-weighted
//! sum `Σ rank·x` stays below 2⁵³ (the f64 integer range) — which holds
//! for every market in this repo by orders of magnitude; beyond that the
//! two differ only in final-ulp rounding. The proptest suite pins the
//! equivalence under random mint/burn/transfer sequences.
//!
//! The ledger seeds the accumulator in one pass with
//! [`IncrementalGini::from_values`] and then drives it through
//! [`IncrementalGini::insert`], [`IncrementalGini::remove`], and
//! [`IncrementalGini::update`]. The value range at least doubles when a
//! wallet first exceeds it, so growth is amortized O(1) per credit of
//! new maximum wealth. Its new part is a zeroed allocation that is only
//! paged in where wallets land, and the range tracks the wealth actually
//! held rather than the credit supply.

/// Per-block part of the count function `c`.
#[derive(Clone, Copy, Debug, Default)]
struct Block {
    /// Added (mod 2³²) to every rank in the block to give `c(t)`.
    offset: u32,
    /// Exact `Σ c(t)` over the block's values.
    sum: u64,
}

/// Online Gini index over a multiset of u64 wealth values.
///
/// ```
/// use scrip_econ::{gini_u64, IncrementalGini};
///
/// let mut acc = IncrementalGini::new();
/// for v in [1u64, 2, 3, 4] {
///     acc.insert(v);
/// }
/// assert_eq!(acc.gini(), Some(gini_u64(&[1, 2, 3, 4]).unwrap()));
/// acc.update(1, 4); // the poorest wallet earns 3 credits
/// assert_eq!(acc.gini(), Some(gini_u64(&[4, 2, 3, 4]).unwrap()));
/// ```
#[derive(Clone, Debug, Default)]
pub struct IncrementalGini {
    /// Per value `t`: `c(t)` minus its block's offset, mod 2³².
    rank: Vec<u32>,
    /// One record per `BLOCK` values of `rank`.
    blocks: Vec<Block>,
    /// Number of tracked wallets.
    n: u64,
    /// Total tracked wealth `Σ x`.
    total: u64,
    /// Exact `Σᵢⱼ |xᵢ − xⱼ|` over ordered pairs.
    diff_sum: u128,
}

/// Equality is semantic: the same multiset of values, independent of
/// the reserved value range and of how counts split between ranks and
/// block offsets.
impl PartialEq for IncrementalGini {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.total == other.total
            && self.diff_sum == other.diff_sum
            && (0..self.cap().max(other.cap())).all(|t| self.count_le(t) == other.count_le(t))
    }
}

impl Eq for IncrementalGini {}

impl IncrementalGini {
    /// Values per block of the rank array: a power of two near the
    /// square root of the value range long runs reach (wealth up to
    /// ~2¹⁶), balancing the per-value and per-block halves of an insert
    /// or remove.
    pub const BLOCK: usize = 256;

    /// An empty accumulator.
    pub fn new() -> Self {
        IncrementalGini::default()
    }

    /// An accumulator over `values`, sized for their largest value: one
    /// O(n + C) histogram pass instead of n inserts.
    ///
    /// # Panics
    /// Panics if `values` holds 2³² − 1 or more entries.
    pub fn from_values(values: &[u64]) -> Self {
        assert!(values.len() < u32::MAX as usize, "too many wallets");
        let max = values.iter().copied().max().unwrap_or(0);
        let mut acc = IncrementalGini::new();
        acc.reserve_values(max);
        for &v in values {
            acc.rank[v as usize] += 1;
            acc.total += v;
        }
        let n = values.len() as u64;
        // Blocks up to the one holding `max` get prefix counts; above
        // it `c` is `n`, carried by the block offsets alone so that
        // part of the rank array stays untouched (and unpaged).
        let top = max as usize / Self::BLOCK + 1;
        let mut c = 0u64;
        let mut pairs = 0u128;
        for (block, ranks) in acc.blocks[..top]
            .iter_mut()
            .zip(acc.rank.chunks_exact_mut(Self::BLOCK))
        {
            for r in ranks {
                c += u64::from(*r);
                *r = c as u32;
                block.sum += c;
                pairs += u128::from(c * (n - c));
            }
        }
        for block in &mut acc.blocks[top..] {
            *block = Block {
                offset: n as u32,
                sum: n * Self::BLOCK as u64,
            };
        }
        acc.n = n;
        acc.diff_sum = 2 * pairs;
        acc
    }

    /// Number of representable values (0 ..= cap − 1).
    fn cap(&self) -> usize {
        self.rank.len()
    }

    /// `c(t)`: wallets holding at most `t`.
    #[inline]
    fn count_le(&self, t: usize) -> u32 {
        match self.rank.get(t) {
            Some(&r) => self.blocks[t / Self::BLOCK].offset.wrapping_add(r),
            None => self.n as u32,
        }
    }

    /// Pre-sizes the value range for values up to `max_value` so later
    /// updates below that bound never reallocate. In a closed market the
    /// natural bound is the total credit supply.
    #[inline]
    pub fn reserve_values(&mut self, max_value: u64) {
        if max_value as usize >= self.cap() {
            self.grow_to(max_value as usize + 1);
        }
    }

    #[cold]
    fn grow_to(&mut self, needed: usize) {
        let cap = needed.next_multiple_of(Self::BLOCK).max(2 * self.cap());
        // Every tracked wallet lies below the old range, so `c` is `n`
        // throughout the new values: their ranks are zero, which a
        // zeroed allocation provides without touching its pages.
        let mut rank = vec![0; cap];
        rank[..self.rank.len()].copy_from_slice(&self.rank);
        self.rank = rank;
        self.blocks.resize(
            cap / Self::BLOCK,
            Block {
                offset: self.n as u32,
                sum: self.n * Self::BLOCK as u64,
            },
        );
    }

    /// Number of tracked wallets.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether no wallets are tracked.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total tracked wealth.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Heap bytes reserved by the rank array and its block records.
    /// They are sized by the *maximum wealth value ever seen*, not by
    /// the number of wallets, so the arena layout audit reports them as
    /// a fixed cost rather than a per-peer one.
    pub fn heap_bytes(&self) -> usize {
        self.rank.capacity() * std::mem::size_of::<u32>()
            + self.blocks.capacity() * std::mem::size_of::<Block>()
    }

    /// Adds one (`up`) or minus one to `c(t)` for every `t` in
    /// `[lo, hi)` (`lo < hi ≤ cap`), and returns `Σ c(t)` over that
    /// range as it was before the change.
    #[inline]
    fn shift(&mut self, lo: usize, hi: usize, up: bool) -> u64 {
        let k = lo / Self::BLOCK;
        if (hi - 1) / Self::BLOCK == k {
            // The spend path's case: a move inside one block.
            self.shift_ranks(k, lo, hi, up)
        } else {
            self.shift_blocks(lo, hi, up)
        }
    }

    /// [`Self::shift`] over a range inside block `k`.
    #[inline]
    fn shift_ranks(&mut self, k: usize, lo: usize, hi: usize, up: bool) -> u64 {
        let step = if up { 1 } else { u32::MAX };
        let block = &mut self.blocks[k];
        let mut before = 0u64;
        for r in &mut self.rank[lo..hi] {
            before += u64::from(block.offset.wrapping_add(*r));
            *r = r.wrapping_add(step);
        }
        let len = (hi - lo) as u64;
        block.sum = if up { block.sum + len } else { block.sum - len };
        before
    }

    /// [`Self::shift`] over a range that crosses a block edge: the
    /// ragged ends through their ranks, each whole block in between
    /// through its record.
    fn shift_blocks(&mut self, lo: usize, hi: usize, up: bool) -> u64 {
        let (whole_lo, whole_hi) = (lo.div_ceil(Self::BLOCK), hi / Self::BLOCK);
        let mut before = 0u64;
        if lo < whole_lo * Self::BLOCK {
            before += self.shift_ranks(lo / Self::BLOCK, lo, whole_lo * Self::BLOCK, up);
        }
        let (step, len) = (if up { 1 } else { u32::MAX }, Self::BLOCK as u64);
        for block in &mut self.blocks[whole_lo..whole_hi] {
            before += block.sum;
            block.offset = block.offset.wrapping_add(step);
            block.sum = if up { block.sum + len } else { block.sum - len };
        }
        if whole_hi * Self::BLOCK < hi {
            before += self.shift_ranks(whole_hi, whole_hi * Self::BLOCK, hi, up);
        }
        before
    }

    /// `Σ_x |v − x|` over the tracked multiset, from `above` =
    /// `Σ c(t)` over `[v, cap)`: the wallets at or below `v` contribute
    /// `Σ_{t<v} c(t) = n·cap − total − above` (as `Σ_{t<cap} c(t) =
    /// Σ_x (cap − x)`), the ones above `Σ_{t≥v} (n − c(t))`.
    fn abs_distance_sum(&self, v: u64, above: u64) -> u128 {
        let (n, cap, above) = (self.n as u128, self.cap() as u128, above as u128);
        (n * cap - self.total as u128 - above) + (n * (cap - v as u128) - above)
    }

    /// Starts tracking a wallet holding `value`.
    ///
    /// # Panics
    /// Panics if 2³² − 1 wallets are already tracked.
    pub fn insert(&mut self, value: u64) {
        assert!(self.n < u64::from(u32::MAX - 1), "too many wallets");
        self.reserve_values(value);
        let above = self.shift(value as usize, self.cap(), true);
        self.diff_sum += 2 * self.abs_distance_sum(value, above);
        self.n += 1;
        self.total += value;
    }

    /// Debug-build check that at least one wallet holding exactly
    /// `value` is tracked (callers own the wallet ↔ accumulator
    /// correspondence; a mismatched remove would silently corrupt the
    /// counts in release builds).
    fn debug_assert_tracked(&self, value: u64) {
        if cfg!(debug_assertions) {
            let v = value as usize;
            let below = if v == 0 { 0 } else { self.count_le(v - 1) };
            assert!(
                v < self.cap() && self.count_le(v) > below,
                "no tracked wallet holds {value}"
            );
        }
    }

    /// Stops tracking a wallet holding `value`.
    ///
    /// # Panics
    /// Panics (in debug builds) if no wallet with `value` is tracked;
    /// callers own the wallet ↔ accumulator correspondence.
    pub fn remove(&mut self, value: u64) {
        debug_assert!(self.n > 0, "remove from empty accumulator");
        self.debug_assert_tracked(value);
        // The removed wallet is at distance 0 from itself, so the
        // distance sum over the multiset before removal is the one to
        // take out.
        let above = self.shift(value as usize, self.cap(), false);
        self.diff_sum -= 2 * self.abs_distance_sum(value, above);
        self.n -= 1;
        self.total -= value;
    }

    /// Adjusts one wallet from `old` to `new` (a transfer touches two
    /// wallets → two `update` calls).
    #[inline]
    pub fn update(&mut self, old: u64, new: u64) {
        if old == new {
            return;
        }
        self.reserve_values(new);
        self.debug_assert_tracked(old);
        let n = u128::from(self.n);
        if new < old {
            // Down: c(t) += 1 on [new, old), each t adding n − 1 − 2c(t).
            let len = u128::from(old - new);
            let sum = u128::from(self.shift(new as usize, old as usize, true));
            self.diff_sum = self.diff_sum + 2 * (n - 1) * len - 4 * sum;
        } else {
            // Up: c(t) −= 1 on [old, new), each t taking n + 1 − 2c(t).
            let len = u128::from(new - old);
            let sum = u128::from(self.shift(old as usize, new as usize, false));
            self.diff_sum = self.diff_sum + 4 * sum - 2 * (n + 1) * len;
        }
        self.total = self.total - old + new;
    }

    /// The Gini index of the tracked wealth values, or [`None`] when no
    /// wallet is tracked. An all-zero population counts as perfect
    /// equality, mirroring [`crate::gini_u64`].
    pub fn gini(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        if self.total == 0 {
            return Some(0.0);
        }
        // D = 4·Σ rank·x − 2(n+1)·Σx  ⇒  Σ rank·x = (D + 2(n+1)Σx) / 4,
        // exactly divisible because the left side is an integer. Feeding
        // that through the reference formula keeps bit-compatibility with
        // `gini_u64` (which accumulates the same integer in f64).
        let weighted = (self.diff_sum + 2 * (self.n as u128 + 1) * self.total as u128) / 4;
        let n = self.n as f64;
        let total = self.total as f64;
        Some((2.0 * weighted as f64 / (n * total) - (n + 1.0) / n).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gini_u64;

    fn reference(values: &[u64]) -> f64 {
        gini_u64(values).expect("non-empty")
    }

    #[test]
    fn matches_reference_on_small_sets() {
        let mut acc = IncrementalGini::new();
        let mut values = Vec::new();
        for v in [5u64, 0, 3, 3, 12, 7, 0, 1] {
            acc.insert(v);
            values.push(v);
            assert_eq!(acc.gini(), Some(reference(&values)), "after insert {v}");
        }
        assert_eq!(acc.len(), 8);
        assert_eq!(acc.total(), 31);
    }

    #[test]
    fn empty_and_degenerate() {
        let mut acc = IncrementalGini::new();
        assert_eq!(acc.gini(), None);
        assert!(acc.is_empty());
        acc.insert(0);
        acc.insert(0);
        assert_eq!(acc.gini(), Some(0.0), "all broke = perfect equality");
        acc.insert(9);
        assert_eq!(acc.gini(), Some(reference(&[0, 0, 9])));
        acc.remove(9);
        acc.remove(0);
        acc.remove(0);
        assert_eq!(acc.gini(), None);
        assert_eq!(acc.total(), 0);
    }

    #[test]
    fn update_tracks_transfers() {
        let mut acc = IncrementalGini::new();
        let mut values = vec![10u64, 10, 10, 10];
        for &v in &values {
            acc.insert(v);
        }
        // Transfer 4 credits from wallet 0 to wallet 1.
        acc.update(10, 6);
        acc.update(10, 14);
        values[0] = 6;
        values[1] = 14;
        assert_eq!(acc.gini(), Some(reference(&values)));
        // No-op update changes nothing.
        let before = acc.clone();
        acc.update(6, 6);
        assert_eq!(acc, before);
    }

    #[test]
    fn histogram_growth_preserves_state() {
        let mut acc = IncrementalGini::new();
        for v in [1u64, 2, 3] {
            acc.insert(v);
        }
        // Force several geometric growths.
        acc.insert(1_000);
        acc.update(1_000, 100_000);
        let values = [1u64, 2, 3, 100_000];
        assert_eq!(acc.gini(), Some(reference(&values)));
        // reserve_values is idempotent and never shrinks.
        let cap_before = acc.cap();
        acc.reserve_values(10);
        assert_eq!(acc.cap(), cap_before);
    }

    #[test]
    fn remove_then_reinsert_roundtrips() {
        let mut acc = IncrementalGini::new();
        for v in [4u64, 9, 2, 2, 30] {
            acc.insert(v);
        }
        let snapshot = acc.clone();
        acc.remove(9);
        acc.insert(9);
        assert_eq!(acc, snapshot);
    }

    #[test]
    fn block_offsets_and_ranks_may_drift_apart_but_counts_stay_exact() {
        // A cycle x → y → z → x with y inside a block moves that block's
        // counts between its offset and its ranks every lap.
        let b = IncrementalGini::BLOCK as u64;
        let (x, y, z) = (3, b + 7, 3 * b + 1);
        let mut acc = IncrementalGini::from_values(&[x, 5, 2 * b]);
        acc.reserve_values(4 * b);
        let start = acc.clone();
        for _ in 0..3 {
            acc.update(x, y);
            acc.update(y, z);
            acc.update(z, x);
        }
        assert_eq!(acc, start);
        assert_ne!(acc.blocks[1].offset, start.blocks[1].offset);
        assert_eq!(acc.gini(), Some(reference(&[x, 5, 2 * b])));
    }

    #[test]
    fn equality_ignores_the_reserved_range() {
        let small = IncrementalGini::from_values(&[1, 2, 3]);
        let mut large = IncrementalGini::from_values(&[3, 2, 1]);
        large.reserve_values(1 << 12);
        assert!(large.cap() > small.cap());
        assert_eq!(small, large);
        assert_ne!(small, IncrementalGini::from_values(&[1, 2, 4]));
    }
}
