//! Equivalence of the blocked-rank `IncrementalGini` with the Fenwick
//! histogram accumulator it replaced.
//!
//! The Fenwick version below is the previous implementation's code,
//! kept as a reference: both keep the exact pairwise difference sum, so
//! every `gini()` must agree to the bit after every operation, not
//! merely within a tolerance.

use proptest::prelude::*;
use scrip_econ::IncrementalGini;

const B: u64 = IncrementalGini::BLOCK as u64;

/// A Fenwick tree over the wealth histogram: per value `v`, the number
/// of wallets holding exactly `v` and their combined wealth.
#[derive(Clone, Debug, Default)]
struct WealthFenwick {
    nodes: Vec<(u64, u64)>,
}

impl WealthFenwick {
    fn cap(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn grow_to(&mut self, cap: u64) {
        let old = WealthFenwick {
            nodes: std::mem::take(&mut self.nodes),
        };
        self.nodes = vec![(0, 0); cap as usize];
        let (mut prev_c, mut prev_m) = (0u64, 0u64);
        for v in 0..old.cap() {
            let (c, m) = old.prefix(v);
            if c > prev_c {
                self.add(v, (c - prev_c) as i64, (m - prev_m) as i64);
            }
            (prev_c, prev_m) = (c, m);
        }
    }

    fn add(&mut self, value: u64, dc: i64, dm: i64) {
        let mut i = value as usize + 1;
        while i <= self.nodes.len() {
            let node = &mut self.nodes[i - 1];
            node.0 = (node.0 as i64 + dc) as u64;
            node.1 = (node.1 as i64 + dm) as u64;
            i += i & i.wrapping_neg();
        }
    }

    fn prefix(&self, value: u64) -> (u64, u64) {
        let mut i = (value as usize + 1).min(self.nodes.len());
        let (mut c, mut m) = (0u64, 0u64);
        while i > 0 {
            let node = self.nodes[i - 1];
            c += node.0;
            m += node.1;
            i -= i & i.wrapping_neg();
        }
        (c, m)
    }
}

/// The Fenwick-histogram accumulator: O(log C) per update.
#[derive(Clone, Debug, Default)]
struct FenwickGini {
    hist: WealthFenwick,
    n: u64,
    total: u64,
    diff_sum: u128,
}

impl FenwickGini {
    fn reserve_values(&mut self, max_value: u64) {
        let needed = max_value + 1;
        if needed > self.hist.cap() {
            self.hist.grow_to(needed.next_power_of_two());
        }
    }

    fn len(&self) -> usize {
        self.n as usize
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn abs_distance_sum(&self, v: u64) -> u128 {
        let (c_le, m_le) = self.hist.prefix(v);
        let c_gt = self.n - c_le;
        let m_gt = self.total - m_le;
        (v as u128 * c_le as u128 - m_le as u128) + (m_gt as u128 - v as u128 * c_gt as u128)
    }

    fn insert(&mut self, value: u64) {
        self.reserve_values(value);
        self.diff_sum += 2 * self.abs_distance_sum(value);
        self.hist.add(value, 1, value as i64);
        self.n += 1;
        self.total += value;
    }

    fn remove(&mut self, value: u64) {
        self.hist.add(value, -1, -(value as i64));
        self.n -= 1;
        self.total -= value;
        self.diff_sum -= 2 * self.abs_distance_sum(value);
    }

    fn update(&mut self, old: u64, new: u64) {
        if old == new {
            return;
        }
        self.reserve_values(new);
        self.hist.add(old, -1, -(old as i64));
        self.n -= 1;
        self.total -= old;
        let gained = self.abs_distance_sum(new);
        let lost = self.abs_distance_sum(old);
        self.diff_sum = self.diff_sum + 2 * gained - 2 * lost;
        self.hist.add(new, 1, new as i64);
        self.n += 1;
        self.total += new;
    }

    fn gini(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        if self.total == 0 {
            return Some(0.0);
        }
        let weighted = (self.diff_sum + 2 * (self.n as u128 + 1) * self.total as u128) / 4;
        let n = self.n as f64;
        let total = self.total as f64;
        Some((2.0 * weighted as f64 / (n * total) - (n + 1.0) / n).max(0.0))
    }
}

/// One operation on the tracked wallets.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A new wallet holding this value.
    Insert(u64),
    /// Remove the wallet at this index hint.
    Remove(usize),
    /// Move the wallet at this index hint to this value.
    Move(usize, u64),
    /// `(from hint, to hint, amount)`: a transfer of up to `amount`.
    Transfer(usize, usize, u64),
}

/// Values biased toward the places the blocked layout can get wrong:
/// zero, either side of a block edge, within one block, and past the
/// reserved range (which forces growth).
fn value() -> impl Strategy<Value = u64> {
    (0u8..5, 0u64..12, 0u64..3, 0u64..20_000).prop_map(|(kind, k, side, x)| match kind {
        0 => 0,
        1 | 2 => (k * B + side).saturating_sub(1),
        3 => x % B,
        _ => x,
    })
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 0usize..64, 0usize..64, value(), 0u8..3).prop_map(|(kind, a, b, v, size)| {
        match kind {
            0 => Op::Insert(v),
            1 => Op::Remove(a),
            2 => Op::Move(a, v),
            // Unit transfers most of all, then ones within a block, then
            // ones that may cross many blocks.
            _ => Op::Transfer(a, b, [1, 1 + v % 7, v][size as usize]),
        }
    })
}

fn bits(g: Option<f64>) -> Option<u64> {
    g.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Driven by the same operations, the blocked accumulator and the
    /// Fenwick one agree on `gini()` to the bit, on `len()` and on
    /// `total()` after every operation, and the final state equals a
    /// fresh bulk seed of the surviving wallets.
    #[test]
    fn blocked_gini_matches_fenwick_gini(
        initial in prop::collection::vec(value(), 0..24),
        reserve in (0u8..2, 0u64..4_000).prop_map(|(on, r)| if on == 0 { 0 } else { r }),
        ops in prop::collection::vec(op(), 0..160),
    ) {
        let mut wallets = initial.clone();
        let mut fast = IncrementalGini::from_values(&wallets);
        fast.reserve_values(reserve);
        let mut slow = FenwickGini::default();
        slow.reserve_values(reserve);
        wallets.iter().for_each(|&w| slow.insert(w));
        prop_assert_eq!(bits(fast.gini()), bits(slow.gini()));
        for op in ops {
            match op {
                Op::Insert(v) => {
                    wallets.push(v);
                    fast.insert(v);
                    slow.insert(v);
                }
                Op::Remove(hint) => {
                    if !wallets.is_empty() {
                        let v = wallets.swap_remove(hint % wallets.len());
                        fast.remove(v);
                        slow.remove(v);
                    }
                }
                Op::Move(hint, v) => {
                    if !wallets.is_empty() {
                        let i = hint % wallets.len();
                        fast.update(wallets[i], v);
                        slow.update(wallets[i], v);
                        wallets[i] = v;
                    }
                }
                Op::Transfer(from, to, amount) => {
                    if wallets.len() >= 2 {
                        let from = from % wallets.len();
                        let to = if to % wallets.len() == from { (from + 1) % wallets.len() } else { to % wallets.len() };
                        let amount = amount.min(wallets[from]);
                        let (src, dst) = (wallets[from], wallets[to]);
                        fast.update(src, src - amount);
                        fast.update(dst, dst + amount);
                        slow.update(src, src - amount);
                        slow.update(dst, dst + amount);
                        wallets[from] -= amount;
                        wallets[to] += amount;
                    }
                }
            }
            prop_assert_eq!(bits(fast.gini()), bits(slow.gini()), "after {:?} over {:?}", op, wallets);
            prop_assert_eq!(fast.len(), slow.len());
            prop_assert_eq!(fast.total(), slow.total());
        }
        prop_assert_eq!(fast, IncrementalGini::from_values(&wallets));
    }

    /// A bulk seed equals n single inserts, whatever the reserve.
    #[test]
    fn bulk_seed_equals_single_inserts(
        values in prop::collection::vec(value(), 0..64),
        reserve in 0u64..30_000,
    ) {
        let mut bulk = IncrementalGini::from_values(&values);
        bulk.reserve_values(reserve);
        let mut single = IncrementalGini::new();
        values.iter().for_each(|&v| single.insert(v));
        let mut slow = FenwickGini::default();
        values.iter().for_each(|&v| slow.insert(v));
        prop_assert_eq!(bits(bulk.gini()), bits(slow.gini()));
        prop_assert_eq!(bits(single.gini()), bits(slow.gini()));
        prop_assert_eq!(bulk.len(), values.len());
        prop_assert_eq!(bulk.total(), slow.total());
        prop_assert_eq!(bulk, single);
    }
}

/// Unit moves either way across every block edge in range, and back.
#[test]
fn unit_moves_across_block_edges() {
    let mut wallets: Vec<u64> = (0..8).map(|k| k * B).collect();
    let mut fast = IncrementalGini::from_values(&wallets);
    let mut slow = FenwickGini::default();
    wallets.iter().for_each(|&w| slow.insert(w));
    for &edge in &wallets[1..] {
        for (old, new) in [(edge, edge - 1), (edge - 1, edge)] {
            fast.update(old, new);
            slow.update(old, new);
            assert_eq!(bits(fast.gini()), bits(slow.gini()), "{old} -> {new}");
        }
    }
    // One wallet sweeps across every block and back.
    for (old, new) in [(0, 7 * B + 5), (7 * B + 5, 1)] {
        fast.update(old, new);
        slow.update(old, new);
        assert_eq!(bits(fast.gini()), bits(slow.gini()), "{old} -> {new}");
    }
    wallets[0] = 1;
    assert_eq!(fast, IncrementalGini::from_values(&wallets));
}

/// Removing every wallet, from block edges and zero, leaves an empty
/// accumulator that then behaves like a new one.
#[test]
fn draining_to_zero_wallets() {
    let values = [0, B - 1, B, 2 * B, 0, 5 * B + 3];
    let mut fast = IncrementalGini::from_values(&values);
    let mut slow = FenwickGini::default();
    values.iter().for_each(|&v| slow.insert(v));
    for &v in &values {
        fast.remove(v);
        slow.remove(v);
        assert_eq!(bits(fast.gini()), bits(slow.gini()));
    }
    assert!(fast.is_empty());
    assert_eq!(fast.gini(), None);
    assert_eq!(fast, IncrementalGini::new());
    fast.insert(3);
    slow.insert(3);
    assert_eq!(bits(fast.gini()), bits(slow.gini()));
    assert_eq!(fast.total(), 3);
}
