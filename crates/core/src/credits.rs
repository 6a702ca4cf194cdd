//! The credit ledger: integer wallets with conservation accounting.
//!
//! Credits in the paper are indivisible units (jobs in the queueing
//! model), so wallets are `u64` balances. The ledger tracks every unit
//! minted (initial endowments, joiner endowments) and burned (departing
//! peers taking their wallets), so the conservation invariant
//! `Σ balances + escrow = minted − burned` is checkable at any time —
//! the market simulators assert it in tests.
//!
//! The ledger's [`PeerArena`] is its owner's one peer registry: the
//! market's per-peer columns are indexed by [`Ledger::slot`], push on
//! [`Ledger::mint`] of a new account and `swap_remove(slot)` on
//! [`Ledger::burn_at`]. Hot paths resolve a slot once and call the
//! `*_at` methods; [`Ledger::balance`] and [`Ledger::transfer`] are
//! `NodeId` facades over them. The wallet total is a cached running sum
//! so [`Ledger::total`] and [`Ledger::conserved`] are O(1), and an
//! optional [`IncrementalGini`] accumulator is kept in sync by every
//! mutation so a wealth-Gini sample is O(1) too
//! ([`Ledger::enable_wealth_tracking`]).

use scrip_econ::IncrementalGini;
use scrip_topology::NodeId;

use crate::arena::PeerArena;
use crate::error::CoreError;

/// Integer credit wallets for a set of peers, with mint/burn accounting.
///
/// ```
/// use scrip_core::Ledger;
/// use scrip_topology::NodeId;
///
/// # fn main() -> Result<(), scrip_core::CoreError> {
/// let mut ledger = Ledger::new();
/// let a = NodeId::from_raw(0);
/// let b = NodeId::from_raw(1);
/// ledger.mint(a, 10);
/// ledger.mint(b, 10);
/// ledger.transfer(a, b, 3)?;
/// assert_eq!(ledger.balance(a), 7);
/// assert_eq!(ledger.balance(b), 13);
/// assert_eq!(ledger.total(), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// The peer registry: `NodeId ↔ slot` for the balances below and
    /// for every per-peer column of the market that owns this ledger.
    arena: PeerArena,
    /// Slot-indexed balances (parallel to `arena`).
    balances: Vec<u64>,
    /// Cached `Σ balances` (wallets only, excluding escrow).
    total: u64,
    minted: u64,
    burned: u64,
    escrow: u64,
    /// Online Gini accumulator, kept in sync by every balance mutation
    /// when enabled.
    tracker: Option<IncrementalGini>,
}

/// Equality is semantic: same accounts with the same balances and the
/// same accounting counters, independent of slot layout and of whether
/// wealth tracking is enabled.
impl PartialEq for Ledger {
    fn eq(&self, other: &Self) -> bool {
        self.minted == other.minted
            && self.burned == other.burned
            && self.escrow == other.escrow
            && self.accounts() == other.accounts()
            && self
                .slot_entries()
                .all(|(id, b)| other.slot(id).map(|s| other.balances[s]) == Some(b))
    }
}

impl Eq for Ledger {}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Starts maintaining an [`IncrementalGini`] accumulator over the
    /// wallet balances, so [`Ledger::tracked_gini`] is O(1) per sample.
    /// Seeds the accumulator from the current balances in one O(n + C)
    /// pass, C the largest balance. Whenever a wallet later exceeds the
    /// tracked value range, the range at least doubles — a rare,
    /// amortized reallocation (at most log₂(max wealth) times per run).
    /// Idempotent.
    pub fn enable_wealth_tracking(&mut self) {
        if self.tracker.is_none() {
            self.tracker = Some(IncrementalGini::from_values(&self.balances));
        }
    }

    /// The Gini index of the current balances from the online
    /// accumulator: [`None`] when tracking is disabled or no account
    /// exists. Bit-compatible with [`scrip_econ::gini_u64`] over
    /// [`Ledger::balances_vec`] (see [`scrip_econ::incremental`]).
    pub fn tracked_gini(&self) -> Option<f64> {
        self.tracker.as_ref().and_then(IncrementalGini::gini)
    }

    /// Applies a balance change to the cached total and the tracker.
    #[inline]
    fn on_change(&mut self, old: u64, new: u64) {
        self.total = self.total - old + new;
        if let Some(tracker) = &mut self.tracker {
            tracker.update(old, new);
        }
    }

    /// The slot of `peer`'s account, or [`None`] if it has none. Every
    /// per-peer column of the owning market is indexed by this slot.
    #[inline]
    pub fn slot(&self, peer: NodeId) -> Option<usize> {
        self.arena.slot(peer)
    }

    /// The account holders in slot order (index = slot).
    #[inline]
    pub fn ids(&self) -> &[NodeId] {
        self.arena.ids()
    }

    /// Creates an account (if absent) and mints `amount` fresh credits
    /// into it. Returns the account's slot; a new account takes the
    /// next slot, so per-peer columns push one entry.
    ///
    /// Account storage is slot-indexed for densely allocated IDs (as
    /// handed out by [`scrip_topology::Graph::add_node`]): creating an
    /// account grows the reverse map to `peer.raw() + 1` entries (see
    /// [`crate::arena::PeerArena::insert`]). Reads on arbitrary IDs are
    /// always safe.
    pub fn mint(&mut self, peer: NodeId, amount: u64) -> usize {
        self.minted += amount;
        if let Some(slot) = self.arena.slot(peer) {
            let old = self.balances[slot];
            self.balances[slot] = old + amount;
            self.on_change(old, old + amount);
            return slot;
        }
        self.balances.push(amount);
        self.total += amount;
        if let Some(tracker) = &mut self.tracker {
            tracker.insert(amount);
        }
        self.arena.insert(peer)
    }

    /// Removes the account in `slot`, burning its remaining balance
    /// (the departing peer "takes away its credits in possession"), and
    /// returns the burned amount. The last slot's account moves into
    /// `slot`: mirror `swap_remove(slot)` on every per-peer column.
    pub fn burn_at(&mut self, slot: usize) -> u64 {
        self.arena.remove(self.arena.ids()[slot]);
        let amount = self.balances.swap_remove(slot);
        self.total -= amount;
        self.burned += amount;
        if let Some(tracker) = &mut self.tracker {
            tracker.remove(amount);
        }
        amount
    }

    /// The balance of the account in `slot`.
    #[inline]
    pub fn balance_at(&self, slot: usize) -> u64 {
        self.balances[slot]
    }

    /// The balance of `peer` (0 for unknown accounts).
    #[inline]
    pub fn balance(&self, peer: NodeId) -> u64 {
        self.slot(peer).map_or(0, |s| self.balances[s])
    }

    /// Moves `amount` credits from the account in slot `from` to the
    /// one in slot `to`.
    ///
    /// # Errors
    /// Returns [`CoreError::Ledger`] if the sender's balance is
    /// insufficient. No partial transfer occurs.
    pub fn transfer_at(&mut self, from: usize, to: usize, amount: u64) -> Result<(), CoreError> {
        let src = self.balances[from];
        if src < amount {
            return Err(CoreError::Ledger(format!(
                "insufficient funds: {} has {src}, needs {amount}",
                self.arena.ids()[from]
            )));
        }
        self.balances[from] = src - amount;
        let dst = self.balances[to];
        self.balances[to] = dst + amount;
        // Wallet total is unchanged; only the tracker needs the moves.
        if let Some(tracker) = &mut self.tracker {
            tracker.update(src, src - amount);
            tracker.update(dst, dst + amount);
        }
        Ok(())
    }

    /// Moves `amount` credits from `from` to `to`.
    ///
    /// # Errors
    /// Returns [`CoreError::Ledger`] if either account is missing or the
    /// sender's balance is insufficient. No partial transfer occurs.
    pub fn transfer(&mut self, from: NodeId, to: NodeId, amount: u64) -> Result<(), CoreError> {
        let to_slot = self
            .slot(to)
            .ok_or_else(|| CoreError::Ledger(format!("unknown payee {to}")))?;
        let from_slot = self
            .slot(from)
            .ok_or_else(|| CoreError::Ledger(format!("unknown payer {from}")))?;
        self.transfer_at(from_slot, to_slot, amount)
    }

    /// Withholds `amount` from the balance in `slot` into the system
    /// escrow (taxation, trade escrow). Returns the amount actually
    /// withheld (capped by the balance).
    pub fn withhold_at(&mut self, slot: usize, amount: u64) -> u64 {
        let old = self.balances[slot];
        let take = amount.min(old);
        self.balances[slot] = old - take;
        self.escrow += take;
        self.on_change(old, old - take);
        take
    }

    /// Pays `amount` from the escrow to the account in `slot`. Returns
    /// the amount paid (capped by the escrow).
    pub fn pay_from_escrow_at(&mut self, slot: usize, amount: u64) -> u64 {
        let pay = amount.min(self.escrow);
        self.escrow -= pay;
        let old = self.balances[slot];
        self.balances[slot] = old + pay;
        self.on_change(old, old + pay);
        pay
    }

    /// Pays up to `amount` from the escrow to *every* account (the
    /// taxation sweep "returns a unit to each peer") without any
    /// per-sweep allocation. Returns the total paid; stops early when
    /// the escrow runs dry.
    pub fn pay_each_from_escrow(&mut self, amount: u64) -> u64 {
        let mut paid = 0;
        for slot in 0..self.balances.len() {
            if self.escrow == 0 {
                break;
            }
            let pay = amount.min(self.escrow);
            self.escrow -= pay;
            let old = self.balances[slot];
            self.balances[slot] = old + pay;
            self.total += pay;
            if let Some(tracker) = &mut self.tracker {
                tracker.update(old, old + pay);
            }
            paid += pay;
        }
        paid
    }

    /// Credits currently held in the system escrow.
    pub fn escrow(&self) -> u64 {
        self.escrow
    }

    /// Total credits in wallets (excluding escrow). O(1): the sum is
    /// maintained incrementally.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total credits ever minted.
    pub fn minted(&self) -> u64 {
        self.minted
    }

    /// Heap bytes reserved by per-wallet storage: the slot map plus the
    /// balance vector (capacities, the allocator's view). The optional
    /// wealth tracker is excluded — its rank array is sized by the
    /// maximum wealth value, not the wallet count; see
    /// [`Ledger::tracker_heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes() + self.balances.capacity() * std::mem::size_of::<u64>()
    }

    /// Heap bytes reserved by the online Gini tracker's rank array
    /// (0 when tracking is disabled).
    pub fn tracker_heap_bytes(&self) -> usize {
        self.tracker.as_ref().map_or(0, |t| t.heap_bytes())
    }

    /// Total credits burned by departures.
    pub fn burned(&self) -> u64 {
        self.burned
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.arena.len()
    }

    /// Iterates `(peer, balance)` in ascending peer order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let mut pairs: Vec<(NodeId, u64)> = self.slot_entries().collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs.into_iter()
    }

    /// The balances as a vector in ascending peer order (for Gini etc.).
    pub fn balances_vec(&self) -> Vec<u64> {
        self.iter().map(|(_, b)| b).collect()
    }

    /// `(peer, balance)` pairs in *slot* order — the dense internal
    /// layout, not ascending-ID order. Checkpoints capture this order so
    /// a restored ledger reproduces slot-sensitive trajectories (escrow
    /// sweeps, seller sampling) bit for bit.
    pub fn slot_entries(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.arena
            .ids()
            .iter()
            .zip(&self.balances)
            .map(|(&id, &b)| (id, b))
    }

    /// Rebuilds a ledger from checkpointed parts: `entries` must be in
    /// slot order (as produced by [`Ledger::slot_entries`]) so the dense
    /// layout — and everything whose iteration order depends on it —
    /// comes back identical. Wealth tracking starts disabled; call
    /// [`Ledger::enable_wealth_tracking`] afterwards if the original had
    /// it (the accumulator is a pure function of the balance multiset).
    pub fn restore(entries: &[(NodeId, u64)], escrow: u64, minted: u64, burned: u64) -> Self {
        let mut arena = PeerArena::new();
        let mut balances = Vec::with_capacity(entries.len());
        let mut total = 0u64;
        for &(id, b) in entries {
            arena.insert(id);
            balances.push(b);
            total += b;
        }
        Ledger {
            arena,
            balances,
            total,
            minted,
            burned,
            escrow,
            tracker: None,
        }
    }

    /// Checks the conservation invariant
    /// `Σ balances + escrow == minted − burned`. O(1).
    pub fn conserved(&self) -> bool {
        self.total + self.escrow == self.minted - self.burned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrip_econ::gini_u64;

    fn id(n: u64) -> NodeId {
        NodeId::from_raw(n)
    }

    /// The slot of `id(n)`'s account.
    fn at(l: &Ledger, n: u64) -> usize {
        l.slot(id(n)).expect("account exists")
    }

    #[test]
    fn mint_and_balance() {
        let mut l = Ledger::new();
        l.mint(id(1), 5);
        l.mint(id(1), 3);
        assert_eq!(l.balance(id(1)), 8);
        assert_eq!(l.balance(id(9)), 0);
        assert_eq!(l.minted(), 8);
        assert!(l.conserved());
    }

    #[test]
    fn transfer_moves_credits() {
        let mut l = Ledger::new();
        l.mint(id(1), 10);
        l.mint(id(2), 0);
        l.transfer(id(1), id(2), 4).expect("sufficient");
        assert_eq!(l.balance(id(1)), 6);
        assert_eq!(l.balance(id(2)), 4);
        assert_eq!(l.total(), 10);
        assert!(l.conserved());
    }

    #[test]
    fn transfer_rejects_overdraft_and_unknowns() {
        let mut l = Ledger::new();
        l.mint(id(1), 2);
        l.mint(id(2), 0);
        assert!(l.transfer(id(1), id(2), 3).is_err());
        assert_eq!(l.balance(id(1)), 2, "no partial transfer");
        assert!(l.transfer(id(9), id(2), 1).is_err());
        assert!(l.transfer(id(1), id(9), 1).is_err());
    }

    #[test]
    fn burn_account_removes_and_counts() {
        let mut l = Ledger::new();
        l.mint(id(1), 7);
        assert_eq!(l.burn_at(at(&l, 1)), 7);
        assert_eq!(l.slot(id(1)), None);
        assert_eq!(l.burned(), 7);
        assert_eq!(l.total(), 0);
        assert!(l.conserved());
    }

    #[test]
    fn escrow_roundtrip() {
        let mut l = Ledger::new();
        l.mint(id(1), 10);
        l.mint(id(2), 0);
        assert_eq!(l.withhold_at(at(&l, 1), 4), 4);
        assert_eq!(l.escrow(), 4);
        assert_eq!(l.balance(id(1)), 6);
        assert!(l.conserved());
        assert_eq!(l.pay_from_escrow_at(at(&l, 2), 3), 3);
        assert_eq!(l.balance(id(2)), 3);
        assert_eq!(l.escrow(), 1);
        assert!(l.conserved());
        // Capped by escrow.
        assert_eq!(l.pay_from_escrow_at(at(&l, 2), 100), 1);
        assert_eq!(l.escrow(), 0);
    }

    #[test]
    fn withhold_caps_at_balance() {
        let mut l = Ledger::new();
        l.mint(id(1), 3);
        assert_eq!(l.withhold_at(at(&l, 1), 10), 3);
        assert_eq!(l.balance(id(1)), 0);
        assert!(l.conserved());
    }

    #[test]
    fn iteration_is_sorted() {
        let mut l = Ledger::new();
        l.mint(id(5), 1);
        l.mint(id(2), 2);
        l.mint(id(9), 3);
        let ids: Vec<u64> = l.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert_eq!(l.balances_vec(), vec![2, 1, 3]);
        assert_eq!(l.accounts(), 3);
    }

    #[test]
    fn pay_each_from_escrow_sweeps_all_accounts() {
        let mut l = Ledger::new();
        for i in 0..4 {
            l.mint(id(i), 10);
        }
        l.withhold_at(at(&l, 0), 6);
        assert_eq!(l.pay_each_from_escrow(1), 4);
        assert_eq!(l.escrow(), 2);
        assert!(l.conserved());
        // Escrow runs dry mid-sweep: pays what it can, never goes
        // negative.
        assert_eq!(l.pay_each_from_escrow(1), 2);
        assert_eq!(l.escrow(), 0);
        assert_eq!(l.pay_each_from_escrow(1), 0);
        assert!(l.conserved());
        assert_eq!(l.total(), 40);
    }

    #[test]
    fn restore_round_trips_slot_layout() {
        let mut l = Ledger::new();
        for i in 0..5 {
            l.mint(id(i), 10 * (i + 1));
        }
        l.burn_at(at(&l, 1)); // perturb slot order via swap-remove
        l.withhold_at(at(&l, 0), 3);
        let entries: Vec<(NodeId, u64)> = l.slot_entries().collect();
        let r = Ledger::restore(&entries, l.escrow(), l.minted(), l.burned());
        assert_eq!(r, l);
        assert!(r.conserved());
        // Slot layout (not just semantic content) must round-trip.
        let again: Vec<(NodeId, u64)> = r.slot_entries().collect();
        assert_eq!(again, entries);
    }

    #[test]
    fn equality_is_slot_layout_independent() {
        let mut a = Ledger::new();
        a.mint(id(0), 5);
        a.mint(id(1), 7);
        a.mint(id(2), 9);

        let mut b = Ledger::new();
        b.mint(id(2), 9);
        b.mint(id(0), 5);
        b.mint(id(1), 7);
        b.enable_wealth_tracking();
        assert_eq!(a, b, "layout and tracking must not affect equality");
        b.mint(id(1), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn tracked_gini_follows_mutations() {
        let mut l = Ledger::new();
        assert_eq!(l.tracked_gini(), None, "tracking disabled");
        for i in 0..5 {
            l.mint(id(i), 10);
        }
        l.enable_wealth_tracking();
        l.enable_wealth_tracking(); // idempotent
        assert_eq!(l.tracked_gini(), Some(0.0));
        l.transfer(id(0), id(1), 10).expect("funded");
        l.mint(id(5), 3);
        l.withhold_at(at(&l, 1), 4);
        l.pay_from_escrow_at(at(&l, 2), 2);
        l.pay_each_from_escrow(1);
        l.burn_at(at(&l, 3));
        let reference = gini_u64(&l.balances_vec()).expect("non-empty");
        assert_eq!(l.tracked_gini(), Some(reference), "bit-exact vs oracle");
        // Total stays consistent through all of the above.
        assert!(l.conserved());
    }
}
