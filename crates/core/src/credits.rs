//! The credit ledger: integer wallets with conservation accounting.
//!
//! Credits in the paper are indivisible units (jobs in the queueing
//! model), so wallets are `u64` balances. The ledger tracks every unit
//! minted (initial endowments, joiner endowments) and burned (departing
//! peers taking their wallets), so the conservation invariant
//! `Σ balances + escrow = minted − burned` is checkable at any time —
//! the market simulators assert it in tests.
//!
//! Balances sit in a table indexed by raw [`NodeId`], like the
//! overlay's rows and the posted prices: IDs are dense and never
//! reused, so a departed peer keeps a zeroed entry and nothing moves on
//! departure. The ledger's [`PeerArena`] holds the account holders in
//! *pick order* ([`Ledger::ids`]), which is its owner's one peer
//! registry: uniform peer picks, escrow sweeps and checkpoints iterate
//! it, so RNG draws and checkpoint bytes do not depend on raw-id
//! layout. The wallet total is a cached running sum so
//! [`Ledger::total`] and [`Ledger::conserved`] are O(1), and an
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
    /// The account holders in pick order: the peer registry of the
    /// market that owns this ledger.
    arena: PeerArena,
    /// Balances by raw id (0 for departed and never-seen ids).
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
/// same accounting counters, independent of pick order, table size and
/// whether wealth tracking is enabled.
impl PartialEq for Ledger {
    fn eq(&self, other: &Self) -> bool {
        self.minted == other.minted
            && self.burned == other.burned
            && self.escrow == other.escrow
            && self.accounts() == other.accounts()
            && self
                .slot_entries()
                .all(|(id, b)| other.has_account(id) && other.balance(id) == b)
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
    /// Seeds the accumulator from the live balances in one O(n + C)
    /// pass, C the largest balance. Whenever a wallet later exceeds the
    /// tracked value range, the range at least doubles — a rare,
    /// amortized reallocation (at most log₂(max wealth) times per run).
    /// Idempotent.
    pub fn enable_wealth_tracking(&mut self) {
        if self.tracker.is_none() {
            // The live balances only: a departed id's zero is no wallet.
            let live: Vec<u64> = self.slot_entries().map(|(_, b)| b).collect();
            self.tracker = Some(IncrementalGini::from_values(&live));
        }
    }

    /// The Gini index of the current balances from the online
    /// accumulator: [`None`] when tracking is disabled or no account
    /// exists. Bit-compatible with [`scrip_econ::gini_u64`] over
    /// [`Ledger::balances_vec`] (see [`scrip_econ::incremental`]).
    pub fn tracked_gini(&self) -> Option<f64> {
        self.tracker.as_ref().and_then(IncrementalGini::gini)
    }

    /// Sets `peer`'s balance to `new` and applies the change to the
    /// cached total and the tracker.
    #[inline]
    fn set(&mut self, peer: NodeId, new: u64) {
        let old = std::mem::replace(&mut self.balances[peer.index()], new);
        self.total = self.total - old + new;
        if let Some(tracker) = &mut self.tracker {
            tracker.update(old, new);
        }
    }

    /// Whether `peer` holds an account. Safe for any id.
    #[inline]
    pub fn has_account(&self, peer: NodeId) -> bool {
        self.arena.contains(peer)
    }

    /// The account holders in pick order.
    #[inline]
    pub fn ids(&self) -> &[NodeId] {
        self.arena.ids()
    }

    /// Creates an account (if absent) and mints `amount` fresh credits
    /// into it. A new account goes last in pick order.
    ///
    /// The balance table grows to `peer.index() + 1` entries, so this is
    /// for densely allocated IDs (as handed out by
    /// [`scrip_topology::Graph::add_node`]). Reads on arbitrary IDs are
    /// always safe.
    pub fn mint(&mut self, peer: NodeId, amount: u64) {
        self.minted += amount;
        if self.has_account(peer) {
            self.set(peer, self.balance(peer) + amount);
        } else {
            self.open(peer, amount);
        }
    }

    /// Opens an account for `peer` holding `amount`, last in pick
    /// order.
    ///
    /// # Panics
    /// Panics if `peer` already has an account.
    fn open(&mut self, peer: NodeId, amount: u64) {
        // Grow the balance table before the pick order: in the reverse
        // order glibc's heap fragmented over perfbench's repeated
        // 10⁵-peer builds, and `churn`'s peak RSS rose from 50 to 59 MB.
        let raw = peer.index();
        if raw >= self.balances.len() {
            self.balances.resize(raw + 1, 0);
        }
        self.balances[raw] = amount;
        self.arena.insert(peer);
        self.total += amount;
        if let Some(tracker) = &mut self.tracker {
            tracker.insert(amount);
        }
    }

    /// Removes `peer`'s account, burning its remaining balance (the
    /// departing peer "takes away its credits in possession"), and
    /// returns the burned amount (0 without an account). The last
    /// account in pick order takes its place.
    pub fn burn(&mut self, peer: NodeId) -> u64 {
        if !self.arena.remove(peer) {
            return 0;
        }
        let amount = std::mem::take(&mut self.balances[peer.index()]);
        self.total -= amount;
        self.burned += amount;
        if let Some(tracker) = &mut self.tracker {
            tracker.remove(amount);
        }
        amount
    }

    /// The balance of `peer` (0 for unknown and departed accounts).
    #[inline]
    pub fn balance(&self, peer: NodeId) -> u64 {
        self.balances.get(peer.index()).copied().unwrap_or(0)
    }

    /// Moves `amount` credits from `from` to `to`.
    ///
    /// # Errors
    /// Returns [`CoreError::Ledger`] if either account is missing or the
    /// sender's balance is insufficient. No partial transfer occurs.
    pub fn transfer(&mut self, from: NodeId, to: NodeId, amount: u64) -> Result<(), CoreError> {
        if !self.has_account(to) {
            return Err(CoreError::Ledger(format!("unknown payee {to}")));
        }
        if !self.has_account(from) {
            return Err(CoreError::Ledger(format!("unknown payer {from}")));
        }
        let src = self.balance(from);
        if src < amount {
            return Err(CoreError::Ledger(format!(
                "insufficient funds: {from} has {src}, needs {amount}"
            )));
        }
        self.set(from, src - amount);
        // Read after the debit, so a self-transfer nets to zero.
        self.set(to, self.balance(to) + amount);
        Ok(())
    }

    /// Withholds `amount` from `peer`'s balance into the system escrow
    /// (taxation, trade escrow). Returns the amount actually withheld
    /// (capped by the balance; 0 without an account).
    pub fn withhold(&mut self, peer: NodeId, amount: u64) -> u64 {
        if !self.has_account(peer) {
            return 0;
        }
        let old = self.balance(peer);
        let take = amount.min(old);
        self.escrow += take;
        self.set(peer, old - take);
        take
    }

    /// Pays `amount` from the escrow to `peer`. Returns the amount paid
    /// (capped by the escrow; 0 without an account).
    pub fn pay_from_escrow(&mut self, peer: NodeId, amount: u64) -> u64 {
        if !self.has_account(peer) {
            return 0;
        }
        let pay = amount.min(self.escrow);
        self.escrow -= pay;
        self.set(peer, self.balance(peer) + pay);
        pay
    }

    /// Pays up to `amount` from the escrow to *every* account, in pick
    /// order (the taxation sweep "returns a unit to each peer"), without
    /// any per-sweep allocation. Returns the total paid; stops early
    /// when the escrow runs dry.
    pub fn pay_each_from_escrow(&mut self, amount: u64) -> u64 {
        let mut paid = 0;
        for i in 0..self.arena.len() {
            if self.escrow == 0 {
                break;
            }
            let id = self.arena.ids()[i];
            let pay = amount.min(self.escrow);
            self.escrow -= pay;
            self.set(id, self.balance(id) + pay);
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

    /// Heap bytes reserved by per-wallet storage: the pick-order list
    /// and its position table plus the balance table (capacities, the
    /// allocator's view). The optional wealth tracker is excluded — its
    /// rank array is sized by the maximum wealth value, not the wallet
    /// count; see [`Ledger::tracker_heap_bytes`].
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
        (0..)
            .zip(&self.balances)
            .map(|(raw, &b)| (NodeId::from_raw(raw), b))
            .filter(|&(id, _)| self.has_account(id))
    }

    /// The balances as a vector in ascending peer order (for Gini etc.).
    pub fn balances_vec(&self) -> Vec<u64> {
        self.iter().map(|(_, b)| b).collect()
    }

    /// `(peer, balance)` pairs in *pick* order, not ascending-ID order.
    /// Checkpoints capture this order so a restored ledger reproduces
    /// order-sensitive trajectories (escrow sweeps, seller sampling) bit
    /// for bit.
    pub fn slot_entries(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.arena
            .ids()
            .iter()
            .map(|&id| (id, self.balances[id.index()]))
    }

    /// Rebuilds a ledger from checkpointed parts: `entries` must be in
    /// pick order (as produced by [`Ledger::slot_entries`]) so the order
    /// — and everything whose iteration depends on it — comes back
    /// identical. Wealth tracking starts disabled; call
    /// [`Ledger::enable_wealth_tracking`] afterwards if the original had
    /// it (the accumulator is a pure function of the balance multiset).
    ///
    /// # Panics
    /// Panics if an id appears twice in `entries`.
    pub fn restore(entries: &[(NodeId, u64)], escrow: u64, minted: u64, burned: u64) -> Self {
        let mut ledger = Ledger {
            escrow,
            minted,
            burned,
            ..Ledger::default()
        };
        for &(id, b) in entries {
            ledger.open(id, b);
        }
        ledger
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
        assert_eq!(l.burn(id(1)), 7);
        assert!(!l.has_account(id(1)));
        assert_eq!(l.burned(), 7);
        assert_eq!(l.total(), 0);
        assert!(l.conserved());
    }

    #[test]
    fn escrow_roundtrip() {
        let mut l = Ledger::new();
        l.mint(id(1), 10);
        l.mint(id(2), 0);
        assert_eq!(l.withhold(id(1), 4), 4);
        assert_eq!(l.escrow(), 4);
        assert_eq!(l.balance(id(1)), 6);
        assert!(l.conserved());
        assert_eq!(l.pay_from_escrow(id(2), 3), 3);
        assert_eq!(l.balance(id(2)), 3);
        assert_eq!(l.escrow(), 1);
        assert!(l.conserved());
        // Capped by escrow.
        assert_eq!(l.pay_from_escrow(id(2), 100), 1);
        assert_eq!(l.escrow(), 0);
    }

    #[test]
    fn withhold_caps_at_balance() {
        let mut l = Ledger::new();
        l.mint(id(1), 3);
        assert_eq!(l.withhold(id(1), 10), 3);
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
        l.withhold(id(0), 6);
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
        l.burn(id(1)); // perturb pick order via swap-remove
        l.withhold(id(0), 3);
        let entries: Vec<(NodeId, u64)> = l.slot_entries().collect();
        let r = Ledger::restore(&entries, l.escrow(), l.minted(), l.burned());
        assert_eq!(r, l);
        assert!(r.conserved());
        // The pick order (not just semantic content) must round-trip.
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
        l.withhold(id(1), 4);
        l.pay_from_escrow(id(2), 2);
        l.pay_each_from_escrow(1);
        l.burn(id(3));
        let reference = gini_u64(&l.balances_vec()).expect("non-empty");
        assert_eq!(l.tracked_gini(), Some(reference), "bit-exact vs oracle");
        // Total stays consistent through all of the above.
        assert!(l.conserved());
    }
}
