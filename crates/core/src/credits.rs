//! The credit ledger: one wallet per peer, with conservation accounting.
//!
//! Credits in the paper are indivisible units (jobs in the queueing
//! model), so wallets are `u64` balances. The ledger tracks every unit
//! minted (initial endowments, joiner endowments) and burned (departing
//! peers taking their wallets), so the conservation invariant
//! `Σ balances + escrow = minted − burned` is checkable at any time —
//! the market simulators assert it in tests.
//!
//! A wallet is one record per raw [`NodeId`] holding the peer's balance
//! (its queue length in the paper's model) next to the credits it has
//! spent (the numerator of Fig. 1's spending rates), in a table like
//! the overlay's rows and the posted prices: IDs are dense and never
//! reused, so a departed peer keeps a zeroed record and nothing moves on
//! departure. The ledger's [`PeerArena`] holds the account holders in
//! *pick order* ([`Ledger::ids`]), which is its owner's one peer
//! registry: uniform peer picks, escrow sweeps and checkpoints iterate
//! it, so RNG draws and checkpoint bytes do not depend on raw-id
//! layout. The wallet and spend totals are cached running sums, so
//! [`Ledger::total`], [`Ledger::total_spent`] and [`Ledger::conserved`]
//! are O(1), and an optional [`IncrementalGini`] accumulator is kept in
//! sync by every mutation so a wealth-Gini sample is O(1) too
//! ([`Ledger::enable_wealth_tracking`]).
//!
//! Both market granularities keep their economy here: the reports of
//! the paper's figures (wealth Gini, sorted balances, sorted spending
//! rates) and the escrow recycling of Sec. VI's tax
//! ([`Ledger::recycle_escrow`]) are defined once, on the ledger.

use scrip_des::SimTime;
use scrip_econ::{gini_u64, IncrementalGini};
use scrip_topology::NodeId;

use crate::arena::PeerArena;
use crate::error::CoreError;

/// One peer's wallet: what it holds and what it has spent while live.
#[derive(Clone, Copy, Debug, Default)]
struct Wallet {
    balance: u64,
    spent: u64,
}

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
/// ledger.record_spend(a, 3);
/// assert_eq!(ledger.balance(a), 7);
/// assert_eq!(ledger.balance(b), 13);
/// assert_eq!(ledger.total(), 20);
/// assert_eq!(ledger.total_spent(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// The account holders in pick order: the peer registry of the
    /// market that owns this ledger.
    arena: PeerArena,
    /// Wallets by raw id (zeroed for departed and never-seen ids).
    wallets: Vec<Wallet>,
    /// Cached `Σ balance` (wallets only, excluding escrow).
    total: u64,
    /// Cached `Σ spent` over the account holders.
    total_spent: u64,
    minted: u64,
    burned: u64,
    escrow: u64,
    /// Online Gini accumulator, kept in sync by every balance mutation
    /// when enabled.
    tracker: Option<IncrementalGini>,
}

/// Equality is semantic: same accounts with the same balances and spend
/// and the same accounting counters, independent of pick order, table
/// size and whether wealth tracking is enabled.
impl PartialEq for Ledger {
    fn eq(&self, other: &Self) -> bool {
        self.minted == other.minted
            && self.burned == other.burned
            && self.escrow == other.escrow
            && self.total_spent == other.total_spent
            && self.accounts() == other.accounts()
            && self.slot_entries().all(|(id, b)| {
                other.has_account(id) && other.balance(id) == b && other.spent(id) == self.spent(id)
            })
    }
}

impl Eq for Ledger {}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// An empty ledger whose wallet table has room for raw ids below
    /// `ids` without growing: for a market built over a known overlay.
    pub fn with_capacity(ids: usize) -> Self {
        Ledger {
            wallets: Vec::with_capacity(ids),
            ..Ledger::default()
        }
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

    /// Gini index of the current wealth distribution: O(1) from the
    /// online accumulator when tracking is enabled, otherwise the
    /// sort-based [`gini_u64`] over the balances (bit-identical).
    ///
    /// # Errors
    /// Returns [`CoreError::Econ`] if there are no accounts.
    pub fn wealth_gini(&self) -> Result<f64, CoreError> {
        match self.tracked_gini() {
            Some(g) => Ok(g),
            None => Ok(gini_u64(&self.balances_vec())?),
        }
    }

    /// Sets `peer`'s balance to `new` and applies the change to the
    /// cached total and the tracker.
    #[inline]
    fn set(&mut self, peer: NodeId, new: u64) {
        let old = std::mem::replace(&mut self.wallets[peer.index()].balance, new);
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
    /// The wallet table grows to `peer.index() + 1` entries, so this is
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
    /// order, with nothing spent.
    ///
    /// # Panics
    /// Panics if `peer` already has an account.
    fn open(&mut self, peer: NodeId, amount: u64) {
        // Grow the wallet table before the pick order: in the reverse
        // order glibc's heap fragmented over perfbench's repeated
        // 10⁵-peer builds, and `churn`'s peak RSS rose from 50 to 59 MB.
        let raw = peer.index();
        if raw >= self.wallets.len() {
            self.wallets.resize(raw + 1, Wallet::default());
        }
        self.wallets[raw] = Wallet {
            balance: amount,
            spent: 0,
        };
        self.arena.insert(peer);
        self.total += amount;
        if let Some(tracker) = &mut self.tracker {
            tracker.insert(amount);
        }
    }

    /// Removes `peer`'s account, burning its remaining balance (the
    /// departing peer "takes away its credits in possession"), and
    /// returns the burned amount (0 without an account). The peer's
    /// spend leaves [`Ledger::total_spent`] with it, and the last
    /// account in pick order takes its place.
    pub fn burn(&mut self, peer: NodeId) -> u64 {
        if !self.arena.remove(peer) {
            return 0;
        }
        let wallet = std::mem::take(&mut self.wallets[peer.index()]);
        self.total -= wallet.balance;
        self.total_spent -= wallet.spent;
        self.burned += wallet.balance;
        if let Some(tracker) = &mut self.tracker {
            tracker.remove(wallet.balance);
        }
        wallet.balance
    }

    /// The balance of `peer` (0 for unknown and departed accounts).
    #[inline]
    pub fn balance(&self, peer: NodeId) -> u64 {
        self.wallets.get(peer.index()).map_or(0, |w| w.balance)
    }

    /// The credits `peer` has spent (0 for unknown and departed
    /// accounts).
    pub fn spent(&self, peer: NodeId) -> u64 {
        self.wallets.get(peer.index()).map_or(0, |w| w.spent)
    }

    /// Records that `peer` spent `amount` credits — a purchase paid,
    /// or payment lost to a defecting seller. Balances do not move;
    /// the payment itself goes through [`Ledger::transfer`],
    /// [`Ledger::withhold`] or [`Ledger::pay_from_escrow`]. A no-op
    /// without an account.
    #[inline]
    pub fn record_spend(&mut self, peer: NodeId, amount: u64) {
        if self.has_account(peer) {
            self.wallets[peer.index()].spent += amount;
            self.total_spent += amount;
        }
    }

    /// Total credits spent by the account holders. O(1): maintained
    /// incrementally alongside the per-wallet spend.
    pub fn total_spent(&self) -> u64 {
        self.total_spent
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
    /// order, without any per-sweep allocation. Returns the total paid;
    /// stops early when the escrow runs dry.
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

    /// Recycles escrow back into circulation (the paper's Sec. VI tax:
    /// "whenever the system has collected N units of credits, it
    /// returns a unit to each peer"): pays one credit to every account
    /// in pick order, sweep after sweep, while the escrow beyond
    /// `reserve` covers the whole population. `reserve` is escrow that
    /// backs open trades and must stay put. Returns the total paid.
    pub fn recycle_escrow(&mut self, reserve: u64) -> u64 {
        let live = self.accounts() as u64;
        let mut paid = 0;
        // Each sweep pays exactly `live` credits, so the loop ends.
        while live > 0 && self.escrow >= reserve.saturating_add(live) {
            paid += self.pay_each_from_escrow(1);
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
    /// and its position table plus the wallet table (capacities, the
    /// allocator's view). The optional wealth tracker is excluded — its
    /// rank array is sized by the maximum wealth value, not the wallet
    /// count; see [`Ledger::tracker_heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes() + self.wallets.capacity() * std::mem::size_of::<Wallet>()
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
            .zip(&self.wallets)
            .map(|(raw, w)| (NodeId::from_raw(raw), w.balance))
            .filter(|&(id, _)| self.has_account(id))
    }

    /// The balances as a vector in ascending peer order (for Gini etc.).
    pub fn balances_vec(&self) -> Vec<u64> {
        self.iter().map(|(_, b)| b).collect()
    }

    /// Current balances sorted ascending (the y-values of the paper's
    /// Figs. 5–6).
    pub fn balances_sorted(&self) -> Vec<u64> {
        let mut v = self.balances_vec();
        v.sort_unstable();
        v
    }

    /// Per-account credit spending *rates* over `[0, now]`, sorted
    /// ascending — the series plotted in the paper's Fig. 1.
    pub fn spending_rates_sorted(&self, now: SimTime) -> Vec<f64> {
        let elapsed = now.as_secs_f64().max(1e-9);
        let mut rates: Vec<f64> = self
            .ids()
            .iter()
            .map(|&id| self.spent(id) as f64 / elapsed)
            .collect();
        rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        rates
    }

    /// `(peer, balance)` pairs in *pick* order, not ascending-ID order.
    /// Checkpoints capture this order so a restored ledger reproduces
    /// order-sensitive trajectories (escrow sweeps, seller sampling) bit
    /// for bit.
    pub fn slot_entries(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.arena
            .ids()
            .iter()
            .map(|&id| (id, self.wallets[id.index()].balance))
    }

    /// Rebuilds a ledger from checkpointed parts: `entries` must be in
    /// pick order (as produced by [`Ledger::slot_entries`]) so the order
    /// — and everything whose iteration depends on it — comes back
    /// identical. Every account starts with nothing spent; replay the
    /// checkpointed spend through [`Ledger::record_spend`]. Wealth
    /// tracking starts disabled; call [`Ledger::enable_wealth_tracking`]
    /// afterwards if the original had it (the accumulator is a pure
    /// function of the balance multiset).
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
    /// `Σ balances + escrow == minted − burned`. O(1). False when more
    /// was burned than minted.
    pub fn conserved(&self) -> bool {
        let held = self.total.checked_add(self.escrow);
        held.is_some() && self.minted.checked_sub(self.burned) == held
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
    fn spend_is_recorded_per_wallet_and_burned_with_it() {
        let mut l = Ledger::new();
        for i in 0..3 {
            l.mint(id(i), 10);
        }
        l.record_spend(id(0), 4);
        l.record_spend(id(2), 1);
        l.record_spend(id(0), 2);
        l.record_spend(id(9), 5); // no account: ignored
        assert_eq!((l.spent(id(0)), l.spent(id(1)), l.spent(id(2))), (6, 0, 1));
        assert_eq!(l.total_spent(), 7);
        let rates = l.spending_rates_sorted(SimTime::from_secs(2));
        assert_eq!(rates, vec![0.0, 0.5, 3.0]);
        assert_eq!(l.burn(id(0)), 10);
        assert_eq!(l.spent(id(0)), 0);
        assert_eq!(l.total_spent(), 1, "a departing peer takes its spend");
        // A re-opened id starts with nothing spent.
        l.mint(id(0), 1);
        assert_eq!(l.spent(id(0)), 0);
    }

    #[test]
    fn recycle_escrow_keeps_the_reserve() {
        let mut l = Ledger::new();
        for i in 0..4 {
            l.mint(id(i), 10);
        }
        l.withhold(id(0), 10);
        // 10 in escrow with 3 reserved covers one sweep of 4; the 6
        // left do not cover another (6 < 3 + 4).
        assert_eq!(l.recycle_escrow(3), 4);
        assert_eq!(l.escrow(), 6);
        assert_eq!(l.recycle_escrow(0), 4);
        assert_eq!(l.escrow(), 2);
        assert_eq!(l.recycle_escrow(0), 0, "escrow below one sweep");
        assert_eq!(l.recycle_escrow(u64::MAX), 0);
        assert_eq!(l.balances_sorted(), vec![2, 12, 12, 12]);
        assert!(l.conserved());
    }

    #[test]
    fn conserved_is_false_when_more_was_burned_than_minted() {
        let l = Ledger::restore(&[], 0, 3, 5);
        assert!(!l.conserved());
        let l = Ledger::restore(&[(id(0), u64::MAX)], 1, u64::MAX, 0);
        assert!(!l.conserved(), "held credits overflow");
    }

    #[test]
    fn restore_round_trips_slot_layout() {
        let mut l = Ledger::new();
        for i in 0..5 {
            l.mint(id(i), 10 * (i + 1));
        }
        l.burn(id(1)); // perturb pick order via swap-remove
        l.withhold(id(0), 3);
        l.record_spend(id(4), 2);
        let entries: Vec<(NodeId, u64)> = l.slot_entries().collect();
        let mut r = Ledger::restore(&entries, l.escrow(), l.minted(), l.burned());
        assert_ne!(r, l, "spend is ledger state");
        for &(peer, _) in &entries {
            r.record_spend(peer, l.spent(peer));
        }
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
        assert_eq!(l.wealth_gini().ok(), Some(reference));
        // Total stays consistent through all of the above.
        assert!(l.conserved());
    }
}
