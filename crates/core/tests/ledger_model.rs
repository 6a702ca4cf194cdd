//! Equivalence of `Ledger`'s raw-id wallet table with the slot layout
//! it replaced, which is kept below as a test-only reference: balances
//! in a `Vec<(NodeId, u64)>` in slot order and each account's spend
//! beside it, both swap-removed on burn, plus mint/burn/escrow counters.
//! Under random sequences of mints, burns, transfers, escrow moves,
//! recorded spends and escrow recycling with a reserve — on live,
//! departed and never-seen ids, with overdrafts — both must agree on
//! every result, every balance and spend, the pick order, the counters,
//! the reports (spend total, sorted spending rates, sorted balances,
//! wealth Gini), the online Gini and a checkpoint round trip.

use proptest::prelude::*;
use scrip_core::des::SimTime;
use scrip_core::econ::gini_u64;
use scrip_core::topology::NodeId;
use scrip_core::Ledger;

/// The instant the spending-rate report is read at.
const NOW: SimTime = SimTime::from_micros(7_500_000);

/// The slot-layout ledger.
mod reference {
    use scrip_core::topology::NodeId;

    #[derive(Default)]
    pub struct SlotLedger {
        /// `(peer, balance)` in slot order.
        pub accounts: Vec<(NodeId, u64)>,
        /// Credits spent by each account, in the same slot order.
        pub spent: Vec<u64>,
        pub minted: u64,
        pub burned: u64,
        pub escrow: u64,
    }

    impl SlotLedger {
        fn slot(&self, peer: NodeId) -> Option<usize> {
            self.accounts.iter().position(|&(id, _)| id == peer)
        }

        pub fn has_account(&self, peer: NodeId) -> bool {
            self.slot(peer).is_some()
        }

        pub fn balance(&self, peer: NodeId) -> u64 {
            self.slot(peer).map_or(0, |s| self.accounts[s].1)
        }

        pub fn total(&self) -> u64 {
            self.accounts.iter().map(|&(_, b)| b).sum()
        }

        pub fn spent_of(&self, peer: NodeId) -> u64 {
            self.slot(peer).map_or(0, |s| self.spent[s])
        }

        pub fn total_spent(&self) -> u64 {
            self.spent.iter().sum()
        }

        pub fn record_spend(&mut self, peer: NodeId, amount: u64) {
            if let Some(s) = self.slot(peer) {
                self.spent[s] += amount;
            }
        }

        pub fn mint(&mut self, peer: NodeId, amount: u64) {
            self.minted += amount;
            match self.slot(peer) {
                Some(s) => self.accounts[s].1 += amount,
                None => {
                    self.accounts.push((peer, amount));
                    self.spent.push(0);
                }
            }
        }

        pub fn burn(&mut self, peer: NodeId) -> u64 {
            let Some(s) = self.slot(peer) else {
                return 0;
            };
            let (_, amount) = self.accounts.swap_remove(s);
            self.spent.swap_remove(s);
            self.burned += amount;
            amount
        }

        pub fn transfer(&mut self, from: NodeId, to: NodeId, amount: u64) -> Result<(), ()> {
            let to = self.slot(to).ok_or(())?;
            let from = self.slot(from).ok_or(())?;
            if self.accounts[from].1 < amount {
                return Err(());
            }
            self.accounts[from].1 -= amount;
            self.accounts[to].1 += amount;
            Ok(())
        }

        pub fn withhold(&mut self, peer: NodeId, amount: u64) -> u64 {
            let Some(s) = self.slot(peer) else {
                return 0;
            };
            let take = amount.min(self.accounts[s].1);
            self.accounts[s].1 -= take;
            self.escrow += take;
            take
        }

        pub fn pay_from_escrow(&mut self, peer: NodeId, amount: u64) -> u64 {
            let Some(s) = self.slot(peer) else {
                return 0;
            };
            let pay = amount.min(self.escrow);
            self.escrow -= pay;
            self.accounts[s].1 += pay;
            pay
        }

        pub fn pay_each_from_escrow(&mut self, amount: u64) -> u64 {
            let mut paid = 0;
            for account in &mut self.accounts {
                if self.escrow == 0 {
                    break;
                }
                let pay = amount.min(self.escrow);
                self.escrow -= pay;
                account.1 += pay;
                paid += pay;
            }
            paid
        }

        /// One credit to every account per sweep, while the escrow
        /// beyond `reserve` covers them all.
        pub fn recycle_escrow(&mut self, reserve: u64) -> u64 {
            let live = self.accounts.len() as u64;
            let mut paid = 0;
            while live > 0 && self.escrow >= reserve + live {
                paid += self.pay_each_from_escrow(1);
            }
            paid
        }

        /// The balances in ascending peer order.
        pub fn balances_ascending(&self) -> Vec<u64> {
            let mut pairs = self.accounts.clone();
            pairs.sort_unstable();
            pairs.into_iter().map(|(_, b)| b).collect()
        }
    }
}

/// Checks every observable of `ledger` against `model`.
fn assert_equivalent(
    ledger: &Ledger,
    model: &reference::SlotLedger,
    watermark: u64,
    tracking: bool,
) -> Result<(), TestCaseError> {
    let ids: Vec<NodeId> = model.accounts.iter().map(|&(id, _)| id).collect();
    prop_assert_eq!(ledger.ids(), &ids[..]);
    let entries: Vec<(NodeId, u64)> = ledger.slot_entries().collect();
    prop_assert_eq!(&entries, &model.accounts);
    // Every id up to two past the highest ever used, and the largest id.
    for raw in (0..watermark + 2).chain([NodeId::MAX_RAW]) {
        let id = NodeId::from_raw(raw);
        prop_assert_eq!(ledger.balance(id), model.balance(id), "balance of {}", id);
        prop_assert_eq!(
            ledger.has_account(id),
            model.has_account(id),
            "account {}",
            id
        );
        prop_assert_eq!(ledger.spent(id), model.spent_of(id), "spent of {}", id);
    }
    prop_assert_eq!(ledger.total_spent(), model.total_spent());
    let elapsed = NOW.as_secs_f64();
    let mut rates: Vec<f64> = model.spent.iter().map(|&s| s as f64 / elapsed).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    prop_assert_eq!(ledger.spending_rates_sorted(NOW), rates);
    prop_assert_eq!(ledger.accounts(), model.accounts.len());
    prop_assert_eq!(ledger.total(), model.total());
    prop_assert_eq!(ledger.escrow(), model.escrow);
    prop_assert_eq!(ledger.minted(), model.minted);
    prop_assert_eq!(ledger.burned(), model.burned);
    prop_assert_eq!(
        ledger.conserved(),
        model.total() + model.escrow == model.minted - model.burned
    );
    let ascending = model.balances_ascending();
    prop_assert_eq!(ledger.balances_vec(), ascending.clone());
    let mut sorted = ascending.clone();
    sorted.sort_unstable();
    prop_assert_eq!(ledger.balances_sorted(), sorted);
    let oracle = gini_u64(&ascending).ok();
    prop_assert_eq!(
        ledger.wealth_gini().ok().map(f64::to_bits),
        oracle.map(f64::to_bits)
    );
    if tracking {
        // Bit for bit, not within a tolerance.
        prop_assert_eq!(
            ledger.tracked_gini().map(f64::to_bits),
            oracle.map(f64::to_bits)
        );
    } else {
        prop_assert_eq!(ledger.tracked_gini(), None);
    }
    let mut restored = Ledger::restore(&entries, ledger.escrow(), ledger.minted(), ledger.burned());
    for &(id, _) in &entries {
        restored.record_spend(id, ledger.spent(id));
    }
    prop_assert!(restored == *ledger, "restore(slot_entries) differs");
    prop_assert_eq!(restored.slot_entries().collect::<Vec<_>>(), entries);
    restored.enable_wealth_tracking();
    prop_assert_eq!(
        restored.tracked_gini().map(f64::to_bits),
        oracle.map(f64::to_bits)
    );
    Ok(())
}

proptest! {
    /// Op codes: 0 mints a fresh id, 1 mints an existing account,
    /// 2 mints an arbitrary id (re-minting a burned one, or opening one
    /// past a gap), 3 burns a live account, 4 burns an arbitrary id,
    /// 5 transfers, 6 withholds, 7 pays from escrow, 8 pays every
    /// account from escrow, 9 turns on wealth tracking, 10 records a
    /// spend, 11 recycles the escrow above a reserve. `a` and `b` pick
    /// ids: even values a live account, odd values any id up to two past
    /// the highest used.
    #[test]
    fn ledger_matches_the_slot_model(
        initial in 0u64..12,
        ops in prop::collection::vec((0u8..12, 0u64..64, 0u64..64, 0u64..40), 1..120),
    ) {
        let mut ledger = Ledger::new();
        let mut model = reference::SlotLedger::default();
        for raw in 0..initial {
            ledger.mint(NodeId::from_raw(raw), raw % 5);
            model.mint(NodeId::from_raw(raw), raw % 5);
        }
        let mut watermark = initial;
        let mut tracking = false;
        for &(op, a, b, amount) in &ops {
            let pick = |k: u64, model: &reference::SlotLedger| {
                let live = &model.accounts;
                if k % 2 == 0 && !live.is_empty() {
                    live[(k / 2) as usize % live.len()].0
                } else {
                    NodeId::from_raw(k % (watermark + 2))
                }
            };
            let (x, y) = (pick(a, &model), pick(b, &model));
            match op {
                0..=2 => {
                    let id = match op {
                        0 => NodeId::from_raw(watermark),
                        1 => x,
                        _ => NodeId::from_raw(a % (watermark + 2)),
                    };
                    ledger.mint(id, amount);
                    model.mint(id, amount);
                    watermark = watermark.max(id.raw() + 1);
                }
                3 | 4 => {
                    let id = if op == 3 { x } else { NodeId::from_raw(a % (watermark + 2)) };
                    prop_assert_eq!(ledger.burn(id), model.burn(id));
                }
                5 => {
                    let got = ledger.transfer(x, y, amount);
                    let want = model.transfer(x, y, amount);
                    prop_assert_eq!(got.is_ok(), want.is_ok(), "transfer {} -> {} of {}", x, y, amount);
                }
                6 => prop_assert_eq!(ledger.withhold(x, amount), model.withhold(x, amount)),
                7 => prop_assert_eq!(
                    ledger.pay_from_escrow(x, amount),
                    model.pay_from_escrow(x, amount)
                ),
                8 => {
                    let each = amount % 4;
                    prop_assert_eq!(
                        ledger.pay_each_from_escrow(each),
                        model.pay_each_from_escrow(each)
                    );
                }
                9 => {
                    ledger.enable_wealth_tracking();
                    tracking = true;
                }
                10 => {
                    ledger.record_spend(x, amount);
                    model.record_spend(x, amount);
                }
                _ => {
                    let reserve = amount % 8;
                    prop_assert_eq!(ledger.recycle_escrow(reserve), model.recycle_escrow(reserve));
                }
            }
            assert_equivalent(&ledger, &model, watermark, tracking)?;
        }
    }
}
