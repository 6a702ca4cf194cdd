//! Property-based tests for the inequality metrics.

use proptest::prelude::*;
use scrip_econ::inequality::top_share;
use scrip_econ::lorenz::LorenzCurve;
use scrip_econ::{gini, gini_u64, IncrementalGini, WealthSnapshot};

fn wealth_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1e6, 2..200)
}

/// One random wallet operation for the incremental-Gini equivalence
/// suite: mint into a wallet, burn a wallet, or transfer between two.
#[derive(Clone, Copy, Debug)]
enum WalletOp {
    /// `(wallet index hint, amount)` — creates the wallet if the hint
    /// lands on a fresh index.
    Mint(usize, u64),
    /// Wallet index hint to burn.
    Burn(usize),
    /// `(from hint, to hint, amount)` — clamped to the payer's balance.
    Transfer(usize, usize, u64),
}

fn op_strategy() -> impl Strategy<Value = WalletOp> {
    (0u8..3, 0usize..40, 0usize..40, 0u64..5_000).prop_map(|(kind, a, b, amount)| match kind {
        0 => WalletOp::Mint(a, amount),
        1 => WalletOp::Burn(a),
        _ => WalletOp::Transfer(a, b, amount),
    })
}

proptest! {
    /// Gini is always within [0, 1).
    #[test]
    fn gini_bounded(v in wealth_vec()) {
        let g = gini(&v).expect("valid input");
        prop_assert!((0.0..1.0).contains(&g), "gini {g}");
    }

    /// Gini is scale-invariant.
    #[test]
    fn gini_scale_invariant(v in wealth_vec(), k in 0.001f64..1000.0) {
        let g1 = gini(&v).expect("valid");
        let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
        let g2 = gini(&scaled).expect("valid");
        prop_assert!((g1 - g2).abs() < 1e-9, "{g1} vs {g2}");
    }

    /// Gini is invariant under population replication.
    #[test]
    fn gini_replication_invariant(v in prop::collection::vec(0.0f64..1e6, 2..50)) {
        let g1 = gini(&v).expect("valid");
        let mut doubled = v.clone();
        doubled.extend_from_slice(&v);
        let g2 = gini(&doubled).expect("valid");
        prop_assert!((g1 - g2).abs() < 1e-9, "{g1} vs {g2}");
    }

    /// A uniform transfer from each peer to the mean (partial
    /// equalization) never increases the Gini (Pigou–Dalton flavour).
    #[test]
    fn gini_decreases_under_equalization(v in wealth_vec(), alpha in 0.0f64..1.0) {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let squeezed: Vec<f64> = v.iter().map(|x| x + alpha * (mean - x)).collect();
        let g1 = gini(&v).expect("valid");
        let g2 = gini(&squeezed).expect("valid");
        prop_assert!(g2 <= g1 + 1e-9, "equalized {g2} > original {g1}");
    }

    /// Lorenz curves are monotone, convex, within the unit square, and
    /// their Gini matches the direct formula.
    #[test]
    fn lorenz_is_well_formed(v in wealth_vec()) {
        let c = LorenzCurve::from_samples(&v).expect("valid");
        let pts = c.points();
        prop_assert_eq!(pts.first().copied(), Some((0.0, 0.0)));
        let (lx, ly) = pts.last().copied().expect("non-empty");
        prop_assert!((lx - 1.0).abs() < 1e-12 && (ly - 1.0).abs() < 1e-12);
        for w in pts.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1 - 1e-12);
        }
        let direct = gini(&v).expect("valid");
        prop_assert!((c.gini() - direct).abs() < 1e-9);
    }

    /// All inequality indices agree that constants are perfectly equal:
    /// no Gini, and the top tenth of peers holds its population share.
    #[test]
    fn indices_vanish_on_equal_wealth(x in 0.1f64..1e6, n in 2usize..100) {
        let v = vec![x; n];
        prop_assert!(gini(&v).expect("valid") < 1e-12);
        let top = (n as f64 * 0.1).ceil() / n as f64;
        prop_assert!((top_share(&v, 0.1).expect("valid") - top).abs() < 1e-12);
    }

    /// The incremental Gini stays equivalent to the
    /// sort-based `gini_u64` oracle under arbitrary interleaved
    /// mint/burn/transfer sequences — the exact mutation mix the ledger
    /// drives it with. Tolerance 1e-12; in practice the two are
    /// bit-identical at these magnitudes.
    #[test]
    fn incremental_gini_matches_oracle_under_wallet_ops(
        initial in prop::collection::vec(0u64..2_000, 2..30),
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let mut acc = IncrementalGini::new();
        let mut wallets: Vec<u64> = initial.clone();
        for &w in &wallets {
            acc.insert(w);
        }
        for op in ops {
            match op {
                WalletOp::Mint(hint, amount) => {
                    if hint < wallets.len() {
                        let old = wallets[hint];
                        wallets[hint] += amount;
                        acc.update(old, old + amount);
                    } else {
                        wallets.push(amount);
                        acc.insert(amount);
                    }
                }
                WalletOp::Burn(hint) => {
                    if !wallets.is_empty() {
                        let victim = wallets.swap_remove(hint % wallets.len());
                        acc.remove(victim);
                    }
                }
                WalletOp::Transfer(from, to, amount) => {
                    if wallets.len() >= 2 {
                        let from = from % wallets.len();
                        let mut to = to % wallets.len();
                        if from == to {
                            to = (to + 1) % wallets.len();
                        }
                        let amount = amount.min(wallets[from]);
                        let (old_from, old_to) = (wallets[from], wallets[to]);
                        wallets[from] -= amount;
                        wallets[to] += amount;
                        acc.update(old_from, old_from - amount);
                        acc.update(old_to, old_to + amount);
                    }
                }
            }
            prop_assert_eq!(acc.len(), wallets.len());
            prop_assert_eq!(acc.total(), wallets.iter().sum::<u64>());
            match (acc.gini(), gini_u64(&wallets)) {
                (Some(inc), Ok(oracle)) => prop_assert!(
                    (inc - oracle).abs() < 1e-12,
                    "incremental {} vs oracle {} over {:?}", inc, oracle, wallets
                ),
                (None, Err(_)) => {} // both agree the set is empty
                (inc, oracle) => prop_assert!(
                    false,
                    "presence mismatch: incremental {:?}, oracle {:?}", inc, oracle.is_ok()
                ),
            }
        }
    }

    /// Snapshot totals are consistent.
    #[test]
    fn snapshot_consistency(v in wealth_vec()) {
        let s = WealthSnapshot::from_values(&v).expect("valid");
        prop_assert_eq!(s.n, v.len());
        prop_assert!((s.total - v.iter().sum::<f64>()).abs() < 1e-6);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!((0.0..=1.0).contains(&s.top_decile_share));
    }
}
