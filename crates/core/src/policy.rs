//! Condensation counter-measures: taxation (paper Sec. VI-C) and dynamic
//! spending rates (Sec. VI-D).

use scrip_des::SimRng;
use scrip_topology::NodeId;

use crate::credits::Ledger;
use crate::error::CoreError;

/// How a peer's maximum credit spending rate responds to its wealth.
///
/// The paper's Sec. VI-D rule: a peer spends at its base rate `μ_s`
/// until its wealth exceeds a threshold `m`, beyond which it spends
/// proportionally faster (`μ = μ_s · B/m`), draining excess wealth and
/// mitigating condensation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpendingPolicy {
    /// Spend at the base rate regardless of wealth (the paper's default).
    #[default]
    Fixed,
    /// Spend faster when wealth exceeds `threshold`:
    /// `μ = μ_s · max(1, B/threshold)`.
    Dynamic {
        /// Wealth threshold `m` above which spending accelerates.
        threshold: u64,
    },
}

impl SpendingPolicy {
    /// The effective maximum spending rate for a peer with base rate
    /// `base` and current wealth `wealth`.
    pub fn effective_rate(&self, base: f64, wealth: u64) -> f64 {
        match *self {
            SpendingPolicy::Fixed => base,
            SpendingPolicy::Dynamic { threshold } => {
                if threshold == 0 {
                    base
                } else if wealth > threshold {
                    base * wealth as f64 / threshold as f64
                } else {
                    base
                }
            }
        }
    }
}

/// Income-tax configuration (paper Sec. VI-C).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaxConfig {
    /// Fraction of income withheld from wealthy peers (0.1 and 0.2 in
    /// the paper).
    pub rate: f64,
    /// Wealth threshold above which income is taxed (50 and 80 in the
    /// paper, against an average wealth of 100).
    pub threshold: u64,
}

impl TaxConfig {
    /// Creates a validated tax configuration.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] unless `0 < rate <= 1`.
    pub fn new(rate: f64, threshold: u64) -> Result<Self, CoreError> {
        if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
            return Err(CoreError::Config(format!("tax rate {rate} outside (0, 1]")));
        }
        Ok(TaxConfig { rate, threshold })
    }
}

/// Running taxation state: assessment plus collection counters.
///
/// The paper's mechanism: "For a peer with a wealth above a given tax
/// threshold, the system collects a fixed proportion of its income.
/// Whenever the system has collected N units of credits, it returns a
/// unit to each peer." Credits sit in the ledger's escrow between
/// collection and redistribution.
///
/// Because credits are indivisible and incomes are small (often 1
/// credit), the fractional assessment `rate × income` is realised by
/// probabilistic rounding, which collects the exact expected amount.
#[derive(Clone, Debug, PartialEq)]
pub struct Taxation {
    config: TaxConfig,
    /// Total credits ever collected into escrow.
    pub collected: u64,
    /// Total credits ever redistributed from escrow.
    pub redistributed: u64,
}

impl Taxation {
    /// Creates taxation state from a validated config.
    pub fn new(config: TaxConfig) -> Self {
        Taxation {
            config,
            collected: 0,
            redistributed: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> TaxConfig {
        self.config
    }

    /// Assesses the tax due on `income` credits received by a peer whose
    /// wealth (including this income) is `wealth`. Uses probabilistic
    /// rounding so that the expected assessment equals
    /// `rate × income` exactly.
    pub fn assess(&self, income: u64, wealth: u64, rng: &mut SimRng) -> u64 {
        if wealth <= self.config.threshold || income == 0 {
            return 0;
        }
        let due = self.config.rate * income as f64;
        let floor = due.floor();
        let frac = due - floor;
        let mut tax = floor as u64;
        if rng.chance(frac) {
            tax += 1;
        }
        tax.min(income)
    }

    /// Taxes `seller`'s `income`: assesses it against the seller's
    /// wealth after the payment (one RNG draw when above the threshold)
    /// and withholds what is due into the ledger's escrow, where
    /// [`Ledger::recycle_escrow`] later returns it to every peer.
    pub fn levy(&mut self, ledger: &mut Ledger, seller: NodeId, income: u64, rng: &mut SimRng) {
        let due = self.assess(income, ledger.balance(seller), rng);
        if due > 0 {
            self.collected += ledger.withhold(seller, due);
        }
    }

    /// Records that `amount` credits were redistributed.
    pub fn record_redistribution(&mut self, amount: u64) {
        self.redistributed += amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_ignores_wealth() {
        let p = SpendingPolicy::Fixed;
        assert_eq!(p.effective_rate(2.0, 0), 2.0);
        assert_eq!(p.effective_rate(2.0, 1_000_000), 2.0);
    }

    #[test]
    fn dynamic_policy_scales_above_threshold() {
        let p = SpendingPolicy::Dynamic { threshold: 100 };
        assert_eq!(p.effective_rate(1.0, 50), 1.0);
        assert_eq!(p.effective_rate(1.0, 100), 1.0);
        assert_eq!(p.effective_rate(1.0, 300), 3.0);
        // Degenerate threshold keeps the base rate.
        let p0 = SpendingPolicy::Dynamic { threshold: 0 };
        assert_eq!(p0.effective_rate(1.0, 500), 1.0);
    }

    #[test]
    fn tax_config_validation() {
        assert!(TaxConfig::new(0.1, 50).is_ok());
        assert!(TaxConfig::new(1.0, 0).is_ok());
        assert!(TaxConfig::new(0.0, 50).is_err());
        assert!(TaxConfig::new(1.5, 50).is_err());
        assert!(TaxConfig::new(f64::NAN, 50).is_err());
    }

    #[test]
    fn assessment_respects_threshold() {
        let tax = Taxation::new(TaxConfig::new(0.5, 100).expect("valid"));
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(tax.assess(10, 100, &mut rng), 0, "at threshold: no tax");
        assert_eq!(tax.assess(0, 500, &mut rng), 0, "no income: no tax");
        let t = tax.assess(10, 101, &mut rng);
        assert_eq!(t, 5, "0.5 × 10 = 5 exactly");
    }

    #[test]
    fn probabilistic_rounding_is_unbiased() {
        let tax = Taxation::new(TaxConfig::new(0.1, 0).expect("valid"));
        let mut rng = SimRng::seed_from_u64(2);
        let trials = 100_000;
        let total: u64 = (0..trials).map(|_| tax.assess(1, 10, &mut rng)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 0.1).abs() < 0.01, "mean assessment {mean}");
    }

    #[test]
    fn assessment_never_exceeds_income() {
        let tax = Taxation::new(TaxConfig::new(1.0, 0).expect("valid"));
        let mut rng = SimRng::seed_from_u64(3);
        for income in 1..20u64 {
            assert!(tax.assess(income, 1_000, &mut rng) <= income);
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut tax = Taxation::new(TaxConfig::new(1.0, 10).expect("valid"));
        let mut ledger = Ledger::new();
        let (poor, rich) = (NodeId::from_raw(0), NodeId::from_raw(1));
        ledger.mint(poor, 10);
        ledger.mint(rich, 20);
        let mut rng = SimRng::seed_from_u64(4);
        tax.levy(&mut ledger, poor, 5, &mut rng);
        assert_eq!(tax.collected, 0, "at the threshold: no tax");
        tax.levy(&mut ledger, rich, 7, &mut rng);
        tax.levy(&mut ledger, rich, 3, &mut rng);
        tax.record_redistribution(5);
        assert_eq!(tax.collected, 10);
        assert_eq!(ledger.escrow(), 10);
        assert_eq!(ledger.balance(rich), 10);
        assert!(ledger.conserved());
        assert_eq!(tax.redistributed, 5);
        assert_eq!(tax.config().threshold, 10);
    }
}
