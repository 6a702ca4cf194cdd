//! Market → queueing-network analysis: the paper's theory applied to a
//! concrete market instance.
//!
//! Given a market (overlay + spending rates + credit supply), this
//! module builds the transfer matrix, solves the equilibrium flow
//! (Lemma 1 / Eq. 1), computes normalized utilizations (Eq. 2), the
//! condensation threshold (Eq. 4, Theorems 2–3), and the exact
//! closed-Jackson wealth distribution (Eq. 3 via Buzen's algorithm) —
//! everything needed to *predict* what the simulators then confirm.

use std::collections::BTreeMap;

use scrip_econ::gini_from_pmf;
use scrip_queueing::closed::{normalized_utilizations, ClosedJackson};
use scrip_queueing::condensation::{classify, empirical_threshold, Regime, ThresholdEstimate};
use scrip_queueing::stationary::{stationary_flows, SolveMethod};
use scrip_topology::{Graph, NodeId};

use crate::error::CoreError;
use crate::market::CreditMarket;
use crate::model::uniform_routing;

/// Tolerance for grouping peers into the maximal-utilization atom when
/// estimating the condensation threshold.
pub const ATOM_EPSILON: f64 = 1e-6;

/// The queueing-theoretic analysis of one market instance.
#[derive(Clone, Debug, PartialEq)]
pub struct MarketAnalysis {
    /// Peer ordering used by all vectors below.
    pub peers: Vec<NodeId>,
    /// Stationary income flows `λ` (normalized to sum 1).
    pub flows: Vec<f64>,
    /// Normalized utilizations `u_i` (paper Eq. 2).
    pub utilizations: Vec<f64>,
    /// Condensation-threshold estimate (paper Eq. 4).
    pub threshold: ThresholdEstimate,
    /// The regime verdict of Theorems 2–3 at this market's average
    /// wealth.
    pub regime: Regime,
    /// Average wealth `c = M/N`.
    pub average_wealth: f64,
    /// Exact expected wealth per peer at equilibrium (Buzen).
    pub expected_wealth: Vec<f64>,
}

impl MarketAnalysis {
    /// Analyzes a market described by its overlay (spending uniformly
    /// over each peer's neighbors), per-peer spending rates, and total
    /// credits.
    ///
    /// # Errors
    /// Returns [`CoreError`] if the overlay is empty/reducible or rates
    /// are invalid.
    pub fn compute(
        graph: &Graph,
        service_rates: &BTreeMap<NodeId, f64>,
        total_credits: u64,
    ) -> Result<Self, CoreError> {
        let (peers, matrix) = uniform_routing(graph)?;
        Self::compute_with_matrix(peers, &matrix, service_rates, total_credits)
    }

    /// As [`MarketAnalysis::compute`] but with an explicit routing
    /// matrix (e.g. the complete-mixing matrix of the symmetric case).
    ///
    /// # Errors
    /// Returns [`CoreError`] if the matrix is reducible or rates are
    /// invalid.
    pub fn compute_with_matrix(
        peers: Vec<NodeId>,
        matrix: &scrip_queueing::TransferMatrix,
        service_rates: &BTreeMap<NodeId, f64>,
        total_credits: u64,
    ) -> Result<Self, CoreError> {
        let flows = stationary_flows(matrix, SolveMethod::Auto)?;
        let mu: Vec<f64> = peers
            .iter()
            .map(|id| service_rates.get(id).copied().unwrap_or(1.0))
            .collect();
        let utilizations = normalized_utilizations(&flows, &mu)?;
        let threshold = empirical_threshold(&utilizations, ATOM_EPSILON)?;
        let n = peers.len();
        let average_wealth = total_credits as f64 / n as f64;
        let regime = classify(average_wealth, &threshold.threshold);
        let network = ClosedJackson::new(&flows, &mu)?;
        let expected_wealth = network.expected_lengths(total_credits as usize);
        Ok(MarketAnalysis {
            peers,
            flows,
            utilizations,
            threshold,
            regime,
            average_wealth,
            expected_wealth,
        })
    }

    /// The Gini index of the *population wealth distribution* implied by
    /// the product-form equilibrium: the equally weighted mixture of all
    /// peers' exact marginal PMFs. This is the analytic counterpart of
    /// the simulated snapshot Gini.
    ///
    /// Cost is `O(N·M)`; fine for the paper's scales (`N ≤ 1000`,
    /// `M ≤ 10^5`).
    ///
    /// # Errors
    /// Returns [`CoreError::Econ`] if the mixture PMF is degenerate.
    pub fn population_gini(&self, total_credits: u64) -> Result<f64, CoreError> {
        let network = ClosedJackson::from_utilizations(&self.utilizations)?;
        let m = total_credits as usize;
        let gc = network.convolution(m);
        let n = self.peers.len();
        let mut mixture = vec![0.0f64; m + 1];
        for i in 0..n {
            let pmf = network.marginal_pmf(i, m, &gc);
            for (b, p) in pmf.into_iter().enumerate() {
                mixture[b] += p / n as f64;
            }
        }
        Ok(gini_from_pmf(&mixture)?)
    }
}

/// Analyzes a [`CreditMarket`] instance: routing follows the market's
/// utilization profile (complete mixing for the symmetric cases,
/// neighbor routing for the asymmetric case), with the market's
/// spending rates and credit supply.
///
/// # Errors
/// Returns [`CoreError`] if the market's overlay is reducible (e.g.
/// disconnected after churn).
pub fn analyze_market(market: &CreditMarket) -> Result<MarketAnalysis, CoreError> {
    let service_rates: BTreeMap<NodeId, f64> = market
        .ledger()
        .ids()
        .iter()
        .map(|&id| (id, market.mu()[id.index()]))
        .collect();
    if market.config().profile.complete_mixing() {
        let peers: Vec<NodeId> = market.graph().node_ids().collect();
        let matrix = crate::model::complete_mixing_routing(peers.len())?;
        MarketAnalysis::compute_with_matrix(peers, &matrix, &service_rates, market.ledger().total())
    } else {
        MarketAnalysis::compute(market.graph(), &service_rates, market.ledger().total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{run_market, MarketConfig, TopologyKind};
    use crate::model::{spending_rates, UtilizationProfile};
    use scrip_des::{SimRng, SimTime};
    use scrip_queueing::condensation::Threshold;
    use scrip_topology::generators::{self, ScaleFreeConfig};

    #[test]
    fn symmetric_market_is_sustainable_at_any_wealth() {
        let mut rng = SimRng::seed_from_u64(1);
        let g = generators::scale_free(&ScaleFreeConfig::new(60).expect("cfg"), &mut rng)
            .expect("graph");
        let mu = spending_rates(&g, UtilizationProfile::Symmetric, 1.0, &mut rng).expect("rates");
        let peers: Vec<NodeId> = g.node_ids().collect();
        let matrix = crate::model::complete_mixing_routing(peers.len()).expect("matrix");
        let analysis = MarketAnalysis::compute_with_matrix(peers, &matrix, &mu, 60 * 10_000)
            .expect("analyzes");
        assert_eq!(analysis.threshold.threshold, Threshold::Divergent);
        assert_eq!(analysis.regime, Regime::Sustainable);
        // Expected wealth ≈ equal everywhere.
        let mean = analysis.average_wealth;
        for &w in &analysis.expected_wealth {
            assert!((w - mean).abs() / mean < 0.01, "wealth {w} vs mean {mean}");
        }
    }

    #[test]
    fn asymmetric_market_condenses_above_threshold() {
        let mut rng = SimRng::seed_from_u64(2);
        let g = generators::scale_free(&ScaleFreeConfig::new(60).expect("cfg"), &mut rng)
            .expect("graph");
        let mu = spending_rates(&g, UtilizationProfile::Asymmetric, 1.0, &mut rng).expect("rates");
        // Plenty of credits: condensing.
        let rich = MarketAnalysis::compute(&g, &mu, 60 * 1_000).expect("analyzes");
        let t = rich
            .threshold
            .threshold
            .value()
            .expect("finite threshold for skewed utilizations");
        assert!(t > 0.0);
        assert_eq!(rich.regime, Regime::Condensing);
        // Hub peers hold most of the expected wealth.
        let max = rich.expected_wealth.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max > 20.0 * rich.average_wealth,
            "condensate holds {max} vs average {}",
            rich.average_wealth
        );
    }

    #[test]
    fn expected_wealth_sums_to_supply() {
        let mut rng = SimRng::seed_from_u64(3);
        let g = generators::scale_free(&ScaleFreeConfig::new(40).expect("cfg"), &mut rng)
            .expect("graph");
        let mu = spending_rates(&g, UtilizationProfile::Asymmetric, 1.0, &mut rng).expect("rates");
        let m = 40 * 25u64;
        let analysis = MarketAnalysis::compute(&g, &mu, m).expect("analyzes");
        let total: f64 = analysis.expected_wealth.iter().sum();
        assert!((total - m as f64).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn population_gini_tracks_condensation() {
        let mut rng = SimRng::seed_from_u64(4);
        let g = generators::scale_free(&ScaleFreeConfig::new(50).expect("cfg"), &mut rng)
            .expect("graph");
        let sym_mu =
            spending_rates(&g, UtilizationProfile::Symmetric, 1.0, &mut rng).expect("rates");
        let asym_mu =
            spending_rates(&g, UtilizationProfile::Asymmetric, 1.0, &mut rng).expect("rates");
        let m = 50 * 40u64;
        let peers: Vec<NodeId> = g.node_ids().collect();
        let mixing = crate::model::complete_mixing_routing(peers.len()).expect("matrix");
        let sym = MarketAnalysis::compute_with_matrix(peers, &mixing, &sym_mu, m).expect("ok");
        let asym = MarketAnalysis::compute(&g, &asym_mu, m).expect("ok");
        let g_sym = sym.population_gini(m).expect("gini");
        let g_asym = asym.population_gini(m).expect("gini");
        assert!(
            g_asym > g_sym + 0.1,
            "asymmetric {g_asym} vs symmetric {g_sym}"
        );
    }

    #[test]
    fn analyze_market_end_to_end() {
        let market = run_market(
            MarketConfig::new(30, 20).topology(TopologyKind::Complete),
            5,
            SimTime::from_secs(200),
        )
        .expect("runs");
        let analysis = analyze_market(&market).expect("analyzes");
        assert_eq!(analysis.peers.len(), 30);
        assert!((analysis.average_wealth - 20.0).abs() < 1e-9);
        // Complete graph with flat rates: symmetric ⇒ divergent threshold.
        assert_eq!(analysis.threshold.threshold, Threshold::Divergent);
    }
}
