//! The market ↔ queueing-network mapping (paper Table I).
//!
//! | P2P market                              | Queueing network            |
//! |-----------------------------------------|-----------------------------|
//! | peer *i*                                | queue *i*                   |
//! | a unit credit                           | a job                       |
//! | credits held by peer *i* (`B_i`)        | jobs at queue *i*           |
//! | total credits `M`                       | total jobs `M`              |
//! | fraction of *i*'s purchases from *j*    | routing probability `p_ij`  |
//! | peer *i*'s credit spending rate `μ_i`   | service rate of queue *i*   |
//! | peer *i*'s income rate `λ_i`            | arrival rate at queue *i*   |
//!
//! This module builds the queueing-side objects (routing matrices,
//! service-rate vectors) from market-side state (overlay graphs, rate
//! profiles, availability weights).

use std::collections::BTreeMap;

use scrip_queueing::TransferMatrix;
use scrip_topology::{Graph, NodeId};

use crate::error::CoreError;

/// Which utilization regime the market is configured for (paper
/// Sec. VI: "We configure the credit earning and spending rates into two
/// cases").
///
/// * **Symmetric** — the paper's streaming-with-uniform-pricing case
///   (Sec. V-C case 1): all spending rates equal and credit transfer
///   probabilities equal over *all* other peers,
///   `p_ij = (1 − p_ii)/(N − 1)`, hence `λ` uniform and `u ≡ 1` exactly.
///   The corollary applies: `T = ∞`, no condensation.
/// * **NearSymmetric** — symmetric routing but spending rates jittered
///   by ±`spread`: `μ_i = base·(1 + ε_i)`, `ε_i ~ U(−spread, spread)`.
///   Utilizations spread mildly below 1, the threshold `T` becomes
///   finite, and condensation appears once `c > T` — the regime of a
///   real protocol whose availability-driven routing is only nominally
///   symmetric.
/// * **Asymmetric** — the elastic-content case (Sec. V-C case 2): flat
///   `μ_i = base` but spending routed uniformly over *overlay
///   neighbors*, so income flows are proportional to degree. On the
///   paper's scale-free overlays this yields a heavy-tailed utilization
///   spread and aggressive condensation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum UtilizationProfile {
    /// Exactly equal utilization at every peer (`u_i = 1`).
    Symmetric,
    /// Complete-mixing routing with rate jitter `±spread` (finite `T`).
    NearSymmetric {
        /// Relative half-width of the spending-rate jitter.
        spread: f64,
    },
    /// Degree-skewed utilization (heterogeneous `u`).
    #[default]
    Asymmetric,
}

impl UtilizationProfile {
    /// Whether spending is routed over all peers (complete mixing) as
    /// opposed to overlay neighbors.
    pub fn complete_mixing(&self) -> bool {
        !matches!(self, UtilizationProfile::Asymmetric)
    }
}

/// Uniform routing: each peer spends equally over its neighbors
/// (`p_ij = 1/d_i`). Peers without neighbors reserve their credits
/// (`p_ii = 1`). Returns the dense peer ordering alongside the matrix so
/// rows can be mapped back to [`NodeId`]s.
///
/// # Errors
/// Returns [`CoreError::Config`] for an empty graph.
pub fn uniform_routing(graph: &Graph) -> Result<(Vec<NodeId>, TransferMatrix), CoreError> {
    let ids: Vec<NodeId> = graph.node_ids().collect();
    if ids.is_empty() {
        return Err(CoreError::Config("empty overlay".into()));
    }
    let index = graph.dense_index();
    let weights: Vec<Vec<(usize, f64)>> = ids
        .iter()
        .map(|&id| {
            graph
                .neighbors(id)
                .map(|nbrs| nbrs.map(|nb| (index[&nb], 1.0)).collect())
                .unwrap_or_default()
        })
        .collect();
    let matrix = TransferMatrix::from_weighted_rows(ids.len(), &weights)?;
    Ok((ids, matrix))
}

/// Complete-mixing routing over `n` peers: `p_ij = 1/(n−1)` for `j ≠ i`
/// — the paper's Sec. V-C streaming case where "there is no difference
/// among neighbors of peer i".
///
/// # Errors
/// Returns [`CoreError::Config`] for `n < 2`.
pub fn complete_mixing_routing(n: usize) -> Result<TransferMatrix, CoreError> {
    if n < 2 {
        return Err(CoreError::Config(format!(
            "complete mixing needs n >= 2, got {n}"
        )));
    }
    let p = 1.0 / (n as f64 - 1.0);
    let mut data = vec![p; n * n];
    for i in 0..n {
        data[i * n + i] = 0.0;
    }
    Ok(TransferMatrix::from_flat(n, data)?)
}

/// Assigns per-peer base spending rates realizing a utilization profile
/// (see [`UtilizationProfile`]).
///
/// # Errors
/// Returns [`CoreError::Config`] for an empty graph, non-positive
/// `base_rate`, or a jitter spread outside `[0, 1)`.
pub fn spending_rates(
    graph: &Graph,
    profile: UtilizationProfile,
    base_rate: f64,
    rng: &mut scrip_des::SimRng,
) -> Result<BTreeMap<NodeId, f64>, CoreError> {
    if graph.node_count() == 0 {
        return Err(CoreError::Config("empty overlay".into()));
    }
    if !(base_rate.is_finite() && base_rate > 0.0) {
        return Err(CoreError::Config(format!(
            "base spending rate must be > 0, got {base_rate}"
        )));
    }
    match profile {
        UtilizationProfile::Symmetric | UtilizationProfile::Asymmetric => {
            Ok(graph.node_ids().map(|id| (id, base_rate)).collect())
        }
        UtilizationProfile::NearSymmetric { spread } => {
            if !(0.0..1.0).contains(&spread) {
                return Err(CoreError::Config(format!(
                    "rate jitter spread {spread} outside [0, 1)"
                )));
            }
            Ok(graph
                .node_ids()
                .map(|id| {
                    let eps = (rng.uniform_f64() * 2.0 - 1.0) * spread;
                    (id, base_rate * (1.0 + eps))
                })
                .collect())
        }
    }
}

/// The spending rate a joining peer receives under a profile.
pub fn joiner_spending_rate(
    profile: UtilizationProfile,
    base_rate: f64,
    rng: &mut scrip_des::SimRng,
) -> f64 {
    match profile {
        UtilizationProfile::Symmetric | UtilizationProfile::Asymmetric => base_rate,
        UtilizationProfile::NearSymmetric { spread } => {
            let eps = (rng.uniform_f64() * 2.0 - 1.0) * spread;
            base_rate * (1.0 + eps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrip_des::SimRng;
    use scrip_queueing::closed::normalized_utilizations;
    use scrip_queueing::stationary::{stationary_flows, SolveMethod};
    use scrip_topology::generators::{self, ScaleFreeConfig};

    #[test]
    fn uniform_routing_rows() {
        let g = generators::ring(4).expect("valid");
        let (ids, p) = uniform_routing(&g).expect("built");
        assert_eq!(ids.len(), 4);
        // Ring: each peer splits 50/50 over two neighbors.
        assert_eq!(p.get(0, 1), 0.5);
        assert_eq!(p.get(0, 3), 0.5);
        assert_eq!(p.get(0, 0), 0.0);
    }

    #[test]
    fn uniform_routing_isolated_peer_reserves() {
        let mut g = Graph::new();
        let _a = g.add_node();
        let (_, p) = uniform_routing(&g).expect("built");
        assert_eq!(p.get(0, 0), 1.0);
        assert!(uniform_routing(&Graph::new()).is_err());
    }

    #[test]
    fn symmetric_profile_yields_unit_utilization() {
        // Complete mixing + equal spending rates ⇒ uniform flows ⇒ u ≡ 1.
        let mut rng = SimRng::seed_from_u64(5);
        let g = generators::scale_free(&ScaleFreeConfig::new(80).expect("cfg"), &mut rng)
            .expect("graph");
        let p = complete_mixing_routing(g.node_count()).expect("built");
        let flows = stationary_flows(&p, SolveMethod::Direct).expect("solved");
        let mu_map =
            spending_rates(&g, UtilizationProfile::Symmetric, 1.0, &mut rng).expect("rates");
        let ids: Vec<NodeId> = g.node_ids().collect();
        let mu: Vec<f64> = ids.iter().map(|id| mu_map[id]).collect();
        let u = normalized_utilizations(&flows, &mu).expect("valid");
        for (i, &ui) in u.iter().enumerate() {
            assert!((ui - 1.0).abs() < 1e-9, "u[{i}] = {ui}");
        }
        assert!(UtilizationProfile::Symmetric.complete_mixing());
    }

    #[test]
    fn near_symmetric_profile_has_mild_spread() {
        let mut rng = SimRng::seed_from_u64(7);
        let g = generators::scale_free(&ScaleFreeConfig::new(80).expect("cfg"), &mut rng)
            .expect("graph");
        let p = complete_mixing_routing(g.node_count()).expect("built");
        let flows = stationary_flows(&p, SolveMethod::Direct).expect("solved");
        let profile = UtilizationProfile::NearSymmetric { spread: 0.1 };
        let mu_map = spending_rates(&g, profile, 1.0, &mut rng).expect("rates");
        let ids: Vec<NodeId> = g.node_ids().collect();
        let mu: Vec<f64> = ids.iter().map(|id| mu_map[id]).collect();
        let u = normalized_utilizations(&flows, &mu).expect("valid");
        let min = u.iter().cloned().fold(f64::INFINITY, f64::min);
        // u ranges roughly within [0.9/1.1, 1] ≈ [0.82, 1].
        assert!(min > 0.7 && min < 1.0, "mild spread expected, min {min}");
        assert!(profile.complete_mixing());
        // Invalid spreads rejected.
        assert!(spending_rates(
            &g,
            UtilizationProfile::NearSymmetric { spread: 1.5 },
            1.0,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn asymmetric_profile_spreads_utilization() {
        let mut rng = SimRng::seed_from_u64(6);
        let g = generators::scale_free(&ScaleFreeConfig::new(80).expect("cfg"), &mut rng)
            .expect("graph");
        let (ids, p) = uniform_routing(&g).expect("built");
        let flows = stationary_flows(&p, SolveMethod::Direct).expect("solved");
        let mu_map =
            spending_rates(&g, UtilizationProfile::Asymmetric, 1.0, &mut rng).expect("rates");
        let mu: Vec<f64> = ids.iter().map(|id| mu_map[id]).collect();
        let u = normalized_utilizations(&flows, &mu).expect("valid");
        let min = u.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min < 0.5, "utilization should be heavy-tailed, min {min}");
        assert!(!UtilizationProfile::Asymmetric.complete_mixing());
    }

    #[test]
    fn complete_mixing_matrix_shape() {
        let p = complete_mixing_routing(4).expect("built");
        assert_eq!(p.get(0, 0), 0.0);
        assert!((p.get(0, 1) - 1.0 / 3.0).abs() < 1e-12);
        assert!(complete_mixing_routing(1).is_err());
    }

    #[test]
    fn spending_rates_validation() {
        let mut rng = SimRng::seed_from_u64(1);
        let g = generators::ring(3).expect("valid");
        assert!(spending_rates(&g, UtilizationProfile::Symmetric, 0.0, &mut rng).is_err());
        assert!(
            spending_rates(&Graph::new(), UtilizationProfile::Symmetric, 1.0, &mut rng).is_err()
        );
    }

    #[test]
    fn joiner_rate_matches_profile() {
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(
            joiner_spending_rate(UtilizationProfile::Asymmetric, 2.0, &mut rng),
            2.0
        );
        assert_eq!(
            joiner_spending_rate(UtilizationProfile::Symmetric, 2.0, &mut rng),
            2.0
        );
        let jittered = joiner_spending_rate(
            UtilizationProfile::NearSymmetric { spread: 0.1 },
            2.0,
            &mut rng,
        );
        assert!((1.8..=2.2).contains(&jittered), "rate {jittered}");
    }
}
