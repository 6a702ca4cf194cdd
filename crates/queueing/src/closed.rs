//! Closed Jackson networks: the paper's model of a credit-based P2P
//! market with a fixed population and a fixed total of `M` credits.
//!
//! The equilibrium distribution is product-form (paper Eq. 3):
//!
//! ```text
//! Q{B_1 = b_1, …, B_N = b_N} = (1/Z_M) Π u_i^{b_i},   Σ b_i = M
//! ```
//!
//! with normalized utilizations `u_i = (λ_i/μ_i) / max_j (λ_j/μ_j)`
//! (Eq. 2). This module evaluates that distribution *exactly*:
//!
//! * [`ClosedJackson::convolution`] — Buzen's convolution algorithm for
//!   the normalization constants `G(0..=M)` (`Z_M` in the paper), with
//!   dynamic rescaling so huge populations (`M ~ 10^5`) stay in `f64`
//!   range.
//! * [`ClosedJackson::marginal_pmf`] — the exact per-peer wealth
//!   distribution `Q{B_i = b}` (what the paper approximates in Eq. 6).
//! * [`ClosedJackson::expected_lengths`] — exact mean wealth per peer.
//! * [`ClosedJackson::mva`] — Mean Value Analysis, an independent exact
//!   recursion used to cross-check the convolution results.

use crate::error::QueueingError;

/// Computes the paper's Eq. (2): normalized utilizations
/// `u_i = (λ_i/μ_i) / max_j (λ_j/μ_j)`.
///
/// # Errors
/// Returns [`QueueingError`] if the slices are empty/mismatched, any rate
/// is non-positive, or all ratios vanish.
pub fn normalized_utilizations(
    arrival_rates: &[f64],
    service_rates: &[f64],
) -> Result<Vec<f64>, QueueingError> {
    if arrival_rates.is_empty() || arrival_rates.len() != service_rates.len() {
        return Err(QueueingError::Dimension(format!(
            "{} arrival rates vs {} service rates",
            arrival_rates.len(),
            service_rates.len()
        )));
    }
    let mut ratios = Vec::with_capacity(arrival_rates.len());
    for (i, (&l, &m)) in arrival_rates.iter().zip(service_rates).enumerate() {
        if !l.is_finite() || l < 0.0 {
            return Err(QueueingError::InvalidParameter(format!(
                "arrival rate λ_{i} = {l}"
            )));
        }
        if !m.is_finite() || m <= 0.0 {
            return Err(QueueingError::InvalidParameter(format!(
                "service rate μ_{i} = {m}"
            )));
        }
        ratios.push(l / m);
    }
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    if max <= 0.0 {
        return Err(QueueingError::InvalidParameter(
            "all utilization ratios are zero".into(),
        ));
    }
    Ok(ratios.into_iter().map(|r| r / max).collect())
}

/// The normalization constants `G(0..=M)` of a closed Jackson network,
/// with the shared rescaling exponent tracked separately.
///
/// True values satisfy `ln G(m) = ln g(m) + ln_scale`; every ratio
/// `G(a)/G(b)` is therefore `g(a)/g(b)` exactly, which is all the
/// equilibrium formulas need.
#[derive(Clone, Debug, PartialEq)]
pub struct NormalizingConstants {
    g: Vec<f64>,
    ln_scale: f64,
}

impl NormalizingConstants {
    /// The rescaled constant `g(m)`.
    ///
    /// # Panics
    /// Panics if `m` exceeds the computed population.
    pub fn g(&self, m: usize) -> f64 {
        self.g[m]
    }

    /// Natural log of the true constant `G(m)`.
    #[cfg(test)]
    pub fn ln_g(&self, m: usize) -> f64 {
        self.g[m].ln() + self.ln_scale
    }
}

/// A closed Jackson network of single-server FCFS queues.
///
/// Construct from stationary visit ratios and service rates
/// ([`ClosedJackson::new`]) or directly from normalized utilizations
/// ([`ClosedJackson::from_utilizations`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ClosedJackson {
    /// Normalized utilizations (max = 1), paper Eq. (2).
    utilization: Vec<f64>,
    /// Relative visit ratios `v_i` (any positive scale).
    visit_ratios: Vec<f64>,
    /// Service rates `μ_i`.
    service_rates: Vec<f64>,
}

/// Result of Mean Value Analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct MvaResult {
    /// Mean queue length (mean wealth) per queue at population `M`.
    pub mean_lengths: Vec<f64>,
    /// System throughput relative to the visit-ratio scale used at
    /// construction.
    pub throughput: f64,
}

impl ClosedJackson {
    /// Builds a network from relative visit ratios (e.g. the stationary
    /// flows of `λP = λ`) and service rates.
    ///
    /// # Errors
    /// Returns [`QueueingError`] on dimension mismatch or non-positive
    /// rates (visit ratios may be zero for isolated peers, but not all).
    pub fn new(visit_ratios: &[f64], service_rates: &[f64]) -> Result<Self, QueueingError> {
        let utilization = normalized_utilizations(visit_ratios, service_rates)?;
        Ok(ClosedJackson {
            utilization,
            visit_ratios: visit_ratios.to_vec(),
            service_rates: service_rates.to_vec(),
        })
    }

    /// Builds a network directly from normalized utilizations in `(0, 1]`
    /// (at least one must equal 1). Visit ratios are taken equal to `u`
    /// and service rates to 1, which reproduces the same equilibrium
    /// distribution.
    ///
    /// # Errors
    /// Returns [`QueueingError::InvalidParameter`] if any `u_i` is outside
    /// `(0, 1]` or none equals 1 (within `1e-12`).
    pub fn from_utilizations(u: &[f64]) -> Result<Self, QueueingError> {
        if u.is_empty() {
            return Err(QueueingError::Dimension("empty utilization vector".into()));
        }
        for (i, &ui) in u.iter().enumerate() {
            if !ui.is_finite() || ui <= 0.0 || ui > 1.0 + 1e-12 {
                return Err(QueueingError::InvalidParameter(format!(
                    "u_{i} = {ui} outside (0, 1]"
                )));
            }
        }
        let max = u.iter().cloned().fold(0.0, f64::max);
        if (max - 1.0).abs() > 1e-9 {
            return Err(QueueingError::InvalidParameter(format!(
                "normalized utilizations must attain 1, max = {max}"
            )));
        }
        Ok(ClosedJackson {
            utilization: u.to_vec(),
            visit_ratios: u.to_vec(),
            service_rates: vec![1.0; u.len()],
        })
    }

    /// Number of queues (peers).
    pub fn n(&self) -> usize {
        self.utilization.len()
    }

    /// The normalized utilization vector (paper Eq. 2).
    pub fn utilizations(&self) -> &[f64] {
        &self.utilization
    }

    /// The service rates `μ_i`.
    pub fn service_rates(&self) -> &[f64] {
        &self.service_rates
    }

    /// Whether all peers have (numerically) equal utilization — the
    /// paper's "symmetric utilization" case where its corollary proves
    /// condensation cannot occur.
    #[cfg(test)]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.utilization.iter().all(|&u| (u - 1.0).abs() <= tol)
    }

    /// Buzen's convolution algorithm: computes `G(0..=m)` in `O(N·m)`
    /// time with dynamic rescaling (see [`NormalizingConstants`]).
    pub fn convolution(&self, m: usize) -> NormalizingConstants {
        let mut g = vec![0.0f64; m + 1];
        g[0] = 1.0;
        let mut ln_scale = 0.0f64;
        const LIMIT: f64 = 1e250;
        const FACTOR: f64 = 1e-250;
        for &u in &self.utilization {
            for b in 1..=m {
                g[b] += u * g[b - 1];
            }
            // Uniform rescaling preserves every ratio; the recursion is
            // homogeneous, so rescaling between sweeps is exact.
            let max = g.iter().cloned().fold(0.0, f64::max);
            if max > LIMIT {
                for v in &mut g {
                    *v *= FACTOR;
                }
                ln_scale += -FACTOR.ln();
            }
        }
        NormalizingConstants { g, ln_scale }
    }

    /// `P{B_i ≥ b}` at population `m`: `u_i^b · G(m−b)/G(m)`. A
    /// closed form independent of the marginal's sum, kept as its test
    /// oracle.
    ///
    /// # Panics
    /// Panics if `i ≥ n`.
    #[cfg(test)]
    pub fn prob_at_least(&self, i: usize, b: usize, m: usize, gc: &NormalizingConstants) -> f64 {
        assert!(i < self.n(), "queue index {i} out of range");
        if b > m {
            return 0.0;
        }
        self.utilization[i].powi(b as i32) * gc.g(m - b) / gc.g(m)
    }

    /// The exact marginal wealth distribution of peer `i` at population
    /// `m`: a vector of `P{B_i = b}` for `b = 0..=m`.
    ///
    /// # Panics
    /// Panics if `i ≥ n`.
    pub fn marginal_pmf(&self, i: usize, m: usize, gc: &NormalizingConstants) -> Vec<f64> {
        assert!(i < self.n(), "queue index {i} out of range");
        let u = self.utilization[i];
        let gm = gc.g(m);
        let mut pmf = Vec::with_capacity(m + 1);
        let mut u_pow = 1.0;
        for b in 0..m {
            // P{B=b} = u^b (G(m−b) − u·G(m−b−1)) / G(m)
            let p = u_pow * (gc.g(m - b) - u * gc.g(m - b - 1)) / gm;
            pmf.push(p.max(0.0));
            u_pow *= u;
        }
        pmf.push(u_pow * gc.g(0) / gm);
        pmf
    }

    /// Exact mean wealth per peer at population `m` (length-`n` vector).
    ///
    /// Uses `E[B_i] = Σ_{b≥1} P{B_i ≥ b}` and the single full-network
    /// convolution, so the total cost is `O(N·m)`.
    pub fn expected_lengths(&self, m: usize) -> Vec<f64> {
        let gc = self.convolution(m);
        self.expected_lengths_with(m, &gc)
    }

    /// As [`ClosedJackson::expected_lengths`] but reusing a precomputed
    /// convolution.
    pub fn expected_lengths_with(&self, m: usize, gc: &NormalizingConstants) -> Vec<f64> {
        let gm = gc.g(m);
        self.utilization
            .iter()
            .map(|&u| {
                let mut sum = 0.0;
                let mut u_pow = 1.0;
                for b in 1..=m {
                    u_pow *= u;
                    if u_pow == 0.0 {
                        break;
                    }
                    sum += u_pow * gc.g(m - b) / gm;
                }
                sum
            })
            .collect()
    }

    /// `P{B_i = 0}` for every peer — the probability a peer is *broke*,
    /// which gates content download (paper Sec. V-B3).
    pub fn idle_probabilities(&self, m: usize, gc: &NormalizingConstants) -> Vec<f64> {
        let ratio = gc.g(m - 1) / gc.g(m);
        self.utilization
            .iter()
            .map(|&u| (1.0 - u * ratio).max(0.0))
            .collect()
    }

    /// Effective credit departure rate per peer,
    /// `μ_i (1 − P{B_i = 0})` — the left side of paper Eq. (9).
    #[cfg(test)]
    pub fn effective_departure_rates(&self, m: usize, gc: &NormalizingConstants) -> Vec<f64> {
        self.idle_probabilities(m, gc)
            .iter()
            .zip(&self.service_rates)
            .map(|(&p0, &mu)| mu * (1.0 - p0))
            .collect()
    }

    /// Per-queue throughput at population `m`, in the units implied by
    /// the construction-time visit ratios: the convolution's answer,
    /// the test oracle for [`ClosedJackson::mva`].
    #[cfg(test)]
    pub fn throughputs(&self, m: usize, gc: &NormalizingConstants) -> Vec<f64> {
        if m == 0 {
            return vec![0.0; self.n()];
        }
        // `max_i v_i/μ_i` converts normalized quantities back.
        let demand_max = self
            .visit_ratios
            .iter()
            .zip(&self.service_rates)
            .map(|(&v, &mu)| v / mu)
            .fold(0.0, f64::max);
        let x = gc.g(m - 1) / (gc.g(m) * demand_max);
        self.visit_ratios.iter().map(|&v| v * x).collect()
    }

    /// Exact Mean Value Analysis: an `O(N·m)` recursion over populations
    /// `1..=m` that never forms normalization constants. Serves as an
    /// independent cross-check of the convolution results.
    pub fn mva(&self, m: usize) -> MvaResult {
        let n = self.n();
        let mut lengths = vec![0.0f64; n];
        let mut throughput = 0.0;
        for k in 1..=m {
            let mut denom = 0.0;
            let mut waits = Vec::with_capacity(n);
            for (i, &len) in lengths.iter().enumerate() {
                let w = (1.0 + len) / self.service_rates[i];
                denom += self.visit_ratios[i] * w;
                waits.push(w);
            }
            throughput = k as f64 / denom;
            for i in 0..n {
                lengths[i] = throughput * self.visit_ratios[i] * waits[i];
            }
        }
        MvaResult {
            mean_lengths: lengths,
            throughput,
        }
    }

    /// Brute-force joint enumeration for very small networks: returns the
    /// exact marginal PMF of queue `i` by summing the product form over
    /// every composition of `m` into `n` parts. Exponential cost — only
    /// for validating the convolution in tests.
    ///
    /// # Panics
    /// Panics if `i ≥ n`.
    #[cfg(test)]
    pub fn marginal_pmf_bruteforce(&self, i: usize, m: usize) -> Vec<f64> {
        assert!(i < self.n(), "queue index {i} out of range");
        let n = self.n();
        let mut pmf = vec![0.0f64; m + 1];
        let mut total = 0.0f64;
        let mut composition = vec![0usize; n];
        enumerate_compositions(m, n, 0, &mut composition, &mut |comp| {
            let weight: f64 = comp
                .iter()
                .enumerate()
                .map(|(q, &b)| self.utilization[q].powi(b as i32))
                .product();
            pmf[comp[i]] += weight;
            total += weight;
        });
        for p in &mut pmf {
            *p /= total;
        }
        pmf
    }
}

/// Recursively enumerates all ways to place `remaining` jobs into queues
/// `idx..n`, invoking `visit` on each complete composition.
#[cfg(test)]
fn enumerate_compositions(
    remaining: usize,
    n: usize,
    idx: usize,
    composition: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if idx == n - 1 {
        composition[idx] = remaining;
        visit(composition);
        return;
    }
    for b in 0..=remaining {
        composition[idx] = b;
        enumerate_compositions(remaining - b, n, idx + 1, composition, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_normalization() {
        let u = normalized_utilizations(&[1.0, 2.0, 4.0], &[2.0, 2.0, 2.0]).expect("valid");
        assert_eq!(u, vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn eq2_rejects_bad_input() {
        assert!(normalized_utilizations(&[], &[]).is_err());
        assert!(normalized_utilizations(&[1.0], &[1.0, 2.0]).is_err());
        assert!(normalized_utilizations(&[1.0], &[0.0]).is_err());
        assert!(normalized_utilizations(&[-1.0], &[1.0]).is_err());
        assert!(normalized_utilizations(&[0.0, 0.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn from_utilizations_validates() {
        assert!(ClosedJackson::from_utilizations(&[]).is_err());
        assert!(
            ClosedJackson::from_utilizations(&[0.5, 0.5]).is_err(),
            "no u = 1"
        );
        assert!(ClosedJackson::from_utilizations(&[1.2, 1.0]).is_err());
        assert!(ClosedJackson::from_utilizations(&[0.0, 1.0]).is_err());
        assert!(ClosedJackson::from_utilizations(&[0.5, 1.0]).is_ok());
    }

    #[test]
    fn symmetric_network_uniform_g() {
        // All u = 1: G(m) = number of compositions = C(m+n-1, n-1).
        let net = ClosedJackson::from_utilizations(&[1.0, 1.0, 1.0]).expect("valid");
        let gc = net.convolution(4);
        // C(4+2,2) = 15, C(3+2,2) = 10, C(2+2,2) = 6, C(1+2,2) = 3, C(0+2,2) = 1
        assert!((gc.g(0) - 1.0).abs() < 1e-12);
        assert!((gc.g(1) - 3.0).abs() < 1e-12);
        assert!((gc.g(2) - 6.0).abs() < 1e-12);
        assert!((gc.g(3) - 10.0).abs() < 1e-12);
        assert!((gc.g(4) - 15.0).abs() < 1e-12);
        assert!(net.is_symmetric(1e-12));
    }

    #[test]
    fn symmetric_mean_wealth_is_average() {
        let net = ClosedJackson::from_utilizations(&[1.0; 5]).expect("valid");
        let lengths = net.expected_lengths(20);
        for &l in &lengths {
            assert!((l - 4.0).abs() < 1e-9, "length {l}");
        }
    }

    #[test]
    fn marginal_matches_bruteforce_asymmetric() {
        let net = ClosedJackson::from_utilizations(&[1.0, 0.7, 0.4, 0.2]).expect("valid");
        let m = 6;
        let gc = net.convolution(m);
        for i in 0..4 {
            let fast = net.marginal_pmf(i, m, &gc);
            let brute = net.marginal_pmf_bruteforce(i, m);
            for (b, (f, s)) in fast.iter().zip(&brute).enumerate() {
                assert!(
                    (f - s).abs() < 1e-10,
                    "queue {i} b={b}: convolution {f} vs brute force {s}"
                );
            }
        }
    }

    #[test]
    fn marginal_pmf_sums_to_one() {
        let net = ClosedJackson::from_utilizations(&[1.0, 0.9, 0.5]).expect("valid");
        let m = 50;
        let gc = net.convolution(m);
        for i in 0..3 {
            let pmf = net.marginal_pmf(i, m, &gc);
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "queue {i} total {total}");
        }
    }

    #[test]
    fn expected_lengths_sum_to_population() {
        let net = ClosedJackson::from_utilizations(&[1.0, 0.8, 0.6, 0.3]).expect("valid");
        for m in [1usize, 5, 25, 100] {
            let lengths = net.expected_lengths(m);
            let total: f64 = lengths.iter().sum();
            assert!(
                (total - m as f64).abs() < 1e-6,
                "m={m}: lengths sum to {total}"
            );
        }
    }

    #[test]
    fn high_utilization_queue_dominates_at_large_m() {
        // Condensation in miniature: with u = (1, 0.5, 0.5) and many
        // credits, queue 0 should hold nearly all wealth.
        let net = ClosedJackson::from_utilizations(&[1.0, 0.5, 0.5]).expect("valid");
        let lengths = net.expected_lengths(200);
        assert!(lengths[0] > 195.0, "condensate holds {}", lengths[0]);
        assert!(lengths[1] < 2.0);
    }

    #[test]
    fn mva_agrees_with_convolution() {
        let visit = [0.3, 0.5, 0.2];
        let rates = [1.0, 2.0, 0.7];
        let net = ClosedJackson::new(&visit, &rates).expect("valid");
        for m in [1usize, 3, 10, 40] {
            let conv = net.expected_lengths(m);
            let mva = net.mva(m).mean_lengths;
            for (i, (a, b)) in conv.iter().zip(&mva).enumerate() {
                assert!(
                    (a - b).abs() < 1e-7,
                    "m={m} queue {i}: convolution {a} vs MVA {b}"
                );
            }
        }
    }

    #[test]
    fn throughput_matches_mva() {
        let visit = [0.4, 0.6];
        let rates = [1.5, 1.0];
        let net = ClosedJackson::new(&visit, &rates).expect("valid");
        let m = 12;
        let gc = net.convolution(m);
        let tps = net.throughputs(m, &gc);
        let mva = net.mva(m);
        for (i, &tp) in tps.iter().enumerate() {
            let expected = mva.throughput * visit[i];
            assert!(
                (tp - expected).abs() < 1e-8,
                "queue {i}: {tp} vs {expected}"
            );
        }
    }

    #[test]
    fn idle_probability_consistent_with_marginal() {
        let net = ClosedJackson::from_utilizations(&[1.0, 0.6]).expect("valid");
        let m = 9;
        let gc = net.convolution(m);
        let idle = net.idle_probabilities(m, &gc);
        for (i, &p_idle) in idle.iter().enumerate() {
            let pmf = net.marginal_pmf(i, m, &gc);
            assert!((p_idle - pmf[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn effective_departure_rates_saturate() {
        // With plentiful credits everyone spends at nearly full rate μ.
        let net = ClosedJackson::from_utilizations(&[1.0; 4]).expect("valid");
        let m = 400;
        let gc = net.convolution(m);
        let rates = net.effective_departure_rates(m, &gc);
        for &r in &rates {
            assert!(r > 0.95, "rate {r}");
        }
    }

    #[test]
    fn rescaling_keeps_huge_populations_finite() {
        // N = 50 symmetric, M = 50_000: raw G(M) = C(50049, 49) ≈ 10^147;
        // push further with N = 200 where raw overflow would occur.
        let net = ClosedJackson::from_utilizations(&vec![1.0; 200]).expect("valid");
        let m = 20_000;
        let gc = net.convolution(m);
        assert!(gc.g(m).is_finite() && gc.g(m) > 0.0);
        // Symmetric: mean wealth must still equal M/N.
        let lengths = net.expected_lengths_with(m, &gc);
        assert!((lengths[0] - 100.0).abs() < 1e-6, "mean {}", lengths[0]);
        // ln G is meaningful and increasing.
        assert!(gc.ln_g(m) > gc.ln_g(m - 1));
    }

    #[test]
    fn prob_at_least_edge_cases() {
        let net = ClosedJackson::from_utilizations(&[1.0, 0.5]).expect("valid");
        let m = 5;
        let gc = net.convolution(m);
        assert_eq!(net.prob_at_least(0, 6, m, &gc), 0.0);
        assert!((net.prob_at_least(0, 0, m, &gc) - 1.0).abs() < 1e-12);
        // The closed form agrees with the marginal's tail sums.
        for i in 0..2 {
            let pmf = net.marginal_pmf(i, m, &gc);
            for b in 0..=m {
                let tail: f64 = pmf[b..].iter().sum();
                assert!((net.prob_at_least(i, b, m, &gc) - tail).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn throughput_zero_population() {
        let net = ClosedJackson::from_utilizations(&[1.0, 0.5]).expect("valid");
        let gc = net.convolution(0);
        assert_eq!(net.throughputs(0, &gc), vec![0.0, 0.0]);
    }

    #[test]
    fn new_with_zero_visit_ratio_allowed() {
        // A peer that nobody buys from still participates (u_i = 0 is
        // rejected by from_utilizations but fine via new(), where the
        // convolution simply never allocates it credits).
        let net = ClosedJackson::new(&[0.0, 1.0, 1.0], &[1.0, 1.0, 1.0]);
        // u_0 = 0 -> from normalized_utilizations this is 0, which breaks
        // the (0,1] invariant; ensure we reject it for clarity.
        assert!(net.is_ok());
        let net = net.expect("constructed");
        let lengths = net.expected_lengths(10);
        assert!(lengths[0] < 1e-12);
        assert!((lengths[1] - 5.0).abs() < 1e-9);
    }
}
