//! The paper's closed-form approximations (Eqs. 5–9) and the exact
//! symmetric marginal they approximate.
//!
//! Sec. V-B of the paper simplifies the product-form joint distribution
//! by inserting multinomial weights (Eq. 5), which turns the marginal
//! wealth distribution of a peer into a **binomial**:
//!
//! * Eq. (6): `Q{B_i = b} = Binomial(M, u_i / Σ_j u_j)` — general case.
//! * Eqs. (7)–(8): `Q{B_i = b} = Binomial(M, 1/N)` — symmetric case.
//! * Eq. (9): effective spending rate `μ_i (1 − Q{B_i = 0}) ≈ μ_i (1 − e^{−c})`.
//!
//! The *exact* marginal under the true (unweighted) product form with
//! symmetric utilization is different — a discrete uniform over
//! compositions whose marginal is [`exact_symmetric_marginal`] — so this
//! module also provides that, letting experiments quantify the paper's
//! approximation error (see the `approx_vs_exact` ablation bench).

use crate::error::QueueingError;

/// Natural logs of factorials `0! ..= n!`, built incrementally.
///
/// ```
/// use scrip_queueing::approx::LnFactorial;
/// let table = LnFactorial::up_to(10);
/// assert!((table.get(5) - 120f64.ln()).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LnFactorial {
    table: Vec<f64>,
}

impl LnFactorial {
    /// Builds the table for arguments `0..=n`.
    pub fn up_to(n: usize) -> Self {
        let mut table = Vec::with_capacity(n + 1);
        table.push(0.0);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).ln();
            table.push(acc);
        }
        LnFactorial { table }
    }

    /// `ln(k!)`.
    ///
    /// # Panics
    /// Panics if `k` exceeds the table size.
    pub fn get(&self, k: usize) -> f64 {
        self.table[k]
    }

    /// `ln C(n, k)`; zero-probability cases return `-inf`.
    ///
    /// # Panics
    /// Panics if `n` exceeds the table size.
    pub fn ln_choose(&self, n: usize, k: usize) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        self.get(n) - self.get(k) - self.get(n - k)
    }
}

/// The binomial PMF `Binomial(m, p)` as a dense vector over `b = 0..=m`,
/// evaluated in log space so huge `m` (the paper uses `M` up to 50 000)
/// cannot overflow.
///
/// # Errors
/// Returns [`QueueingError::InvalidParameter`] unless `0 ≤ p ≤ 1`.
pub fn binomial_pmf(m: usize, p: f64) -> Result<Vec<f64>, QueueingError> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(QueueingError::InvalidParameter(format!(
            "binomial p = {p} outside [0, 1]"
        )));
    }
    if p == 0.0 {
        let mut v = vec![0.0; m + 1];
        v[0] = 1.0;
        return Ok(v);
    }
    if p == 1.0 {
        let mut v = vec![0.0; m + 1];
        v[m] = 1.0;
        return Ok(v);
    }
    let lf = LnFactorial::up_to(m);
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    let pmf = (0..=m)
        .map(|b| (lf.ln_choose(m, b) + b as f64 * ln_p + (m - b) as f64 * ln_q).exp())
        .collect();
    Ok(pmf)
}

/// Paper Eq. (6): the multinomial-approximation marginal of peer `i`,
/// `Binomial(M, u_i / Σ_j u_j)`.
///
/// # Errors
/// Returns [`QueueingError`] if `u` is empty, contains negatives, sums to
/// zero, or `i` is out of range.
#[cfg(test)]
pub fn eq6_marginal(m: usize, u: &[f64], i: usize) -> Result<Vec<f64>, QueueingError> {
    if u.is_empty() || i >= u.len() {
        return Err(QueueingError::Dimension(format!(
            "index {i} for {} utilizations",
            u.len()
        )));
    }
    let mut total = 0.0;
    for (k, &uk) in u.iter().enumerate() {
        if !uk.is_finite() || uk < 0.0 {
            return Err(QueueingError::InvalidParameter(format!("u_{k} = {uk}")));
        }
        total += uk;
    }
    if total <= 0.0 {
        return Err(QueueingError::InvalidParameter(
            "utilizations sum to zero".into(),
        ));
    }
    binomial_pmf(m, u[i] / total)
}

/// Paper Eqs. (7)–(8): the symmetric-case marginal `Binomial(M, 1/N)`.
///
/// # Errors
/// Returns [`QueueingError::InvalidParameter`] if `n == 0`.
pub fn eq8_symmetric_marginal(m: usize, n: usize) -> Result<Vec<f64>, QueueingError> {
    if n == 0 {
        return Err(QueueingError::InvalidParameter("n must be positive".into()));
    }
    binomial_pmf(m, 1.0 / n as f64)
}

/// The **exact** symmetric-case marginal under the true product form
/// (Eq. 3 with all `u_i = 1`): every composition of `M` into `N` parts is
/// equally likely, so
///
/// ```text
/// Q{B_i = b} = C(M − b + N − 2, N − 2) / C(M + N − 1, N − 1)
/// ```
///
/// For large `N` this approaches a geometric distribution with mean
/// `c = M/N` — visibly *heavier-tailed* than the paper's binomial
/// approximation, which is the gap the `approx_vs_exact` ablation
/// measures.
///
/// # Errors
/// Returns [`QueueingError::InvalidParameter`] if `n < 2`.
pub fn exact_symmetric_marginal(m: usize, n: usize) -> Result<Vec<f64>, QueueingError> {
    if n < 2 {
        return Err(QueueingError::InvalidParameter(format!(
            "exact symmetric marginal needs n >= 2, got {n}"
        )));
    }
    let lf = LnFactorial::up_to(m + n);
    let ln_denom = lf.ln_choose(m + n - 1, n - 1);
    let pmf = (0..=m)
        .map(|b| (lf.ln_choose(m - b + n - 2, n - 2) - ln_denom).exp())
        .collect();
    Ok(pmf)
}

/// Paper Eq. (9), exact prefix: the probability a peer is broke in the
/// symmetric approximation, `Q{B_i = 0} = ((N−1)/N)^M`.
///
/// # Errors
/// Returns [`QueueingError::InvalidParameter`] if `n == 0`.
pub fn idle_probability_symmetric(n: usize, m: usize) -> Result<f64, QueueingError> {
    if n == 0 {
        return Err(QueueingError::InvalidParameter("n must be positive".into()));
    }
    Ok(((n as f64 - 1.0) / n as f64).powi(m as i32))
}

/// Paper Eq. (9), large-`N` limit: content-exchange efficiency
/// `1 − e^{−c}` as a function of average wealth `c`.
pub fn efficiency_vs_wealth(c: f64) -> f64 {
    1.0 - (-c).exp()
}

/// Mean of a dense PMF over `0..len`.
pub fn pmf_mean(pmf: &[f64]) -> f64 {
    pmf.iter()
        .enumerate()
        .map(|(b, &p)| b as f64 * p)
        .sum::<f64>()
}

/// Variance of a dense PMF over `0..len`.
#[cfg(test)]
pub fn pmf_variance(pmf: &[f64]) -> f64 {
    let mean = pmf_mean(pmf);
    pmf.iter()
        .enumerate()
        .map(|(b, &p)| (b as f64 - mean).powi(2) * p)
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_values() {
        let lf = LnFactorial::up_to(20);
        assert_eq!(lf.get(0), 0.0);
        assert_eq!(lf.get(1), 0.0);
        assert!((lf.get(10) - 3_628_800f64.ln()).abs() < 1e-10);
        assert!((lf.ln_choose(10, 3) - 120f64.ln()).abs() < 1e-10);
        assert_eq!(lf.ln_choose(5, 9), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_pmf_small_case() {
        // Binomial(4, 0.5): 1/16, 4/16, 6/16, 4/16, 1/16.
        let pmf = binomial_pmf(4, 0.5).expect("valid");
        let expected = [1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0, 4.0 / 16.0, 1.0 / 16.0];
        for (a, e) in pmf.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn binomial_pmf_degenerate() {
        let p0 = binomial_pmf(5, 0.0).expect("valid");
        assert_eq!(p0[0], 1.0);
        assert_eq!(p0.iter().sum::<f64>(), 1.0);
        let p1 = binomial_pmf(5, 1.0).expect("valid");
        assert_eq!(p1[5], 1.0);
        assert!(binomial_pmf(5, -0.1).is_err());
        assert!(binomial_pmf(5, 1.1).is_err());
    }

    #[test]
    fn binomial_huge_m_is_stable() {
        // The paper's Fig. 2 largest case: M = 50 000, N = 50.
        let pmf = binomial_pmf(50_000, 1.0 / 50.0).expect("valid");
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        let mean = pmf_mean(&pmf);
        assert!((mean - 1000.0).abs() < 1e-6, "mean {mean}");
        let var = pmf_variance(&pmf);
        assert!((var - 980.0).abs() < 1e-3, "variance {var}");
    }

    #[test]
    fn eq6_reduces_to_eq8_when_symmetric() {
        let m = 100;
        let u = vec![1.0; 10];
        let via6 = eq6_marginal(m, &u, 3).expect("valid");
        let via8 = eq8_symmetric_marginal(m, 10).expect("valid");
        for (a, b) in via6.iter().zip(&via8) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn eq6_validation() {
        assert!(eq6_marginal(10, &[], 0).is_err());
        assert!(eq6_marginal(10, &[1.0], 5).is_err());
        assert!(eq6_marginal(10, &[-1.0, 1.0], 0).is_err());
        assert!(eq6_marginal(10, &[0.0, 0.0], 0).is_err());
    }

    #[test]
    fn exact_symmetric_marginal_sums_to_one_and_has_mean_c() {
        for (m, n) in [(20usize, 4usize), (100, 10), (60, 3)] {
            let pmf = exact_symmetric_marginal(m, n).expect("valid");
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "mass {total}");
            let mean = pmf_mean(&pmf);
            assert!(
                (mean - m as f64 / n as f64).abs() < 1e-6,
                "m={m} n={n} mean {mean}"
            );
        }
        assert!(exact_symmetric_marginal(10, 1).is_err());
    }

    #[test]
    fn exact_marginal_two_queues_is_uniform() {
        // N = 2: compositions (b, M−b) equally likely -> uniform marginal.
        let pmf = exact_symmetric_marginal(7, 2).expect("valid");
        for &p in &pmf {
            assert!((p - 1.0 / 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_is_heavier_tailed_than_binomial() {
        // Same mean; the true product-form marginal has a fatter tail than
        // the paper's binomial approximation.
        let (m, n) = (200usize, 20usize);
        let exact = exact_symmetric_marginal(m, n).expect("valid");
        let approx = eq8_symmetric_marginal(m, n).expect("valid");
        let tail = |pmf: &[f64]| pmf.iter().skip(31).sum::<f64>(); // P(B > 3c)
        assert!(
            tail(&exact) > 10.0 * tail(&approx),
            "exact tail {} vs binomial tail {}",
            tail(&exact),
            tail(&approx)
        );
    }

    #[test]
    fn idle_probability_matches_efficiency_limit() {
        // ((N−1)/N)^M → e^{−c} for large N with c = M/N fixed.
        let n = 10_000;
        let c = 3.0;
        let m = (n as f64 * c) as usize;
        let idle = idle_probability_symmetric(n, m).expect("valid");
        assert!((idle - (-c).exp()).abs() < 1e-3, "idle {idle}");
        let eff = efficiency_vs_wealth(c);
        assert!((eff - (1.0 - idle)).abs() < 1e-3);
        assert!(idle_probability_symmetric(0, 5).is_err());
    }

    #[test]
    fn efficiency_curve_shape() {
        // Fig. 4's shape: rises steeply then saturates at 1.
        assert_eq!(efficiency_vs_wealth(0.0), 0.0);
        assert!(efficiency_vs_wealth(1.0) > 0.6);
        assert!(efficiency_vs_wealth(5.0) > 0.99);
        assert!(efficiency_vs_wealth(10.0) > 0.9999);
    }

    #[test]
    fn pmf_moments() {
        let pmf = [0.25, 0.5, 0.25];
        assert!((pmf_mean(&pmf) - 1.0).abs() < 1e-12);
        assert!((pmf_variance(&pmf) - 0.5).abs() < 1e-12);
    }
}
