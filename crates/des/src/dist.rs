//! Random variates needed by the paper's simulations, implemented from
//! scratch on top of [`rand::Rng`].
//!
//! The paper's experiments draw from: exponential service/inter-event times
//! (the Jackson-network assumption), Poisson chunk prices (Fig. 1 case 1),
//! power-law node degrees (scale-free overlays, exponent 2.5), exponential
//! peer lifespans and Poisson arrivals (Sec. VI-E churn). Each sampler
//! validates its parameters at construction and is deterministic given the
//! RNG stream.

use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

use rand::Rng;

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamError {
    what: String,
}

impl ParamError {
    fn new(what: impl Into<String>) -> Self {
        ParamError { what: what.into() }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl Error for ParamError {}

/// Natural log of the gamma function (Lanczos approximation, |err| < 1e-10
/// for x > 0). Used by the large-mean Poisson sampler.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9), quoted at full published
    // precision even where f64 rounds the last digits.
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// ```
/// use scrip_des::dist::Exp;
/// use scrip_des::SimRng;
///
/// # fn main() -> Result<(), scrip_des::dist::ParamError> {
/// let service = Exp::new(2.0)?; // mean 0.5
/// let mut rng = SimRng::seed_from_u64(1);
/// let x = service.sample(&mut rng);
/// assert!(x >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exp {
    rate: f64,
}

impl Exp {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    /// Returns [`ParamError`] unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Result<Self, ParamError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(ParamError::new(format!("Exp rate must be > 0, got {rate}")));
        }
        Ok(Exp { rate })
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draws a variate by inverse transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = loop {
            let u = rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / self.rate
    }
}

/// Poisson distribution with the given mean.
///
/// Uses Knuth's product method for small means and Atkinson's PA
/// acceptance-rejection algorithm for large means, so sampling is O(1) in
/// expectation for any mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// Mean above which the Atkinson PA algorithm is used.
    const KNUTH_LIMIT: f64 = 30.0;

    /// Creates a Poisson distribution.
    ///
    /// # Errors
    /// Returns [`ParamError`] unless `mean` is finite and positive.
    pub fn new(mean: f64) -> Result<Self, ParamError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(ParamError::new(format!(
                "Poisson mean must be > 0, got {mean}"
            )));
        }
        Ok(Poisson { mean })
    }

    /// The mean (= variance) of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws a variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean <= Self::KNUTH_LIMIT {
            self.sample_knuth(rng)
        } else {
            self.sample_atkinson(rng)
        }
    }

    fn sample_knuth<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let l = (-self.mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Atkinson (1979) algorithm PA: logistic-envelope rejection.
    fn sample_atkinson<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lam = self.mean;
        let c = 0.767 - 3.36 / lam;
        let beta = PI / (3.0 * lam).sqrt();
        let alpha = beta * lam;
        let k = c.ln() - lam - beta.ln();
        loop {
            let u: f64 = loop {
                let u = rng.gen::<f64>();
                if u > 0.0 && u < 1.0 {
                    break u;
                }
            };
            let x = (alpha - ((1.0 - u) / u).ln()) / beta;
            let n = (x + 0.5).floor();
            if n < 0.0 {
                continue;
            }
            let v: f64 = loop {
                let v = rng.gen::<f64>();
                if v > 0.0 {
                    break v;
                }
            };
            let y = alpha - beta * x;
            let t = 1.0 + y.exp();
            let lhs = y + (v / (t * t)).ln();
            let rhs = k + n * lam.ln() - ln_gamma(n + 1.0);
            if lhs <= rhs {
                return n as u64;
            }
        }
    }
}

/// Bounded discrete power law on `{min, …, max}` with `P(d) ∝ d^(-exponent)`.
///
/// This is the degree distribution of the paper's scale-free overlays
/// (`P(D) ~ D^-k`, k = 2.5). The bounded support lets callers match a target
/// mean degree (the paper uses 20) by choosing `max`.
///
/// Sampling is by inverse transform over a precomputed CDF (O(log n) per
/// draw).
#[derive(Clone, Debug, PartialEq)]
pub struct DiscretePowerLaw {
    min: u64,
    exponent: f64,
    /// cdf[i] = P(D <= min + i)
    cdf: Vec<f64>,
}

impl DiscretePowerLaw {
    /// Creates a bounded power-law distribution on `{min, ..., max}`.
    ///
    /// # Errors
    /// Returns [`ParamError`] if `min == 0`, `min > max`, the support is
    /// unreasonably large (> 2^24 points), or `exponent` is not finite.
    pub fn new(min: u64, max: u64, exponent: f64) -> Result<Self, ParamError> {
        if min == 0 {
            return Err(ParamError::new("power-law min degree must be >= 1"));
        }
        if min > max {
            return Err(ParamError::new(format!(
                "power-law support empty: min {min} > max {max}"
            )));
        }
        if max - min > (1 << 24) {
            return Err(ParamError::new("power-law support too large"));
        }
        if !exponent.is_finite() {
            return Err(ParamError::new("power-law exponent must be finite"));
        }
        let mut cdf = Vec::with_capacity((max - min + 1) as usize);
        let mut acc = 0.0;
        for d in min..=max {
            acc += (d as f64).powf(-exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(DiscretePowerLaw { min, exponent, cdf })
    }

    /// The exact mean of the bounded distribution.
    pub fn mean(&self) -> f64 {
        let mut mean = 0.0;
        let mut prev = 0.0;
        for (i, &c) in self.cdf.iter().enumerate() {
            mean += (self.min + i as u64) as f64 * (c - prev);
            prev = c;
        }
        mean
    }

    /// The probability mass at `d` (zero outside the support).
    pub fn pmf(&self, d: u64) -> f64 {
        if d < self.min || d > self.min + (self.cdf.len() as u64 - 1) {
            return 0.0;
        }
        let i = (d - self.min) as usize;
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// The exponent `k` of `P(d) ∝ d^(-k)`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Draws a degree.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        self.min + idx.min(self.cdf.len() - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn sample_mean_var(mut f: impl FnMut(&mut SimRng) -> f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = f(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        (mean, sum2 / n as f64 - mean * mean)
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi)
        assert!((ln_gamma(1.0)).abs() < 1e-9);
        assert!((ln_gamma(2.0)).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - 0.5 * PI.ln()).abs() < 1e-9);
        // Reference from a high-precision lgamma implementation.
        assert!((ln_gamma(10.3) - 13.482_036_786_138_36).abs() < 1e-8);
    }

    #[test]
    fn exp_rejects_bad_rate() {
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(-1.0).is_err());
        assert!(Exp::new(f64::NAN).is_err());
        assert!(Exp::new(f64::INFINITY).is_err());
    }

    #[test]
    fn exp_moments() {
        let d = Exp::new(0.5).expect("valid");
        let (mean, var) = sample_mean_var(|r| d.sample(r), 100_000, 7);
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn poisson_rejects_bad_mean() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-2.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    #[test]
    fn poisson_small_mean_moments() {
        let d = Poisson::new(1.0).expect("valid");
        let (mean, var) = sample_mean_var(|r| d.sample(r) as f64, 100_000, 9);
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_large_mean_moments() {
        let d = Poisson::new(200.0).expect("valid");
        let (mean, var) = sample_mean_var(|r| d.sample(r) as f64, 50_000, 11);
        assert!((mean - 200.0).abs() < 0.5, "mean {mean}");
        assert!((var - 200.0).abs() < 8.0, "var {var}");
    }

    #[test]
    fn poisson_boundary_mean_uses_both_algorithms_consistently() {
        // Means just below and above the Knuth/Atkinson switch should agree
        // statistically.
        let lo = Poisson::new(29.9).expect("valid");
        let hi = Poisson::new(30.1).expect("valid");
        let (m_lo, _) = sample_mean_var(|r| lo.sample(r) as f64, 60_000, 13);
        let (m_hi, _) = sample_mean_var(|r| hi.sample(r) as f64, 60_000, 14);
        assert!((m_lo - 29.9).abs() < 0.2, "knuth mean {m_lo}");
        assert!((m_hi - 30.1).abs() < 0.2, "atkinson mean {m_hi}");
    }

    #[test]
    fn power_law_pmf_sums_to_one() {
        let d = DiscretePowerLaw::new(1, 100, 2.5).expect("valid");
        let total: f64 = (1..=100).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.pmf(0), 0.0);
        assert_eq!(d.pmf(101), 0.0);
    }

    #[test]
    fn power_law_sample_matches_pmf() {
        let d = DiscretePowerLaw::new(1, 50, 2.5).expect("valid");
        let mut rng = SimRng::seed_from_u64(31);
        let n = 200_000;
        let mut counts = vec![0u32; 51];
        for _ in 0..n {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        for k in [1u64, 2, 3, 5, 10] {
            let emp = counts[k as usize] as f64 / n as f64;
            let theory = d.pmf(k);
            assert!(
                (emp - theory).abs() < 0.01,
                "k={k} empirical {emp} vs theory {theory}"
            );
        }
    }

    #[test]
    fn power_law_rejects_bad_support() {
        assert!(DiscretePowerLaw::new(0, 10, 2.5).is_err());
        assert!(DiscretePowerLaw::new(5, 4, 2.5).is_err());
        assert!(DiscretePowerLaw::new(1, 10, f64::NAN).is_err());
    }

    #[test]
    fn param_error_displays() {
        let e = Exp::new(-1.0).unwrap_err();
        assert!(e.to_string().contains("invalid distribution parameter"));
    }
}
