//! The wealth-condensation threshold of paper Eq. (4) and Theorems 2–3.
//!
//! In a growing network (`N → ∞`, average wealth `c = M/N` fixed) the
//! paper proves that wealth condenses onto at least one peer **iff**
//! `c > T`, where
//!
//! ```text
//! T = lim_{z→1⁻} ∫₀¹ w/(1 − zw) · f(w) dw
//! ```
//!
//! and `f` is the (continuous) density of normalized utilizations.
//! Intuitively `T` is the largest average wealth the *bulk* of peers
//! (those with `u < 1`) can absorb: each queue with utilization `w`
//! holds `w/(1−w)` credits in expectation, exactly the mean of its
//! geometric marginal. If `c` exceeds that capacity, the excess piles
//! onto the maximal-utilization peers — the condensate.
//!
//! The paper's corollary follows: under **symmetric utilization**
//! (`u ≡ 1`) the integral diverges, `T = ∞`, and no condensation can
//! occur — matching this module's [`Threshold::Divergent`].

use crate::error::QueueingError;

/// The condensation threshold `T` of Eq. (4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Threshold {
    /// `T` is finite: condensation occurs for average wealth `c > T`.
    Finite(f64),
    /// The integral diverges (`T = ∞`): condensation never occurs
    /// (the symmetric-utilization corollary).
    Divergent,
}

impl Threshold {
    /// The finite value, if any.
    pub fn value(&self) -> Option<f64> {
        match self {
            Threshold::Finite(t) => Some(*t),
            Threshold::Divergent => None,
        }
    }

    /// Whether the threshold is finite.
    pub fn is_finite(&self) -> bool {
        matches!(self, Threshold::Finite(_))
    }
}

impl std::fmt::Display for Threshold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Threshold::Finite(t) => write!(f, "T = {t:.4}"),
            Threshold::Divergent => write!(f, "T = ∞"),
        }
    }
}

/// Verdict of Theorems 2–3 for a given average wealth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// `c ≤ T`: expected wealth stays bounded at every peer (Theorem 2).
    Sustainable,
    /// `c > T`: at least one peer's expected wealth grows without bound
    /// (Theorem 3).
    Condensing,
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regime::Sustainable => write!(f, "sustainable"),
            Regime::Condensing => write!(f, "condensing"),
        }
    }
}

/// Classifies an average wealth level against a threshold (Theorems 2–3).
pub fn classify(average_wealth: f64, threshold: &Threshold) -> Regime {
    match threshold {
        Threshold::Divergent => Regime::Sustainable,
        Threshold::Finite(t) => {
            if average_wealth > *t {
                Regime::Condensing
            } else {
                Regime::Sustainable
            }
        }
    }
}

/// An empirical (plug-in) estimate of `T` from a finite utilization
/// vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThresholdEstimate {
    /// The estimated threshold.
    pub threshold: Threshold,
    /// Fraction of peers at (numerically) maximal utilization — the
    /// condensate candidates excluded from the bulk sum.
    pub condensate_fraction: f64,
}

/// Estimates `T` from an empirical utilization vector by the plug-in rule
///
/// ```text
/// T̂ = (1/N) Σ_{i : u_i < 1 − ε} u_i / (1 − u_i)
/// ```
///
/// Peers within `atom_epsilon` of the maximum are the condensate
/// candidates; they are excluded from the bulk (in the continuum limit
/// they carry zero measure). If **every** peer is maximal — the paper's
/// symmetric-utilization case — the estimate is [`Threshold::Divergent`],
/// reproducing the corollary.
///
/// # Errors
/// Returns [`QueueingError::InvalidParameter`] if `u` is empty, any entry
/// is outside `[0, 1]` (after normalization they must be), or
/// `atom_epsilon` is not in `(0, 1)`.
pub fn empirical_threshold(
    u: &[f64],
    atom_epsilon: f64,
) -> Result<ThresholdEstimate, QueueingError> {
    if u.is_empty() {
        return Err(QueueingError::InvalidParameter(
            "empty utilization vector".into(),
        ));
    }
    if !(atom_epsilon > 0.0 && atom_epsilon < 1.0) {
        return Err(QueueingError::InvalidParameter(format!(
            "atom_epsilon = {atom_epsilon} outside (0, 1)"
        )));
    }
    for (i, &ui) in u.iter().enumerate() {
        if !ui.is_finite() || !(0.0..=1.0 + 1e-12).contains(&ui) {
            return Err(QueueingError::InvalidParameter(format!(
                "u_{i} = {ui} outside [0, 1]"
            )));
        }
    }
    let n = u.len();
    let cutoff = 1.0 - atom_epsilon;
    let mut bulk_sum = 0.0;
    let mut atoms = 0usize;
    for &ui in u {
        if ui >= cutoff {
            atoms += 1;
        } else {
            bulk_sum += ui / (1.0 - ui);
        }
    }
    let condensate_fraction = atoms as f64 / n as f64;
    let threshold = if atoms == n {
        Threshold::Divergent
    } else {
        Threshold::Finite(bulk_sum / n as f64)
    };
    Ok(ThresholdEstimate {
        threshold,
        condensate_fraction,
    })
}

/// Evaluates Eq. (4) for a continuous utilization density `f` on `[0, 1]`
/// by adaptive refinement toward the singular endpoint.
///
/// The integrand `w·f(w)/(1−w)` is integrated over `[0, 1 − δ_k]` for a
/// shrinking sequence `δ_k = 2^{-k}`; if the partial integrals converge
/// (increments shrink below `rel_tol`), the limit is returned as
/// [`Threshold::Finite`]; if they keep growing past `divergence_bound`,
/// the integral is declared [`Threshold::Divergent`].
///
/// # Errors
/// Returns [`QueueingError::InvalidParameter`] if `f` returns a negative
/// or non-finite value at a probe point.
pub fn threshold_from_density(
    f: impl Fn(f64) -> f64,
    rel_tol: f64,
    divergence_bound: f64,
) -> Result<Threshold, QueueingError> {
    // Validate the density on a coarse probe grid.
    for k in 0..=50 {
        let w = k as f64 / 50.0;
        let v = f(w);
        if !v.is_finite() || v < 0.0 {
            return Err(QueueingError::InvalidParameter(format!(
                "density f({w}) = {v}"
            )));
        }
    }
    let integrand = |w: f64| w * f(w) / (1.0 - w);
    let mut prev = simpson(&integrand, 0.0, 1.0 - 0.0625, 512);
    for k in 5..=44 {
        let delta = 2f64.powi(-k);
        let hi = 1.0 - delta;
        let total = simpson(&integrand, 0.0, 1.0 - 0.0625, 512)
            + simpson(&integrand, 1.0 - 0.0625, hi, 4096);
        if total > divergence_bound {
            return Ok(Threshold::Divergent);
        }
        let increment = (total - prev).abs();
        if increment <= rel_tol * total.abs().max(1e-12) {
            return Ok(Threshold::Finite(total));
        }
        prev = total;
    }
    // Increments never settled: treat as divergent (logarithmic growth).
    Ok(Threshold::Divergent)
}

/// Composite Simpson's rule on `[a, b]` with `panels` (rounded up to
/// even) subdivisions.
fn simpson(f: &impl Fn(f64) -> f64, a: f64, b: f64, panels: usize) -> f64 {
    if b <= a {
        return 0.0;
    }
    let n = (panels.max(2) + 1) & !1usize; // even
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        sum += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    sum * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_utilization_gives_divergent_threshold() {
        // The corollary: u ≡ 1 ⇒ T = ∞ ⇒ always sustainable.
        let est = empirical_threshold(&[1.0; 100], 1e-9).expect("valid");
        assert_eq!(est.threshold, Threshold::Divergent);
        assert_eq!(est.condensate_fraction, 1.0);
        assert_eq!(classify(1e12, &est.threshold), Regime::Sustainable);
    }

    #[test]
    fn empirical_threshold_hand_computed() {
        // u = [1, 0.5, 0.5, 0.75]: bulk = {0.5, 0.5, 0.75},
        // T̂ = (1 + 1 + 3)/4 = 1.25.
        let est = empirical_threshold(&[1.0, 0.5, 0.5, 0.75], 1e-6).expect("valid");
        assert_eq!(est.threshold, Threshold::Finite(1.25));
        assert!((est.condensate_fraction - 0.25).abs() < 1e-12);
        assert_eq!(classify(1.0, &est.threshold), Regime::Sustainable);
        assert_eq!(classify(1.25, &est.threshold), Regime::Sustainable);
        assert_eq!(classify(1.3, &est.threshold), Regime::Condensing);
    }

    #[test]
    fn empirical_threshold_validation() {
        assert!(empirical_threshold(&[], 1e-6).is_err());
        assert!(empirical_threshold(&[0.5], 0.0).is_err());
        assert!(empirical_threshold(&[0.5], 1.0).is_err());
        assert!(empirical_threshold(&[1.5], 1e-6).is_err());
        assert!(empirical_threshold(&[-0.1], 1e-6).is_err());
    }

    #[test]
    fn density_linear_taper_has_threshold_one() {
        // f(w) = 2(1−w): ∫ w/(1−w)·2(1−w) dw = ∫ 2w dw = 1.
        let t = threshold_from_density(|w| 2.0 * (1.0 - w), 1e-8, 1e9).expect("valid");
        match t {
            Threshold::Finite(v) => assert!((v - 1.0).abs() < 1e-4, "T = {v}"),
            Threshold::Divergent => panic!("should converge"),
        }
    }

    #[test]
    fn density_quadratic_taper() {
        // f(w) = 3(1−w)²: ∫ 3w(1−w) dw = 3(1/2 − 1/3) = 1/2.
        let t = threshold_from_density(|w| 3.0 * (1.0 - w) * (1.0 - w), 1e-8, 1e9).expect("valid");
        match t {
            Threshold::Finite(v) => assert!((v - 0.5).abs() < 1e-4, "T = {v}"),
            Threshold::Divergent => panic!("should converge"),
        }
    }

    #[test]
    fn uniform_density_diverges() {
        // f ≡ 1 has positive mass at w = 1, so the integral diverges:
        // the bulk can absorb unbounded wealth and condensation never
        // happens — consistent with a spread including many near-maximal
        // utilizations.
        let t = threshold_from_density(|_| 1.0, 1e-10, 1e6).expect("valid");
        assert_eq!(t, Threshold::Divergent);
    }

    #[test]
    fn density_validation() {
        assert!(threshold_from_density(|_| -1.0, 1e-8, 1e9).is_err());
        assert!(threshold_from_density(|_| f64::NAN, 1e-8, 1e9).is_err());
    }

    #[test]
    fn display_impls() {
        assert_eq!(Threshold::Divergent.to_string(), "T = ∞");
        assert!(Threshold::Finite(1.25).to_string().contains("1.25"));
        assert_eq!(Regime::Sustainable.to_string(), "sustainable");
        assert_eq!(Regime::Condensing.to_string(), "condensing");
    }

    #[test]
    fn threshold_value_accessors() {
        assert_eq!(Threshold::Finite(2.0).value(), Some(2.0));
        assert_eq!(Threshold::Divergent.value(), None);
        assert!(Threshold::Finite(2.0).is_finite());
        assert!(!Threshold::Divergent.is_finite());
    }

    #[test]
    fn empirical_matches_density_for_sampled_bulk() {
        // Sample u_i from the CDF of f(w) = 2(1−w) (i.e. u = 1−sqrt(1−q))
        // plus one maximal atom; the plug-in estimate should be near the
        // analytic T = 1.
        let n = 20_000;
        let mut u: Vec<f64> = (0..n)
            .map(|i| {
                let q = (i as f64 + 0.5) / n as f64;
                1.0 - (1.0 - q).sqrt()
            })
            .collect();
        u.push(1.0);
        let est = empirical_threshold(&u, 1e-6).expect("valid");
        match est.threshold {
            Threshold::Finite(t) => {
                assert!((t - 1.0).abs() < 0.05, "plug-in T = {t}");
            }
            Threshold::Divergent => panic!("bulk should be finite"),
        }
    }
}
