//! Wealth-concentration measures beside the Gini: the top share and
//! the fraction of broke peers, which [`crate::WealthSnapshot`]
//! reports.

use crate::error::EconError;

fn validated_total(values: &[f64]) -> Result<f64, EconError> {
    if values.is_empty() {
        return Err(EconError::Empty);
    }
    let mut total = 0.0;
    for (i, &v) in values.iter().enumerate() {
        if !v.is_finite() || v < 0.0 {
            return Err(EconError::InvalidValue(format!("value[{i}] = {v}")));
        }
        total += v;
    }
    Ok(total)
}

/// Wealth share of the richest `fraction` of peers (e.g. 0.01 = top 1%).
/// At least one peer is always counted.
///
/// # Errors
/// Returns [`EconError`] for empty/invalid samples or `fraction` outside
/// `(0, 1]`.
pub fn top_share(values: &[f64], fraction: f64) -> Result<f64, EconError> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(EconError::InvalidParameter(format!(
            "fraction = {fraction} outside (0, 1]"
        )));
    }
    let total = validated_total(values)?;
    if total <= 0.0 {
        return Ok(0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("validated finite"));
    let k = ((values.len() as f64 * fraction).ceil() as usize).max(1);
    Ok(sorted.iter().take(k).sum::<f64>() / total)
}

/// Fraction of peers with exactly zero wealth — the paper's "bankrupt"
/// peers who are shut out of the P2P service.
///
/// # Errors
/// Returns [`EconError`] for empty/invalid samples.
pub fn broke_fraction(values: &[f64]) -> Result<f64, EconError> {
    validated_total(values)?;
    Ok(values.iter().filter(|&&x| x == 0.0).count() as f64 / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EQUAL: [f64; 4] = [5.0, 5.0, 5.0, 5.0];
    const SINGLE: [f64; 4] = [20.0, 0.0, 0.0, 0.0];

    #[test]
    fn top_share_values() {
        let v = [1.0, 2.0, 3.0, 4.0];
        // Top 25% = one peer = 4/10.
        assert!((top_share(&v, 0.25).expect("valid") - 0.4).abs() < 1e-12);
        // Top 100% = everything.
        assert!((top_share(&v, 1.0).expect("valid") - 1.0).abs() < 1e-12);
        assert!(top_share(&v, 0.0).is_err());
        assert!(top_share(&v, 1.5).is_err());
    }

    #[test]
    fn broke_fraction_counts_zeros() {
        assert_eq!(broke_fraction(&SINGLE).expect("valid"), 0.75);
        assert_eq!(broke_fraction(&EQUAL).expect("valid"), 0.0);
    }

    #[test]
    fn zero_total_conventions() {
        let zeros = [0.0; 3];
        assert_eq!(top_share(&zeros, 0.5).expect("valid"), 0.0);
        assert_eq!(broke_fraction(&zeros).expect("valid"), 1.0);
    }

    #[test]
    fn indices_agree_on_ordering() {
        // A mildly unequal and a strongly condensed distribution: every
        // index must rank the condensed one higher.
        let mild = [8.0, 10.0, 12.0, 10.0];
        let condensed = [0.0, 0.0, 1.0, 39.0];
        assert!(top_share(&condensed, 0.25).expect("v") > top_share(&mild, 0.25).expect("v"));
        assert!(broke_fraction(&condensed).expect("v") > broke_fraction(&mild).expect("v"));
    }
}
