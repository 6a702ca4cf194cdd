//! Cross-replication aggregation of experiment measurements.
//!
//! Batch experiments repeat a configuration over several RNG seeds and
//! report replication-aggregated summaries instead of a single noisy
//! trajectory. This module provides the summary statistic
//! ([`SummaryStats`]: mean / min / max / standard deviation over the
//! replications) and a column-wise aggregator for aligned series (one row
//! per replication, e.g. Gini-over-time trajectories sampled on the same
//! grid).

use crate::error::EconError;

/// Replication summary of one scalar quantity: sample count, mean,
/// extremes, and (population) standard deviation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SummaryStats {
    /// Number of replications aggregated.
    pub n: usize,
    /// Arithmetic mean across replications.
    pub mean: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Population standard deviation (0 for a single replication).
    pub std_dev: f64,
}

impl SummaryStats {
    /// Aggregates a non-empty sample of finite values.
    ///
    /// # Errors
    /// Returns [`EconError::Empty`] for an empty sample and
    /// [`EconError::InvalidValue`] for non-finite entries.
    pub fn from_samples(samples: &[f64]) -> Result<Self, EconError> {
        if samples.is_empty() {
            return Err(EconError::Empty);
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &x in samples {
            if !x.is_finite() {
                return Err(EconError::InvalidValue(format!("non-finite sample {x}")));
            }
            min = min.min(x);
            max = max.max(x);
            sum += x;
        }
        let n = samples.len();
        let mean = sum / n as f64;
        let var = samples.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Ok(SummaryStats {
            n,
            mean,
            min,
            max,
            std_dev: var.sqrt(),
        })
    }
}

/// Aggregates aligned rows column by column: `rows[r][i]` is the value of
/// measurement `i` in replication `r`; the result holds one
/// [`SummaryStats`] per measurement index.
///
/// All rows must have the same length — trim them to a common prefix
/// first when replications can legitimately differ (e.g. churned
/// populations of different final sizes).
///
/// # Errors
/// Returns [`EconError::Empty`] when no rows are given and
/// [`EconError::InvalidParameter`] when row lengths disagree; non-finite
/// values propagate [`EconError::InvalidValue`].
pub fn aggregate_rows(rows: &[&[f64]]) -> Result<Vec<SummaryStats>, EconError> {
    let Some(first) = rows.first() else {
        return Err(EconError::Empty);
    };
    let width = first.len();
    for (r, row) in rows.iter().enumerate() {
        if row.len() != width {
            return Err(EconError::InvalidParameter(format!(
                "row {r} has length {} but row 0 has {width}",
                row.len()
            )));
        }
    }
    let mut column = vec![0.0f64; rows.len()];
    (0..width)
        .map(|i| {
            for (r, row) in rows.iter().enumerate() {
                column[r] = row[i];
            }
            SummaryStats::from_samples(&column)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_single_value() {
        let s = SummaryStats::from_samples(&[3.5]).expect("non-empty");
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 10.0];
        let s = SummaryStats::from_samples(&xs).expect("non-empty");
        assert_eq!(s.n, 4);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        let var = xs.iter().map(|x| (x - 4.0f64).powi(2)).sum::<f64>() / 4.0;
        assert!((s.std_dev - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert_eq!(SummaryStats::from_samples(&[]), Err(EconError::Empty));
        assert!(SummaryStats::from_samples(&[1.0, f64::NAN]).is_err());
        assert!(SummaryStats::from_samples(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn aggregate_rows_column_wise() {
        let a = [0.1, 0.2, 0.3];
        let b = [0.3, 0.4, 0.5];
        let cols = aggregate_rows(&[&a, &b]).expect("aligned");
        assert_eq!(cols.len(), 3);
        assert!((cols[0].mean - 0.2).abs() < 1e-12);
        assert_eq!(cols[2].min, 0.3);
        assert_eq!(cols[2].max, 0.5);
        assert_eq!(cols[1].n, 2);
    }

    #[test]
    fn aggregate_rows_rejects_misaligned_and_empty() {
        assert_eq!(aggregate_rows(&[]), Err(EconError::Empty));
        let a = [1.0, 2.0];
        let b = [1.0];
        assert!(matches!(
            aggregate_rows(&[&a, &b]),
            Err(EconError::InvalidParameter(_))
        ));
    }

    #[test]
    fn aggregate_rows_single_replication_is_identity() {
        let a = [0.5, 0.6];
        let cols = aggregate_rows(&[&a]).expect("one row");
        for (s, &x) in cols.iter().zip(&a) {
            assert_eq!(s.mean, x);
            assert_eq!(s.min, x);
            assert_eq!(s.max, x);
        }
    }
}
