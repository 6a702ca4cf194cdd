//! Time series of simulation measurements.
//!
//! The paper's evaluation tracks quantities over simulated time, such as
//! the Gini index trajectories of Figs. 7–11. [`TimeSeries`] records
//! them as `(time, value)` samples.

use std::fmt;

use crate::time::SimTime;

/// A recorded time series of `(time, value)` samples.
///
/// Used for Gini-over-time trajectories (paper Figs. 7–11).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample. Samples should be pushed in time order.
    pub fn record(&mut self, t: SimTime, value: f64) {
        self.samples.push((t, value));
    }

    /// The recorded samples in insertion order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Heap bytes reserved by the sample buffer (capacity, the
    /// allocator's view). Grows with recorded samples — horizon /
    /// sample-interval — not with the population, so memory audits
    /// report it as a fixed cost.
    pub fn heap_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<(SimTime, f64)>()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.samples.last().copied()
    }

    /// Mean of the last `k` values (or all if fewer); [`None`] when empty.
    pub fn tail_mean(&self, k: usize) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let start = self.samples.len().saturating_sub(k);
        let tail = &self.samples[start..];
        Some(tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64)
    }

    /// Whether the series has settled: the last `window` values all lie
    /// within ±`tolerance` of their mean. Returns `false` when fewer than
    /// `window` samples exist.
    pub fn has_converged(&self, window: usize, tolerance: f64) -> bool {
        if self.samples.len() < window || window == 0 {
            return false;
        }
        let tail = &self.samples[self.samples.len() - window..];
        let mean = tail.iter().map(|&(_, v)| v).sum::<f64>() / window as f64;
        tail.iter().all(|&(_, v)| (v - mean).abs() <= tolerance)
    }

    /// Writes the series as `time_s,value` CSV rows.
    pub fn to_csv(&self, header: &str) -> String {
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        for &(t, v) in &self.samples {
            out.push_str(&format!("{:.3},{:.6}\n", t.as_secs_f64(), v));
        }
        out
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeSeries({} samples", self.samples.len())?;
        if let Some((t, v)) = self.last() {
            write!(f, ", last = {v:.4} @ {t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_tail_and_convergence() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.record(SimTime::from_secs(i), 0.5 + (i as f64) * 1e-4);
        }
        assert_eq!(ts.len(), 10);
        assert!(ts.has_converged(5, 0.01));
        assert!(!ts.has_converged(5, 1e-6));
        assert!(!ts.has_converged(20, 1.0), "needs at least window samples");
        let tail = ts.tail_mean(4).expect("non-empty");
        assert!((tail - 0.50075).abs() < 1e-9);
    }

    #[test]
    fn time_series_csv() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(1), 0.25);
        let csv = ts.to_csv("t,gini");
        assert!(csv.starts_with("t,gini\n"));
        assert!(csv.contains("1.000,0.250000"));
    }

    #[test]
    fn time_series_display_nonempty() {
        let mut ts = TimeSeries::new();
        assert_eq!(ts.to_string(), "TimeSeries(0 samples)");
        ts.record(SimTime::from_secs(2), 0.5);
        assert!(ts.to_string().contains("last = 0.5000"));
    }
}
