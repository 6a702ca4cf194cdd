//! Online statistics collectors for simulation measurements.
//!
//! The paper's evaluation tracks quantities over simulated time: Gini index
//! trajectories (Figs. 7–11), per-peer credit spending rates (Fig. 1), and
//! sorted wealth snapshots (Figs. 5–6). These collectors gather such data
//! with O(1) memory per update (except [`TimeSeries`], which stores its
//! samples).

use std::fmt;

use crate::time::SimTime;

/// Welford's online algorithm for mean and variance.
///
/// ```
/// use scrip_des::stats::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by n; 0 if empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Feed it every change of the signal; the mean weights each value by how
/// long it was held. This is the right way to average queue lengths and
/// wallet balances over simulated time.
///
/// ```
/// use scrip_des::stats::TimeWeightedMean;
/// use scrip_des::SimTime;
///
/// let mut tw = TimeWeightedMean::new(SimTime::ZERO, 0.0);
/// tw.update(SimTime::from_secs(10), 100.0); // value was 0 for 10 s
/// tw.update(SimTime::from_secs(20), 0.0);   // value was 100 for 10 s
/// assert_eq!(tw.mean(SimTime::from_secs(20)), 50.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeWeightedMean {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
}

impl TimeWeightedMean {
    /// Starts tracking a signal whose value is `initial` at `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeightedMean {
            last_time: start,
            last_value: initial,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Records that the signal changed to `value` at instant `now`.
    pub fn update(&mut self, now: SimTime, value: f64) {
        let held = now.saturating_duration_since(self.last_time);
        self.weighted_sum += self.last_value * held.as_secs_f64();
        self.last_time = now;
        self.last_value = value;
    }

    /// The time-weighted mean over `[start, now]`.
    ///
    /// Returns the last value if no time has elapsed.
    pub fn mean(&self, now: SimTime) -> f64 {
        let tail = now.saturating_duration_since(self.last_time).as_secs_f64();
        let total = now.saturating_duration_since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.last_value;
        }
        (self.weighted_sum + self.last_value * tail) / total
    }

    /// The current (most recent) value of the signal.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

/// A fixed-bin histogram over `[lo, hi)` with an overflow and underflow
/// bin.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi` or either bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range [{lo}, {hi})"
        );
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records an observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of observations (including out-of-range ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bin counts (excluding under/overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

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
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
    }

    #[test]
    fn welford_single_value() {
        let mut w = Welford::new();
        w.push(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.population_variance(), 0.0);
    }

    #[test]
    fn welford_matches_naive() {
        let data = [1.0, 2.0, 3.0, 4.0, 10.0, -5.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.population_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_piecewise() {
        let mut tw = TimeWeightedMean::new(SimTime::ZERO, 1.0);
        tw.update(SimTime::from_secs(5), 3.0); // 1.0 held 5 s
        tw.update(SimTime::from_secs(10), 0.0); // 3.0 held 5 s

        // Mean over [0, 20]: (1*5 + 3*5 + 0*10)/20 = 1.0.
        assert!((tw.mean(SimTime::from_secs(20)) - 1.0).abs() < 1e-12);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_mean_no_elapsed_time() {
        let tw = TimeWeightedMean::new(SimTime::from_secs(5), 7.0);
        assert_eq!(tw.mean(SimTime::from_secs(5)), 7.0);
    }

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.0);
        h.record(5.5);
        h.record(9.999);
        h.record(10.0);
        h.record(42.0);
        assert_eq!(h.count(), 6);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

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
