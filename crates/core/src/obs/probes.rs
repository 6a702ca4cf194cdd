//! The built-in probes: one per metric of the paper's evaluation, plus
//! the observables related work measures (per-peer throughput and
//! availability curves — Ramaswamy et al., Potgieter).
//!
//! Every probe works at both market granularities through
//! [`MarketView`] and writes its own field of the [`RunRecord`]; the
//! scenario engine's `Metric` enum names them so they are selectable
//! from scenario files.

use scrip_des::stats::TimeSeries;
use scrip_des::SimTime;
use scrip_econ::LorenzCurve;

use super::{MarketView, Probe, RunRecord};
use crate::error::CoreError;
use scrip_des::snapshot::{Put, Reader};

/// Converts an internal [`TimeSeries`] to `(secs, value)` points.
fn to_points(series: &TimeSeries) -> Vec<(f64, f64)> {
    series
        .samples()
        .iter()
        .map(|&(t, v)| (t.as_secs_f64(), v))
        .collect()
}

/// Encodes accumulated `(x, y)` points as a probe-state block.
fn encode_points(w: &mut Vec<u8>, points: &[(f64, f64)]) {
    w.put_u64(points.len() as u64);
    for &(x, y) in points {
        w.put_f64(x);
        w.put_f64(y);
    }
}

/// Decodes a block written by [`encode_points`]. The count is checked
/// against the unread bytes (16 per point) before it sizes anything.
fn decode_points(r: &mut Reader<'_>) -> Result<Vec<(f64, f64)>, CoreError> {
    let len = r.take_count(16)?;
    let mut points = Vec::with_capacity(len);
    for _ in 0..len {
        let x = r.take_f64()?;
        let y = r.take_f64()?;
        points.push((x, y));
    }
    Ok(points)
}

/// Records the `(t, Gini)` trajectory in [`RunRecord::gini_series`] — the
/// paper's Figs. 7–11. Reads the simulator's internally sampled series
/// at the horizon, so it costs nothing during the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GiniSeriesProbe;

impl Probe for GiniSeriesProbe {
    fn at_horizon(&mut self, _now: SimTime, view: &dyn MarketView, record: &mut RunRecord) {
        record.gini_series = to_points(view.gini_series());
    }
}

/// Records the final wealth distribution, sorted ascending, in
/// [`RunRecord::final_balances`] (the y-values of the paper's Figs. 5–6).
#[derive(Clone, Copy, Debug, Default)]
pub struct FinalBalancesProbe;

impl Probe for FinalBalancesProbe {
    fn at_horizon(&mut self, _now: SimTime, view: &dyn MarketView, record: &mut RunRecord) {
        record.final_balances = view.ledger().balances_sorted();
    }
}

/// Records the sorted per-peer credit spending rates in
/// [`RunRecord::spending_rates`] (the paper's Fig. 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpendingRatesProbe;

impl Probe for SpendingRatesProbe {
    fn at_horizon(&mut self, now: SimTime, view: &dyn MarketView, record: &mut RunRecord) {
        record.spending_rates = view.ledger().spending_rates_sorted(now);
    }
}

/// Records sorted wealth snapshots at the requested times in
/// [`RunRecord::snapshots`]. The times become extra session stops, so they
/// need not align with the sampling grid.
#[derive(Clone, Debug, Default)]
pub struct SnapshotsProbe {
    times: Vec<u64>,
    taken: Vec<(u64, Vec<u64>)>,
}

impl SnapshotsProbe {
    /// A probe snapshotting at the given times (seconds, ascending).
    pub fn new(times: Vec<u64>) -> Self {
        SnapshotsProbe {
            times,
            taken: Vec::new(),
        }
    }
}

impl Probe for SnapshotsProbe {
    fn extra_stops(&self) -> Vec<SimTime> {
        self.times.iter().map(|&t| SimTime::from_secs(t)).collect()
    }

    fn on_sample(&mut self, now: SimTime, view: &dyn MarketView) {
        let Some(&next) = self.times.get(self.taken.len()) else {
            return;
        };
        if now == SimTime::from_secs(next) {
            self.taken.push((next, view.ledger().balances_sorted()));
        }
    }

    fn at_horizon(&mut self, _now: SimTime, _view: &dyn MarketView, record: &mut RunRecord) {
        record.snapshots = std::mem::take(&mut self.taken);
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = Vec::new();
        w.put_u64(self.taken.len() as u64);
        for (t, balances) in &self.taken {
            w.put_u64(*t);
            w.put_u64(balances.len() as u64);
            for &b in balances {
                w.put_u64(b);
            }
        }
        w
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        // Counts are checked against the unread bytes before they size
        // anything: 16 per snapshot (time, length), 8 per balance.
        let mut r = Reader::new(state);
        let len = r.take_count(16)?;
        let mut taken = Vec::with_capacity(len);
        for _ in 0..len {
            let t = r.take_u64()?;
            let n = r.take_count(8)?;
            let mut balances = Vec::with_capacity(n);
            for _ in 0..n {
                balances.push(r.take_u64()?);
            }
            taken.push((t, balances));
        }
        r.finish()?;
        self.taken = taken;
        Ok(())
    }
}

/// Records the `(t, stall rate)` trajectory in
/// [`RunRecord::stall_series`] — empty for queue-level markets, which have no playback to stall.
#[derive(Clone, Copy, Debug, Default)]
pub struct StallSeriesProbe;

impl Probe for StallSeriesProbe {
    fn at_horizon(&mut self, _now: SimTime, view: &dyn MarketView, record: &mut RunRecord) {
        record.stall_series = view.stall_series().map(to_points).unwrap_or_default();
    }
}

/// Records system throughput over time — `(t, purchases/sec since the
/// previous boundary)` — in [`RunRecord::throughput_series`]. Built
/// entirely on the batched [`Probe::on_settle`] deltas, so it observes
/// purchase flow with zero hot-path cost.
#[derive(Clone, Debug, Default)]
pub struct ThroughputSeriesProbe {
    points: Vec<(f64, f64)>,
    last_t: f64,
}

impl ThroughputSeriesProbe {
    /// A fresh throughput probe.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Probe for ThroughputSeriesProbe {
    fn on_settle(&mut self, now: SimTime, settled: u64, _denied: u64) {
        let t = now.as_secs_f64();
        let dt = t - self.last_t;
        if dt > 0.0 {
            self.points.push((t, settled as f64 / dt));
            self.last_t = t;
        }
    }

    fn at_horizon(&mut self, _now: SimTime, _view: &dyn MarketView, record: &mut RunRecord) {
        record.throughput_series = std::mem::take(&mut self.points);
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = Vec::new();
        encode_points(&mut w, &self.points);
        w.put_f64(self.last_t);
        w
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        let mut r = Reader::new(state);
        self.points = decode_points(&mut r)?;
        self.last_t = r.take_f64()?;
        Ok(r.finish()?)
    }
}

/// Records the live-peer population over time — `(t, peers)` — in
/// [`RunRecord::population_series`]: flat without churn, the
/// arrival/departure balance under it (paper Sec. VI-E).
#[derive(Clone, Debug, Default)]
pub struct PopulationSeriesProbe {
    points: Vec<(f64, f64)>,
}

impl PopulationSeriesProbe {
    /// A fresh population probe.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Probe for PopulationSeriesProbe {
    fn on_bootstrap(&mut self, view: &dyn MarketView) {
        self.points.push((0.0, view.peer_count() as f64));
    }

    fn on_sample(&mut self, now: SimTime, view: &dyn MarketView) {
        let t = now.as_secs_f64();
        // A time-zero extra stop (e.g. a snapshot at t = 0) fires right
        // after on_bootstrap already recorded the initial population;
        // keep one point per instant.
        if self.points.last().is_some_and(|&(last, _)| last == t) {
            return;
        }
        self.points.push((t, view.peer_count() as f64));
    }

    fn at_horizon(&mut self, _now: SimTime, _view: &dyn MarketView, record: &mut RunRecord) {
        record.population_series = std::mem::take(&mut self.points);
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = Vec::new();
        encode_points(&mut w, &self.points);
        w
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        let mut r = Reader::new(state);
        self.points = decode_points(&mut r)?;
        Ok(r.finish()?)
    }
}

/// Records the final wealth Lorenz curve in [`RunRecord::lorenz`], sampled
/// at `segments + 1` evenly spaced population shares (the paper's
/// Fig. 2, measured instead of analytic). Empty when no peers remain.
#[derive(Clone, Copy, Debug)]
pub struct LorenzProbe {
    segments: usize,
}

impl LorenzProbe {
    /// A probe sampling the curve over `segments` equal population
    /// slices (`segments + 1` points).
    ///
    /// # Panics
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        assert!(segments > 0, "need at least one segment");
        LorenzProbe { segments }
    }
}

impl Default for LorenzProbe {
    /// 100 segments — percentile resolution.
    fn default() -> Self {
        LorenzProbe::new(100)
    }
}

impl Probe for LorenzProbe {
    fn at_horizon(&mut self, _now: SimTime, view: &dyn MarketView, record: &mut RunRecord) {
        let balances = view.ledger().balances_sorted();
        record.lorenz = match LorenzCurve::from_samples_u64(&balances) {
            Ok(curve) => curve.sample(self.segments),
            Err(_) => Vec::new(), // no peers at the horizon
        };
    }
}

/// Observes the fault-injection machinery: the `(t, cumulative failed
/// delivery attempts)` trajectory in [`RunRecord::fault_series`], the
/// `(t, credits in trade escrow)` trajectory in
/// [`RunRecord::escrow_series`], and the fault counters with the
/// retry-depth histogram in [`RunRecord::faults`] at the horizon.
///
/// On a market without a fault plan both series stay empty and every
/// counter records zero, so the probe is safe to attach unconditionally.
#[derive(Clone, Debug, Default)]
pub struct FaultSeriesProbe {
    failures: Vec<(f64, f64)>,
    escrow: Vec<(f64, f64)>,
}

impl FaultSeriesProbe {
    /// A fresh fault probe.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Probe for FaultSeriesProbe {
    fn on_sample(&mut self, now: SimTime, view: &dyn MarketView) {
        let Some(stats) = view.fault_stats() else {
            return;
        };
        let t = now.as_secs_f64();
        self.failures.push((t, stats.failed_attempts() as f64));
        self.escrow.push((t, view.in_flight_escrow() as f64));
    }

    fn at_horizon(&mut self, _now: SimTime, view: &dyn MarketView, record: &mut RunRecord) {
        record.fault_series = std::mem::take(&mut self.failures);
        record.escrow_series = std::mem::take(&mut self.escrow);
        record.faults = view.fault_stats().cloned().unwrap_or_default();
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = Vec::new();
        encode_points(&mut w, &self.failures);
        encode_points(&mut w, &self.escrow);
        w
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        let mut r = Reader::new(state);
        self.failures = decode_points(&mut r)?;
        self.escrow = decode_points(&mut r)?;
        Ok(r.finish()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{ChurnConfig, MarketConfig};
    use crate::obs::Session;
    use scrip_des::SimDuration;

    fn observed_record(config: &MarketConfig, seed: u64, horizon_secs: u64) -> RunRecord {
        let mut session = Session::from_config(config, seed).expect("builds");
        session.attach(Box::new(GiniSeriesProbe));
        session.attach(Box::new(FinalBalancesProbe));
        session.attach(Box::new(SpendingRatesProbe));
        session.attach(Box::new(SnapshotsProbe::new(vec![
            horizon_secs / 2,
            horizon_secs,
        ])));
        session.attach(Box::new(StallSeriesProbe));
        session.attach(Box::new(ThroughputSeriesProbe::new()));
        session.attach(Box::new(PopulationSeriesProbe::new()));
        session.attach(Box::new(LorenzProbe::default()));
        session.run_until(SimTime::from_secs(horizon_secs));
        session.finish().0
    }

    #[test]
    fn all_probes_record_on_a_queue_market() {
        let config = MarketConfig::new(40, 20).sample_interval(SimDuration::from_secs(50));
        let record = observed_record(&config, 3, 500);
        assert_eq!(record.gini_series.len(), 10);
        assert_eq!(record.final_balances.len(), 40);
        assert_eq!(record.spending_rates.len(), 40);
        let snaps = &record.snapshots;
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, 250);
        assert_eq!(snaps[0].1.len(), 40);
        assert!(record.stall_series.is_empty(), "queue level");
        // Throughput: one point per boundary — 10 grid ticks; both
        // snapshot stops (250, 500) coincide with ticks and dedupe.
        let throughput = &record.throughput_series;
        assert_eq!(throughput.len(), 10);
        assert!(throughput.iter().all(|&(_, r)| r >= 0.0));
        // Total purchase flow re-integrates to the purchase counter.
        let mut last = 0.0;
        let mut total = 0.0;
        for &(t, rate) in throughput {
            total += rate * (t - last);
            last = t;
        }
        assert!((total - record.purchases as f64).abs() < 1e-6);
        let population = &record.population_series;
        assert_eq!(population.first(), Some(&(0.0, 40.0)));
        assert!(population.iter().all(|&(_, n)| n == 40.0), "no churn");
        let lorenz = &record.lorenz;
        assert_eq!(lorenz.len(), 101);
        assert_eq!(lorenz.first(), Some(&(0.0, 0.0)));
        assert_eq!(lorenz.last(), Some(&(1.0, 1.0)));
        // Lorenz is below the equality line.
        assert!(lorenz.iter().all(|&(p, share)| share <= p + 1e-9));
    }

    #[test]
    fn population_probe_tracks_churn() {
        let config = MarketConfig::new(50, 10)
            .churn(ChurnConfig::new(0.5, 100.0, 8).expect("valid"))
            .sample_interval(SimDuration::from_secs(100));
        let record = observed_record(&config, 11, 2_000);
        let population = &record.population_series;
        assert_eq!(
            population.len(),
            21,
            "bootstrap point + 20 grid ticks (snapshots coincide with ticks)"
        );
        assert!(
            population.iter().any(|&(_, n)| n != 50.0),
            "churn never moved the population"
        );
        assert_eq!(
            population.last().map(|&(_, n)| n as u64),
            Some(record.peer_count as u64)
        );
    }

    #[test]
    fn time_zero_snapshot_does_not_duplicate_population_point() {
        let config = MarketConfig::new(20, 10).sample_interval(SimDuration::from_secs(50));
        let mut session = Session::from_config(&config, 5).expect("builds");
        session.attach(Box::new(SnapshotsProbe::new(vec![0, 100])));
        session.attach(Box::new(PopulationSeriesProbe::new()));
        session.run_until(SimTime::from_secs(200));
        let (record, _) = session.finish();
        let snaps = &record.snapshots;
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, 0, "t=0 snapshot recorded");
        let population = &record.population_series;
        // Bootstrap point + 4 grid ticks — the t=0 extra stop must not
        // add a second (0, n) point.
        assert_eq!(population.len(), 5, "{population:?}");
        assert_eq!(population[0], (0.0, 20.0));
        assert!(population.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn probes_work_on_chunk_level_markets() {
        use scrip_streaming::StreamingConfig;
        let config = MarketConfig::new(30, 40)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .sample_interval(SimDuration::from_secs(25));
        let record = observed_record(&config, 17, 200);
        assert!(!record.gini_series.is_empty());
        assert!(!record.stall_series.is_empty(), "chunk level");
        assert!(!&record.throughput_series.is_empty());
        assert_eq!(record.lorenz.len(), 101);
        assert_eq!(record.final_balances.len(), 30);
    }
}
