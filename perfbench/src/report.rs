//! Result assembly: order statistics and the final JSON line.

/// One run's outcome: the output checks and the metrics by name.
pub struct Report {
    /// Units of work whose outputs were checked.
    pub attempted: u64,
    /// Checked units whose outputs were wrong, or that failed outright.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts one checked unit of work.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("# FAILED check: {what}");
        }
    }

    /// Adds a metric; non-finite values (an empty ratio) read as 0.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints every metric as a `#` line, then the JSON result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("# {name:<28} {value:>16.6} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            body.join(", ")
        );
    }
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentile to report for `n` samples: 90 when at least ten
/// samples lie beyond it, otherwise the highest of 75/50 that has ten
/// (50 when even that is short, flagged in the printed note).
pub fn tail_percentile(n: usize) -> f64 {
    [90.0, 75.0]
        .into_iter()
        .find(|p| (1.0 - p / 100.0) * n as f64 >= 10.0)
        .unwrap_or(50.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB. Each run is its
/// own process, so this is the run's peak, not a suite-wide one.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the latency distribution behind the job-latency metrics and
/// adds `job_latency_p50_s` and `job_latency_p90_s` to `report`.
pub fn latency_metrics(report: &mut Report, what: &str, latencies: &[f64]) {
    let tail = tail_percentile(latencies.len());
    println!(
        "# {what}: n={} p50={:.6}s p{tail}={:.6}s max={:.6}s{}",
        latencies.len(),
        median(latencies),
        percentile(latencies, tail),
        percentile(latencies, 100.0),
        if (1.0 - tail / 100.0) * latencies.len() as f64 >= 10.0 {
            ""
        } else {
            " (fewer than 10 samples beyond the tail percentile)"
        }
    );
    report.metric("job_latency_p50_s", median(latencies), "s");
    report.metric("job_latency_p90_s", percentile(latencies, tail), "s");
}
