//! The chunk-level streaming market experiment — beyond the paper.
//!
//! The paper's Fig. 1 measures credit condensation inside a live
//! streaming swarm but reports only spending rates; this experiment
//! closes the loop the paper argues verbally: as average wealth drops,
//! trade denials climb and surface as *playback stalls*, coupling the
//! wealth Gini to user-visible quality. One scenario, a sweep of
//! `credits` over three wealth levels on the chunk-granularity market
//! (`streaming = paced:1`, uniform pricing), reporting both the
//! stall-rate and Gini trajectories.

use scrip_core::spec::MarketSpec;

use crate::figures::{FigureResult, Series};
use crate::scale::RunScale;
use crate::scenario::{run_scenario, Metric, RunnerOptions, Scenario, ScenarioError, SweepAxis};

/// Average wealth levels swept: starved, adequate, rich.
const WEALTH_LEVELS: [u64; 3] = [2, 20, 100];

/// The declarative scenario behind the streaming experiment.
pub fn streaming_scenario(scale: RunScale) -> Scenario {
    let peers = scale.pick(300, 40);
    let horizon_secs = scale.pick(2_000, 300);
    let sample_secs = scale.pick(50, 25);
    let mut base = MarketSpec::new(peers, WEALTH_LEVELS[0]);
    base.set("streaming", "paced:1").expect("valid streaming");
    base.set("sample", &sample_secs.to_string()).expect("valid");
    let mut scenario = Scenario::new("streaming", base);
    scenario.title = "Chunk-level market: playback stalls vs average wealth".into();
    scenario.run.horizon_secs = horizon_secs;
    scenario.run.seed = 4242;
    scenario.run.metrics = vec![Metric::GiniSeries, Metric::StallSeries];
    scenario.sweep = vec![SweepAxis::new("credits", WEALTH_LEVELS)];
    scenario
}

/// Regenerates the streaming experiment: stall-rate and Gini evolution
/// at chunk granularity for three wealth levels.
///
/// # Errors
/// Returns [`ScenarioError`] when the underlying scenario fails to run.
pub fn streaming_stall_vs_wealth(
    scale: RunScale,
    options: &RunnerOptions,
) -> Result<FigureResult, ScenarioError> {
    let scenario = streaming_scenario(scale);
    let result = run_scenario(&scenario, options)?;
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (case, &c) in result.cases.iter().zip(&WEALTH_LEVELS) {
        let rep = &case.single().record;
        let stall = Series::new(format!("stall_c{c}"), rep.stall_series.clone());
        let gini = Series::new(format!("gini_c{c}"), rep.gini_series.clone());
        notes.push(format!(
            "c={c}: final stall rate = {:.3}, final wealth Gini = {:.3}, settlements = {}, \
             denials = {}",
            stall.last_y().unwrap_or(1.0),
            rep.wealth_gini.unwrap_or(f64::NAN),
            rep.purchases,
            rep.denied,
        ));
        series.push(stall);
        series.push(gini);
    }
    Ok(FigureResult {
        id: "streaming".into(),
        title: scenario.title,
        paper_expectation:
            "beyond the paper: the poorer the swarm, the more chunk trades are refused and the \
             higher the stall rate — bankruptcy surfaces as user-visible playback quality, the \
             failure mode the paper's sustainability argument predicts"
                .into(),
        x_label: "time (s)".into(),
        y_label: "stall rate / Gini".into(),
        series,
        notes,
    })
}
