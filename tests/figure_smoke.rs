//! Smoke tests: every figure regenerator runs at quick scale and
//! reproduces the paper's qualitative shape.

use scrip_bench::figures;
use scrip_bench::scale::RunScale;
use scrip_bench::scenario::RunnerOptions;

const Q: RunScale = RunScale::Quick;
/// One worker per core for the scenario runs inside each figure.
const THREADS: &RunnerOptions = &RunnerOptions { threads: 0 };

#[test]
fn fig01_condensed_vs_balanced_contrast() {
    let fig = figures::fig01_spending_rates(Q, THREADS).expect("runs");
    assert_eq!(fig.series.len(), 2);
    // The balanced case has near-uniform spending; the condensed case is
    // dominated by near-zero spenders. Compare by the Gini of the rate
    // series, the paper's own metric.
    let rate_gini = |label: &str| {
        let s = fig.series(label).expect("series");
        let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
        scrip_core::econ::gini(&ys).expect("non-empty")
    };
    let balanced = rate_gini("balanced_c12_uniform");
    let condensed = rate_gini("condensed_c200_poisson");
    assert!(balanced < 0.15, "balanced rate Gini {balanced:.3}");
    assert!(
        condensed > balanced + 0.1,
        "condensed rate Gini {condensed:.3} vs balanced {balanced:.3}"
    );
}

#[test]
fn fig02_lorenz_curves_are_valid() {
    let fig = figures::fig02_lorenz_pmf(Q, THREADS).expect("runs");
    assert_eq!(fig.series.len(), 6);
    for s in &fig.series {
        let first = s.points.first().expect("non-empty");
        let last = s.points.last().expect("non-empty");
        assert_eq!((first.0, first.1), (0.0, 0.0));
        assert!((last.0 - 1.0).abs() < 1e-9 && (last.1 - 1.0).abs() < 1e-9);
        // Below the equality line.
        for &(x, y) in &s.points {
            assert!(
                y <= x + 1e-9,
                "{}: point ({x}, {y}) above equality",
                s.label
            );
        }
    }
}

#[test]
fn fig03_product_form_gini_rises_with_wealth() {
    let fig = figures::fig03_gini_vs_wealth(Q, THREADS).expect("runs");
    for s in fig
        .series
        .iter()
        .filter(|s| s.label.starts_with("product_form"))
    {
        let first = s.points.first().expect("non-empty").1;
        let last = s.points.last().expect("non-empty").1;
        assert!(last > first, "{}: {first:.3} -> {last:.3}", s.label);
    }
}

#[test]
fn fig04_efficiency_saturates() {
    let fig = figures::fig04_efficiency(Q, THREADS).expect("runs");
    let exact = fig.series("exact_((N-1)/N)^M").expect("series");
    assert!(exact.points.first().expect("pt").1 < 0.1);
    assert!(exact.last_y().expect("pt") > 0.99);
    // Limit and exact forms agree.
    let limit = fig.series("limit_1-exp(-c)").expect("series");
    for (a, b) in exact.points.iter().zip(&limit.points) {
        assert!((a.1 - b.1).abs() < 0.01);
    }
}

#[test]
fn fig05_fig06_conserve_credits() {
    let early = figures::fig05_convergence_early(Q, THREADS).expect("runs");
    let late = figures::fig06_convergence_late(Q, THREADS).expect("runs");
    assert!(!early.series.is_empty());
    assert!(!late.series.is_empty());
    // Total credits at every snapshot are conserved (c = 100 per peer).
    for s in early.series.iter().chain(&late.series) {
        let total: f64 = s.points.iter().map(|&(_, y)| y).sum();
        let expected = s.points.len() as f64 * 100.0;
        assert!(
            (total - expected).abs() < 1e-6,
            "{}: total {total} vs {expected}",
            s.label
        );
    }
}

#[test]
fn fig08_asymmetric_gini_is_high_for_all_wealth_levels() {
    let fig = figures::fig08_gini_evolution_asymmetric(Q, THREADS).expect("runs");
    for s in &fig.series {
        let plateau = s.tail_mean(5).expect("points");
        assert!(plateau > 0.5, "{}: plateau {plateau:.3}", s.label);
    }
}

#[test]
fn fig10_dynamic_beats_static() {
    let fig = figures::fig10_dynamic_spending(Q, THREADS).expect("runs");
    let fixed = fig.series("without_adjustment").expect("series");
    let dynamic = fig.series("with_adjustment").expect("series");
    assert!(
        dynamic.tail_mean(5).expect("pts") < fixed.tail_mean(5).expect("pts"),
        "dynamic spending should lower the Gini"
    );
}

#[test]
fn fig11_churn_lowers_gini() {
    let fig = figures::fig11_churn(Q, THREADS).expect("runs");
    let static_g = fig
        .series("p1_static")
        .expect("series")
        .tail_mean(5)
        .expect("pts");
    let churn_g = fig
        .series("p1_lifespan1000_arr1")
        .expect("series")
        .tail_mean(5)
        .expect("pts");
    assert!(
        churn_g < static_g,
        "churn {churn_g:.3} should be below static {static_g:.3}"
    );
}

#[test]
fn streaming_stall_tracks_wealth() {
    let fig = figures::streaming_stall_vs_wealth(Q, THREADS).expect("runs");
    assert_eq!(fig.series.len(), 6, "stall + gini per wealth level");
    let final_stall = |label: &str| {
        fig.series(label)
            .unwrap_or_else(|| panic!("missing series {label}"))
            .last_y()
            .expect("non-empty")
    };
    // The starved swarm stalls more than the rich one — bankruptcy
    // surfaces as playback quality.
    let poor = final_stall("stall_c2");
    let rich = final_stall("stall_c100");
    assert!(
        poor > rich + 0.05,
        "poor stall {poor:.3} should clearly exceed rich {rich:.3}"
    );
    for s in &fig.series {
        for &(_, y) in &s.points {
            assert!((0.0..=1.0).contains(&y), "{}: out of range {y}", s.label);
        }
    }
}

#[test]
fn ablations_run() {
    let a = figures::ablation_approx_vs_exact(Q, THREADS).expect("runs");
    assert!(a.series("tv_distance").is_some());
    let b = figures::ablation_solvers(Q, THREADS).expect("runs");
    // Cross-checks agree to near machine precision.
    for s in &b.series {
        for &(_, diff) in &s.points {
            assert!(diff < 1e-6, "{}: disagreement {diff}", s.label);
        }
    }
    let c = figures::ablation_queue_vs_protocol(Q, THREADS).expect("runs");
    assert_eq!(c.series.len(), 2);
}
