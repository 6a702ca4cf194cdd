//! # scrip-bench — experiment harness for the `scrip` reproduction
//!
//! One regenerator per table/figure of Qiu et al., *"Exploring the
//! Sustainability of Credit-incentivized Peer-to-Peer Content
//! Distribution"* (ICDCSW 2012), plus ablation studies and the
//! `scrip-sim bench` throughput harness ([`perf`]).
//!
//! Every figure is implemented as a library function in [`figures`]
//! returning a typed [`figures::FigureResult`]; `scrip-sim run NAME
//! --csv` prints one as CSV, the `figure_smoke` integration test runs
//! them at reduced scale, and `scrip-sim all` regenerates the whole
//! evaluation section in one go.
//!
//! Experiments are described declaratively by the [`scenario`] engine: a
//! [`scenario::Scenario`] bundles a base market, execution parameters,
//! explicit cases, and sweep axes, and the multi-threaded batch runner
//! ([`scenario::run_scenario`]) executes the whole grid with
//! deterministic per-replication seeds — results are byte-identical for
//! any thread count. The `scrip-sim` binary exposes all of this on the
//! command line, including scenario *files* (see `docs/SCENARIOS.md`).
//!
//! Scale control: set `SCRIP_QUICK=1` to run every experiment at a
//! reduced scale (smaller overlays, shorter horizons) — used by CI and
//! the smoke tests. The default is the paper's scale. Set
//! `SCRIP_THREADS=n` to cap the batch runner's worker threads (0 or
//! unset: one per core).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod perf;
pub mod scale;
pub mod scenario;
pub mod serve;
