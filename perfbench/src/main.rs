//! The benchmark of record for the scrip workspace.
//!
//! ```text
//! perfbench --workload churn|static|served --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for about
//! `--seconds` of timed work, checks the program's outputs, and prints
//! one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, taken by timing calls into each crate's public API
//! from here. Lines before the JSON start with `#` and carry the host,
//! sample counts and reconciliation detail. See `README.md`.

mod host;
mod layers;
mod market;
mod report;
mod served;

use report::Report;
use std::path::PathBuf;

/// The seed used when `--seed` is absent; claims are re-checked on
/// [`HELD_OUT_SEED`], which is never used while tuning a change.
const DEFAULT_SEED: u64 = 1;
/// The held-out seed for claims (see `README.md`).
const HELD_OUT_SEED: u64 = 97;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload churn|static|served --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!("# host: {}", host::describe());
    println!(
        "# workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // Scratch state (the daemon's state directory) lives in the build
    // directory of the checkout and is removed before exit.
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let work = PathBuf::from(target).join(format!("perfbench-work-{}", std::process::id()));
    let report: Report = match args.workload.as_str() {
        "churn" | "static" => {
            let workload = market::MarketWorkload::named(&args.workload);
            if args.trace {
                market::traced(&workload, args.seed)
            } else {
                market::timed(&workload, args.seed, args.seconds)
            }
        }
        "served" => served::run(args.seed, args.seconds, args.trace, &work),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (churn, static, served)");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    report.print();
}
