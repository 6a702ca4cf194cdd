//! `scrip-sim` — the scenario-driven experiment runner.
//!
//! One CLI for the whole evaluation: reproduce any built-in figure or
//! ablation from its declarative scenario, run brand-new workloads from
//! scenario files (grammar in `docs/SCENARIOS.md`), or regenerate the
//! entire evaluation in parallel.
//!
//! ```text
//! scrip-sim list                               # built-in experiments & scenarios
//! scrip-sim metrics                            # every registered metric probe
//! scrip-sim all [--csv] [--threads N]          # every figure + ablation, in parallel
//! scrip-sim run fig07 [--csv]                  # one built-in experiment
//! scrip-sim run examples/scenarios/flash_crowd.scn --csv
//! scrip-sim check examples/scenarios/*.scn     # parse + validate + expand
//! scrip-sim export fig07                       # print a built-in as a scenario file
//! scrip-sim bench --json                       # market throughput -> BENCH_market.json
//! ```
//!
//! `SCRIP_QUICK=1` selects the reduced scale for built-in experiments;
//! scenario files always run at their stated scale. `SCRIP_THREADS` (or
//! `--threads N`) caps the batch runner's workers; results are
//! byte-identical for every thread count.

use std::path::Path;
use std::process::ExitCode;

use scrip_bench::figures;
use scrip_bench::scale::RunScale;
use scrip_bench::scenario::{
    cadence, checkpoint_to, run_driven, run_scenario, Driver, Metric, Replication, RunnerOptions,
    Scenario, ScenarioError, ScenarioResult,
};
use scrip_bench::serve::{Client, ServeOptions, Server};
use scrip_core::des::{SimTime, TraceFile, TraceFrame, TraceTailer};
use scrip_core::market::MarketConfig;
use scrip_core::obs::{describe_event, Session};

const USAGE: &str = "\
scrip-sim — scenario-driven experiment runner for the scrip reproduction

USAGE:
    scrip-sim list
    scrip-sim metrics
    scrip-sim all [--csv] [--threads N]
    scrip-sim run <NAME|FILE.scn>... [--csv] [--threads N]
    scrip-sim run <FILE.scn> [--checkpoint-every SECS] [--checkpoint-file PATH] [--resume PATH]
    scrip-sim check <FILE.scn>...
    scrip-sim export <NAME>
    scrip-sim bench [--json] [--out FILE] [--against FILE] [--only REGIME[,REGIME...]]
    scrip-sim record <FILE.scn> [--trace OUT.trc]
    scrip-sim replay <FILE.scn> [--trace IN.trc]
    scrip-sim trace-diff <A.trc> <B.trc>
    scrip-sim tail <FILE.trc> [--follow]
    scrip-sim serve [--addr HOST:PORT] [--state-dir DIR] [--workers N]
    scrip-sim submit <FILE.scn> [--addr A] [--name TOKEN] [--timeout-secs N]
                     [--checkpoint-every SECS] [--wait]
    scrip-sim status <JOB> [--addr A]
    scrip-sim result <JOB> [--addr A]
    scrip-sim cancel <JOB> [--addr A]
    scrip-sim watch <JOB> [--addr A]
    scrip-sim stats [--addr A]
    scrip-sim drain [--addr A]

NAME is a built-in experiment (see `scrip-sim list`); FILE.scn is a
scenario file (grammar: docs/SCENARIOS.md); `metrics` lists every
registered metric probe selectable via `metrics = [...]` in [run].
SCRIP_QUICK=1 shrinks the built-in experiments and the bench suite;
SCRIP_THREADS or --threads caps worker threads (0 = one per core).
`bench` measures market events/sec single-threaded, `--json` writes
BENCH_market.json (or --out FILE), and `--against BASELINE.json` exits
non-zero when any matching case regresses more than 30%. `--only`
re-measures just the named row families (e.g. `--only churn,faulted`);
a partial run is written only to an explicit --out FILE.
--checkpoint-every SECS writes a crash-safe snapshot of a single-case,
single-replication scenario run (either granularity) every SECS simulated
seconds (to FILE.scn.ckpt, or --checkpoint-file PATH); --resume PATH
restarts such a run from a snapshot. A resumed run's output is
byte-identical to the uninterrupted run, fault plans included.
`record` runs a single-case, single-replication scenario and logs every
applied event plus per-boundary state digests to a SCRIPTRC trace
(default FILE.scn.trc). `replay` re-executes the scenario against a
trace, fail-closed: it exits non-zero naming the first divergent
(time, seq) on any mismatch, and emits the normal run output when the
replay verifies. `trace-diff` compares two traces frame by frame and
reports the first divergence with decoded payloads (exit 1) or counts
matching frames (exit 0).
`tail` prints a SCRIPTRC file's frames as they land; --follow keeps
polling until the writer closes the file with its end frame.
`serve` starts the crash-safe job daemon (protocol and lifecycle:
docs/ARCHITECTURE.md §Job service): jobs and their transitions persist
in --state-dir, workers checkpoint single-case, single-replication runs
(every --checkpoint-every SECS, else about once per second of wall
time), and a
restarted daemon resumes unfinished jobs from their latest snapshot —
the served CSV is byte-identical to `scrip-sim run`, even across a
kill. --addr with port 0 picks an ephemeral port (read back from
DIR/addr). The client verbs talk to a running daemon at --addr
(default 127.0.0.1:7177): `submit` sends a scenario file (--wait blocks
until the job finishes and fails on a failed job), `status`/`result`/
`cancel` manage one job, `watch` streams its live per-boundary samples
to stdout, `stats` prints daemon counters, `drain` finishes the queue
and shuts the daemon down.";

struct Options {
    csv: bool,
    json: bool,
    threads: usize,
    out: Option<String>,
    against: Option<String>,
    only: Vec<String>,
    checkpoint_every: Option<u64>,
    checkpoint_file: Option<String>,
    resume: Option<String>,
    trace: Option<String>,
    addr: String,
    state_dir: String,
    workers: usize,
    name: Option<String>,
    timeout_secs: Option<u64>,
    wait: bool,
    follow: bool,
    targets: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        csv: false,
        json: false,
        threads: RunnerOptions::from_env().threads,
        out: None,
        against: None,
        only: Vec::new(),
        checkpoint_every: None,
        checkpoint_file: None,
        resume: None,
        trace: None,
        addr: "127.0.0.1:7177".to_string(),
        state_dir: "scrip-serve-state".to_string(),
        workers: 2,
        name: None,
        timeout_secs: None,
        wait: false,
        follow: false,
        targets: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--csv" => options.csv = true,
            "--json" => options.json = true,
            "--serial" => options.threads = 1,
            "--threads" => {
                options.threads = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads expects a number")?;
            }
            "--out" => {
                options.out = Some(iter.next().ok_or("--out expects a path")?.clone());
            }
            "--against" => {
                options.against = Some(iter.next().ok_or("--against expects a path")?.clone());
            }
            "--only" => {
                let list = iter.next().ok_or("--only expects a regime list")?;
                for regime in list.split(',') {
                    if !scrip_bench::perf::BENCH_REGIMES.contains(&regime) {
                        return Err(format!(
                            "--only: unknown regime {regime:?} (one of {})",
                            scrip_bench::perf::BENCH_REGIMES.join(", ")
                        ));
                    }
                    options.only.push(regime.to_string());
                }
            }
            "--checkpoint-every" => {
                let secs: u64 = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--checkpoint-every expects a number of seconds")?;
                if secs == 0 {
                    return Err("--checkpoint-every expects a positive number of seconds".into());
                }
                options.checkpoint_every = Some(secs);
            }
            "--checkpoint-file" => {
                options.checkpoint_file = Some(
                    iter.next()
                        .ok_or("--checkpoint-file expects a path")?
                        .clone(),
                );
            }
            "--resume" => {
                options.resume = Some(iter.next().ok_or("--resume expects a path")?.clone());
            }
            "--trace" => {
                options.trace = Some(iter.next().ok_or("--trace expects a path")?.clone());
            }
            "--addr" => {
                options.addr = iter.next().ok_or("--addr expects host:port")?.clone();
            }
            "--state-dir" => {
                options.state_dir = iter.next().ok_or("--state-dir expects a path")?.clone();
            }
            "--workers" => {
                let workers: usize = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--workers expects a number")?;
                if workers == 0 {
                    return Err("--workers expects a number >= 1".into());
                }
                options.workers = workers;
            }
            "--name" => {
                options.name = Some(iter.next().ok_or("--name expects a token")?.clone());
            }
            "--timeout-secs" => {
                options.timeout_secs = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--timeout-secs expects a number of seconds")?,
                );
            }
            "--wait" => options.wait = true,
            "--follow" => options.follow = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            target => options.targets.push(target.to_string()),
        }
    }
    Ok(options)
}

fn run_builtin(name: &str, options: &Options) -> Result<(), String> {
    let scale = RunScale::from_env();
    let (_, run) = figures::experiments()
        .into_iter()
        .find(|&(n, _)| n == name)
        .ok_or_else(|| format!("unknown experiment {name:?} (see `scrip-sim list`)"))?;
    let start = std::time::Instant::now();
    let fig = run(scale, &RunnerOptions::with_threads(options.threads));
    let fig = fig.map_err(|e| format!("{name}: {e}"))?;
    eprintln!("{name}: {:.1?}", start.elapsed());
    figures::print_figure(&fig, options.csv);
    Ok(())
}

/// Reads and parses a scenario file.
fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Scenario::parse_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Loads a scenario file that runs exactly one replication — the shape
/// checkpointed runs, `record` and `replay` need — with its market.
fn load_single(path: &str, verb: &str) -> Result<(Scenario, MarketConfig), String> {
    let scenario = load_scenario(path)?;
    let config = scenario
        .single_config()
        .map_err(|e| format!("{path}: {verb}: {e}"))?;
    Ok((scenario, config))
}

fn run_file(path: &str, options: &Options) -> Result<(), String> {
    let scenario = load_scenario(path)?;
    let result = run_scenario(&scenario, &RunnerOptions::with_threads(options.threads))
        .map_err(|e| format!("{path}: {e}"))?;
    emit_result(&result, options);
    Ok(())
}

/// Runs a single-replication scenario file through `driver` and prints
/// it in the `run` output format — byte-identical to a plain run, since
/// the driver only pauses, snapshots or traces the one execution path.
fn run_single(
    path: &str,
    verb: &str,
    driver: &dyn Driver,
    options: &Options,
) -> Result<(), String> {
    let (scenario, _) = load_single(path, verb)?;
    let result = run_driven(&scenario, &RunnerOptions::with_threads(1), driver)
        .map_err(|e| format!("{path}: {e}"))?;
    emit_result(&result, options);
    Ok(())
}

/// Prints a finished scenario in the `run` output format. Stdout is
/// deterministic (byte-identical for any thread count, and for
/// checkpointed vs. straight-through execution); timing goes to stderr.
fn emit_result(result: &ScenarioResult, options: &Options) {
    let scenario = &result.scenario;
    eprintln!("{}: {:.1?}", scenario.name, result.wall);
    if scenario.title.is_empty() {
        println!("== {}", scenario.name);
    } else {
        println!("== {} — {}", scenario.name, scenario.title);
    }
    println!(
        "   horizon {}s, seed {}, {} replication(s), {} case(s)",
        scenario.run.horizon_secs,
        scenario.run.seed,
        scenario.run.replications,
        result.cases.len()
    );
    for line in result.summary_lines() {
        println!("   {line}");
    }
    if options.csv {
        print!("{}", result.to_csv());
    }
}

/// `run --checkpoint-every/--resume`: resumes from a snapshot when asked
/// and writes a crash-safe one at every interior multiple of the
/// interval (the final state needs none: its output is already emitted).
struct Checkpointing {
    resume: Option<String>,
    every_secs: Option<u64>,
    path: String,
}

impl Driver for Checkpointing {
    fn open(&self, rep: &Replication<'_>) -> Result<Session, ScenarioError> {
        let Some(snapshot) = &self.resume else {
            return rep.fresh();
        };
        std::fs::read(snapshot)
            .map_err(|e| e.to_string())
            .and_then(|bytes| rep.resume(&bytes).map_err(|e| e.to_string()))
            .map_err(|e| ScenarioError::Run(format!("{snapshot}: {e}")))
    }

    fn pauses(&self, rep: &Replication<'_>) -> Vec<SimTime> {
        self.every_secs.map_or_else(Vec::new, |secs| {
            cadence(secs.saturating_mul(1_000_000), rep.horizon())
        })
    }

    fn at_pause(&self, _rep: &Replication<'_>, session: &Session) -> Result<(), ScenarioError> {
        checkpoint_to(session, Path::new(&self.path))
    }
}

/// Runs one scenario file with on-disk checkpoints and/or resuming from
/// a prior snapshot; the output is byte-identical to a plain
/// `scrip-sim run` of the same file — resumed or not.
fn run_file_checkpointed(path: &str, options: &Options) -> Result<(), String> {
    let driver = Checkpointing {
        resume: options.resume.clone(),
        every_secs: options.checkpoint_every,
        path: options
            .checkpoint_file
            .clone()
            .or_else(|| options.resume.clone())
            .unwrap_or_else(|| format!("{path}.ckpt")),
    };
    run_single(path, "checkpointed run", &driver, options)
}

/// `record`/`replay`: a trace attached before the first event and
/// completed at the horizon — for a replay, that is also where a
/// recorded run that went on longer is caught.
struct Tracing {
    path: String,
    replay: bool,
}

impl Tracing {
    fn fail(&self, e: impl std::fmt::Display) -> ScenarioError {
        ScenarioError::Run(format!("{}: {e}", self.path))
    }
}

impl Driver for Tracing {
    fn open(&self, rep: &Replication<'_>) -> Result<Session, ScenarioError> {
        let mut session = rep.fresh()?;
        let path = Path::new(&self.path);
        let attached = if self.replay {
            session.replay_from(path)
        } else {
            session.record_to(path)
        };
        attached.map_err(|e| self.fail(e))?;
        Ok(session)
    }

    fn at_horizon(
        &self,
        _rep: &Replication<'_>,
        session: &mut Session,
    ) -> Result<(), ScenarioError> {
        session.finish_trace().map_err(|e| self.fail(e))
    }
}

/// The trace path for a scenario file: `--trace PATH` or `FILE.scn.trc`.
fn trace_path_for(path: &str, options: &Options) -> String {
    options
        .trace
        .clone()
        .unwrap_or_else(|| format!("{path}.trc"))
}

/// `scrip-sim record FILE.scn [--trace OUT.trc]`: run the scenario
/// once, logging every applied event and per-boundary state digest to a
/// SCRIPTRC trace.
fn cmd_record(options: &Options) -> Result<(), String> {
    let [target] = options.targets.as_slice() else {
        return Err("record: expected exactly one scenario file".into());
    };
    let path = trace_path_for(target, options);
    let driver = Tracing {
        path: path.clone(),
        replay: false,
    };
    run_single(target, "record", &driver, options)?;
    eprintln!("recorded {path}");
    Ok(())
}

/// `scrip-sim replay FILE.scn [--trace IN.trc]`: re-execute the scenario against a recorded trace, fail-closed. On
/// success the normal run output is emitted (byte-identical to the
/// recording run's); on the first mismatching event or digest the run
/// freezes and the divergent `(time, seq)` is reported with exit 1.
fn cmd_replay(options: &Options) -> Result<(), String> {
    let [target] = options.targets.as_slice() else {
        return Err("replay: expected exactly one scenario file".into());
    };
    let path = trace_path_for(target, options);
    let driver = Tracing {
        path: path.clone(),
        replay: true,
    };
    run_single(target, "replay", &driver, options)?;
    eprintln!("replay verified against {path}");
    Ok(())
}

/// Renders one frame for `tail` and `trace-diff` output: event payloads
/// of either market granularity decode to their debug form, text
/// payloads (e.g. daemon sample logs) print verbatim, anything else by
/// size.
fn describe_frame(frame: &TraceFrame) -> String {
    match frame {
        TraceFrame::Event { time, seq, payload } => {
            let body =
                describe_event(payload).unwrap_or_else(|| match std::str::from_utf8(payload) {
                    Ok(text) => text.to_string(),
                    Err(_) => format!("<{} payload bytes>", payload.len()),
                });
            format!("event t={}µs seq={seq} {body}", time.as_micros())
        }
        TraceFrame::Digest {
            time,
            events_processed,
            digest,
        } => format!(
            "digest t={}µs events={events_processed} {digest:#018x}",
            time.as_micros()
        ),
        TraceFrame::End {
            time,
            events_processed,
        } => format!("end t={}µs events={events_processed}", time.as_micros()),
        TraceFrame::State {
            time,
            events_processed,
            payload,
        } => format!(
            "state t={}µs events={events_processed} <{} payload bytes>",
            time.as_micros(),
            payload.len()
        ),
    }
}

/// `scrip-sim trace-diff A.trc B.trc`: lockstep frame comparison. Exit
/// 0 when the traces are identical, 1 with the first divergent frame
/// pair (decoded) otherwise.
fn cmd_trace_diff(options: &Options) -> Result<(), String> {
    let [path_a, path_b] = options.targets.as_slice() else {
        return Err("trace-diff: expected exactly two trace files".into());
    };
    let mut a = TraceFile::open(Path::new(path_a)).map_err(|e| format!("{path_a}: {e}"))?;
    let mut b = TraceFile::open(Path::new(path_b)).map_err(|e| format!("{path_b}: {e}"))?;
    if a.header() != b.header() {
        let (ha, hb) = (*a.header(), *b.header());
        println!(
            "headers differ: fingerprint {:#018x} seed {} vs fingerprint {:#018x} seed {}",
            ha.fingerprint, ha.seed, hb.fingerprint, hb.seed
        );
        return Err("traces diverge (headers)".into());
    }
    let (mut events, mut digests) = (0u64, 0u64);
    loop {
        let fa = a.next_frame().map_err(|e| format!("{path_a}: {e}"))?;
        let fb = b.next_frame().map_err(|e| format!("{path_b}: {e}"))?;
        if fa != fb {
            let at = match (&fa, &fb) {
                (Some(TraceFrame::Event { time, seq, .. }), _)
                | (_, Some(TraceFrame::Event { time, seq, .. })) => {
                    format!("(t={}µs, seq={seq})", time.as_micros())
                }
                (Some(frame), _) | (_, Some(frame)) => {
                    format!("t={}µs", frame.time().as_micros())
                }
                (None, None) => unreachable!("equal frames compared unequal"),
            };
            let describe =
                |f: &Option<TraceFrame>| f.as_ref().map_or("end of trace".into(), describe_frame);
            println!("first divergence at {at}:");
            println!("  {path_a}: {}", describe(&fa));
            println!("  {path_b}: {}", describe(&fb));
            return Err("traces diverge".into());
        }
        match fa {
            None => break,
            Some(TraceFrame::Event { .. }) => events += 1,
            Some(TraceFrame::Digest { .. }) => digests += 1,
            Some(TraceFrame::End { .. } | TraceFrame::State { .. }) => {}
        }
    }
    println!("traces identical: {events} event frame(s), {digests} digest frame(s)");
    Ok(())
}

fn cmd_run(options: &Options) -> Result<(), String> {
    if options.targets.is_empty() {
        return Err("run: no experiment or scenario file given".into());
    }
    if options.checkpoint_every.is_some()
        || options.checkpoint_file.is_some()
        || options.resume.is_some()
    {
        let [target] = options.targets.as_slice() else {
            return Err("run: checkpoint/resume flags apply to exactly one scenario file".into());
        };
        if figures::experiments().iter().any(|&(n, _)| n == target) {
            return Err(format!(
                "run: built-in experiment {target:?} cannot checkpoint; \
                 export it first (`scrip-sim export {target}`)"
            ));
        }
        return run_file_checkpointed(target, options);
    }
    let builtin: Vec<&str> = figures::experiments().iter().map(|&(n, _)| n).collect();
    for target in &options.targets {
        if builtin.contains(&target.as_str()) {
            run_builtin(target, options)?;
        } else {
            run_file(target, options)?;
        }
    }
    Ok(())
}

fn cmd_all(options: &Options) -> Result<(), String> {
    if let [stray, ..] = options.targets.as_slice() {
        return Err(format!(
            "all takes no experiment names (got {stray:?}); did you mean `scrip-sim run {stray}`?"
        ));
    }
    let scale = RunScale::from_env();
    eprintln!("running all experiments at scale {scale:?}");
    figures::run_all_experiments(scale, options.threads)
        .map_err(|e| e.to_string())?
        .print(options.csv);
    Ok(())
}

fn cmd_list(options: &Options) -> Result<(), String> {
    if !options.targets.is_empty() {
        return Err("list takes no arguments".into());
    }
    print_list();
    Ok(())
}

fn print_list() {
    let scenario_names: Vec<&str> = figures::scenarios().iter().map(|&(n, _)| n).collect();
    println!("built-in experiments (scrip-sim run <NAME>):");
    for (name, _) in figures::experiments() {
        let kind = if scenario_names.contains(&name) {
            "scenario-driven (scrip-sim export works)"
        } else {
            "analytic"
        };
        println!("  {name:<10} {kind}");
    }
}

fn cmd_metrics(options: &Options) -> Result<(), String> {
    if !options.targets.is_empty() {
        return Err("metrics takes no arguments".into());
    }
    println!("registered metrics (scenario files: metrics = [\"<name>\", ...] under [run]):");
    for metric in Metric::ALL {
        let tag = if metric.always_on() {
            "always measured"
        } else {
            "opt-in"
        };
        println!("  {:<18} {:<16} {}", metric.name(), tag, metric.doc());
    }
    Ok(())
}

fn cmd_check(options: &Options) -> Result<(), String> {
    if options.targets.is_empty() {
        return Err("check: no scenario file given".into());
    }
    for path in &options.targets {
        let scenario = load_scenario(path)?;
        scenario.validate().map_err(|e| format!("{path}: {e}"))?;
        let cases = scenario.expand().map_err(|e| format!("{path}: {e}"))?;
        let jobs = cases.len() * scenario.run.replications;
        println!(
            "{path}: ok — scenario {:?}, {} case(s) × {} replication(s) = {jobs} job(s)",
            scenario.name,
            cases.len(),
            scenario.run.replications
        );
        for case in cases {
            println!("  case {}", case.label);
        }
    }
    Ok(())
}

fn cmd_bench(options: &Options) -> Result<(), String> {
    if let [stray, ..] = options.targets.as_slice() {
        return Err(format!(
            "bench takes no positional arguments (got {stray:?})"
        ));
    }
    if !options.only.is_empty() && options.json && options.out.is_none() {
        return Err("bench --only writes a partial report: pass --out FILE \
                    instead of overwriting BENCH_market.json"
            .into());
    }
    let scale = RunScale::from_env();
    eprintln!("running market bench at scale {scale:?} (single-threaded)");
    let report = scrip_bench::perf::run_bench(scale, &options.only);
    // --out implies writing the file even without --json.
    if options.json || options.out.is_some() {
        let path = options.out.as_deref().unwrap_or("BENCH_market.json");
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    } else {
        print!("{}", report.to_json());
    }
    if let Some(baseline_path) = &options.against {
        let text =
            std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
        let baseline = scrip_bench::perf::BenchReport::from_json(&text)
            .map_err(|e| format!("{baseline_path}: {e}"))?;
        let failures = scrip_bench::perf::compare_against(&report, &baseline, 0.30);
        if !failures.is_empty() {
            return Err(format!(
                "throughput regression vs {baseline_path}:\n  {}",
                failures.join("\n  ")
            ));
        }
        eprintln!("no case regressed more than 30% vs {baseline_path}");
    }
    let record_failures = scrip_bench::perf::record_overhead_failures(&report);
    if !record_failures.is_empty() {
        return Err(format!(
            "trace-recording overhead gate failed:\n  {}",
            record_failures.join("\n  ")
        ));
    }
    eprintln!("trace recording stayed within its churn-throughput overhead floor");
    let budget = scrip_bench::perf::rss_budget_bytes(scale);
    let rss_failures = scrip_bench::perf::check_rss_budget(&report, budget);
    if !rss_failures.is_empty() {
        return Err(format!(
            "peak-RSS budget exceeded:\n  {}",
            rss_failures.join("\n  ")
        ));
    }
    eprintln!(
        "peak RSS within the {} MiB budget for scale {scale:?}",
        budget >> 20
    );
    Ok(())
}

fn cmd_export(options: &Options) -> Result<(), String> {
    let [name] = options.targets.as_slice() else {
        return Err("export: expected exactly one built-in scenario name".into());
    };
    let scale = RunScale::from_env();
    let (_, emit) = figures::scenarios()
        .into_iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| {
            format!("no scenario behind {name:?} (analytic experiments cannot be exported)")
        })?;
    print!("{}", emit(scale).to_file_string());
    Ok(())
}

/// `scrip-sim tail FILE.trc [--follow]`: print a SCRIPTRC file's frames
/// as they land. Without --follow, prints what is currently decodable
/// and exits; with it, keeps polling (surviving a torn frame at the
/// tail) until the writer closes the file with its end frame.
fn cmd_tail(options: &Options) -> Result<(), String> {
    let [path] = options.targets.as_slice() else {
        return Err("tail: expected exactly one trace file".into());
    };
    let mut tailer = TraceTailer::new(Path::new(path));
    let mut announced = false;
    loop {
        let frames = tailer.poll().map_err(|e| format!("{path}: {e}"))?;
        if !announced {
            if let Some(header) = tailer.header() {
                eprintln!(
                    "{path}: fingerprint {:#018x}, seed {}",
                    header.fingerprint, header.seed
                );
                announced = true;
            }
        }
        for frame in &frames {
            println!("{}", describe_frame(frame));
        }
        // A poll reads a bounded chunk, so keep polling until the file
        // holds no unread bytes: a poll inside a frame larger than the
        // chunk returns no frames yet.
        if tailer.finished() || (!options.follow && tailer.caught_up()) {
            return Ok(());
        }
        if tailer.caught_up() {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }
}

/// `scrip-sim serve`: run the job daemon until a client drains it.
fn cmd_serve(options: &Options) -> Result<(), String> {
    if let [stray, ..] = options.targets.as_slice() {
        return Err(format!(
            "serve takes no positional arguments (got {stray:?})"
        ));
    }
    let mut serve_options = ServeOptions::new(options.addr.clone(), &options.state_dir);
    serve_options.workers = options.workers;
    let server = Server::start(&serve_options)?;
    server.join();
    eprintln!("serve: drained, exiting");
    Ok(())
}

/// `scrip-sim submit FILE.scn`: send a scenario to the daemon; prints
/// the job id. With --wait, blocks until the job is terminal and exits
/// non-zero unless it completed.
fn cmd_submit(options: &Options) -> Result<(), String> {
    let [path] = options.targets.as_slice() else {
        return Err("submit: expected exactly one scenario file".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut client = Client::connect(&options.addr)?;
    let job = client.submit(
        &text,
        options.name.as_deref(),
        options.timeout_secs,
        options.checkpoint_every,
    )?;
    println!("{job}");
    if options.wait {
        let state = client.wait_terminal(&job, 86_400)?;
        let detail = client.status(&job)?;
        eprintln!("{job}: {detail}");
        if state != "completed" {
            return Err(format!("job {job} {state}"));
        }
    }
    Ok(())
}

/// `scrip-sim status JOB`: print the job's state word (plus detail).
fn cmd_status(options: &Options) -> Result<(), String> {
    let [job] = options.targets.as_slice() else {
        return Err("status: expected exactly one job id".into());
    };
    println!("{}", Client::connect(&options.addr)?.status(job)?);
    Ok(())
}

/// `scrip-sim result JOB`: print a completed job's CSV to stdout.
fn cmd_result(options: &Options) -> Result<(), String> {
    let [job] = options.targets.as_slice() else {
        return Err("result: expected exactly one job id".into());
    };
    print!("{}", Client::connect(&options.addr)?.result_csv(job)?);
    Ok(())
}

/// `scrip-sim cancel JOB`: request cancellation.
fn cmd_cancel(options: &Options) -> Result<(), String> {
    let [job] = options.targets.as_slice() else {
        return Err("cancel: expected exactly one job id".into());
    };
    println!("{}", Client::connect(&options.addr)?.cancel(job)?);
    Ok(())
}

/// `scrip-sim watch JOB`: stream the job's live samples to stdout (one
/// `sample …` line per boundary) until the job ends; exits non-zero
/// when the job failed.
fn cmd_watch(options: &Options) -> Result<(), String> {
    let [job] = options.targets.as_slice() else {
        return Err("watch: expected exactly one job id".into());
    };
    let client = Client::connect(&options.addr)?;
    let state = client.subscribe(job, |payload| println!("sample {payload}"))?;
    eprintln!("{job}: {state}");
    if state == "failed" {
        return Err(format!("job {job} failed"));
    }
    Ok(())
}

/// `scrip-sim stats`: print the daemon's counters.
fn cmd_stats(options: &Options) -> Result<(), String> {
    if let [stray, ..] = options.targets.as_slice() {
        return Err(format!(
            "stats takes no positional arguments (got {stray:?})"
        ));
    }
    println!("{}", Client::connect(&options.addr)?.stats()?);
    Ok(())
}

/// `scrip-sim drain`: finish the queue and shut the daemon down.
fn cmd_drain(options: &Options) -> Result<(), String> {
    if let [stray, ..] = options.targets.as_slice() {
        return Err(format!(
            "drain takes no positional arguments (got {stray:?})"
        ));
    }
    Client::connect(&options.addr)?.drain()?;
    eprintln!("drained {}", options.addr);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let options = match parse_options(rest) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("scrip-sim: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "list" => cmd_list(&options),
        "metrics" => cmd_metrics(&options),
        "all" => cmd_all(&options),
        "run" => cmd_run(&options),
        "check" => cmd_check(&options),
        "export" => cmd_export(&options),
        "bench" => cmd_bench(&options),
        "record" => cmd_record(&options),
        "replay" => cmd_replay(&options),
        "trace-diff" => cmd_trace_diff(&options),
        "bisect" => Err(
            "`bisect` was removed: `scrip-sim replay FILE.scn --trace PATH` \
             reports the first divergent (time, seq)"
                .into(),
        ),
        "tail" => cmd_tail(&options),
        "serve" => cmd_serve(&options),
        "submit" => cmd_submit(&options),
        "status" => cmd_status(&options),
        "result" => cmd_result(&options),
        "cancel" => cmd_cancel(&options),
        "watch" => cmd_watch(&options),
        "stats" => cmd_stats(&options),
        "drain" => cmd_drain(&options),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scrip-sim: {e}");
            ExitCode::FAILURE
        }
    }
}
