//! The `served` workload: an in-process `scrip-sim serve` daemon with
//! two workers, driven by two closed-loop clients. Each client holds one
//! connection, submits a job, polls its status until it ends, fetches
//! its CSV, and only then submits the next one. The jobs are a fixed
//! round-robin of paper-scale scenario texts generated from the seed.

use crate::market::{self, run_tapped};
use crate::report::{self, median, Report};
use scrip_bench::scenario::{run_scenario, RunnerOptions, Scenario};
use scrip_bench::serve::{Client, ServeOptions, Server};
use scrip_core::market::MarketConfig;
use scrip_core::obs::Session;
use scrip_core::protocol::build_streaming_market;
use scrip_des::{SeedSequence, SimTime, Simulation};
use scrip_streaming::StreamEvent;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// How often a client polls a running job's status.
const POLL: Duration = Duration::from_millis(2);
/// Seeds per job shape in the round-robin mix.
const VARIANTS: u64 = 4;
/// `wall_s` is the median time to complete this many jobs.
const BATCH: usize = 8;

/// Queue-level faulted churn market, checkpointed while it runs (the
/// shape of `examples/scenarios/fault_recovery.scn`).
const FAULT_PEERS: usize = 60;
const FAULT_HORIZON: u64 = 300;
const FAULT_CKPT: u64 = 75;
/// Chunk-level streaming market with churn (the shape of
/// `examples/scenarios/streaming_flash_crowd.scn`).
const STREAM_PEERS: usize = 60;
const STREAM_HORIZON: u64 = 60;

fn fault_text(k: u64, seed: u64) -> String {
    format!(
        "name = \"served-fault-{k}\"\n\
         title = \"Faulted churn market with checkpoints\"\n\n\
         [market]\n\
         peers = {FAULT_PEERS}\n\
         credits = 25\n\
         profile = \"asymmetric\"\n\
         sample = 60\n\
         churn = \"{}:1000:20\"\n\
         faults = \"0.05:0.03:0.02:0.005\"\n\
         faults.onset = 100\n\
         faults.retries = 4\n\n\
         [run]\n\
         horizon = {FAULT_HORIZON}\n\
         seed = {seed}\n\
         replications = 1\n\
         metrics = [\"gini-series\", \"fault-series\", \"population-series\"]\n",
        FAULT_PEERS as f64 / 1000.0
    )
}

fn stream_text(k: u64, seed: u64) -> String {
    format!(
        "name = \"served-stream-{k}\"\n\
         title = \"Chunk-level flash crowd\"\n\n\
         [market]\n\
         peers = {STREAM_PEERS}\n\
         credits = 40\n\
         streaming = \"paced:1\"\n\
         sample = 30\n\
         churn = \"0.6:100:12\"\n\n\
         [run]\n\
         horizon = {STREAM_HORIZON}\n\
         seed = {seed}\n\
         replications = 1\n\
         metrics = [\"gini-series\", \"stall-series\"]\n"
    )
}

/// One job text with what the in-process runner makes of it.
struct Job {
    text: String,
    checkpoint_every: Option<u64>,
    /// The 1-thread in-process runner's CSV: the daemon must match it.
    csv: String,
    /// The 1-thread in-process runner's wall time.
    run_ms: f64,
    /// Simulator events the job dispatches (over all cases and reps).
    events: u64,
}

/// Configs and replication seeds of every case × rep of a scenario, in
/// the runner's order.
fn runs_of(scenario: &Scenario) -> Vec<(MarketConfig, u64)> {
    let seq = SeedSequence::new(scenario.run.seed);
    let cases = scenario.expand().expect("generated scenario expands");
    cases
        .iter()
        .flat_map(|c| {
            let config = c.spec.build().expect("generated case builds");
            (0..scenario.run.replications as u64)
                .map(move |rep| (config.clone(), seq.replication_seed(rep)))
        })
        .collect()
}

/// The round-robin job mix for `seed`: `VARIANTS` seeds of each shape,
/// interleaved so consecutive jobs alternate shapes.
fn jobs(seed: u64) -> Vec<Job> {
    let seq = SeedSequence::new(seed);
    let texts: Vec<(String, Option<u64>)> = (0..VARIANTS)
        .flat_map(|k| {
            [
                (fault_text(k, seq.derive(2 * k)), Some(FAULT_CKPT)),
                (stream_text(k, seq.derive(2 * k + 1)), None),
            ]
        })
        .collect();
    texts
        .into_iter()
        .map(|(text, checkpoint_every)| {
            let scenario = Scenario::parse_str(&text).expect("generated scenario parses");
            let mut walls = Vec::new();
            let mut csv = String::new();
            for _ in 0..3 {
                let t = Instant::now();
                csv = run_scenario(&scenario, &RunnerOptions::with_threads(1))
                    .expect("generated scenario runs")
                    .to_csv();
                walls.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let horizon = SimTime::from_secs(scenario.run.horizon_secs);
            let events = runs_of(&scenario)
                .into_iter()
                .map(|(config, seed)| {
                    let mut session = Session::from_config(&config, seed).expect("case builds");
                    session.run_until(horizon);
                    session.stats().events_processed
                })
                .sum();
            Job {
                text,
                checkpoint_every,
                csv,
                run_ms: median(&walls),
                events,
            }
        })
        .collect()
}

/// What a client saw of one job.
struct JobRun {
    job: usize,
    ack_s: f64,
    latency_s: f64,
    /// Seconds from the start of the timed section to the terminal state.
    done_s: f64,
    ok: bool,
    what: String,
}

/// Serves job `index` over `client`: submit, poll its status until it
/// ends, fetch its CSV and compare it with the in-process run's.
fn serve_one(client: &mut Client, jobs: &[Job], index: usize, start: Instant) -> JobRun {
    let job = &jobs[index];
    let t0 = Instant::now();
    let outcome = client
        .submit(&job.text, None, None, job.checkpoint_every)
        .and_then(|id| {
            let ack_s = t0.elapsed().as_secs_f64();
            loop {
                let status = client.status(&id)?;
                let word = status.split_whitespace().next().unwrap_or("").to_string();
                if matches!(word.as_str(), "completed" | "failed" | "cancelled") {
                    return Ok((id, ack_s, word, t0.elapsed().as_secs_f64()));
                }
                std::thread::sleep(POLL);
            }
        });
    let done_s = start.elapsed().as_secs_f64();
    let (ack_s, latency_s, what) = match outcome {
        Ok((id, ack_s, word, latency_s)) => {
            let what = if word != "completed" {
                format!("job {id} ended {word}")
            } else {
                match client.result_csv(&id) {
                    Ok(csv) if csv == job.csv => String::new(),
                    Ok(_) => format!("job {id}: CSV differs from the in-process run"),
                    Err(e) => format!("job {id}: result: {e}"),
                }
            };
            (ack_s, latency_s, what)
        }
        Err(e) => (0.0, 0.0, format!("submit/status: {e}")),
    };
    JobRun {
        job: index,
        ack_s,
        latency_s,
        done_s,
        ok: what.is_empty(),
        what,
    }
}

/// One closed-loop client: serve the round-robin from job `first` on,
/// one job at a time, until `deadline`.
fn client_loop(
    addr: &str,
    first: usize,
    jobs: &[Job],
    start: Instant,
    deadline: Instant,
) -> Vec<JobRun> {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            return vec![JobRun {
                job: first,
                ack_s: 0.0,
                latency_s: 0.0,
                done_s: 0.0,
                ok: false,
                what: format!("connect: {e}"),
            }]
        }
    };
    let mut runs = Vec::new();
    let mut next = first;
    while Instant::now() < deadline {
        let run = serve_one(&mut client, jobs, next % jobs.len(), start);
        next += 1;
        let failed = !run.ok;
        runs.push(run);
        if failed {
            break; // a broken connection would otherwise spin
        }
    }
    runs
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Report {
    let mut report = Report::new();
    let jobs = jobs(seed);

    // Set-up: start the daemon on a fresh state directory (journal
    // open) and serve one job of each shape, so the set-up ends when the
    // service has produced its first results. The last daemon serves
    // the timed run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let dir = work.join(format!("state-{i}"));
        let t0 = Instant::now();
        let server = Server::start(&ServeOptions::new("127.0.0.1:0", &dir)).expect("daemon starts");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).expect("client connects");
        for index in [0, 1] {
            let warm = serve_one(&mut client, &jobs, index, t0);
            report.check(warm.ok, &format!("set-up {i}: {}", warm.what));
        }
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            client.drain().expect("daemon drains");
            server.join();
        } else {
            daemon = Some((server, client, addr));
        }
    }
    let (server, mut control, addr) = daemon.expect("at least one set-up");

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut runs: Vec<JobRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, jobs) = (&addr, &jobs);
                scope.spawn(move || client_loop(addr, c, jobs, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    control.drain().expect("daemon drains");
    server.join();

    runs.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    for run in &runs {
        report.check(run.ok, &run.what);
    }
    let done: Vec<&JobRun> = runs.iter().filter(|r| r.ok).collect();
    for (i, job) in jobs.iter().enumerate() {
        let mine: Vec<&&JobRun> = done.iter().filter(|r| r.job == i).collect();
        let latency: Vec<f64> = mine.iter().map(|r| r.latency_s * 1e3).collect();
        let ack: Vec<f64> = mine.iter().map(|r| r.ack_s * 1e3).collect();
        println!(
            "# job {i}: in-process 1-thread run {:.2} ms, {} events, ckpt={:?}; \
             served {}x, median latency {:.2} ms, submit ack {:.2} ms",
            job.run_ms,
            job.events,
            job.checkpoint_every,
            mine.len(),
            median(&latency),
            median(&ack)
        );
    }
    let events: u64 = done.iter().map(|r| jobs[r.job].events).sum();
    let latencies: Vec<f64> = done.iter().map(|r| r.latency_s).collect();
    let batches: Vec<f64> = std::iter::once(0.0)
        .chain(done.iter().map(|r| r.done_s))
        .step_by(BATCH)
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect();
    println!(
        "# jobs={} completed+matching={} timed wall={wall:.3}s set-ups={setups:?}",
        runs.len(),
        done.len()
    );

    if !trace {
        report.metric("events_per_s", events as f64 / wall, "1/s");
        report.metric("wall_s", median(&batches), "s");
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
        report.metric("jobs_per_s", done.len() as f64 / wall, "1/s");
        report::latency_metrics(&mut report, "job latency", &latencies);
        return report;
    }

    // Traced run: the market layers on the checkpointed job's market,
    // the streaming layer on the streaming job, and the daemon layers.
    let fault = Scenario::parse_str(&jobs[0].text).expect("parses");
    let (config, fault_seed) = runs_of(&fault).remove(0);
    market::trace_market(
        &mut report,
        &config,
        fault_seed,
        SimTime::from_secs(fault.run.horizon_secs),
    );
    streaming_layers(&mut report, &jobs[1].text);
    let parse_us = jobs
        .iter()
        .map(|job| {
            let t = Instant::now();
            for _ in 0..200 {
                std::hint::black_box(Scenario::parse_str(&job.text).expect("parses"));
            }
            t.elapsed().as_secs_f64() * 1e6 / 200.0
        })
        .collect::<Vec<_>>();
    report.metric("scenario.parse_us", median(&parse_us), "us");
    report.metric("serve.journal_append_us", journal_append_us(work), "us");
    let acks: Vec<f64> = done.iter().map(|r| r.ack_s * 1e3).collect();
    report.metric("serve.submit_ack_ms", median(&acks), "ms");
    let run_ms: Vec<f64> = jobs.iter().map(|j| j.run_ms).collect();
    report.metric("serve.run_ms", median(&run_ms), "ms");
    let overheads: Vec<f64> = done
        .iter()
        .map(|r| r.latency_s * 1e3 - jobs[r.job].run_ms)
        .collect();
    report.metric("serve.overhead_ms", median(&overheads), "ms");
    report
}

/// A tapped run of the streaming job's first case: mean handler time of
/// chunk scheduling rounds, chunk deliveries and playback ticks.
fn streaming_layers(report: &mut Report, text: &str) {
    let scenario = Scenario::parse_str(text).expect("parses");
    let (config, seed) = runs_of(&scenario).remove(0);
    let system = build_streaming_market(&config, seed).expect("streaming market builds");
    let profile = system.queue_profile();
    let mut sim = Simulation::with_profile(system, profile);
    sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
    let horizon = SimTime::from_secs(scenario.run.horizon_secs);
    let (tally, wall) = run_tapped(&mut sim, horizon, |event| match event {
        StreamEvent::Schedule(_) => 0,
        StreamEvent::PeerDelivery { .. } | StreamEvent::SourceDelivery { .. } => 1,
        StreamEvent::Playback(_) => 2,
        _ => market::KINDS.len(),
    });
    let names = ["schedule", "delivery", "playback"];
    for (k, name) in names.iter().enumerate() {
        report.metric(&format!("streaming.{name}_ns"), tally.ns_per_event(k), "ns");
        println!(
            "#   streaming {name:<8} count={:<8} {:>9.1} ns/event  share {:>5.1}%",
            tally.count[k],
            tally.ns_per_event(k),
            tally.ns[k] / (wall * 1e9) * 100.0
        );
    }
}

/// The journal's write pattern: one unbuffered `write_all` of an
/// `accepted` line per call on a file opened for append. (`Journal`
/// itself is private to the daemon, so the pattern is replayed here.)
fn journal_append_us(work: &Path) -> f64 {
    std::fs::create_dir_all(work).expect("work dir");
    let path = work.join("journal-probe.log");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("probe journal opens");
    let count = 2000;
    let t = Instant::now();
    for i in 0..count {
        file.write_all(format!("accepted j{i} served-fault-0 ckpt={FAULT_CKPT}\n").as_bytes())
            .expect("append");
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(count);
    let _ = std::fs::remove_file(&path);
    us
}
