//! The worker pool: claims jobs off the shared queue and runs them
//! through the scenario runner's exact execution recipe, with periodic
//! checkpoints, live sample streaming, cancel-at-boundary, and
//! wall-clock timeouts.
//!
//! **Determinism.** A worker reproduces [`run_scenario`]'s output byte
//! for byte: same case expansion order, same per-replication seed
//! derivation (`SeedSequence::new(seed).replication_seed(rep)`), same
//! probe set ([`session_probes`]), same `WEALTH_GINI` guard — only the
//! CSV bytes are persisted, and the CSV contains no wall-clock values.
//! Chunked `run_until` calls at checkpoint/sample boundaries are
//! output-neutral (the session contract), and a resumed checkpoint
//! finishes byte-identically to an uninterrupted run (the PR 8
//! invariant), so a served CSV equals `scrip-sim run`'s even across a
//! daemon kill.

use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scrip_core::des::trace::{TraceHeader, TraceWriter};
use scrip_core::des::{SeedSequence, SimTime};
use scrip_core::obs::{ids, LiveSample, Session};

use super::journal::{JobRecord, JobState};
use super::server::Shared;
use super::THROTTLE_ENV;
use crate::scenario::{session_probes, CaseResult, ReplicationRun, Scenario, ScenarioResult};

/// Claims and runs jobs until shutdown.
pub(super) fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut inner = shared.inner.lock().expect("serve lock");
            loop {
                if inner.shutdown {
                    return;
                }
                if let Some(id) = inner.queue.pop_front() {
                    if inner.journal.append(&format!("running {id}")).is_err() {
                        // Journal write failure is fatal for the job,
                        // not the daemon.
                        continue;
                    }
                    inner.running += 1;
                    let record = inner.jobs.get_mut(&id).expect("queued job exists");
                    record.state = JobState::Running;
                    break record.clone();
                }
                inner = shared.work.wait(inner).expect("serve lock");
            }
        };
        shared.work.notify_all();
        let outcome = run_job(shared, &job);
        let mut inner = shared.inner.lock().expect("serve lock");
        let line = match &outcome {
            JobState::Completed => format!("completed {}", job.id),
            JobState::Cancelled => format!("cancelled {}", job.id),
            JobState::Failed(msg) => format!("failed {} {msg}", job.id),
            _ => unreachable!("run_job returns terminal states"),
        };
        let _ = inner.journal.append(&line);
        if let Some(record) = inner.jobs.get_mut(&job.id) {
            record.state = outcome;
            record.cancel_requested = false;
        }
        inner.running -= 1;
        drop(inner);
        shared.work.notify_all();
    }
}

/// The live sample log: a `SCRIPTRC` container whose event payloads are
/// human-readable sample lines, flushed per sample so tailing
/// subscribers see each boundary as it lands.
struct SampleLog {
    writer: TraceWriter<BufWriter<std::fs::File>>,
    seq: u64,
}

impl SampleLog {
    fn create(path: &Path, name: &str, seed: u64) -> Result<SampleLog, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut writer = TraceWriter::new(
            BufWriter::new(file),
            TraceHeader {
                fingerprint: fnv64(name.as_bytes()),
                seed,
            },
        );
        // Flush the header immediately so subscribers can validate it
        // before the first boundary lands.
        writer.flush().map_err(|e| e.to_string())?;
        Ok(SampleLog { writer, seq: 0 })
    }

    /// Appends one boundary sample. Telemetry is best-effort: I/O
    /// failures drop the frame, never the job.
    fn push(&mut self, label: &str, seed: u64, sample: &LiveSample) {
        let gini = match sample.wealth_gini {
            Some(g) => format!("{g:.6}"),
            None => "na".to_string(),
        };
        let payload = format!(
            "case={label} seed={seed} t_us={} events={} peers={} purchases={} denied={} \
             spent={} gini={gini}",
            sample.time.as_micros(),
            sample.events_processed,
            sample.peers,
            sample.purchases,
            sample.denied,
            sample.total_spent,
        );
        let seq = self.seq;
        self.seq += 1;
        let _ = self
            .writer
            .event(sample.time, seq, payload.as_bytes())
            .and_then(|()| self.writer.flush());
    }

    /// Closes the log with the format's end frame (written on every
    /// terminal state, so subscribers always see an explicit end).
    fn end(&mut self, time: SimTime, events: u64) {
        let _ = self
            .writer
            .end(time, events)
            .and_then(|()| self.writer.flush());
    }
}

/// Runs one job to a terminal state. Never panics the worker: every
/// failure becomes `JobState::Failed`.
fn run_job(shared: &Arc<Shared>, job: &JobRecord) -> JobState {
    match execute(shared, job) {
        Ok(state) => state,
        Err(msg) => JobState::Failed(one_line(&msg)),
    }
}

fn execute(shared: &Arc<Shared>, job: &JobRecord) -> Result<JobState, String> {
    let dir = &shared.state_dir;
    let scn_path = dir.join(format!("job-{}.scn", job.id));
    let ckpt_path = dir.join(format!("job-{}.ckpt", job.id));
    let samples_path = dir.join(format!("job-{}.samples.trc", job.id));

    let text =
        std::fs::read_to_string(&scn_path).map_err(|e| format!("{}: {e}", scn_path.display()))?;
    let scenario = Scenario::parse_str(&text).map_err(|e| e.to_string())?;
    let cases = scenario.expand().map_err(|e| e.to_string())?;
    let configs: Vec<_> = cases
        .iter()
        .map(|c| {
            c.spec
                .build()
                .map_err(|e| format!("case {:?}: {e}", c.label))
        })
        .collect::<Result<_, _>>()?;
    let reps = scenario.run.replications;
    let horizon = SimTime::from_secs(scenario.run.horizon_secs);
    // Only this shape can checkpoint (Session::checkpoint's contract);
    // anything else restarts from scratch after a daemon kill, which is
    // merely slower, not wrong.
    let qualifying = cases.len() == 1
        && reps == 1
        && configs
            .first()
            .is_some_and(|c: &scrip_core::market::MarketConfig| c.streaming.is_none());
    // Truncating on (re)start keeps the sample log consistent with this
    // execution: a resumed job streams only post-resume boundaries.
    let samples = Arc::new(Mutex::new(SampleLog::create(
        &samples_path,
        &job.name,
        scenario.run.seed,
    )?));
    let throttle = std::env::var(THROTTLE_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    let deadline =
        (job.timeout_secs > 0).then(|| Instant::now() + Duration::from_secs(job.timeout_secs));
    let seq = SeedSequence::new(scenario.run.seed);
    let start = Instant::now();

    let mut case_results: Vec<CaseResult> = cases
        .iter()
        .map(|c| CaseResult {
            label: c.label.clone(),
            spec: c.spec.clone(),
            reps: Vec::with_capacity(reps),
            wall: Duration::ZERO,
        })
        .collect();
    let mut total_events = 0u64;
    let mut clock = SimTime::ZERO;

    for (ci, case) in cases.iter().enumerate() {
        for rep in 0..reps as u64 {
            let seed = seq.replication_seed(rep);
            let probes = session_probes(&scenario.run);
            let rep_start = Instant::now();
            let mut session = if qualifying && ckpt_path.exists() {
                let bytes = std::fs::read(&ckpt_path)
                    .map_err(|e| format!("{}: {e}", ckpt_path.display()))?;
                match Session::resume(&configs[ci], probes, &bytes) {
                    Ok(session) => session,
                    Err(_) => {
                        // A stale or damaged snapshot falls back to a
                        // clean start — slower, still deterministic.
                        let _ = std::fs::remove_file(&ckpt_path);
                        fresh_session(&configs[ci], seed, &scenario)?
                    }
                }
            } else {
                fresh_session(&configs[ci], seed, &scenario)?
            };
            let label = case.label.clone();
            let log = Arc::clone(&samples);
            session.stream_samples_to(Box::new(move |sample: &LiveSample| {
                log.lock()
                    .expect("sample log lock")
                    .push(&label, seed, sample);
            }));

            // Advance in chunks so cancel/timeout are honored at
            // boundaries and checkpoints land at their cadence.
            for stop in stop_schedule(&configs[ci], job.checkpoint_every, horizon) {
                if stop <= session.now() {
                    continue;
                }
                session.run_until(stop);
                if let Some(pause) = throttle {
                    std::thread::sleep(pause);
                }
                let at_ckpt = qualifying
                    && job.checkpoint_every > 0
                    && stop.as_micros() % (job.checkpoint_every * 1_000_000) == 0
                    && stop < horizon;
                if at_ckpt {
                    let bytes = session.checkpoint().map_err(|e| e.to_string())?;
                    write_atomic(&ckpt_path, &bytes)?;
                }
                if shared.cancel_requested(&job.id) {
                    // Stop at this boundary: persist a final snapshot
                    // (qualifying jobs), close the sample log, report
                    // cancelled — not failed.
                    if qualifying {
                        let bytes = session.checkpoint().map_err(|e| e.to_string())?;
                        write_atomic(&ckpt_path, &bytes)?;
                    }
                    let events = session.stats().events_processed;
                    samples
                        .lock()
                        .expect("sample log lock")
                        .end(session.now(), total_events + events);
                    return Ok(JobState::Cancelled);
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    let events = session.stats().events_processed;
                    samples
                        .lock()
                        .expect("sample log lock")
                        .end(session.now(), total_events + events);
                    return Ok(JobState::Failed(format!(
                        "timed out after {}s",
                        job.timeout_secs
                    )));
                }
            }
            session.run_until(horizon);
            total_events += session.stats().events_processed;
            clock = session.now();
            let (record, _model) = session.finish();
            if record.get(ids::WEALTH_GINI).is_none() {
                return Ok(JobState::Failed(format!(
                    "seed {seed}: market has no peers at the horizon"
                )));
            }
            case_results[ci].reps.push(ReplicationRun { seed, record });
            case_results[ci].wall += rep_start.elapsed();
        }
    }

    let result = ScenarioResult {
        scenario: scenario.clone(),
        cases: case_results,
        wall: start.elapsed(),
    };
    write_atomic(
        &dir.join(format!("job-{}.csv", job.id)),
        result.to_csv().as_bytes(),
    )?;
    let _ = std::fs::remove_file(&ckpt_path);
    samples
        .lock()
        .expect("sample log lock")
        .end(clock, total_events);
    Ok(JobState::Completed)
}

fn fresh_session(
    config: &scrip_core::market::MarketConfig,
    seed: u64,
    scenario: &Scenario,
) -> Result<Session, String> {
    let mut session = Session::from_config(config, seed).map_err(|e| e.to_string())?;
    for probe in session_probes(&scenario.run) {
        session.attach(probe);
    }
    Ok(session)
}

/// The ascending union of sampling-grid and checkpoint-cadence
/// boundaries strictly inside the horizon: where the worker pauses to
/// honor cancels/timeouts and to snapshot.
fn stop_schedule(
    config: &scrip_core::market::MarketConfig,
    checkpoint_every: u64,
    horizon: SimTime,
) -> Vec<SimTime> {
    let mut stops: Vec<u64> = Vec::new();
    let horizon_us = horizon.as_micros();
    let interval_us = config.sample_interval.as_micros();
    if interval_us > 0 {
        let mut t = interval_us;
        while t < horizon_us {
            stops.push(t);
            t += interval_us;
        }
    }
    let ckpt_us = checkpoint_every.saturating_mul(1_000_000);
    if ckpt_us > 0 {
        let mut t = ckpt_us;
        while t < horizon_us {
            stops.push(t);
            t += ckpt_us;
        }
    }
    stops.sort_unstable();
    stops.dedup();
    stops.into_iter().map(SimTime::from_micros).collect()
}

/// Writes via a temp file + rename so readers (and a resuming daemon)
/// never observe a partial file.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp: PathBuf = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a over bytes — the sample-log header fingerprint (job-name
/// derived; informational, not a replay key).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Collapses a multi-line failure into one journal/protocol-safe line.
fn one_line(msg: &str) -> String {
    msg.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, RunnerOptions};
    use crate::serve::{Client, ServeOptions, Server};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scrip-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_scenario_text() -> String {
        let mut sc = Scenario::new("tiny-served", scrip_core::spec::MarketSpec::new(30, 10));
        sc.base.set("sample", "50").expect("valid");
        sc.run.horizon_secs = 400;
        sc.run.seed = 7;
        sc.to_file_string()
    }

    #[test]
    fn served_job_matches_batch_runner_byte_for_byte() {
        let dir = temp_dir("match");
        let server = Server::start(&ServeOptions::new("127.0.0.1:0", &dir)).expect("server starts");
        let addr = server.local_addr().to_string();
        let text = tiny_scenario_text();

        let mut client = Client::connect(&addr).expect("connects");
        assert_eq!(client.ping().as_deref(), Ok("pong"));
        let job = client
            .submit(&text, Some("tiny"), None, None)
            .expect("submits");
        assert_eq!(job, "j1");
        let state = client.wait_terminal(&job, 60).expect("finishes");
        assert_eq!(state, "completed");
        let served = client.result_csv(&job).expect("result");

        let scenario = Scenario::parse_str(&text).expect("parses");
        let batch = run_scenario(&scenario, &RunnerOptions::with_threads(1))
            .expect("runs")
            .to_csv();
        assert_eq!(served, batch, "served CSV must equal the batch CSV");

        let stats = client.stats().expect("stats");
        assert!(stats.contains("completed=1"), "stats: {stats}");
        client.drain().expect("drains");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subscribe_streams_samples_until_the_end_frame() {
        let dir = temp_dir("stream");
        let server = Server::start(&ServeOptions::new("127.0.0.1:0", &dir)).expect("server starts");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).expect("connects");
        let job = client
            .submit(&tiny_scenario_text(), None, None, None)
            .expect("submits");

        let mut lines = Vec::new();
        let watcher = Client::connect(&addr).expect("connects");
        let state = watcher
            .subscribe(&job, |line| lines.push(line.to_string()))
            .expect("streams");
        assert_eq!(state, "completed");
        // Boundaries at 50..400 with sample=50: 8 samples.
        assert_eq!(lines.len(), 8, "lines: {lines:?}");
        assert!(lines[0].contains("case=base") || lines[0].contains("case="));
        assert!(lines
            .iter()
            .all(|l| l.contains("events=") && l.contains("gini=")));

        let stats = client.stats().expect("stats");
        let streamed: u64 = stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("bytes_streamed="))
            .and_then(|v| v.parse().ok())
            .expect("counter present");
        assert!(streamed > 0);
        client.drain().expect("drains");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_jobs_end_cancelled_not_failed() {
        let dir = temp_dir("cancel");
        // One worker, two jobs: the second sits queued and cancels
        // instantly; the first is throttled via a long scenario so a
        // mid-run cancel lands at a boundary.
        let mut options = ServeOptions::new("127.0.0.1:0", &dir);
        options.workers = 1;
        let server = Server::start(&options).expect("server starts");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).expect("connects");

        let mut sc = Scenario::new("slow", scrip_core::spec::MarketSpec::new(50, 10));
        sc.base.set("sample", "10").expect("valid");
        sc.run.horizon_secs = 100_000;
        let slow = sc.to_file_string();
        let running = client.submit(&slow, None, None, None).expect("submits");
        let queued = client
            .submit(&tiny_scenario_text(), None, None, None)
            .expect("submits");

        let reply = client.cancel(&queued).expect("cancels queued");
        assert!(reply.starts_with("cancelled"), "reply: {reply}");
        assert_eq!(client.status(&queued).expect("status"), "cancelled");

        // Wait until the long job is actually running, then cancel it.
        let mut state = String::new();
        for _ in 0..400 {
            state = client.status(&running).expect("status");
            if state == "running" {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(state, "running");
        client.cancel(&running).expect("cancels running");
        let terminal = client.wait_terminal(&running, 60).expect("terminates");
        assert_eq!(terminal, "cancelled", "cancel is not a failure");

        client.drain().expect("drains");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeouts_fail_the_job_with_a_reason() {
        let dir = temp_dir("timeout");
        let server = Server::start(&ServeOptions::new("127.0.0.1:0", &dir)).expect("server starts");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).expect("connects");
        let mut sc = Scenario::new("slow", scrip_core::spec::MarketSpec::new(50, 10));
        sc.base.set("sample", "10").expect("valid");
        sc.run.horizon_secs = 1_000_000;
        let job = client
            .submit(&sc.to_file_string(), None, Some(1), None)
            .expect("submits");
        let state = client.wait_terminal(&job, 120).expect("terminates");
        assert_eq!(state, "failed");
        let status = client.status(&job).expect("status");
        assert!(status.contains("timed out"), "status: {status}");
        client.drain().expect("drains");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_schedule_unions_sampling_and_checkpoint_boundaries() {
        let config = scrip_core::spec::MarketSpec::new(10, 10)
            .build()
            .expect("builds");
        // Default sample interval is 100s; checkpoints every 250s.
        let stops = stop_schedule(&config, 250, SimTime::from_secs(600));
        let secs: Vec<u64> = stops.iter().map(|t| t.as_micros() / 1_000_000).collect();
        assert_eq!(secs, vec![100, 200, 250, 300, 400, 500]);
    }
}
