//! The worker pool: claims jobs off the shared queue and runs each one
//! through the scenario runner ([`run_driven`]), whose [`Driver`] hooks
//! add periodic checkpoints, live sample streaming, cancel-at-boundary,
//! and wall-clock timeouts.
//!
//! **Determinism.** The runner is the batch runner itself, so case
//! expansion, seed derivation, probe set and the horizon guard are
//! [`run_scenario`](crate::scenario::run_scenario)'s by construction —
//! only the CSV bytes are persisted, and the CSV contains no wall-clock
//! values. The pauses at checkpoint/sample boundaries split `run_until`
//! into chunks, which is output-neutral (the session contract), and a
//! resumed checkpoint finishes byte-identically to an uninterrupted run,
//! so a served CSV equals `scrip-sim run`'s even across a daemon kill.

use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scrip_core::des::trace::{TraceHeader, TraceWriter};
use scrip_core::des::SimTime;
use scrip_core::market::MarketConfig;
use scrip_core::obs::{LiveSample, Session};

use super::journal::{JobRecord, JobState};
use super::server::{one_line, Shared};
use super::THROTTLE_ENV;
use crate::scenario::{
    cadence, checkpoint_to, run_driven, write_atomic, Driver, Replication, RunnerOptions, Scenario,
    ScenarioError,
};

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
    /// Events of the job's finished replications.
    done_events: u64,
    /// How far the job has run — clock and total events at the last
    /// pause or horizon — for the end frame.
    clock: SimTime,
    events: u64,
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
        Ok(SampleLog {
            writer,
            seq: 0,
            done_events: 0,
            clock: SimTime::ZERO,
            events: 0,
        })
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

    /// Notes how far `session` has run; `finished` marks its
    /// replication done.
    fn progress(&mut self, session: &Session, finished: bool) {
        self.clock = session.now();
        self.events = self.done_events + session.stats().events_processed;
        if finished {
            self.done_events = self.events;
        }
    }

    /// Closes the log with the format's end frame.
    fn end(&mut self) {
        let _ = self
            .writer
            .end(self.clock, self.events)
            .and_then(|()| self.writer.flush());
    }
}

/// The runner hooks of one job.
struct JobDriver<'a> {
    shared: &'a Shared,
    job: &'a JobRecord,
    ckpt_path: PathBuf,
    /// Whether the job has the one shape `Session::checkpoint` supports
    /// (one case, one replication, queue-level). Any other job restarts
    /// from scratch after a daemon kill, which is merely slower, not
    /// wrong.
    checkpointed: bool,
    samples: Arc<Mutex<SampleLog>>,
    throttle: Option<Duration>,
    deadline: Option<Instant>,
}

impl Driver for JobDriver<'_> {
    fn open(&self, rep: &Replication<'_>) -> Result<Session, ScenarioError> {
        let resumed = if self.checkpointed {
            std::fs::read(&self.ckpt_path)
                .ok()
                .and_then(|bytes| rep.resume(&bytes).ok())
        } else {
            None
        };
        let mut session = match resumed {
            Some(session) => session,
            None => {
                // No usable snapshot (none yet, stale, or damaged): a
                // clean start is slower but just as deterministic.
                let _ = std::fs::remove_file(&self.ckpt_path);
                rep.fresh()?
            }
        };
        let log = Arc::clone(&self.samples);
        let (label, seed) = (rep.label.to_string(), rep.seed);
        session.stream_samples_to(Box::new(move |sample: &LiveSample| {
            log.lock()
                .expect("sample log lock")
                .push(&label, seed, sample);
        }));
        Ok(session)
    }

    fn pauses(&self, rep: &Replication<'_>) -> Vec<SimTime> {
        stop_schedule(rep.config, self.job.checkpoint_every, rep.horizon())
    }

    fn at_pause(&self, _rep: &Replication<'_>, session: &Session) -> Result<(), ScenarioError> {
        if let Some(pause) = self.throttle {
            std::thread::sleep(pause);
        }
        self.samples
            .lock()
            .expect("sample log lock")
            .progress(session, false);
        let every_us = self.job.checkpoint_every.saturating_mul(1_000_000);
        if self.checkpointed && every_us > 0 && session.now().as_micros() % every_us == 0 {
            checkpoint_to(session, &self.ckpt_path)?;
        }
        if self.shared.cancel_requested(&self.job.id) {
            // Stop at this boundary, keeping a final snapshot of
            // qualifying jobs; `run_job` reports the job cancelled, not
            // failed.
            if self.checkpointed {
                checkpoint_to(session, &self.ckpt_path)?;
            }
            return Err(ScenarioError::Run("cancelled".into()));
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ScenarioError::Run(format!(
                "timed out after {}s",
                self.job.timeout_secs
            )));
        }
        Ok(())
    }

    fn at_horizon(
        &self,
        _rep: &Replication<'_>,
        session: &mut Session,
    ) -> Result<(), ScenarioError> {
        self.samples
            .lock()
            .expect("sample log lock")
            .progress(session, true);
        Ok(())
    }
}

/// Runs one job to a terminal state. Never panics the worker: every
/// failure becomes `JobState::Failed`.
fn run_job(shared: &Shared, job: &JobRecord) -> JobState {
    let (scenario, driver) = match prepare(shared, job) {
        Ok(prepared) => prepared,
        Err(msg) => return JobState::Failed(one_line(&msg)),
    };
    let csv_path = shared.state_dir.join(format!("job-{}.csv", job.id));
    let outcome = run_driven(&scenario, &RunnerOptions::with_threads(1), &driver)
        .and_then(|result| write_atomic(&csv_path, result.to_csv().as_bytes()));
    let state = match outcome {
        Ok(()) => {
            let _ = std::fs::remove_file(&driver.ckpt_path);
            JobState::Completed
        }
        Err(_) if shared.cancel_requested(&job.id) => JobState::Cancelled,
        Err(e) => JobState::Failed(one_line(&e.to_string())),
    };
    // Every terminal state closes the sample log, so subscribers always
    // see an explicit end.
    driver.samples.lock().expect("sample log lock").end();
    state
}

/// Loads a job's scenario and builds its driver. The sample log is
/// truncated so it matches this execution: a resumed job streams only
/// post-resume boundaries.
fn prepare<'a>(
    shared: &'a Shared,
    job: &'a JobRecord,
) -> Result<(Scenario, JobDriver<'a>), String> {
    let dir = &shared.state_dir;
    let scn_path = dir.join(format!("job-{}.scn", job.id));
    let text =
        std::fs::read_to_string(&scn_path).map_err(|e| format!("{}: {e}", scn_path.display()))?;
    let scenario = Scenario::parse_str(&text).map_err(|e| e.to_string())?;
    let samples = SampleLog::create(
        &dir.join(format!("job-{}.samples.trc", job.id)),
        &job.name,
        scenario.run.seed,
    )?;
    let driver = JobDriver {
        shared,
        job,
        ckpt_path: dir.join(format!("job-{}.ckpt", job.id)),
        checkpointed: scenario
            .single_config()
            .is_ok_and(|config| config.streaming.is_none()),
        samples: Arc::new(Mutex::new(samples)),
        throttle: std::env::var(THROTTLE_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis),
        deadline: (job.timeout_secs > 0)
            .then(|| Instant::now() + Duration::from_secs(job.timeout_secs)),
    };
    Ok((scenario, driver))
}

/// The ascending union of sampling-grid and checkpoint-cadence
/// boundaries strictly inside the horizon: where the worker pauses to
/// honor cancels/timeouts and to snapshot.
fn stop_schedule(config: &MarketConfig, checkpoint_every: u64, horizon: SimTime) -> Vec<SimTime> {
    let mut stops = cadence(config.sample_interval.as_micros(), horizon);
    stops.extend(cadence(checkpoint_every.saturating_mul(1_000_000), horizon));
    stops.sort_unstable();
    stops.dedup();
    stops
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_scenario;
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
