//! The daemon: listener, connection handlers, and the shared state the
//! worker pool drains.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use scrip_core::des::trace::{TraceFrame, TraceTailer};

use super::journal::{recoverable, JobRecord, JobState, Journal};
use super::protocol::Request;
use super::{worker, ADDR_FILE};
use crate::scenario::Scenario;

/// Largest scenario file the daemon accepts over the wire (4 MiB — two
/// orders of magnitude above every scenario in the repo).
const MAX_SCENARIO_BYTES: usize = 4 << 20;

/// How often a subscriber re-polls the job's sample log.
const SUBSCRIBE_POLL: Duration = Duration::from_millis(25);

/// Extra polls a subscriber grants a terminal job for its end frame to
/// land (the worker writes it before journaling the terminal state, so
/// this only expires for jobs that never started a sample log).
const SUBSCRIBE_GRACE_POLLS: u32 = 40;

/// How the daemon is launched: bind address, state directory, worker
/// count.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:7177`; port `0` picks an
    /// ephemeral port (read it back from the `addr` file or
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Directory holding the journal, submitted scenarios, checkpoints,
    /// sample logs, and result CSVs. Created if absent.
    pub state_dir: PathBuf,
    /// Fixed worker-pool size.
    pub workers: usize,
}

impl ServeOptions {
    /// Options for `addr` with the given state directory and two
    /// workers.
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            addr: addr.into(),
            state_dir: state_dir.into(),
            workers: 2,
        }
    }
}

/// Everything the listener, connection handlers, and workers share.
pub(super) struct Shared {
    /// The daemon's state directory.
    pub(super) state_dir: PathBuf,
    /// Queue, job table, journal — everything that must move together.
    pub(super) inner: Mutex<Inner>,
    /// Signalled on every queue or lifecycle change.
    pub(super) work: Condvar,
    /// Total bytes of sample lines written to subscribers.
    pub(super) bytes_streamed: AtomicU64,
    /// Worker-pool size (for `stats`).
    pub(super) workers: usize,
    /// The bound address (for the drain self-connect).
    local_addr: SocketAddr,
}

/// The daemon's mutable state, guarded by one mutex.
pub(super) struct Inner {
    /// Every job ever journaled, keyed by id.
    pub(super) jobs: BTreeMap<String, JobRecord>,
    /// Ids waiting for a worker, in acceptance order.
    pub(super) queue: VecDeque<String>,
    /// The append side of the persistent queue.
    pub(super) journal: Journal,
    /// When set, submissions are refused and the daemon winds down.
    pub(super) draining: bool,
    /// When set, workers and the listener exit.
    pub(super) shutdown: bool,
    /// Next numeric job id.
    pub(super) next_id: u64,
    /// Jobs currently executing on workers.
    pub(super) running: usize,
}

impl Shared {
    /// Whether `job` has a pending cancel request (checked by workers at
    /// sampling boundaries).
    pub(super) fn cancel_requested(&self, job: &str) -> bool {
        let inner = self.inner.lock().expect("serve lock");
        inner.jobs.get(job).is_some_and(|j| j.cancel_requested)
    }
}

/// A running daemon: the listener thread, its worker pool, and the
/// shared state. Dropping it does NOT stop the daemon — send `drain`
/// and call [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, replays the journal (re-enqueueing every
    /// job a previous daemon left unfinished), writes the `addr` file,
    /// and spawns the worker pool plus the accept loop.
    ///
    /// # Errors
    /// Returns a message when the state directory, journal, or socket
    /// cannot be set up.
    pub fn start(options: &ServeOptions) -> Result<Server, String> {
        std::fs::create_dir_all(&options.state_dir)
            .map_err(|e| format!("{}: {e}", options.state_dir.display()))?;
        let (journal, jobs, next_id) = Journal::open(&options.state_dir)?;
        let queue: VecDeque<String> = recoverable(&jobs).into();
        let recovered = queue.len();
        let listener =
            TcpListener::bind(&options.addr).map_err(|e| format!("bind {}: {e}", options.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let shared = Arc::new(Shared {
            state_dir: options.state_dir.clone(),
            inner: Mutex::new(Inner {
                jobs,
                queue,
                journal,
                draining: false,
                shutdown: false,
                next_id,
                running: 0,
            }),
            work: Condvar::new(),
            bytes_streamed: AtomicU64::new(0),
            workers: options.workers.max(1),
            local_addr,
        });
        // The addr file lands via rename so a polling script never
        // reads a partial write.
        let addr_tmp = options.state_dir.join(format!("{ADDR_FILE}.tmp"));
        let addr_path = options.state_dir.join(ADDR_FILE);
        std::fs::write(&addr_tmp, format!("{local_addr}\n"))
            .and_then(|()| std::fs::rename(&addr_tmp, &addr_path))
            .map_err(|e| format!("{}: {e}", addr_path.display()))?;
        eprintln!(
            "serve: listening on {local_addr} ({} workers, state dir {}{})",
            shared.workers,
            options.state_dir.display(),
            if recovered > 0 {
                format!(", {recovered} job(s) recovered")
            } else {
                String::new()
            }
        );
        let workers = (0..shared.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker::worker_loop(&shared))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let listener_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.inner.lock().expect("serve lock").shutdown {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || handle_connection(&shared, stream));
            }
        });
        Ok(Server {
            shared,
            listener: Some(listener_thread),
            workers,
        })
    }

    /// The bound address (useful when serving on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Waits for the daemon to shut down (a client must send `drain`).
    pub fn join(mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Serves one client connection until EOF, error, or a terminating verb
/// (`subscribe` after its stream, `drain` after shutdown).
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        let request = match Request::parse(trimmed) {
            Ok(request) => request,
            Err(e) => {
                if writeln!(writer, "err {e}").is_err() {
                    return;
                }
                continue;
            }
        };
        let outcome = match request {
            Request::Ping => writeln!(writer, "ok pong").map_err(|e| e.to_string()),
            Request::Submit {
                nbytes,
                name,
                timeout_secs,
                checkpoint_every,
            } => handle_submit(
                shared,
                &mut reader,
                &mut writer,
                nbytes,
                name,
                timeout_secs,
                checkpoint_every,
            ),
            Request::Status { job } => handle_status(shared, &mut writer, &job),
            Request::Result { job } => handle_result(shared, &mut writer, &job),
            Request::Cancel { job } => handle_cancel(shared, &mut writer, &job),
            Request::Stats => handle_stats(shared, &mut writer),
            Request::Subscribe { job } => {
                let _ = handle_subscribe(shared, &mut writer, &job);
                return;
            }
            Request::Drain => {
                let _ = handle_drain(shared, &mut writer);
                return;
            }
        };
        if outcome.is_err() {
            return;
        }
    }
}

/// Reports a protocol-level error to the client; connection-level I/O
/// failures bubble as `Err`.
fn refuse(writer: &mut TcpStream, msg: &str) -> Result<(), String> {
    writeln!(writer, "err {msg}").map_err(|e| e.to_string())
}

#[allow(clippy::too_many_arguments)]
fn handle_submit(
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    nbytes: usize,
    name: Option<String>,
    timeout_secs: Option<u64>,
    checkpoint_every: Option<u64>,
) -> Result<(), String> {
    if nbytes > MAX_SCENARIO_BYTES {
        return refuse(writer, "scenario too large");
    }
    let mut bytes = vec![0u8; nbytes];
    reader
        .read_exact(&mut bytes)
        .map_err(|e| format!("short submit body: {e}"))?;
    let Ok(text) = String::from_utf8(bytes) else {
        return refuse(writer, "scenario must be UTF-8");
    };
    // Validate up front so a bad scenario is the submitter's error, not
    // a failed job: `validate` checks the parameters and builds every
    // expanded case.
    let scenario = match Scenario::parse_str(&text) {
        Ok(scenario) => scenario,
        Err(e) => return refuse(writer, &one_line(&format!("bad scenario: {e}"))),
    };
    if let Err(e) = scenario.validate() {
        return refuse(writer, &one_line(&format!("bad scenario: {e}")));
    }
    let name = sanitize_token(name.as_deref().unwrap_or(&scenario.name));
    // Default checkpoint cadence: a tenth of the horizon, at least 1s.
    let checkpoint_every =
        checkpoint_every.unwrap_or_else(|| (scenario.run.horizon_secs / 10).max(1));
    let timeout_secs = timeout_secs.unwrap_or(0);

    let mut inner = shared.inner.lock().expect("serve lock");
    if inner.draining {
        drop(inner);
        return refuse(writer, "draining: no new jobs");
    }
    let id = format!("j{}", inner.next_id);
    inner.next_id += 1;
    // Scenario bytes land before the journal line: a crash in between
    // leaves an orphan file, never a job without its scenario.
    let scn_path = shared.state_dir.join(format!("job-{id}.scn"));
    if let Err(e) = std::fs::write(&scn_path, &text) {
        drop(inner);
        return refuse(writer, &format!("store scenario: {e}"));
    }
    inner
        .journal
        .append(&format!(
            "accepted {id} {name} timeout={timeout_secs} ckpt={checkpoint_every}"
        ))
        .map_err(|e| e.to_string())?;
    inner.jobs.insert(
        id.clone(),
        JobRecord {
            id: id.clone(),
            name,
            timeout_secs,
            checkpoint_every,
            state: JobState::Queued,
            cancel_requested: false,
        },
    );
    inner.queue.push_back(id.clone());
    drop(inner);
    shared.work.notify_all();
    writeln!(writer, "ok submitted {id}").map_err(|e| e.to_string())
}

fn handle_status(shared: &Arc<Shared>, writer: &mut TcpStream, job: &str) -> Result<(), String> {
    let inner = shared.inner.lock().expect("serve lock");
    let Some(record) = inner.jobs.get(job) else {
        drop(inner);
        return refuse(writer, &format!("no such job {job}"));
    };
    let detail = match (&record.state, record.cancel_requested) {
        (JobState::Failed(msg), _) => format!(" {}", one_line(msg)),
        (state, true) if !state.terminal() => " cancelling".to_string(),
        _ => String::new(),
    };
    let line = format!("ok status {job} {}{detail}", record.state.word());
    drop(inner);
    writeln!(writer, "{line}").map_err(|e| e.to_string())
}

fn handle_result(shared: &Arc<Shared>, writer: &mut TcpStream, job: &str) -> Result<(), String> {
    let state = {
        let inner = shared.inner.lock().expect("serve lock");
        match inner.jobs.get(job) {
            Some(record) => record.state.clone(),
            None => {
                drop(inner);
                return refuse(writer, &format!("no such job {job}"));
            }
        }
    };
    if state != JobState::Completed {
        return refuse(
            writer,
            &format!("job {job} is {}, not completed", state.word()),
        );
    }
    let path = shared.state_dir.join(format!("job-{job}.csv"));
    let csv = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(writer, "ok result {job} {}", csv.len()).map_err(|e| e.to_string())?;
    writer.write_all(&csv).map_err(|e| e.to_string())
}

fn handle_cancel(shared: &Arc<Shared>, writer: &mut TcpStream, job: &str) -> Result<(), String> {
    let mut inner = shared.inner.lock().expect("serve lock");
    let Some(record) = inner.jobs.get(job).cloned() else {
        drop(inner);
        return refuse(writer, &format!("no such job {job}"));
    };
    if record.state.terminal() {
        drop(inner);
        return refuse(
            writer,
            &format!("job {job} already {}", record.state.word()),
        );
    }
    inner
        .journal
        .append(&format!("cancel-requested {job}"))
        .map_err(|e| e.to_string())?;
    let line = if record.state == JobState::Queued {
        // Never started: cancel immediately, no worker involved.
        inner
            .journal
            .append(&format!("cancelled {job}"))
            .map_err(|e| e.to_string())?;
        inner.queue.retain(|id| id != job);
        if let Some(r) = inner.jobs.get_mut(job) {
            r.state = JobState::Cancelled;
            r.cancel_requested = false;
        }
        format!("ok cancelled {job}")
    } else {
        if let Some(r) = inner.jobs.get_mut(job) {
            r.cancel_requested = true;
        }
        format!("ok cancelling {job}")
    };
    drop(inner);
    shared.work.notify_all();
    writeln!(writer, "{line}").map_err(|e| e.to_string())
}

fn handle_stats(shared: &Arc<Shared>, writer: &mut TcpStream) -> Result<(), String> {
    let inner = shared.inner.lock().expect("serve lock");
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut cancelled = 0u64;
    for job in inner.jobs.values() {
        match job.state {
            JobState::Completed => completed += 1,
            JobState::Failed(_) => failed += 1,
            JobState::Cancelled => cancelled += 1,
            _ => {}
        }
    }
    let line = format!(
        "ok stats accepted={} queued={} running={} completed={completed} failed={failed} \
         cancelled={cancelled} workers={} busy={} bytes_streamed={}",
        inner.jobs.len(),
        inner.queue.len(),
        inner.running,
        shared.workers,
        inner.running,
        shared.bytes_streamed.load(Ordering::Relaxed),
    );
    drop(inner);
    writeln!(writer, "{line}").map_err(|e| e.to_string())
}

/// Streams a job's live samples until its end-of-log frame, then
/// reports the job's final state. The worker flushes its sample log at
/// every boundary and closes it with an end frame *before* journaling
/// the terminal state, so a subscriber observing a terminal job only
/// needs a short grace period for the tail of the file.
fn handle_subscribe(shared: &Arc<Shared>, writer: &mut TcpStream, job: &str) -> Result<(), String> {
    {
        let inner = shared.inner.lock().expect("serve lock");
        if !inner.jobs.contains_key(job) {
            drop(inner);
            return refuse(writer, &format!("no such job {job}"));
        }
    }
    writeln!(writer, "ok subscribed {job}").map_err(|e| e.to_string())?;
    let path = shared.state_dir.join(format!("job-{job}.samples.trc"));
    let mut tailer = TraceTailer::new(&path);
    let mut grace = SUBSCRIBE_GRACE_POLLS;
    loop {
        let frames = match tailer.poll() {
            Ok(frames) => frames,
            Err(e) => return refuse(writer, &format!("sample log: {e}")),
        };
        for frame in frames {
            if let TraceFrame::Event { payload, .. } = frame {
                let line = format!("sample {}\n", String::from_utf8_lossy(&payload));
                writer
                    .write_all(line.as_bytes())
                    .map_err(|e| e.to_string())?;
                shared
                    .bytes_streamed
                    .fetch_add(line.len() as u64, Ordering::Relaxed);
            }
        }
        let state = {
            let inner = shared.inner.lock().expect("serve lock");
            inner.jobs.get(job).map(|j| j.state.clone())
        };
        let terminal = state.as_ref().is_some_and(JobState::terminal);
        if tailer.finished() || (terminal && grace == 0) {
            let word = state.map_or("unknown", |s| s.word());
            return writeln!(writer, "end {job} {word}").map_err(|e| e.to_string());
        }
        if terminal {
            grace -= 1;
        }
        std::thread::sleep(SUBSCRIBE_POLL);
    }
}

/// Refuses further submissions, waits for the queue and workers to go
/// idle, acknowledges, then shuts the daemon down.
fn handle_drain(shared: &Arc<Shared>, writer: &mut TcpStream) -> Result<(), String> {
    let mut inner = shared.inner.lock().expect("serve lock");
    inner.draining = true;
    while !(inner.queue.is_empty() && inner.running == 0) {
        inner = shared.work.wait(inner).expect("serve lock");
    }
    inner.shutdown = true;
    drop(inner);
    shared.work.notify_all();
    writeln!(writer, "ok drained").map_err(|e| e.to_string())?;
    // Unblock the accept loop so the listener thread can observe the
    // shutdown flag and exit.
    let _ = TcpStream::connect(shared.local_addr);
    Ok(())
}

/// Collapses a multi-line message into one protocol-safe line.
pub(super) fn one_line(msg: &str) -> String {
    msg.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Restricts a job name to one protocol-safe token.
fn sanitize_token(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_whitespace() { '-' } else { c })
        .collect();
    if cleaned.is_empty() {
        "job".to_string()
    } else {
        cleaned
    }
}
