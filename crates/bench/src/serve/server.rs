//! The daemon: listener, connection handlers, and the shared state the
//! worker pool drains.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use scrip_core::des::trace::{TraceFrame, TraceTailer};

use super::journal::{recoverable, JobRecord, JobState, JobTable, Journal};
use super::protocol::Request;
use super::{worker, ADDR_FILE};
use crate::scenario::Scenario;

/// Largest scenario file the daemon accepts over the wire (4 MiB — two
/// orders of magnitude above every scenario in the repo).
const MAX_SCENARIO_BYTES: usize = 4 << 20;

/// Longest request line the daemon reads (64 KiB): a `submit` header
/// with every option set is under a hundred bytes plus its job name. A
/// client that sends more without a newline is refused and cut off
/// instead of growing the daemon's line buffer without bound.
const MAX_LINE_BYTES: usize = 64 << 10;

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
    pub(super) jobs: JobTable,
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

/// The write half of a client connection, flushed once per reply.
type Writer = BufWriter<TcpStream>;

/// Serves one client connection until EOF, error, or a terminating verb
/// (`subscribe` after its stream, `drain` after shutdown).
///
/// Replies are buffered and flushed once per request, so each reply
/// leaves in one write; with `TCP_NODELAY` set it is sent at once
/// instead of waiting on the client's delayed ACK.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader)
            .take(MAX_LINE_BYTES as u64)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() == MAX_LINE_BYTES && !line.ends_with(b"\n") {
            let _ = refuse(&mut writer, "request line too long").and_then(|()| flush(&mut writer));
            return;
        }
        let request = match std::str::from_utf8(&line) {
            Ok(line) => {
                let trimmed = line.trim_end_matches(['\r', '\n']);
                if trimmed.is_empty() {
                    continue;
                }
                Request::parse(trimmed)
            }
            Err(_) => Err("request line is not UTF-8".to_string()),
        };
        let last = matches!(request, Ok(Request::Subscribe { .. } | Request::Drain));
        let outcome = match request {
            Err(e) => refuse(&mut writer, &e),
            Ok(Request::Ping) => writeln!(writer, "ok pong").map_err(|e| e.to_string()),
            Ok(Request::Submit {
                nbytes,
                name,
                timeout_secs,
                checkpoint_every,
            }) => handle_submit(
                shared,
                &mut reader,
                &mut writer,
                nbytes,
                name,
                timeout_secs,
                checkpoint_every,
            ),
            Ok(Request::Status { job }) => handle_status(shared, &mut writer, &job),
            Ok(Request::Result { job }) => handle_result(shared, &mut writer, &job),
            Ok(Request::Cancel { job }) => handle_cancel(shared, &mut writer, &job),
            Ok(Request::Stats) => handle_stats(shared, &mut writer),
            Ok(Request::Subscribe { job }) => handle_subscribe(shared, &mut writer, &job),
            Ok(Request::Drain) => handle_drain(shared, &mut writer),
        };
        if outcome.and_then(|()| flush(&mut writer)).is_err() || last {
            return;
        }
    }
}

/// Sends everything buffered for the client.
fn flush(writer: &mut Writer) -> Result<(), String> {
    writer.flush().map_err(|e| e.to_string())
}

/// Reports a protocol-level error to the client; connection-level I/O
/// failures bubble as `Err`.
fn refuse(writer: &mut Writer, msg: &str) -> Result<(), String> {
    writeln!(writer, "err {msg}").map_err(|e| e.to_string())
}

#[allow(clippy::too_many_arguments)]
fn handle_submit(
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut Writer,
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
    let ckpt = checkpoint_every.map_or(String::new(), |every| format!(" ckpt={every}"));
    inner
        .journal
        .append(&format!(
            "accepted {id} {name} timeout={timeout_secs}{ckpt}"
        ))
        .map_err(|e| e.to_string())?;
    inner.jobs.insert(JobRecord {
        id: id.clone(),
        name,
        timeout_secs,
        checkpoint_every,
        state: JobState::Queued,
        cancel_requested: false,
    });
    inner.queue.push_back(id.clone());
    drop(inner);
    shared.work.notify_all();
    writeln!(writer, "ok submitted {id}").map_err(|e| e.to_string())
}

fn handle_status(shared: &Arc<Shared>, writer: &mut Writer, job: &str) -> Result<(), String> {
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

fn handle_result(shared: &Arc<Shared>, writer: &mut Writer, job: &str) -> Result<(), String> {
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
    // Header and body in one buffer: a CSV larger than the writer's
    // buffer would otherwise bypass it and leave as a second write.
    let mut reply = format!("ok result {job} {}\n", csv.len()).into_bytes();
    reply.extend_from_slice(&csv);
    writer.write_all(&reply).map_err(|e| e.to_string())
}

fn handle_cancel(shared: &Arc<Shared>, writer: &mut Writer, job: &str) -> Result<(), String> {
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

fn handle_stats(shared: &Arc<Shared>, writer: &mut Writer) -> Result<(), String> {
    let inner = shared.inner.lock().expect("serve lock");
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut cancelled = 0u64;
    for job in inner.jobs.iter() {
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
fn handle_subscribe(shared: &Arc<Shared>, writer: &mut Writer, job: &str) -> Result<(), String> {
    {
        let inner = shared.inner.lock().expect("serve lock");
        if inner.jobs.get(job).is_none() {
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
        // One flush per poll batch: the samples (and, on the first
        // poll, the `subscribed` line) leave together.
        flush(writer)?;
        // A poll reads a bounded chunk: wait (and spend grace) only
        // once the log holds no unread bytes.
        if tailer.caught_up() {
            if terminal {
                grace -= 1;
            }
            std::thread::sleep(SUBSCRIBE_POLL);
        }
    }
}

/// Refuses further submissions, waits for the queue and workers to go
/// idle, acknowledges, then shuts the daemon down.
fn handle_drain(shared: &Arc<Shared>, writer: &mut Writer) -> Result<(), String> {
    let mut inner = shared.inner.lock().expect("serve lock");
    inner.draining = true;
    while !(inner.queue.is_empty() && inner.running == 0) {
        inner = shared.work.wait(inner).expect("serve lock");
    }
    inner.shutdown = true;
    drop(inner);
    shared.work.notify_all();
    // The reply is flushed before the self-connect below, which can let
    // the daemon exit.
    let acked = writeln!(writer, "ok drained")
        .map_err(|e| e.to_string())
        .and_then(|()| flush(writer));
    // Unblock the accept loop so the listener thread can observe the
    // shutdown flag and exit, whether or not the client is still there.
    let _ = TcpStream::connect(shared.local_addr);
    acked
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Client;

    #[test]
    fn over_long_request_lines_are_refused() {
        let dir =
            std::env::temp_dir().join(format!("scrip-serve-long-line-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(&ServeOptions::new("127.0.0.1:0", &dir)).expect("server starts");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
        // Exactly the limit and no newline: the daemon reads every byte
        // before it closes, so no unread data turns the close into a
        // reset that could swallow the reply.
        stream
            .write_all(&vec![b'x'; MAX_LINE_BYTES])
            .expect("sends");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("reads to close");
        assert_eq!(reply, "err request line too long\n");

        let mut client = Client::connect(&server.local_addr().to_string()).expect("connects");
        assert_eq!(client.ping().as_deref(), Ok("pong"));
        client.drain().expect("drains");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_request_lines_are_refused_and_the_connection_stays_open() {
        let dir = std::env::temp_dir().join(format!("scrip-serve-non-utf8-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(&ServeOptions::new("127.0.0.1:0", &dir)).expect("server starts");
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        (&stream).write_all(b"stat\xffs\nping\n").expect("sends");
        let mut replies = BufReader::new(&stream);
        let mut line = String::new();
        replies.read_line(&mut line).expect("first reply");
        assert_eq!(line, "err request line is not UTF-8\n");
        line.clear();
        replies.read_line(&mut line).expect("second reply");
        assert_eq!(line, "ok pong\n");
        drop(replies);
        drop(stream);

        let mut client = Client::connect(&server.local_addr().to_string()).expect("connects");
        client.drain().expect("drains");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
