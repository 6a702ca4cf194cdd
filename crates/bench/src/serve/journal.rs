//! The daemon's persistent queue: an append-only, line-oriented job
//! journal.
//!
//! Every job transition is one appended line in `journal.log`:
//!
//! ```text
//! accepted j1 <name> timeout=<secs> ckpt=<simsecs>
//! running j1
//! completed j1
//! failed j1 <message…>
//! cancel-requested j1
//! cancelled j1
//! ```
//!
//! Lines are written with a plain `write(2)` per transition (no
//! userspace buffering), so a `kill -9` of the daemon loses at most the
//! transition being written — and an interrupted final line is simply
//! ignored on replay. Replay folds the log into per-job records: jobs
//! whose last state is not terminal go back on the queue (a `running`
//! job restarts, resuming from its checkpoint when one exists), and a
//! non-terminal job with a pending cancel request is finalized as
//! cancelled.

use std::io::Write;
use std::path::Path;

/// File name of the journal inside the state directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// A job's lifecycle state, as recorded in the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; its CSV is on disk.
    Completed,
    /// Errored or timed out, with the reason.
    Failed(String),
    /// Stopped by a cancel request (not a failure).
    Cancelled,
}

impl JobState {
    /// Whether the state is terminal (no worker will touch the job
    /// again).
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed(_) | JobState::Cancelled
        )
    }

    /// The state's wire word (the failure detail travels separately).
    pub fn word(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One job as reconstructed from (and maintained alongside) the
/// journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// The job id (`j1`, `j2`, … in acceptance order).
    pub id: String,
    /// The job's display name.
    pub name: String,
    /// Wall-clock budget in seconds (`0` = none).
    pub timeout_secs: u64,
    /// Checkpoint interval in simulated seconds (`0` = never).
    pub checkpoint_every: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Whether a cancel has been requested but not yet honored.
    pub cancel_requested: bool,
}

/// Every job a daemon has accepted, in one `Vec` sorted by job number
/// (`j<n>`), which is acceptance order. The daemon keeps a record for
/// every job it ever accepted, so the table stores each record once,
/// with no per-entry key or tree node, and lookups binary-search it.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Vec<JobRecord>,
}

/// The number of a job id `j<n>`, written as the daemon writes it (so
/// `j01` and `j+1` are not `j1`).
fn job_number(id: &str) -> Option<u64> {
    let digits = id.strip_prefix('j')?;
    if digits.starts_with(['0', '+']) {
        return None;
    }
    digits.parse().ok()
}

impl JobTable {
    /// Where the record for `id` is (`Ok`) or would go (`Err`); `None`
    /// for an id that is not `j<n>`.
    fn slot(&self, id: &str) -> Option<Result<usize, usize>> {
        let n = job_number(id)?;
        Some(
            self.jobs
                .binary_search_by_key(&n, |j| job_number(&j.id).unwrap_or(u64::MAX)),
        )
    }

    /// The record for job `id`.
    pub fn get(&self, id: &str) -> Option<&JobRecord> {
        let i = self.slot(id)?.ok()?;
        Some(&self.jobs[i])
    }

    /// The record for job `id`, for update.
    pub fn get_mut(&mut self, id: &str) -> Option<&mut JobRecord> {
        let i = self.slot(id)?.ok()?;
        Some(&mut self.jobs[i])
    }

    /// Adds `record`, replacing any record with the same id. A record
    /// whose id is not `j<n>` is dropped.
    pub fn insert(&mut self, record: JobRecord) {
        match self.slot(&record.id) {
            Some(Ok(i)) => self.jobs[i] = record,
            Some(Err(i)) => self.jobs.insert(i, record),
            None => {}
        }
    }

    /// Every record, in acceptance order.
    pub fn iter(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter()
    }

    /// How many jobs the table holds.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }
}

/// The append side of the journal plus the replayed state.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Opens (creating if absent) the journal in `state_dir` and replays
    /// it. Returns the journal handle, every job, and the next unused
    /// numeric job id.
    ///
    /// # Errors
    /// Returns a message when the state directory or journal cannot be
    /// opened. Malformed lines (at most one, from an interrupted final
    /// write) are skipped, not fatal.
    pub fn open(state_dir: &Path) -> Result<(Journal, JobTable, u64), String> {
        let path = state_dir.join(JOURNAL_FILE);
        let mut jobs = JobTable::default();
        let mut next_id = 1u64;
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        {
            for line in text.lines() {
                let mut words = line.splitn(3, ' ');
                let (Some(verb), Some(id)) = (words.next(), words.next()) else {
                    continue;
                };
                let rest = words.next().unwrap_or("");
                match verb {
                    "accepted" => {
                        let mut fields = rest.split(' ');
                        let name = fields.next().unwrap_or("job").to_string();
                        let mut timeout_secs = 0;
                        let mut checkpoint_every = 0;
                        for field in fields {
                            if let Some(v) = field.strip_prefix("timeout=") {
                                timeout_secs = v.parse().unwrap_or(0);
                            } else if let Some(v) = field.strip_prefix("ckpt=") {
                                checkpoint_every = v.parse().unwrap_or(0);
                            }
                        }
                        if let Some(n) = job_number(id) {
                            next_id = next_id.max(n + 1);
                        }
                        jobs.insert(JobRecord {
                            id: id.to_string(),
                            name,
                            timeout_secs,
                            checkpoint_every,
                            state: JobState::Queued,
                            cancel_requested: false,
                        });
                    }
                    "running" | "completed" | "failed" | "cancelled" | "cancel-requested" => {
                        let Some(job) = jobs.get_mut(id) else {
                            continue;
                        };
                        match verb {
                            "running" => job.state = JobState::Running,
                            "completed" => job.state = JobState::Completed,
                            "failed" => job.state = JobState::Failed(rest.to_string()),
                            "cancelled" => {
                                job.state = JobState::Cancelled;
                                job.cancel_requested = false;
                            }
                            _ => job.cancel_requested = true,
                        }
                    }
                    _ => {}
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut journal = Journal { file };
        // A torn, newline-less fragment from a crash mid-append must
        // not splice into the next line: terminate it now.
        if !text.is_empty() && !text.ends_with('\n') {
            journal.append("")?;
        }
        // Finalize cancels interrupted by a crash: the request is
        // durable, the worker that would honor it is gone.
        for job in &mut jobs.jobs {
            if job.cancel_requested && !job.state.terminal() {
                job.state = JobState::Cancelled;
                job.cancel_requested = false;
                journal.append(&format!("cancelled {}", job.id))?;
            }
        }
        Ok((journal, jobs, next_id))
    }

    /// Appends one journal line, issuing the write immediately.
    ///
    /// # Errors
    /// Returns a message on I/O failure.
    pub fn append(&mut self, line: &str) -> Result<(), String> {
        self.file
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("journal: {e}"))
    }
}

/// Ids of replayed jobs that need a worker, in acceptance order:
/// queued jobs plus jobs a dead daemon left running.
pub fn recoverable(jobs: &JobTable) -> Vec<String> {
    jobs.iter()
        .filter(|j| !j.state.terminal())
        .map(|j| j.id.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_state_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scrip-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create state dir");
        dir
    }

    #[test]
    fn replay_restores_states_and_requeues_interrupted_jobs() {
        let dir = temp_state_dir("replay");
        {
            let (mut journal, jobs, next) = Journal::open(&dir).expect("opens");
            assert_eq!(jobs.len(), 0);
            assert_eq!(next, 1);
            journal
                .append("accepted j1 alpha timeout=0 ckpt=100")
                .expect("append");
            journal.append("running j1").expect("append");
            journal.append("completed j1").expect("append");
            journal
                .append("accepted j2 beta timeout=30 ckpt=0")
                .expect("append");
            journal.append("running j2").expect("append");
            journal
                .append("accepted j3 gamma timeout=0 ckpt=0")
                .expect("append");
        }
        let (_journal, jobs, next) = Journal::open(&dir).expect("replays");
        assert_eq!(next, 4);
        assert_eq!(jobs.get("j1").expect("replayed").state, JobState::Completed);
        assert_eq!(jobs.get("j2").expect("replayed").state, JobState::Running);
        assert_eq!(jobs.get("j2").expect("replayed").timeout_secs, 30);
        assert_eq!(jobs.get("j3").expect("replayed").state, JobState::Queued);
        assert_eq!(jobs.get("j1").expect("replayed").checkpoint_every, 100);
        assert_eq!(recoverable(&jobs), vec!["j2", "j3"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_cancels_finalize_as_cancelled_on_replay() {
        let dir = temp_state_dir("cancel");
        {
            let (mut journal, _, _) = Journal::open(&dir).expect("opens");
            journal
                .append("accepted j1 alpha timeout=0 ckpt=0")
                .expect("append");
            journal.append("running j1").expect("append");
            journal.append("cancel-requested j1").expect("append");
        }
        let (_journal, jobs, _) = Journal::open(&dir).expect("replays");
        assert_eq!(jobs.get("j1").expect("replayed").state, JobState::Cancelled);
        assert!(!jobs.get("j1").expect("replayed").cancel_requested);
        assert!(recoverable(&jobs).is_empty());
        // The finalization is itself journaled: a third replay agrees.
        let (_journal, jobs, _) = Journal::open(&dir).expect("replays again");
        assert_eq!(jobs.get("j1").expect("replayed").state, JobState::Cancelled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let dir = temp_state_dir("torn");
        {
            let (mut journal, _, _) = Journal::open(&dir).expect("opens");
            journal
                .append("accepted j1 alpha timeout=0 ckpt=0")
                .expect("append");
        }
        // Simulate a crash mid-append: a torn, newline-less fragment.
        let path = dir.join(JOURNAL_FILE);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        file.write_all(b"runni").expect("torn write");
        let (_journal, jobs, next) = Journal::open(&dir).expect("replays");
        assert_eq!(jobs.get("j1").expect("replayed").state, JobState::Queued);
        assert_eq!(next, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_table_orders_by_job_number_and_matches_ids_exactly() {
        let record = |id: &str, name: &str| JobRecord {
            id: id.to_string(),
            name: name.to_string(),
            timeout_secs: 0,
            checkpoint_every: 0,
            state: JobState::Queued,
            cancel_requested: false,
        };
        let mut jobs = JobTable::default();
        for id in ["j10", "j9", "j2", "x", "j02"] {
            jobs.insert(record(id, "a"));
        }
        jobs.insert(record("j9", "b"));
        let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["j2", "j9", "j10"]);
        assert_eq!(jobs.get("j9").expect("present").name, "b");
        assert!(jobs.get("j09").is_none() && jobs.get("j+9").is_none());
        assert_eq!(recoverable(&jobs), ["j2", "j9", "j10"]);
    }
}
