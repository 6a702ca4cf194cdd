//! `scrip-sim serve`: a crash-safe scenario job daemon with live
//! telemetry streaming.
//!
//! The daemon listens on a TCP socket and speaks a small line-delimited
//! protocol (see [`protocol::Request`]): clients submit scenario files
//! over the wire, poll job status, fetch finished CSVs, cancel jobs,
//! subscribe to a live stream of per-boundary probe samples, read
//! daemon counters, and drain the daemon for shutdown.
//!
//! Three pieces make it crash-safe and deterministic:
//!
//! * **A persistent queue.** Every job transition is one appended line
//!   in `journal.log` inside the state directory (the `journal`
//!   module); the
//!   submitted scenario bytes live next to it as `job-<id>.scn`. On
//!   restart the daemon replays the journal and re-enqueues every job
//!   that had not reached a terminal state.
//! * **Periodic checkpoints.** Workers run jobs through the existing
//!   [`Session`](scrip_core::obs::Session)/scenario runner, snapshotting
//!   qualifying runs (one case, one replication, queue-level) at
//!   interior multiples of the checkpoint interval. A
//!   restarted daemon resumes such a job from its latest `SCRIPCKP`
//!   snapshot — and because resume→finish is byte-identical to an
//!   uninterrupted run (the PR 8 invariant), the served CSV equals the
//!   batch `scrip-sim run` CSV even across a kill.
//! * **Tailable telemetry.** Each job appends one frame per sampling
//!   boundary to `job-<id>.samples.trc` — a `SCRIPTRC` container whose
//!   event payloads are human-readable sample lines — flushed at every
//!   boundary and closed with the format's end frame. Subscribers (and
//!   `scrip-sim tail`) follow it with
//!   [`TraceTailer`](scrip_des::trace::TraceTailer), the consumer side
//!   of `TraceReader::extend`.
//!
//! The daemon never re-simulates inside the protocol layer: results are
//! whatever the worker wrote, so a served run's output is the scenario
//! runner's output, byte for byte.

mod client;
mod journal;
mod protocol;
mod server;
mod worker;

pub use client::Client;
pub use journal::{JobRecord, JobState};
pub use protocol::Request;
pub use server::{ServeOptions, Server};

/// Name of the per-daemon address file inside the state directory:
/// written once the listener is bound, so scripts (and the integration
/// tests) can serve on port 0 and discover the ephemeral port.
pub const ADDR_FILE: &str = "addr";

/// Environment variable naming a per-boundary worker sleep in
/// milliseconds. Test pacing hook: it slows a job down without touching
/// its deterministic output, so a test can reliably kill the daemon
/// mid-run and exercise restart recovery.
pub const THROTTLE_ENV: &str = "SCRIP_SERVE_THROTTLE_MS";
