//! The daemon's line-delimited wire protocol.
//!
//! Every request is one ASCII line. Responses start with `ok` or `err`;
//! two verbs continue past their first line: `result` (followed by the
//! announced number of raw CSV bytes) and `subscribe` (followed by
//! `sample <payload>` lines and a final `end <job> <state>` line).
//!
//! ```text
//! submit <nbytes> [name=<token>] [timeout=<secs>] [ckpt=<simsecs>]
//!   → ok submitted <job>            (after <nbytes> raw scenario bytes)
//! status <job>                      → ok status <job> <state> [detail]
//! result <job>                      → ok result <job> <nbytes>\n<bytes>
//! cancel <job>                      → ok cancelled <job> | ok cancelling <job>
//! subscribe <job>                   → ok subscribed <job>, then the stream
//! stats                             → ok stats k=v ...
//! drain                             → ok drained        (when idle)
//! ping                              → ok pong
//! ```

/// One parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a scenario: `nbytes` of raw scenario-file bytes follow
    /// the request line.
    Submit {
        /// Raw byte length of the scenario file that follows.
        nbytes: usize,
        /// Client-chosen job name (defaults to the scenario's own name).
        name: Option<String>,
        /// Wall-clock budget; the worker fails the job past it.
        timeout_secs: Option<u64>,
        /// Checkpoint interval in simulated seconds (qualifying jobs
        /// only). Without one the worker snapshots at sampling
        /// boundaries, at most once per second of wall time.
        checkpoint_every: Option<u64>,
    },
    /// Query one job's state.
    Status {
        /// The job id (`j1`, `j2`, …).
        job: String,
    },
    /// Fetch a completed job's CSV.
    Result {
        /// The job id.
        job: String,
    },
    /// Request cancellation at the job's next sampling boundary.
    Cancel {
        /// The job id.
        job: String,
    },
    /// Stream the job's live samples until its end-of-log frame.
    Subscribe {
        /// The job id.
        job: String,
    },
    /// Read the daemon's counters.
    Stats,
    /// Stop accepting submissions, wait for the queue to empty, then
    /// shut the daemon down.
    Drain,
    /// Liveness check.
    Ping,
}

impl Request {
    /// Parses one request line (no trailing newline).
    ///
    /// # Errors
    /// Returns a human-readable message for unknown verbs, missing
    /// operands, or malformed key=value options.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut words = line.split_whitespace();
        let verb = words.next().ok_or("empty request")?;
        let mut job_operand = |verb: &str| -> Result<String, String> {
            match words.next() {
                Some(job) => Ok(job.to_string()),
                None => Err(format!("{verb} needs a job id")),
            }
        };
        match verb {
            "status" => Ok(Request::Status {
                job: job_operand("status")?,
            }),
            "result" => Ok(Request::Result {
                job: job_operand("result")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: job_operand("cancel")?,
            }),
            "subscribe" => Ok(Request::Subscribe {
                job: job_operand("subscribe")?,
            }),
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            "ping" => Ok(Request::Ping),
            "submit" => {
                let nbytes: usize = words
                    .next()
                    .ok_or("submit needs a byte count")?
                    .parse()
                    .map_err(|_| "submit byte count must be an integer".to_string())?;
                let mut name = None;
                let mut timeout_secs = None;
                let mut checkpoint_every = None;
                for opt in words {
                    let (key, value) = opt
                        .split_once('=')
                        .ok_or_else(|| format!("malformed submit option {opt:?}"))?;
                    match key {
                        "name" => name = Some(value.to_string()),
                        "timeout" => {
                            timeout_secs = Some(value.parse().map_err(|_| {
                                format!("timeout must be an integer, got {value:?}")
                            })?);
                        }
                        "ckpt" => {
                            checkpoint_every =
                                Some(value.parse().map_err(|_| {
                                    format!("ckpt must be an integer, got {value:?}")
                                })?);
                        }
                        _ => return Err(format!("unknown submit option {key:?}")),
                    }
                }
                Ok(Request::Submit {
                    nbytes,
                    name,
                    timeout_secs,
                    checkpoint_every,
                })
            }
            _ => Err(format!("unknown verb {verb:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse_with_their_operands() {
        assert_eq!(
            Request::parse("submit 120 name=night-sweep timeout=30 ckpt=100"),
            Ok(Request::Submit {
                nbytes: 120,
                name: Some("night-sweep".into()),
                timeout_secs: Some(30),
                checkpoint_every: Some(100),
            })
        );
        assert_eq!(
            Request::parse("submit 7"),
            Ok(Request::Submit {
                nbytes: 7,
                name: None,
                timeout_secs: None,
                checkpoint_every: None,
            })
        );
        assert_eq!(
            Request::parse("status j3"),
            Ok(Request::Status { job: "j3".into() })
        );
        assert_eq!(
            Request::parse("subscribe j1"),
            Ok(Request::Subscribe { job: "j1".into() })
        );
        assert_eq!(Request::parse("stats"), Ok(Request::Stats));
        assert_eq!(Request::parse("drain"), Ok(Request::Drain));
        assert_eq!(Request::parse("ping"), Ok(Request::Ping));
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("launch j1").is_err());
        assert!(Request::parse("status").is_err());
        assert!(Request::parse("submit").is_err());
        assert!(Request::parse("submit many").is_err());
        assert!(Request::parse("submit 9 timeout=soon").is_err());
        assert!(Request::parse("submit 9 color=red").is_err());
        assert!(Request::parse("submit 9 name").is_err());
    }
}
