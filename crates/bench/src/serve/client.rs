//! A small blocking client for the daemon's wire protocol, shared by
//! the `scrip-sim` subcommands (`submit`, `status`, `watch`, …), the
//! `serve_stream` bench regime, and the integration tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One connection to a `scrip-sim serve` daemon.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to the daemon at `addr` (`host:port`).
    ///
    /// # Errors
    /// Returns a message when the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Every request goes out in one write; without this, Nagle's
        // algorithm could still hold it back for the daemon's delayed ACK.
        writer
            .set_nodelay(true)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let read_half = writer
            .try_clone()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Client {
            writer,
            reader: BufReader::new(read_half),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.send_message(&format!("{line}\n"))
    }

    /// Sends one whole message with a single write.
    fn send_message(&mut self, message: &str) -> Result<(), String> {
        self.writer
            .write_all(message.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read_reply(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("connection closed".into());
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        match trimmed.strip_prefix("ok") {
            Some(rest) => Ok(rest.trim_start().to_string()),
            None => Err(trimmed.strip_prefix("err ").unwrap_or(trimmed).to_string()),
        }
    }

    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.read_reply()
    }

    /// Liveness check; returns `"pong"`.
    ///
    /// # Errors
    /// Returns the daemon's error message or a transport error.
    pub fn ping(&mut self) -> Result<String, String> {
        self.round_trip("ping")
    }

    /// Submits a scenario file's text; returns the new job id.
    ///
    /// # Errors
    /// Returns the daemon's refusal (e.g. a scenario validation error)
    /// or a transport error.
    pub fn submit(
        &mut self,
        scenario_text: &str,
        name: Option<&str>,
        timeout_secs: Option<u64>,
        checkpoint_every: Option<u64>,
    ) -> Result<String, String> {
        let mut message = format!("submit {}", scenario_text.len());
        if let Some(name) = name {
            message.push_str(&format!(" name={name}"));
        }
        if let Some(t) = timeout_secs {
            message.push_str(&format!(" timeout={t}"));
        }
        if let Some(c) = checkpoint_every {
            message.push_str(&format!(" ckpt={c}"));
        }
        // Header and body in one write.
        message.push('\n');
        message.push_str(scenario_text);
        self.send_message(&message)?;
        let reply = self.read_reply()?;
        reply
            .strip_prefix("submitted ")
            .map(str::to_string)
            .ok_or(reply)
    }

    /// Queries a job's state: the state word plus any detail (a failure
    /// reason, or `cancelling` while a cancel is pending).
    ///
    /// # Errors
    /// Returns the daemon's error (e.g. unknown job) or a transport
    /// error.
    pub fn status(&mut self, job: &str) -> Result<String, String> {
        let reply = self.round_trip(&format!("status {job}"))?;
        reply
            .strip_prefix(&format!("status {job} "))
            .map(str::to_string)
            .ok_or(reply)
    }

    /// Polls `status` until the job reaches a terminal state; returns
    /// the state word (`completed`, `failed`, or `cancelled`).
    ///
    /// # Errors
    /// Returns `timed out waiting …` after `wait_secs`, or any
    /// status-query error.
    pub fn wait_terminal(&mut self, job: &str, wait_secs: u64) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(wait_secs);
        loop {
            let status = self.status(job)?;
            let word = status.split_whitespace().next().unwrap_or("").to_string();
            if matches!(word.as_str(), "completed" | "failed" | "cancelled") {
                return Ok(word);
            }
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting for {job} (last: {status})"));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Fetches a completed job's CSV.
    ///
    /// # Errors
    /// Returns the daemon's refusal (job missing or not completed) or a
    /// transport error.
    pub fn result_csv(&mut self, job: &str) -> Result<String, String> {
        let reply = self.round_trip(&format!("result {job}"))?;
        let nbytes: usize = reply
            .strip_prefix(&format!("result {job} "))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| reply.clone())?;
        let mut bytes = vec![0u8; nbytes];
        self.reader
            .read_exact(&mut bytes)
            .map_err(|e| format!("recv result body: {e}"))?;
        String::from_utf8(bytes).map_err(|e| format!("result not UTF-8: {e}"))
    }

    /// Requests cancellation; returns the daemon's acknowledgement
    /// (`cancelled <job>` for queued jobs, `cancelling <job>` for
    /// running ones).
    ///
    /// # Errors
    /// Returns the daemon's refusal (unknown or already-terminal job)
    /// or a transport error.
    pub fn cancel(&mut self, job: &str) -> Result<String, String> {
        self.round_trip(&format!("cancel {job}"))
    }

    /// Reads the daemon's counters as one `k=v …` line.
    ///
    /// # Errors
    /// Returns a transport error.
    pub fn stats(&mut self) -> Result<String, String> {
        let reply = self.round_trip("stats")?;
        Ok(reply.strip_prefix("stats ").unwrap_or(&reply).to_string())
    }

    /// Streams the job's live samples, invoking `on_sample` with each
    /// sample payload, until the daemon reports the end of the stream;
    /// returns the job's final state word. Consumes the client — the
    /// daemon dedicates the connection to the stream.
    ///
    /// # Errors
    /// Returns the daemon's refusal (unknown job, corrupt sample log)
    /// or a transport error.
    pub fn subscribe(
        mut self,
        job: &str,
        mut on_sample: impl FnMut(&str),
    ) -> Result<String, String> {
        self.send(&format!("subscribe {job}"))?;
        let first = self.read_reply()?;
        if first.strip_prefix("subscribed").is_none() {
            return Err(first);
        }
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("stream closed before end".into());
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if let Some(payload) = trimmed.strip_prefix("sample ") {
                on_sample(payload);
            } else if let Some(rest) = trimmed.strip_prefix(&format!("end {job} ")) {
                return Ok(rest.to_string());
            } else if let Some(err) = trimmed.strip_prefix("err ") {
                return Err(err.to_string());
            } else {
                return Err(format!("unexpected stream line {trimmed:?}"));
            }
        }
    }

    /// Asks the daemon to drain: refuse new jobs, finish the queue,
    /// shut down. Blocks until the daemon acknowledges.
    ///
    /// # Errors
    /// Returns a transport error.
    pub fn drain(&mut self) -> Result<(), String> {
        let reply = self.round_trip("drain")?;
        if reply == "drained" {
            Ok(())
        } else {
            Err(reply)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_turns_off_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound").to_string();
        let client = Client::connect(&addr).expect("connects");
        assert_eq!(client.writer.nodelay().ok(), Some(true));
    }
}
