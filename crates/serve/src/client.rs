//! A blocking client for the `mempool-job-v1` socket protocol, used by
//! `mempool-cli` and the integration tests.
//!
//! Each operation opens its own connection: one request, one response
//! line. The three subscriptions ([`ServeClient::wait`],
//! [`ServeClient::watch`], [`ServeClient::tail`]) read that line as an
//! acknowledgment and then the `mempool-job-stream-v1` records pushed
//! after it, in one read loop: until the job's `final: true` record, or
//! for `tail` until the daemon closes. That keeps the wire trivially framed
//! and means a client never has to demultiplex.

use crate::protocol::{JobSpec, Request};
use mempool::json::parse_flat_json;
use std::collections::BTreeMap;
use std::fmt;
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Why a client operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket could not be reached or dropped mid-operation.
    Io(io::Error),
    /// The daemon answered with something unparsable.
    Protocol(String),
    /// The daemon rejected the request; `kind` is the typed class from
    /// the wire (`overloaded`, `quota`, `invalid`, `unknown-job`,
    /// `draining`, `result-unavailable`).
    Rejected {
        /// Machine-readable rejection class.
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A deadline-bounded operation ([`ServeClient::wait_until`]) ran out
    /// of time; the job is still in flight.
    TimedOut(Duration),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected { kind, detail } => write!(f, "rejected ({kind}): {detail}"),
            ClientError::TimedOut(after) => {
                write!(f, "timed out after {:.1}s", after.as_secs_f64())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A handle on a daemon's socket.
#[derive(Debug, Clone)]
pub struct ServeClient {
    socket: PathBuf,
}

type Fields = BTreeMap<String, String>;

fn parse_line(line: &str) -> Result<Fields, ClientError> {
    parse_flat_json(line)
        .ok_or_else(|| ClientError::Protocol(format!("unparsable response `{line}`")))
}

/// Turns an `{"ok":false,...}` document into [`ClientError::Rejected`].
fn check_ok(fields: Fields) -> Result<Fields, ClientError> {
    match fields.get("ok").map(String::as_str) {
        Some("true") => Ok(fields),
        Some("false") => Err(ClientError::Rejected {
            kind: fields.get("error").cloned().unwrap_or_default(),
            detail: fields.get("detail").cloned().unwrap_or_default(),
        }),
        _ => Err(ClientError::Protocol("response lacks an `ok` field".to_owned())),
    }
}

/// A `wait` or `watch` that ended before the job's terminal record.
fn drained() -> ClientError {
    ClientError::Protocol("daemon closed the stream (drained?)".to_owned())
}

impl ServeClient {
    /// Creates a client for the daemon at `socket`. No connection is made
    /// until the first operation.
    pub fn connect(socket: &Path) -> ServeClient {
        ServeClient {
            socket: socket.to_path_buf(),
        }
    }

    fn open(&self, request: &Request) -> Result<BufReader<UnixStream>, ClientError> {
        let mut stream = UnixStream::connect(&self.socket)?;
        stream.write_all(request.to_json().as_bytes())?;
        stream.write_all(b"\n")?;
        Ok(BufReader::new(stream))
    }

    fn request(&self, request: &Request) -> Result<Fields, ClientError> {
        let mut reader = self.open(request)?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("daemon closed without replying".to_owned()));
        }
        check_ok(parse_line(line.trim())?)
    }

    /// The read loop of every subscription: sends `request`, checks its
    /// acknowledgment, then hands `on_line` each record after it (and the
    /// acknowledgment too, `with_ack`), the raw line with its fields.
    /// Returns the job's `final: true` record, or `None` when the daemon
    /// closes the connection — the only way a `tail`, which spans every
    /// job, ends. Past `deadline` it gives up.
    fn subscribe(
        &self,
        request: &Request,
        deadline: Option<Instant>,
        with_ack: bool,
        on_line: &mut dyn FnMut(&str, &Fields),
    ) -> Result<Option<Fields>, ClientError> {
        let started = Instant::now();
        let mut reader = self.open(request)?;
        if deadline.is_some() {
            // Poll the stream so the deadline is honored even while the
            // daemon is silent between records.
            reader.get_ref().set_read_timeout(Some(Duration::from_millis(200)))?;
        }
        let mut line = String::new();
        let mut acked = false;
        loop {
            line.clear();
            // A read timeout may fire mid-line; `read_line` keeps what it
            // consumed in `line`, so retrying appends the rest.
            let read = loop {
                match reader.read_line(&mut line) {
                    Ok(n) => break n,
                    Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                            return Err(ClientError::TimedOut(started.elapsed()));
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            if read == 0 {
                let unanswered = ClientError::Protocol("daemon closed without replying".into());
                return if acked { Ok(None) } else { Err(unanswered) };
            }
            let raw = line.trim();
            let mut fields = parse_line(raw)?;
            if !acked {
                fields = check_ok(fields)?;
                acked = true;
                if !with_ack {
                    continue;
                }
            }
            on_line(raw, &fields);
            let last = fields.get("final").is_some_and(|f| f == "true");
            if last && !matches!(request, Request::Tail) {
                return Ok(Some(fields));
            }
        }
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with the typed admission answer
    /// (`overloaded` / `quota` / `invalid` / `draining`), or transport
    /// failures.
    pub fn submit(
        &self,
        tenant: &str,
        priority: u8,
        deadline_secs: Option<u64>,
        spec: &JobSpec,
    ) -> Result<u64, ClientError> {
        let fields = self.request(&Request::Submit {
            tenant: tenant.to_owned(),
            priority,
            deadline_secs,
            spec: spec.clone(),
        })?;
        fields
            .get("job")
            .and_then(|j| j.parse().ok())
            .ok_or_else(|| ClientError::Protocol("submit reply lacks a job id".to_owned()))
    }

    /// Queries one job's state (`status`, `attempt`, and `result` once
    /// terminal).
    ///
    /// # Errors
    ///
    /// `unknown-job` rejection or transport failures.
    pub fn status(&self, job: u64) -> Result<Fields, ClientError> {
        self.request(&Request::Status { job })
    }

    /// Queries daemon health (queue depths, journal recovery counters).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn health(&self) -> Result<Fields, ClientError> {
        self.request(&Request::Health)
    }

    /// Cancels a queued or running job.
    ///
    /// # Errors
    ///
    /// `unknown-job` rejection or transport failures.
    pub fn cancel(&self, job: u64) -> Result<Fields, ClientError> {
        self.request(&Request::Cancel { job })
    }

    /// Asks the daemon to drain (checkpoint-park in-flight jobs and exit).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }

    /// Streams a job into `on_event`: first the subscription's
    /// acknowledgment (`ok`, `job`, `status`), then every record
    /// [`ServeClient::watch`] would deliver but the `partial` metrics
    /// snapshots, through the terminal one; returns that record's fields
    /// (`status`, `result`).
    ///
    /// # Errors
    ///
    /// `unknown-job` or `result-unavailable` rejection, a dropped
    /// connection (e.g. the daemon drained — the job is parked, not lost),
    /// or transport failures.
    pub fn wait(
        &self,
        job: u64,
        on_event: &mut dyn FnMut(&Fields),
    ) -> Result<Fields, ClientError> {
        self.wait_until(job, None, on_event)
    }

    /// Like [`ServeClient::wait`], but gives up once `deadline` passes
    /// (the job keeps running — only the wait is abandoned).
    ///
    /// # Errors
    ///
    /// [`ClientError::TimedOut`] past the deadline, plus everything
    /// [`ServeClient::wait`] can return.
    pub fn wait_until(
        &self,
        job: u64,
        deadline: Option<Instant>,
        on_event: &mut dyn FnMut(&Fields),
    ) -> Result<Fields, ClientError> {
        let on_line = &mut |_: &str, fields: &Fields| on_event(fields);
        self.subscribe(&Request::Wait { job }, deadline, true, on_line)?.ok_or_else(drained)
    }

    /// Subscribes to one job's `mempool-job-stream-v1` telemetry records,
    /// feeding each (raw line, parsed fields) to `on_record` — raw bytes
    /// included so callers can relay or archive records verbatim — until
    /// the terminal `final: true` record arrives; returns that record's
    /// fields (`status`, `result`). The terminal record is also passed to
    /// `on_record` first.
    ///
    /// # Errors
    ///
    /// `unknown-job` or `result-unavailable` rejection, a dropped
    /// connection (the daemon drained — the job is parked, not lost;
    /// re-subscribe after restart), or transport failures.
    pub fn watch(
        &self,
        job: u64,
        on_record: &mut dyn FnMut(&str, &Fields),
    ) -> Result<Fields, ClientError> {
        self.subscribe(&Request::Watch { job }, None, false, on_record)?.ok_or_else(drained)
    }

    /// Subscribes to every job's telemetry records (raw line plus parsed
    /// fields per record) until the daemon closes the connection (e.g. a
    /// drain). Returns cleanly on EOF.
    ///
    /// # Errors
    ///
    /// Transport failures before or during the stream.
    pub fn tail(&self, on_record: &mut dyn FnMut(&str, &Fields)) -> Result<(), ClientError> {
        self.subscribe(&Request::Tail, None, false, on_record).map(|_| ())
    }

    /// Fetches the daemon's `mempool-serve-metrics-v2` self-metrics
    /// document.
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed reply.
    pub fn serve_metrics(&self) -> Result<String, ClientError> {
        let fields = self.request(&Request::Metrics)?;
        fields
            .get("metrics")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("metrics reply lacks a document".to_owned()))
    }

    /// Fetches one job's Chrome `trace_event` timeline document.
    ///
    /// # Errors
    ///
    /// `unknown-job` rejection, transport failures, or a malformed reply.
    pub fn timeline(&self, job: u64) -> Result<String, ClientError> {
        let fields = self.request(&Request::Timeline { job })?;
        fields
            .get("timeline")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("timeline reply lacks a document".to_owned()))
    }
}
