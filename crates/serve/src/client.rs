//! A blocking client for the `mempool-job-v1` socket protocol, used by
//! `mempool-cli` and the integration tests.
//!
//! Each operation opens its own connection (one request, one response
//! line — except [`ServeClient::wait`], which streams event lines until
//! the job is terminal). That keeps the wire trivially framed and means a
//! client never has to demultiplex.

use crate::protocol::{JobSpec, Request};
use mempool_traffic::parse_flat_json;
use std::collections::BTreeMap;
use std::fmt;
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

    /// Streams a job's events (`state`, `heartbeat`, `attempt-failed`)
    /// into `on_event` until the job is terminal; returns the final `done`
    /// event's fields (`status`, `result`).
    ///
    /// # Errors
    ///
    /// `unknown-job` rejection, a dropped connection (e.g. the daemon
    /// drained — the job is parked, not lost), or transport failures.
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
        let started = Instant::now();
        let reader = self.open(&Request::Wait { job })?;
        if deadline.is_some() {
            // Poll the stream so the deadline is honored even while the
            // daemon is silent between events.
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(200)))?;
        }
        let mut reader = reader;
        let mut line = String::new();
        loop {
            line.clear();
            let read = loop {
                // A read timeout may fire mid-line; `read_line` keeps what
                // it consumed in `line`, so retrying appends the rest.
                match reader.read_line(&mut line) {
                    Ok(n) => break n,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        if let Some(deadline) = deadline {
                            if Instant::now() >= deadline {
                                return Err(ClientError::TimedOut(started.elapsed()));
                            }
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            if read == 0 {
                return Err(ClientError::Protocol(
                    "daemon closed the event stream (drained?)".to_owned(),
                ));
            }
            let fields = parse_line(line.trim())?;
            if fields.get("ok").map(String::as_str) == Some("false") {
                check_ok(fields)?;
                return Err(ClientError::Protocol("ok=false without error".to_owned()));
            }
            if fields.get("event").map(String::as_str) == Some("done") {
                return Ok(fields);
            }
            on_event(&fields);
        }
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
    /// `unknown-job` rejection, a dropped connection (the daemon drained —
    /// the job is parked, not lost; re-subscribe after restart), or
    /// transport failures.
    pub fn watch(
        &self,
        job: u64,
        on_record: &mut dyn FnMut(&str, &Fields),
    ) -> Result<Fields, ClientError> {
        let mut reader = self.open(&Request::Watch { job })?;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol(
                    "daemon closed the telemetry stream (drained?)".to_owned(),
                ));
            }
            let raw = line.trim();
            let fields = parse_line(raw)?;
            if fields.get("ok").map(String::as_str) == Some("false") {
                check_ok(fields)?;
                return Err(ClientError::Protocol("ok=false without error".to_owned()));
            }
            on_record(raw, &fields);
            if fields.get("final").map(String::as_str) == Some("true") {
                return Ok(fields);
            }
        }
    }

    /// Subscribes to every job's telemetry records (raw line plus parsed
    /// fields per record) until the daemon closes the connection (e.g. a
    /// drain). Returns cleanly on EOF.
    ///
    /// # Errors
    ///
    /// Transport failures before or during the stream.
    pub fn tail(&self, on_record: &mut dyn FnMut(&str, &Fields)) -> Result<(), ClientError> {
        let mut reader = self.open(&Request::Tail)?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("daemon closed without replying".to_owned()));
        }
        check_ok(parse_line(line.trim())?)?;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(());
            }
            let raw = line.trim();
            on_record(raw, &parse_line(raw)?);
        }
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
