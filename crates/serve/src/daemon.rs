//! The supervisor daemon: accepts jobs over a Unix socket, multiplexes
//! them across crash-isolated worker processes, and survives both worker
//! and daemon failures.
//!
//! One thread does everything. Each turn of its loop `poll`s one set of
//! descriptors — the listening socket, every client connection, every
//! worker's stdout pipe — for up to the fleet's
//! [`poll_interval`](Fleet::poll_interval), then accepts connections,
//! answers the complete request lines, relays the worker lines the
//! [`Fleet`] read, ticks the fleet (deadline kills, reaping), and
//! dispatches queued jobs into free worker slots. A connection
//! (`Conn`) is a nonblocking socket with a request line buffer and a
//! queue of reply bytes: what the socket does not take at once waits in
//! the queue until the socket polls writable, so a client that stops
//! reading holds up only its own queue. A hang-up closes the connection
//! and ends its subscriptions.
//!
//! The job table has two halves. A live job (`LiveJob`) holds what a
//! worker or a subscriber needs: its spec, its subscribers, its clock. A
//! finished job keeps only its `JobRecord` — status, attempt, stream
//! position, last heartbeat and timeline, 96 bytes plus 24 per timeline
//! event — for the late readers (`status`, `wait`/`watch`, `cancel`,
//! `timeline`, `health`). Its spec is dropped: a finished job never runs
//! again, and the journal's `job` line still holds it. Its result is not
//! kept here either: the [`Journal`] holds it, and remembers where.
//! Subscribers present when the job ends are served from the string the
//! worker handed over; `status`, and a `wait` or `watch` that arrives
//! later, read it back from the journal file.
//!
//! The worker processes themselves belong to the shared
//! [`Fleet`]: it spawns them, reads their stdout,
//! classifies how each attempt ended (`panic` / `signal` / `timeout` /
//! `oom` / `exit`), and decides between a retry from the job's last
//! checkpoint under the seeded [`RetryPolicy`] and giving up (budget
//! spent, or the same failure twice in a row). This module is the driver:
//! scheduling, the journal, and the stream/timeline/metrics hooks. A drain
//! (`SIGTERM` or the `shutdown` op) `SIGTERM`s every worker, which
//! checkpoint-parks its job and exits with status 3; once the last one is
//! reaped the daemon writes out what its connections still queue and
//! returns. The journal then lets a restarted daemon resume each job
//! bit-identically.

use crate::journal::{self, Journal, ReplayedJob};
use crate::metrics::{Counter, ServeGauges, ServeMetrics};
use crate::protocol::{
    resp_err, resp_ok, stream_record, JobSpec, JobStatus, Request, MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
};
use crate::sched::{Rejection, Scheduler, SchedulerConfig};
use crate::timeline::{Event, JobTimeline, Progress};
use mempool::json::{self, Layout, Obj};
use mempool_traffic::sig::{self, PollFd};
use mempool_traffic::{
    job_files, worker_job, FailureKind, Fleet, Outcome, RetryPolicy, Verdict, WorkerLine,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Path of the Unix socket to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Directory for the journal and per-job checkpoints (created if
    /// missing). Restarting with the same directory resumes parked work.
    pub state_dir: PathBuf,
    /// Worker processes run concurrently (0 = accept but never dispatch).
    pub worker_slots: usize,
    /// Admission policy (queue depth, tenant quotas).
    pub scheduler: SchedulerConfig,
    /// Retry/backoff policy applied to worker failures.
    pub retry: RetryPolicy,
    /// Wall-clock deadline per attempt for jobs that do not set their own
    /// (`None` = unbounded).
    pub default_deadline: Option<Duration>,
    /// Worker executable (invoked as `<cmd> worker` with the job document
    /// on stdin). `None` = the daemon's own executable.
    pub worker_cmd: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("mempool-serve.sock"),
            state_dir: PathBuf::from("mempool-serve-state"),
            worker_slots: 2,
            scheduler: SchedulerConfig::default(),
            retry: RetryPolicy::default(),
            default_deadline: None,
            worker_cmd: None,
        }
    }
}

/// What the daemon had done by the time it drained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Jobs that finished with a result.
    pub completed: usize,
    /// Jobs that exhausted the retry policy.
    pub failed: usize,
    /// Jobs cancelled by clients.
    pub cancelled: usize,
    /// Jobs checkpoint-parked by the drain (resume on restart).
    pub parked: usize,
    /// Jobs still queued at drain (resume on restart).
    pub queued: usize,
    /// Journal lines skipped during startup recovery.
    pub journal_skipped: usize,
}

/// Bytes one `read` of a connection takes at most.
const READ_CHUNK: usize = 64 * 1024;

/// How long a drain waits, at most, for its connections to take the bytes
/// they still queue.
const DRAIN_FLUSH: Duration = Duration::from_secs(1);

/// How long accepting pauses after `accept` failed (out of descriptors,
/// most likely), so that a listener that stays readable is not spun on.
const ACCEPT_PAUSE: Duration = Duration::from_millis(20);

/// Names a connection in the daemon's table.
type ConnId = u64;

/// A `wait` or `watch` connection. Both are sent the job's stream records;
/// only a `watch` (`partials`) is sent the `partial` metrics snapshots.
struct Subscriber {
    conn: ConnId,
    partials: bool,
}

/// One line a connection sent, its line break removed.
enum Line {
    Request(String),
    /// Not UTF-8: answered `invalid`; the connection reads on.
    Garbled,
    /// Longer than [`MAX_REQUEST_BYTES`]: answered `invalid`, and the
    /// connection closes.
    Overlong,
}

/// A client connection: a nonblocking socket, the request line being read,
/// and the bytes queued for the socket.
struct Conn {
    stream: UnixStream,
    /// What the client sent after its last line break.
    input: Vec<u8>,
    /// Reply and record bytes the socket has not taken yet.
    output: VecDeque<u8>,
    /// Requests are still read: not after the end of input or an
    /// overlong line.
    reading: bool,
    /// Hung up, or a write failed: closed at the end of the loop's turn.
    dead: bool,
}

impl Conn {
    /// One `read` of a socket that polled readable: the lines it
    /// completes, in order (blank ones skipped), and at the end of input
    /// an unterminated last line. An overlong line is the last one read.
    fn read(&mut self) -> Vec<Line> {
        let filled = self.input.len();
        self.input.resize(filled + READ_CHUNK, 0);
        let n = match self.stream.read(&mut self.input[filled..]) {
            Err(e) if later(&e) => {
                self.input.truncate(filled);
                return Vec::new();
            }
            // An error ends the input as its end does.
            read => read.unwrap_or(0),
        };
        self.input.truncate(filled + n);
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(at) = self.input[start..].iter().position(|&b| b == b'\n') {
            lines.extend(request_line(&self.input[start..start + at]));
            start += at + 1;
        }
        let rest = &self.input[start..];
        if n == 0 || rest.len() > MAX_REQUEST_BYTES {
            lines.extend(request_line(rest));
            self.reading = n > 0;
        }
        if let Some(at) = lines.iter().position(|l| matches!(l, Line::Overlong)) {
            lines.truncate(at + 1);
            self.reading = false;
        }
        if !self.reading {
            start = self.input.len();
        }
        self.input.drain(..start);
        // An idle connection keeps no buffer.
        if self.input.is_empty() {
            self.input = Vec::new();
        }
        lines
    }

    /// Queues `line` and a line break, writing first what the socket
    /// takes at once (all of it, unless the client lags behind).
    fn send(&mut self, line: String) {
        if self.dead {
            return;
        }
        let bytes = line.as_bytes();
        let mut written = 0;
        if self.output.is_empty() {
            let line = [IoSlice::new(bytes), IoSlice::new(b"\n")];
            match self.stream.write_vectored(&line) {
                Ok(n) => written = n,
                Err(e) if later(&e) => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if written < bytes.len() {
            self.output.extend(&bytes[written..]);
        }
        if written <= bytes.len() {
            self.output.push_back(b'\n');
        }
    }

    /// Writes queued bytes until the socket would block.
    fn flush(&mut self) {
        while !self.output.is_empty() && !self.dead {
            match self.stream.write(self.output.as_slices().0) {
                Ok(0) => self.dead = true,
                Ok(n) => drop(self.output.drain(..n)),
                Err(e) if later(&e) => return,
                Err(_) => self.dead = true,
            }
        }
        // A burst a lagging client has caught up with keeps no buffer.
        self.output = VecDeque::new();
    }
}

/// A read or write on a nonblocking socket that can only be tried again
/// later: at its next `poll`.
fn later(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted)
}

/// A request line as read, line break removed; `None` if it is blank.
fn request_line(bytes: &[u8]) -> Option<Line> {
    let bytes = bytes.strip_suffix(b"\r").unwrap_or(bytes);
    if bytes.len() > MAX_REQUEST_BYTES {
        return Some(Line::Overlong);
    }
    match std::str::from_utf8(bytes) {
        Ok(text) if text.trim().is_empty() => None,
        Ok(text) => Some(Line::Request(text.to_owned())),
        Err(_) => Some(Line::Garbled),
    }
}

/// The daemon's open connections.
#[derive(Default)]
struct Conns {
    open: BTreeMap<ConnId, Conn>,
    next_id: ConnId,
}

impl Conns {
    /// Takes `stream` (nonblocking) into the table.
    fn add(&mut self, stream: UnixStream) -> ConnId {
        let id = self.next_id;
        self.next_id += 1;
        let conn = Conn {
            stream,
            input: Vec::new(),
            output: VecDeque::new(),
            reading: true,
            dead: false,
        };
        self.open.insert(id, conn);
        id
    }

    /// [`Conn::send`] to connection `id`, if it is still open.
    fn send(&mut self, id: ConnId, line: String) {
        if let Some(conn) = self.open.get_mut(&id) {
            conn.send(line);
        }
    }

    /// Adds to `fds` an entry for every connection: for input while it
    /// reads requests, for output while bytes wait for it.
    fn poll_fds(&self, fds: &mut Vec<PollFd>) {
        let entries = self.open.values().filter(|c| !c.dead);
        fds.extend(entries.map(|c| PollFd::new(&c.stream, c.reading, !c.output.is_empty())));
    }

    /// The connection `fd` polled.
    fn polled(&mut self, fd: &PollFd) -> Option<(ConnId, &mut Conn)> {
        let mut open = self.open.iter_mut();
        let found = open.find(|(_, c)| c.stream.as_raw_fd() == fd.fd());
        found.map(|(&id, conn)| (id, conn))
    }
}

/// What the daemon keeps of a job for its whole life: all that the late
/// readers use, and all a finished job keeps.
struct JobRecord {
    status: JobStatus,
    attempt: u32,
    /// Next telemetry record sequence number. Advanced for every record
    /// whether or not anyone is subscribed, so observation never changes
    /// the numbering (or anything else).
    stream_seq: u64,
    /// Most recent worker heartbeat: wall time and sim cycle.
    last_heartbeat: Option<(Instant, u64)>,
    /// Its tenant name is shared by every job of the tenant.
    timeline: JobTimeline,
}

impl JobRecord {
    fn new(id: u64, tenant: Arc<str>, status: JobStatus) -> JobRecord {
        JobRecord {
            status,
            attempt: 1,
            stream_seq: 0,
            last_heartbeat: None,
            timeline: JobTimeline::new(id, tenant),
        }
    }
}

/// A job that has not finished: its record, and what running it and
/// streaming it take. Only the record outlives `finish`.
struct LiveJob {
    record: JobRecord,
    spec: JobSpec,
    deadline_secs: Option<u64>,
    subscribers: Vec<Subscriber>,
    /// When this daemon process first saw the job (timeline origin).
    submitted_at: Instant,
    /// Whether the queue-wait histogram already recorded first dispatch.
    dispatched: bool,
    cancel_requested: bool,
}

impl LiveJob {
    fn new(record: JobRecord, spec: JobSpec, deadline_secs: Option<u64>) -> LiveJob {
        LiveJob {
            record,
            spec,
            deadline_secs,
            subscribers: Vec::new(),
            submitted_at: Instant::now(),
            dispatched: false,
            cancel_requested: false,
        }
    }
}

struct Daemon {
    config: DaemonConfig,
    scheduler: Scheduler,
    journal: Journal,
    /// Jobs queued, running or parked.
    live: BTreeMap<u64, LiveJob>,
    /// Jobs completed, failed or cancelled.
    finished: BTreeMap<u64, JobRecord>,
    /// Every tenant name a job was charged to, one allocation each.
    tenants: BTreeSet<Arc<str>>,
    /// The worker processes, keyed by job id.
    fleet: Fleet,
    /// The client connections.
    conns: Conns,
    next_id: u64,
    journal_skipped: usize,
    draining: bool,
    metrics: ServeMetrics,
    /// `tail` subscribers: receive every job's telemetry records.
    tailers: Vec<ConnId>,
}

/// Runs the daemon until `shutdown` is set (or a client sends the
/// `shutdown` op), then drains: every in-flight job is checkpoint-parked
/// and the journal left ready for a restart to resume it.
///
/// # Errors
///
/// Startup I/O only (state dir, journal, socket). Runtime worker and
/// connection failures are handled, not raised.
pub fn run_daemon(config: DaemonConfig, shutdown: &AtomicBool) -> io::Result<DaemonSummary> {
    let mut daemon = Daemon::open(config)?;
    let socket = daemon.config.socket.clone();
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket)?;
    listener.set_nonblocking(true)?;
    let mut accept_paused_until = None;
    let mut fds = Vec::new();
    loop {
        let accepting = accept_paused_until.is_none_or(|until| Instant::now() >= until);
        fds.clear();
        fds.push(PollFd::new(&listener, accepting, false));
        daemon.conns.poll_fds(&mut fds);
        daemon.fleet.poll_fds(&mut fds);
        // A signal cuts the wait short, and the flag is looked at at once.
        let _ = sig::poll(&mut fds, daemon.fleet.poll_interval());
        if shutdown.load(Ordering::Relaxed) && !daemon.draining {
            daemon.enter_drain();
        }
        daemon.serve_conns(&fds[1..]);
        for (id, line) in daemon.fleet.read_ready(&fds[1..]) {
            daemon.progress(id, line);
        }
        if fds[0].readable() {
            let failed = daemon.accept(&listener).is_err();
            accept_paused_until = failed.then(|| Instant::now() + ACCEPT_PAUSE);
        }
        // Reaped in the turn that read the end of stdout: `finish` fsyncs
        // the journal, and should not wait out another `poll`.
        daemon.tick_fleet();
        daemon.dispatch();
        daemon.close_conns();
        if daemon.draining && daemon.fleet.running() == 0 {
            break;
        }
    }
    // The replies of the last turn (the `shutdown` acknowledgment in
    // particular) leave before the sockets close.
    daemon.flush_conns(DRAIN_FLUSH);
    drop(listener);
    let _ = std::fs::remove_file(&socket);
    let mut summary = DaemonSummary {
        journal_skipped: daemon.journal_skipped,
        ..DaemonSummary::default()
    };
    for job in daemon.records() {
        match job.status {
            JobStatus::Completed => summary.completed += 1,
            JobStatus::Failed => summary.failed += 1,
            JobStatus::Cancelled => summary.cancelled += 1,
            JobStatus::Parked => summary.parked += 1,
            JobStatus::Queued | JobStatus::Running => summary.queued += 1,
        }
    }
    Ok(summary)
}

/// The stream record of `event`: its kind and its own fields, then those
/// `extra` writes. A terminal state is the `done` record, the job's last;
/// the live one and one read back later both come from here, so they are
/// the same bytes.
fn event_record(
    id: u64,
    seq: u64,
    attempt: u32,
    event: &Event,
    extra: impl FnOnce(Obj) -> Obj,
) -> String {
    let done = matches!(event, Event::State(status) if status.is_terminal());
    let kind = if done { "done" } else { event.name() };
    stream_record(id, seq, attempt, kind, done, |o| {
        extra(match event {
            Event::State(status) | Event::Replayed(status) => o.str("status", &status.to_string()),
            Event::Heartbeat(cycle) => o.num("cycle", cycle),
            Event::Partial(progress, at) => o.num(progress.word(), at),
            Event::AttemptFailed(kind) => o.str("failure", &kind.to_string()),
            Event::RetryBackoff(ms) => o.num("delay_ms", ms),
        })
    })
}

/// The `{"ok":true,"job":N,"status":...}` answer to `submit` and `cancel`,
/// and the acknowledgment that opens a `wait` or `watch` subscription.
fn job_ack(id: u64, status: &str) -> String {
    resp_ok(|o| o.num("job", id).str("status", status))
}

/// The answer to a late reader when the journal cannot produce the result.
fn result_unavailable(id: u64, status: JobStatus, why: &io::Error) -> String {
    resp_err(
        "result-unavailable",
        &format!("job {id} is {status}, but its result cannot be read back: {why}"),
    )
}

impl Daemon {
    /// Replays and rewrites the journal in `config.state_dir` and rebuilds
    /// the job table from it. Replayed results stay behind in the journal.
    fn open(config: DaemonConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&config.state_dir)?;
        let journal_path = config.state_dir.join("jobs.journal");
        let mut replay = journal::replay(&journal_path)?;
        for warning in &replay.warnings {
            eprintln!("mempool-serve: {warning}");
        }
        // A `running` job's worker did not survive the restart; it re-queues
        // and resumes from its last checkpoint like any retried attempt.
        for job in &mut replay.jobs {
            if job.status == JobStatus::Running {
                job.status = JobStatus::Queued;
            }
        }
        let journal = Journal::rewrite(&journal_path, &replay.jobs)?;
        let mut daemon = Daemon {
            scheduler: Scheduler::new(config.scheduler.clone()),
            fleet: Fleet::new(config.retry.clone()),
            conns: Conns::default(),
            config,
            journal,
            live: BTreeMap::new(),
            finished: BTreeMap::new(),
            tenants: BTreeSet::new(),
            next_id: replay.next_id,
            journal_skipped: replay.skipped,
            draining: false,
            metrics: ServeMetrics::new(),
            tailers: Vec::new(),
        };
        daemon
            .metrics
            .add(Counter::JournalReplaySkipped, replay.skipped as u64);
        // A finished job's payload is dropped with `rec`: the rewrite has
        // indexed it.
        for rec in replay.jobs {
            let mut record = JobRecord::new(rec.id, daemon.tenant(&rec.tenant), rec.status);
            record.timeline.push(0, Event::Replayed(rec.status));
            if rec.status.is_terminal() {
                record.timeline.shrink_to_fit();
                daemon.finished.insert(rec.id, record);
            } else {
                daemon.scheduler.admit_replayed(rec.id, &rec.tenant, rec.priority);
                daemon.metrics.count(Counter::JobsReplayed);
                let job = LiveJob::new(record, rec.spec, rec.deadline_secs);
                daemon.live.insert(rec.id, job);
            }
        }
        Ok(daemon)
    }

    /// The one shared copy of a tenant's name.
    fn tenant(&mut self, name: &str) -> Arc<str> {
        if let Some(tenant) = self.tenants.get(name) {
            return Arc::clone(tenant);
        }
        let tenant: Arc<str> = name.into();
        self.tenants.insert(Arc::clone(&tenant));
        tenant
    }

    /// The record of job `id`, live or finished.
    fn record(&self, id: u64) -> Option<&JobRecord> {
        match self.live.get(&id) {
            Some(job) => Some(&job.record),
            None => self.finished.get(&id),
        }
    }

    /// Every job's record, live and finished.
    fn records(&self) -> impl Iterator<Item = &JobRecord> {
        let live = self.live.values().map(|job| &job.record);
        live.chain(self.finished.values())
    }

    fn ckpt_path(&self, id: u64) -> PathBuf {
        self.config.state_dir.join(format!("job-{id}.ckpt"))
    }

    /// Takes every pending connection off the listener.
    ///
    /// # Errors
    ///
    /// `accept`'s, out of descriptors most likely.
    fn accept(&mut self, listener: &UnixListener) -> io::Result<()> {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.conns.add(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes to the connections of `fds` that polled writable, and reads
    /// and answers the requests of those that polled readable. One that
    /// hung up is closed once nothing is left to read.
    fn serve_conns(&mut self, fds: &[PollFd]) {
        for fd in fds {
            let Some((id, conn)) = self.conns.polled(fd) else {
                continue;
            };
            if fd.writable() {
                conn.flush();
            }
            let lines = match fd.readable() && conn.reading {
                true => conn.read(),
                false => Vec::new(),
            };
            conn.dead |= fd.hung_up() && !conn.reading;
            for line in lines {
                match line {
                    Line::Request(line) => self.handle_request(id, &line),
                    Line::Garbled => self.reject_invalid(id, "request line is not UTF-8".into()),
                    Line::Overlong => {
                        let why = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
                        self.reject_invalid(id, why);
                        self.unsubscribe(id);
                    }
                }
            }
        }
    }

    fn reject_invalid(&mut self, conn: ConnId, why: String) {
        self.metrics.rejection("invalid");
        self.conns.send(conn, resp_err("invalid", &why));
    }

    /// Whether connection `id` holds a subscription.
    fn subscribed(&self, id: ConnId) -> bool {
        let mut subscribers = self.live.values().flat_map(|job| &job.subscribers);
        self.tailers.contains(&id) || subscribers.any(|s| s.conn == id)
    }

    /// Ends every subscription of connection `id`.
    fn unsubscribe(&mut self, id: ConnId) {
        self.tailers.retain(|&t| t != id);
        for job in self.live.values_mut() {
            job.subscribers.retain(|s| s.conn != id);
        }
    }

    /// Closes the connections that hung up, and those that will send no
    /// more requests and have nothing queued or subscribed.
    fn close_conns(&mut self) {
        let done = |c: &Conn| c.dead || (!c.reading && c.output.is_empty());
        let ended = self.conns.open.iter().filter(|(_, c)| done(c));
        let closing: Vec<ConnId> = ended
            .filter(|(&id, c)| c.dead || !self.subscribed(id))
            .map(|(&id, _)| id)
            .collect();
        for id in closing {
            self.conns.open.remove(&id);
            self.unsubscribe(id);
        }
    }

    /// Writes out what the connections still queue, for as long as their
    /// clients take it but `within` at most.
    fn flush_conns(&mut self, within: Duration) {
        let deadline = Instant::now() + within;
        let mut fds = Vec::new();
        loop {
            fds.clear();
            let open = self.conns.open.values();
            let waiting = open.filter(|c| !c.dead && !c.output.is_empty());
            fds.extend(waiting.map(|c| PollFd::new(&c.stream, false, true)));
            let now = Instant::now();
            if fds.is_empty() || now >= deadline {
                return;
            }
            let _ = sig::poll(&mut fds, deadline - now);
            for fd in &fds {
                if let Some((_, conn)) = self.conns.polled(fd) {
                    if fd.writable() {
                        conn.flush();
                    }
                    conn.dead |= fd.hung_up();
                }
            }
        }
    }

    fn handle_request(&mut self, conn: ConnId, line: &str) {
        let request = match Request::from_json(line) {
            Ok(r) => r,
            Err(e) => return self.reject_invalid(conn, e),
        };
        let reply = match request {
            Request::Submit {
                tenant,
                priority,
                deadline_secs,
                spec,
            } => self.submit(tenant, priority, deadline_secs, spec),
            Request::Status { job } => self.status_line(job),
            Request::Health => self.health_line(),
            Request::Cancel { job } => self.cancel(job),
            Request::Wait { job } => return self.subscribe(conn, job, false),
            Request::Watch { job } => return self.subscribe(conn, job, true),
            Request::Tail => {
                self.tailers.push(conn);
                self.fleet.watch_all();
                resp_ok(|o| o.bool("tailing", true))
            }
            Request::Metrics => self.metrics_line(),
            Request::Timeline { job } => self.timeline_line(job),
            Request::Shutdown => {
                self.enter_drain();
                resp_ok(|o| o.bool("draining", true))
            }
        };
        self.conns.send(conn, reply);
    }

    fn submit(
        &mut self,
        tenant: String,
        priority: u8,
        deadline_secs: Option<u64>,
        spec: JobSpec,
    ) -> String {
        if self.draining {
            self.metrics.rejection("draining");
            return resp_err("draining", "daemon is draining; resubmit after restart");
        }
        if let Err(e) = spec.validate() {
            self.metrics.rejection("invalid");
            return resp_err("invalid", &e);
        }
        let id = self.next_id;
        match self.scheduler.admit(id, &tenant, priority) {
            Ok(()) => {}
            Err(r @ Rejection::Overloaded { .. }) => {
                self.metrics.rejection("overloaded");
                return resp_err("overloaded", &r.to_string());
            }
            Err(r @ Rejection::QuotaExhausted { .. }) => {
                self.metrics.rejection("quota");
                return resp_err("quota", &r.to_string());
            }
        }
        self.next_id += 1;
        self.metrics.count(Counter::JobsAdmitted);
        let rec = ReplayedJob {
            id,
            tenant,
            priority,
            deadline_secs,
            spec,
            status: JobStatus::Queued,
            payload: None,
        };
        if let Err(e) = self.journal.record_job(&rec) {
            eprintln!("mempool-serve: journal write failed for job {id}: {e}");
        }
        let record = JobRecord::new(id, self.tenant(&rec.tenant), JobStatus::Queued);
        self.live.insert(id, LiveJob::new(record, rec.spec, rec.deadline_secs));
        self.stream(id, Event::State(JobStatus::Queued), |o| o);
        job_ack(id, "queued")
    }

    /// The answer to an op naming a job this daemon does not know, counted.
    fn unknown_job(&mut self, id: u64) -> String {
        self.metrics.rejection("unknown-job");
        resp_err("unknown-job", &format!("no job {id}"))
    }

    fn status_line(&mut self, id: u64) -> String {
        let Some(job) = self.record(id) else {
            return self.unknown_job(id);
        };
        let result = match job.status.is_terminal() {
            // Nested documents travel as escaped string fields (the wire
            // dialect is flat); clients re-parse the string.
            true => match self.journal.result(id) {
                Ok(payload) => Some(payload),
                Err(e) => return result_unavailable(id, job.status, &e),
            },
            false => None,
        };
        resp_ok(|o| {
            let mut o = o
                .num("job", id)
                .str("status", &job.status.to_string())
                .num("attempt", job.attempt);
            if let Some((at, cycle)) = job.last_heartbeat {
                o = o
                    .num("heartbeat_age_ms", at.elapsed().as_millis())
                    .num("cycle", cycle);
            }
            if let Some(payload) = &result {
                o = o.str("result", payload);
            }
            o
        })
    }

    fn health_line(&self) -> String {
        let mut counts: BTreeMap<JobStatus, usize> = BTreeMap::new();
        for job in self.records() {
            *counts.entry(job.status).or_insert(0) += 1;
        }
        resp_ok(|o| {
            let o = o
                .str("protocol", PROTOCOL_VERSION)
                .bool("draining", self.draining)
                .num("worker_slots", self.config.worker_slots)
                .num("active", self.fleet.running())
                .num("journal_skipped", self.journal_skipped);
            JobStatus::WORDS.iter().fold(o, |o, (status, word)| {
                o.num(word, counts.get(status).copied().unwrap_or(0))
            })
        })
    }

    fn cancel(&mut self, id: u64) -> String {
        if let Some(done) = self.finished.get(&id) {
            return job_ack(id, &done.status.to_string());
        }
        let Some(job) = self.live.get_mut(&id) else {
            return self.unknown_job(id);
        };
        job.cancel_requested = true;
        if self.scheduler.cancel_queued(id) || self.fleet.awaiting_retry(id) {
            self.finish(id, JobStatus::Cancelled, "{\"detail\":\"cancelled while queued\"}");
            return job_ack(id, "cancelled");
        }
        if self.fleet.terminate(id) {
            // The worker parks on SIGTERM; settle() sees the cancel flag
            // and records the terminal state.
            return job_ack(id, "cancelling");
        }
        self.finish(id, JobStatus::Cancelled, "{\"detail\":\"cancelled\"}");
        job_ack(id, "cancelled")
    }

    /// Records `event` of live job `id` and emits its telemetry stream
    /// record. The sequence number, self-metrics counter, and timeline event
    /// advance unconditionally; the record (`extra` writes the fields the
    /// event does not hold) is only built when someone takes it: a `tail`,
    /// or a subscriber (`partial` records go to `watch`es only).
    fn stream(&mut self, id: u64, event: Event, extra: impl FnOnce(Obj) -> Obj) {
        let has_tailers = !self.tailers.is_empty();
        let Some(job) = self.live.get_mut(&id) else {
            return;
        };
        let seq = job.record.stream_seq;
        job.record.stream_seq += 1;
        self.metrics.count(Counter::StreamRecords);
        let at_ms = job.submitted_at.elapsed().as_millis() as u64;
        let partial = matches!(event, Event::Partial(..));
        let skips = |s: &Subscriber| partial && !s.partials;
        let taken = has_tailers || !job.subscribers.iter().all(skips);
        let mut record = taken.then(|| event_record(id, seq, job.record.attempt, &event, extra));
        job.record.timeline.push(at_ms, event);
        if record.is_none() {
            return;
        }
        // Every taker but the last is sent a copy; the last, most often
        // the only one, takes the record itself.
        let subscribers = job.subscribers.iter().filter(|s| !skips(s)).map(|s| s.conn);
        let takers = subscribers.chain(self.tailers.iter().copied());
        let mut left = takers.clone().count();
        for conn in takers {
            left -= 1;
            let copy = if left == 0 { record.take() } else { record.clone() };
            if let Some(copy) = copy {
                self.conns.send(conn, copy);
            }
        }
    }

    /// Opens a `wait` (`partials` false) or `watch` (`partials` true)
    /// subscription with an acknowledgment sent to this connection alone:
    /// subscribing takes no sequence number, counts no record and leaves
    /// the timeline as it is. A finished job follows the acknowledgment
    /// with its terminal record, rendered again from the journal byte for
    /// byte what live subscribers were sent.
    fn subscribe(&mut self, conn: ConnId, id: u64, partials: bool) {
        if let Some(job) = self.live.get_mut(&id) {
            self.conns.send(conn, job_ack(id, &job.record.status.to_string()));
            job.subscribers.push(Subscriber { conn, partials });
            if partials {
                self.fleet.watch(id);
            }
            return;
        }
        let Some(job) = self.finished.get(&id) else {
            let unknown = self.unknown_job(id);
            return self.conns.send(conn, unknown);
        };
        let status = job.status;
        match self.journal.result(id) {
            Ok(payload) => {
                // The terminal record is the last a job emits. One that
                // finished under an earlier daemon process emitted none in
                // this one, and takes seq 0 of its restarted stream.
                let seq = job.stream_seq.saturating_sub(1);
                let done = Event::State(status);
                let record = event_record(id, seq, job.attempt, &done, |o| o.str("result", &payload));
                self.conns.send(conn, job_ack(id, &status.to_string()));
                self.conns.send(conn, record);
            }
            Err(e) => {
                self.conns.send(conn, result_unavailable(id, status, &e));
            }
        }
    }

    fn metrics_line(&self) -> String {
        let gauges = ServeGauges {
            queue_depth: self.scheduler.queued(),
            active_workers: self.fleet.running(),
            worker_slots: self.config.worker_slots,
            draining: self.draining,
            journal_appends: self.journal.appends(),
            tenants: self.scheduler.tenants(),
        };
        resp_ok(|o| o.str("metrics", &self.metrics.to_json(&gauges)))
    }

    fn timeline_line(&mut self, id: u64) -> String {
        let Some(job) = self.record(id) else {
            return self.unknown_job(id);
        };
        resp_ok(|o| {
            o.num("job", id)
                .str("timeline", &job.timeline.to_chrome_json())
        })
    }

    fn enter_drain(&mut self) {
        self.draining = true;
        self.fleet.terminate_all();
    }

    /// Enforces attempt deadlines and settles every worker that exited.
    fn tick_fleet(&mut self) {
        let tick = self.fleet.tick();
        self.metrics
            .add(Counter::DeadlineKills, tick.deadline_kills as u64);
        for (id, outcome) in tick.reaped {
            self.settle(id, outcome);
        }
    }

    fn dispatch(&mut self) {
        if self.draining {
            return;
        }
        while let Some(id) = self.fleet.pop_due() {
            self.scheduler.readmit(id);
        }
        while self.fleet.running() < self.config.worker_slots {
            let Some(id) = self.scheduler.next() else {
                break;
            };
            match self.live.get(&id) {
                Some(job) if !job.cancel_requested => self.spawn(id),
                Some(_) => {
                    self.finish(id, JobStatus::Cancelled, "{\"detail\":\"cancelled while queued\"}");
                }
                // Finished already: there is nothing left to run or cancel.
                None => {}
            }
        }
    }

    fn spawn(&mut self, id: u64) {
        let job = &self.live[&id];
        let line = worker_job(
            |o| o.num("job", id).num("attempt", job.record.attempt),
            &self.ckpt_path(id),
            |o| job.spec.write_fields(o),
        );
        let deadline = job
            .deadline_secs
            .map(Duration::from_secs)
            .or(self.config.default_deadline);
        let cmd = self.config.worker_cmd.as_deref();
        if let Err(e) = self.fleet.spawn(id, cmd, &line, deadline) {
            self.fail_attempt(id, FailureKind::Exit(-1), e.to_string());
            return;
        }
        if !self.tailers.is_empty() || job.subscribers.iter().any(|s| s.partials) {
            self.fleet.watch(id);
        }
        self.metrics.count(Counter::WorkersSpawned);
        if let Some(job) = self.live.get_mut(&id) {
            if !job.dispatched {
                job.dispatched = true;
                let wait = job.submitted_at.elapsed().as_millis() as u64;
                self.metrics.queue_wait(wait);
            }
        }
        self.set_state(id, JobStatus::Running);
    }

    /// Only progress lines surface here; the fleet keeps the rest for the
    /// attempt's outcome.
    fn progress(&mut self, id: u64, line: WorkerLine) {
        match line {
            WorkerLine::Heartbeat(cycle) => {
                if let Some(job) = self.live.get_mut(&id) {
                    job.record.last_heartbeat = Some((Instant::now(), cycle));
                }
                self.stream(id, Event::Heartbeat(cycle), |o| o);
            }
            // The worker emits these at checkpoint boundaries whenever the
            // job asked for metrics — subscribed or not — so relaying them
            // is pure observation. Only a worker told to ([`Fleet::watch`])
            // renders the document; the marker without one is sequenced,
            // counted and timelined all the same.
            WorkerLine::Metrics { key, at, doc } => {
                self.metrics.count(Counter::PartialSnapshots);
                let progress = match key {
                    "trials" => Progress::Trials,
                    _ => Progress::Cycle,
                };
                self.stream(id, Event::Partial(progress, at), |o| match &doc {
                    Some(doc) => o.str("metrics", doc),
                    None => o,
                });
            }
            _ => {}
        }
    }

    /// A worker exited: decide the job's fate from how its attempt ended.
    fn settle(&mut self, id: u64, outcome: Outcome) {
        let cancelled = self.live.get(&id).is_some_and(|job| job.cancel_requested);
        if outcome == Outcome::Parked {
            self.metrics.count(Counter::WorkersParked);
        }
        match outcome {
            Outcome::Result(result) => {
                self.metrics.count(Counter::WorkersCompleted);
                self.finish(id, JobStatus::Completed, &result);
            }
            _ if cancelled => {
                self.finish(id, JobStatus::Cancelled, "{\"detail\":\"cancelled while running\"}");
            }
            Outcome::Parked if self.draining => self.set_state(id, JobStatus::Parked),
            // A park outside a drain (e.g. a stray SIGTERM): the checkpoint
            // is intact, so just resume the job.
            Outcome::Parked => {
                self.scheduler.readmit(id);
                self.set_state(id, JobStatus::Queued);
            }
            Outcome::Failed(kind, detail) => self.fail_attempt(id, kind, detail),
        }
    }

    /// Reports a failed attempt and either schedules the retry (seeded
    /// backoff, resume from checkpoint) or gives the job up.
    fn fail_attempt(&mut self, id: u64, kind: FailureKind, detail: String) {
        self.metrics.count(Counter::WorkersFailed);
        // The record carries the attempt that failed; the attempt counter
        // only advances after it is emitted.
        self.stream(id, Event::AttemptFailed(kind.clone()), |o| o.str("detail", &detail));
        match self.fleet.fail(id, kind.clone(), detail.clone()) {
            Verdict::GiveUp(failures) => {
                self.metrics.count(Counter::GiveUps);
                let payload = json::object(Layout::Compact, |o| {
                    o.str("error", &detail)
                        .str("kind", &kind.to_string())
                        .num("attempts", failures.len())
                });
                self.finish(id, JobStatus::Failed, &payload);
            }
            Verdict::Retry(delay) => {
                self.metrics.retry(&kind);
                if let Some(job) = self.live.get_mut(&id) {
                    job.record.attempt += 1;
                }
                let ms = u64::try_from(delay.as_millis()).unwrap_or(u64::MAX);
                self.stream(id, Event::RetryBackoff(ms), |o| o);
                self.set_state(id, JobStatus::Queued);
            }
        }
    }

    /// Journals and broadcasts a non-terminal state change.
    fn set_state(&mut self, id: u64, status: JobStatus) {
        if let Err(e) = self.journal.record_state(id, status) {
            eprintln!("mempool-serve: journal write failed for job {id}: {e}");
        }
        if let Some(job) = self.live.get_mut(&id) {
            job.record.status = status;
        }
        self.stream(id, Event::State(status), |o| o);
    }

    /// Moves a job to a terminal state: journal, quota release, the
    /// terminal record, checkpoint cleanup (kept on failure for
    /// postmortems). `payload` goes to the journal and to whoever is
    /// subscribed right now; no copy of it stays here. The job leaves the
    /// live table, and only its record stays.
    fn finish(&mut self, id: u64, status: JobStatus, payload: &str) {
        self.scheduler.release(id);
        self.fleet.forget(id);
        if let Err(e) = self.journal.record_done(id, status, payload) {
            eprintln!("mempool-serve: journal write failed for job {id}: {e}");
        }
        if let Some(job) = self.live.get_mut(&id) {
            job.record.status = status;
            let latency = job.submitted_at.elapsed().as_millis() as u64;
            self.metrics.job_terminal(status, latency);
        }
        self.stream(id, Event::State(status), |o| o.str("result", payload));
        if let Some(LiveJob { mut record, .. }) = self.live.remove(&id) {
            record.timeline.shrink_to_fit();
            self.finished.insert(id, record);
        }
        if status != JobStatus::Failed {
            let ckpt = self.ckpt_path(id);
            let (trial, manifest) = job_files(&ckpt);
            for path in [ckpt, manifest, trial] {
                let _ = std::fs::remove_file(mempool::log::tmp_path(&path));
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, ServeClient};
    use crate::protocol::RunSpec;
    use std::io::{BufRead, BufReader};
    use std::path::Path;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mempool-serve-daemon-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn run_spec() -> JobSpec {
        JobSpec::Run(RunSpec {
            config_spec: "topology=top1,small=true,scramble=false".to_owned(),
            program: "ecall\n".to_owned(),
            max_cycles: 1_000,
            checkpoint_every: 128,
            metrics: false,
        })
    }

    struct Harness {
        client: ServeClient,
        flag: Arc<AtomicBool>,
        thread: std::thread::JoinHandle<io::Result<DaemonSummary>>,
    }

    /// Shell scripts standing in for the worker executable: `forger` waits
    /// for the `gate` file, then prints forged, malformed and valid
    /// heartbeats and a result; `lingerer` closes stdout and keeps running.
    /// Written once, before any daemon of this process forks a worker: exec
    /// of a file some child still holds open for writing fails (`ETXTBSY`).
    fn script(name: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        static DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
        let dir = DIR.get_or_init(|| {
            let dir = scratch("scripts");
            let forger = format!(
                "while [ ! -e '{}' ]; do sleep 0.02; done\n\
                 echo 'heartbeat 1,\"final\":true'\necho 'heartbeat x'\necho 'heartbeat 7'\n\
                 echo 'result {{\"outcome\":\"completed\"}}'",
                dir.join("gate").display()
            );
            let lingerer = "exec >&-\nexec sleep 20".to_owned();
            for (name, body) in [("forger", forger), ("lingerer", lingerer)] {
                let path = dir.join(name);
                std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).expect("script");
                std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755))
                    .expect("chmod");
            }
            dir
        });
        dir.join(name)
    }

    fn start(dir: &Path, config: DaemonConfig) -> Harness {
        script(""); // every script exists before this daemon can fork
        let flag = Arc::new(AtomicBool::new(false));
        let socket = config.socket.clone();
        let thread = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || run_daemon(config, &flag))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound {dir:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        Harness {
            client: ServeClient::connect(&socket),
            flag,
            thread,
        }
    }

    /// A one-slot daemon, in a scratch directory of its own, whose worker
    /// executable is the script `worker`.
    fn start_scripted(worker: &str) -> (PathBuf, Harness) {
        let dir = scratch(worker);
        let config = DaemonConfig {
            socket: dir.join("serve.sock"),
            state_dir: dir.join("state"),
            worker_slots: 1,
            worker_cmd: Some(script(worker)),
            retry: RetryPolicy {
                backoff_base_ms: 0,
                ..RetryPolicy::default()
            },
            ..DaemonConfig::default()
        };
        let harness = start(&dir, config);
        (dir, harness)
    }

    #[test]
    fn daemon_serves_health_rejects_garbage_and_drains_clean() {
        let dir = scratch("basic");
        let harness = start(
            &dir,
            DaemonConfig {
                socket: dir.join("serve.sock"),
                state_dir: dir.join("state"),
                worker_cmd: Some(PathBuf::from("/bin/false")),
                ..DaemonConfig::default()
            },
        );
        let health = harness.client.health().expect("health");
        assert_eq!(health["protocol"], PROTOCOL_VERSION);
        assert_eq!(health["draining"], "false");

        let bad = JobSpec::Run(RunSpec {
            program: "not an instruction".to_owned(),
            ..match run_spec() {
                JobSpec::Run(s) => s,
                _ => unreachable!(),
            }
        });
        match harness.client.submit("t", 0, None, &bad) {
            Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "invalid"),
            other => panic!("expected invalid rejection, got {other:?}"),
        }

        harness.flag.store(true, Ordering::Relaxed);
        let summary = harness.thread.join().expect("join").expect("daemon");
        assert_eq!(summary, DaemonSummary::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_worker_is_retried_then_given_up_deterministically() {
        let dir = scratch("giveup");
        let harness = start(
            &dir,
            DaemonConfig {
                socket: dir.join("serve.sock"),
                state_dir: dir.join("state"),
                worker_slots: 1,
                // /bin/false fails identically every attempt, so the
                // repeat-failure rule gives up after exactly two.
                worker_cmd: Some(PathBuf::from("/bin/false")),
                // Enough backoff that the wait subscription registers
                // before the second (final) attempt fails.
                retry: RetryPolicy {
                    backoff_base_ms: 100,
                    backoff_cap_ms: 100,
                    ..RetryPolicy::default()
                },
                ..DaemonConfig::default()
            },
        );
        let id = harness
            .client
            .submit("team", 1, None, &run_spec())
            .expect("submit");
        let mut attempts_seen = 0;
        let done = harness
            .client
            .wait(id, &mut |fields| {
                if fields.get("kind").map(String::as_str) == Some("attempt-failed") {
                    attempts_seen += 1;
                }
            })
            .expect("wait");
        assert_eq!(done["status"], "failed");
        assert!(attempts_seen >= 1, "attempt failures stream to waiters");
        let result = json::parse_flat_json(&done["result"]).expect("result parses");
        assert_eq!(result["attempts"], "2", "gave up on the second identical failure");
        assert_eq!(result["kind"], "exit(1)");
        let result = crate::journal::replay(&dir.join("state").join("jobs.journal"))
            .expect("journal replays");
        assert_eq!(result.jobs[0].status, JobStatus::Failed);

        harness.flag.store(true, Ordering::Relaxed);
        let summary = harness.thread.join().expect("join").expect("daemon");
        assert_eq!(summary.failed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overload_quota_and_cancel_are_typed_over_the_socket() {
        let dir = scratch("overload");
        let harness = start(
            &dir,
            DaemonConfig {
                socket: dir.join("serve.sock"),
                state_dir: dir.join("state"),
                // No slots: everything stays queued, so the depth bound
                // and cancellation are exercised deterministically.
                worker_slots: 0,
                scheduler: SchedulerConfig {
                    queue_depth: 1,
                    default_quota: 8,
                    quotas: [("blocked".to_owned(), 0)].into_iter().collect(),
                },
                worker_cmd: Some(PathBuf::from("/bin/false")),
                ..DaemonConfig::default()
            },
        );
        match harness.client.submit("blocked", 0, None, &run_spec()) {
            Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "quota"),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        let first = harness.client.submit("a", 0, None, &run_spec()).expect("fits");
        match harness.client.submit("b", 0, None, &run_spec()) {
            Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "overloaded"),
            other => panic!("expected overloaded rejection, got {other:?}"),
        }
        let cancelled = harness.client.cancel(first).expect("cancel");
        assert_eq!(cancelled["status"], "cancelled");
        let status = harness.client.status(first).expect("status");
        assert_eq!(status["status"], "cancelled");

        harness.flag.store(true, Ordering::Relaxed);
        let summary = harness.thread.join().expect("join").expect("daemon");
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.queued, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Worker stdout is outside the daemon's trust boundary: a heartbeat
    /// reaches clients as a number or not at all.
    #[test]
    fn forged_or_malformed_heartbeats_never_reach_the_stream() {
        let (dir, harness) = start_scripted("forger");
        let id = harness
            .client
            .submit("team", 1, None, &run_spec())
            .expect("submit");
        let mut stream = UnixStream::connect(dir.join("serve.sock")).expect("connect");
        writeln!(stream, "{}", Request::Watch { job: id }.to_json()).expect("watch");
        // A client that has said all it will may shut down its sending
        // half: its subscription stays.
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut replies = BufReader::new(stream).lines().map(|line| line.expect("line"));
        // The acknowledgment: from here on nothing the worker prints can
        // be missed.
        let ack = replies.next().expect("ack");
        assert!(ack.starts_with(&format!("{{\"ok\":true,\"job\":{id},\"status\":")), "{ack}");
        std::fs::write(script("gate"), "").expect("gate");
        let mut records = Vec::new();
        for raw in replies {
            let fields = json::parse_flat_json(&raw).expect("record parses");
            let terminal = fields["final"] == "true";
            records.push((raw, fields));
            if terminal {
                break;
            }
        }
        let done = &records.last().expect("a terminal record").1;
        assert_eq!(done["status"], "completed");
        assert_eq!(done["result"], "{\"outcome\":\"completed\"}");
        let heartbeats: Vec<_> = records
            .iter()
            .filter(|(_, fields)| fields["kind"] == "heartbeat")
            .collect();
        assert_eq!(heartbeats.len(), 1, "only `heartbeat 7` is a heartbeat: {records:?}");
        assert_eq!(heartbeats[0].1["cycle"], "7");
        for (raw, fields) in &records {
            let terminal = fields["kind"] == "done";
            assert_eq!(raw.contains("\"final\":true"), terminal, "{raw}");
            assert_eq!(raw.matches("\"final\":").count(), 1, "{raw}");
        }

        harness.flag.store(true, Ordering::Relaxed);
        let summary = harness.thread.join().expect("join").expect("daemon");
        assert_eq!(summary.completed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker that closes stdout and keeps running must not take the
    /// supervisor thread with it: requests are answered meanwhile, and the
    /// deadline still ends the attempt.
    #[test]
    fn lingering_worker_neither_freezes_the_daemon_nor_escapes_its_deadline() {
        let (dir, harness) = start_scripted("lingerer");
        let submitted = Instant::now();
        let id = harness
            .client
            .submit("team", 1, Some(1), &run_spec())
            .expect("submit");
        // Stdout hits EOF within milliseconds; the worker lives on.
        while harness.client.status(id).expect("status")["status"] != "running" {
            assert!(submitted.elapsed() < Duration::from_secs(10), "never dispatched");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Let the daemon see that EOF before asking it anything.
        std::thread::sleep(Duration::from_millis(200));
        let asked = Instant::now();
        let health = harness.client.health().expect("health answers while the worker lingers");
        assert_eq!(health["active"], "1");
        assert!(asked.elapsed() < Duration::from_millis(500), "{:?}", asked.elapsed());

        let done = harness.client.wait(id, &mut |_| {}).expect("wait");
        assert_eq!(done["status"], "failed");
        let result = json::parse_flat_json(&done["result"]).expect("result parses");
        assert_eq!(result["kind"], "timeout", "{result:?}");
        assert!(submitted.elapsed() < Duration::from_secs(15), "{:?}", submitted.elapsed());

        harness.flag.store(true, Ordering::Relaxed);
        let summary = harness.thread.join().expect("join").expect("daemon");
        assert_eq!(summary.failed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A connection of `daemon`'s, and the client's end of it.
    fn connect(daemon: &mut Daemon) -> (ConnId, UnixStream) {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        ours.set_nonblocking(true).expect("nonblocking");
        theirs.set_nonblocking(true).expect("nonblocking");
        (daemon.conns.add(ours), theirs)
    }

    /// Every line the daemon has sent `client` so far.
    fn lines(mut client: &UnixStream) -> Vec<String> {
        let mut bytes = Vec::new();
        // Ends on `WouldBlock`, with what there was.
        let _ = client.read_to_end(&mut bytes);
        let text = String::from_utf8(bytes).expect("UTF-8");
        text.lines().map(str::to_owned).collect()
    }

    /// The journal is the only copy of a finished job's result — unless the
    /// journal could not take it, in which case the result is served from
    /// memory as before; and if the file loses it afterwards, late readers
    /// get a typed error, not a made-up document. Driven without a socket:
    /// requests are method calls on connections of socket pairs.
    #[test]
    fn late_readers_survive_a_failing_journal_and_name_a_lost_result() {
        let dir = scratch("degraded");
        let state = dir.join("state");
        let config = DaemonConfig {
            state_dir: state.clone(),
            worker_slots: 0,
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::open(config).expect("open");
        for _ in 0..2 {
            daemon.submit("team".to_owned(), 0, None, run_spec());
        }
        let journal_path = state.join("jobs.journal");
        let payload = "{\"outcome\":\"completed\",\"note\":\"a \\\"quoted\\\" µ\"}";

        // Job 0 finishes while appends fail, in front of one `wait` and one
        // `watch` subscriber.
        let read_only = std::fs::File::open(&journal_path).expect("journal exists");
        let healthy = daemon.journal.swap_file(read_only);
        let (wait, wait_client) = connect(&mut daemon);
        let (watch, watch_client) = connect(&mut daemon);
        daemon.subscribe(wait, 0, false);
        daemon.subscribe(watch, 0, true);
        daemon.finish(0, JobStatus::Completed, payload);
        let queued = "{\"ok\":true,\"job\":0,\"status\":\"queued\"}";
        let live = lines(&wait_client);
        assert_eq!(live.len(), 2, "{live:?}");
        assert_eq!(live[0], queued);
        assert_eq!(lines(&watch_client), live, "one stream, one framing");
        let live = live[1].clone();
        let quoted = format!("\"{}\"", json::escape(payload));
        assert!(live.contains(&quoted), "{live}");
        assert!(live.ends_with(",\"final\":true}"), "{live}");
        let journaled = std::fs::read_to_string(&journal_path).expect("journal reads");
        assert!(!journaled.contains("done 0"), "the append did fail: {journaled}");

        let completed = |id: u64| format!("{{\"ok\":true,\"job\":{id},\"status\":\"completed\"}}");
        let (late, late_client) = connect(&mut daemon);
        for partials in [false, true] {
            daemon.subscribe(late, 0, partials);
            assert_eq!(lines(&late_client), [completed(0), live.clone()]);
        }
        let status = daemon.status_line(0);
        assert!(status.starts_with("{\"ok\":true,"), "{status}");
        assert!(
            status.ends_with(&format!(",\"result\":{quoted}}}")),
            "{status}"
        );

        // Job 1 finishes on a healthy journal, unobserved; then the file is
        // cut short under the daemon.
        daemon.journal.swap_file(healthy);
        daemon.finish(1, JobStatus::Completed, payload);
        daemon.subscribe(late, 1, false);
        let twin = live.replace("\"job\":0", "\"job\":1");
        assert_eq!(lines(&late_client), [completed(1), twin]);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal_path)
            .expect("journal opens");
        file.set_len(file.metadata().expect("metadata").len() - 10)
            .expect("truncate");
        daemon.subscribe(late, 1, false);
        daemon.subscribe(late, 1, true);
        let mut answers = lines(&late_client);
        answers.push(daemon.status_line(1));
        assert_eq!(answers.len(), 3);
        for answer in answers {
            let fields = json::parse_flat_json(&answer).expect("answer parses");
            assert_eq!(fields["ok"], "false", "{answer}");
            assert_eq!(fields["error"], "result-unavailable", "{answer}");
            assert!(fields["detail"].contains("job 1 is completed"), "{answer}");
        }
        // Job 0's result never depended on the file.
        daemon.subscribe(late, 0, false);
        assert_eq!(lines(&late_client), [completed(0), live]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a finished job costs the daemon for good: this record, inline
    /// in the table, and the timeline's event slice. Tenant names are
    /// shared, so one tenant's jobs hold one copy between them.
    #[test]
    fn a_finished_job_keeps_a_small_record_and_shares_its_tenant() {
        assert!(std::mem::size_of::<JobRecord>() <= 128, "{}", std::mem::size_of::<JobRecord>());
        let dir = scratch("record");
        let config = DaemonConfig {
            state_dir: dir.join("state"),
            worker_slots: 0,
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::open(config).expect("open");
        for _ in 0..3 {
            daemon.submit("team".to_owned(), 0, None, run_spec());
        }
        daemon.finish(1, JobStatus::Completed, "{}");
        assert_eq!((daemon.live.len(), daemon.finished.len()), (2, 1));
        let status = json::parse_flat_json(&daemon.status_line(1)).expect("status");
        assert_eq!(status["status"], "completed");
        assert_eq!(daemon.cancel(1), job_ack(1, "completed"));
        let tenant = daemon.tenants.get("team").expect("interned");
        assert_eq!(Arc::strong_count(tenant), 1 + 3, "one copy, three jobs");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every op that names a job answers one it does not know with the
    /// same rejection, and counts it.
    #[test]
    fn every_op_counts_an_unknown_job() {
        let dir = scratch("unknown");
        let config = DaemonConfig {
            state_dir: dir.join("state"),
            worker_slots: 0,
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::open(config).expect("open");
        let (conn, client) = connect(&mut daemon);
        for op in ["status", "cancel", "wait", "watch", "timeline"] {
            daemon.handle_request(conn, &format!("{{\"op\":\"{op}\",\"job\":7}}"));
        }
        let rejection = "{\"ok\":false,\"error\":\"unknown-job\",\"detail\":\"no job 7\"}";
        assert_eq!(lines(&client), [rejection; 5]);
        let reply = json::parse_flat_json(&daemon.metrics_line()).expect("reply");
        assert!(reply["metrics"].contains("\"rejections\": {\"unknown-job\": 5}"), "{reply:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
