//! The supervisor daemon: accepts jobs over a Unix socket, multiplexes
//! them across crash-isolated worker processes, and survives both worker
//! and daemon failures.
//!
//! One thread owns all state (scheduler, journal, worker fleet); everything
//! else — the acceptor, connection readers, connection writers, worker
//! stdout pumps — is a thin thread that forwards what it reads over a
//! channel. The supervisor loop alternates between draining that channel
//! (new connections, request lines, worker lines), ticking the fleet
//! (deadline kills, reaping), and dispatching queued jobs into free worker
//! slots.
//!
//! A finished job's result is not kept here: the [`Journal`] holds it, and
//! remembers where. Subscribers present when the job ends are served from
//! the string the worker handed over; `status`, and a `wait` or `watch`
//! that arrives later, read it back from the journal file.
//!
//! The worker processes themselves belong to the shared
//! [`Fleet`](mempool_traffic::Fleet): it spawns them, classifies how each
//! attempt ended (`panic` / `signal` / `timeout` / `oom` / `exit`), and
//! decides between a retry from the job's last checkpoint under the seeded
//! [`RetryPolicy`] and giving up (budget spent, or the same failure twice
//! in a row). This module is the driver: scheduling, the journal, and the
//! stream/timeline/metrics hooks. A drain (`SIGTERM` or the `shutdown` op)
//! `SIGTERM`s every worker, which checkpoint-parks its job and exits with
//! status 3; the journal then lets a restarted daemon resume each job
//! bit-identically.

use crate::journal::{self, Journal, ReplayedJob};
use crate::metrics::{Counter, ServeGauges, ServeMetrics};
use crate::protocol::{
    resp_err, resp_ok, stream_record, JobSpec, JobStatus, Request, PROTOCOL_VERSION,
};
use crate::sched::{Rejection, Scheduler, SchedulerConfig};
use crate::timeline::JobTimeline;
use mempool::json::{self, Layout, Obj};
use mempool_traffic::{
    job_files, worker_job, FailureKind, Fleet, Outcome, RetryPolicy, Verdict, WorkerLine,
};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
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

enum Msg {
    /// A connection the acceptor thread took off the listener.
    Connection(UnixStream),
    Request { reply: Sender<String>, line: String },
    /// One line of a worker's stdout; `None` marks its end.
    Worker { job: u64, line: Option<String> },
}

impl From<(u64, Option<String>)> for Msg {
    fn from((job, line): (u64, Option<String>)) -> Msg {
        Msg::Worker { job, line }
    }
}

/// A `wait` or `watch` connection. Both are sent the job's stream records;
/// only a `watch` (`partials`) is sent the `partial` metrics snapshots.
struct Subscriber {
    reply: Sender<String>,
    partials: bool,
}

struct Job {
    rec: ReplayedJob,
    attempt: u32,
    /// Dropped after the terminal record.
    subscribers: Vec<Subscriber>,
    /// Next telemetry record sequence number. Advanced for every record
    /// whether or not anyone is subscribed, so observation never changes
    /// the numbering (or anything else).
    stream_seq: u64,
    /// When this daemon process first saw the job (timeline origin).
    submitted_at: Instant,
    /// Whether the queue-wait histogram already recorded first dispatch.
    dispatched: bool,
    /// Most recent worker heartbeat: wall time and sim cycle.
    last_heartbeat: Option<(Instant, u64)>,
    timeline: JobTimeline,
    cancel_requested: bool,
}

impl Job {
    fn new(rec: ReplayedJob) -> Job {
        let timeline = JobTimeline::new(rec.id, &rec.tenant);
        Job {
            rec,
            attempt: 1,
            subscribers: Vec::new(),
            stream_seq: 0,
            submitted_at: Instant::now(),
            dispatched: false,
            last_heartbeat: None,
            timeline,
            cancel_requested: false,
        }
    }
}

struct Daemon {
    config: DaemonConfig,
    scheduler: Scheduler,
    journal: Journal,
    jobs: BTreeMap<u64, Job>,
    /// The worker processes, keyed by job id.
    fleet: Fleet<Msg>,
    next_id: u64,
    journal_skipped: usize,
    draining: bool,
    events_tx: Sender<Msg>,
    metrics: ServeMetrics,
    /// `tail` subscribers: receive every job's telemetry records.
    tailers: Vec<Sender<String>>,
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
    let (events_tx, events_rx): (Sender<Msg>, Receiver<Msg>) = mpsc::channel();
    let mut daemon = Daemon::open(config, events_tx.clone())?;

    let socket = daemon.config.socket.clone();
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket)?;
    // Accepting blocks in a thread of its own, so a connection wakes the
    // supervisor the moment it arrives rather than at its next tick.
    let closing = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let closing = Arc::clone(&closing);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if closing.load(Ordering::Relaxed) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        if events_tx.send(Msg::Connection(stream)).is_err() {
                            break;
                        }
                    }
                    // Out of descriptors, most likely: let some close.
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })
    };

    loop {
        match events_rx.recv_timeout(daemon.fleet.poll_interval()) {
            Ok(msg) => {
                daemon.handle(msg);
                while let Ok(msg) = events_rx.try_recv() {
                    daemon.handle(msg);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if shutdown.load(Ordering::Relaxed) && !daemon.draining {
            daemon.enter_drain();
        }
        daemon.tick_fleet();
        daemon.dispatch();
        if daemon.draining && daemon.fleet.running() == 0 {
            break;
        }
    }

    // The acceptor sits in `accept`; a connection of our own gets it out, and
    // it takes the listener with it. No thread of this daemon outlives it.
    closing.store(true, Ordering::Relaxed);
    if UnixStream::connect(&socket).is_ok() {
        let _ = acceptor.join();
    }
    // Replies queued in the final iteration (the `shutdown` acknowledgment
    // in particular) sit in detached writer threads; give them a beat to
    // flush before process exit tears them down.
    std::thread::sleep(Duration::from_millis(100));
    let _ = std::fs::remove_file(&socket);
    let mut summary = DaemonSummary {
        journal_skipped: daemon.journal_skipped,
        ..DaemonSummary::default()
    };
    for job in daemon.jobs.values() {
        match job.rec.status {
            JobStatus::Completed => summary.completed += 1,
            JobStatus::Failed => summary.failed += 1,
            JobStatus::Cancelled => summary.cancelled += 1,
            JobStatus::Parked => summary.parked += 1,
            JobStatus::Queued | JobStatus::Running => summary.queued += 1,
        }
    }
    Ok(summary)
}

/// The two fields of a finished job's terminal record, live or read back,
/// so that both are the same bytes.
fn done_fields(status: JobStatus, payload: &str) -> impl FnOnce(Obj) -> Obj + '_ {
    move |o| o.str("status", &status.to_string()).str("result", payload)
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
    fn open(config: DaemonConfig, events_tx: Sender<Msg>) -> io::Result<Daemon> {
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
            fleet: Fleet::new(config.retry.clone(), events_tx.clone()),
            config,
            journal,
            jobs: BTreeMap::new(),
            next_id: replay.next_id,
            journal_skipped: replay.skipped,
            draining: false,
            events_tx,
            metrics: ServeMetrics::new(),
            tailers: Vec::new(),
        };
        daemon
            .metrics
            .add(Counter::JournalReplaySkipped, replay.skipped as u64);
        for mut rec in replay.jobs {
            if !rec.status.is_terminal() {
                daemon.scheduler.admit_replayed(rec.id, &rec.tenant, rec.priority);
                daemon.metrics.count(Counter::JobsReplayed);
            }
            // The rewrite has indexed it.
            rec.payload = None;
            let mut job = Job::new(rec);
            job.timeline
                .push(0, "replayed", &job.rec.status.to_string());
            daemon.jobs.insert(job.rec.id, job);
        }
        Ok(daemon)
    }

    fn ckpt_path(&self, id: u64) -> PathBuf {
        self.config.state_dir.join(format!("job-{id}.ckpt"))
    }

    /// Wires up a freshly accepted connection: a reader thread that
    /// forwards request lines to the supervisor, and a writer thread that
    /// drains the connection's reply channel. The writer stays alive as
    /// long as any reply sender (a subscription's included) exists.
    fn attach(&mut self, stream: UnixStream) {
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let (reply_tx, reply_rx): (Sender<String>, Receiver<String>) = mpsc::channel();
        std::thread::spawn(move || {
            let mut out = BufWriter::new(write_half);
            while let Ok(line) = reply_rx.recv() {
                if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                    break;
                }
            }
        });
        let events = self.events_tx.clone();
        std::thread::spawn(move || {
            let reader = BufReader::new(stream);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                if events
                    .send(Msg::Request {
                        reply: reply_tx.clone(),
                        line,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
    }

    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Connection(stream) => self.attach(stream),
            Msg::Request { reply, line } => self.handle_request(&reply, &line),
            Msg::Worker { job, line } => self.handle_worker_line(job, line),
        }
    }

    fn handle_request(&mut self, reply: &Sender<String>, line: &str) {
        let request = match Request::from_json(line) {
            Ok(r) => r,
            Err(e) => {
                self.metrics.rejection("invalid");
                let _ = reply.send(resp_err("invalid", &e));
                return;
            }
        };
        match request {
            Request::Submit {
                tenant,
                priority,
                deadline_secs,
                spec,
            } => {
                let _ = reply.send(self.submit(tenant, priority, deadline_secs, spec));
            }
            Request::Status { job } => {
                let _ = reply.send(self.status_line(job));
            }
            Request::Health => {
                let _ = reply.send(self.health_line());
            }
            Request::Cancel { job } => {
                let _ = reply.send(self.cancel(job));
            }
            Request::Wait { job } => self.subscribe(reply, job, false),
            Request::Watch { job } => self.subscribe(reply, job, true),
            Request::Tail => {
                let _ = reply.send(resp_ok(|o| o.bool("tailing", true)));
                self.tailers.push(reply.clone());
                self.fleet.watch_all();
            }
            Request::Metrics => {
                let _ = reply.send(self.metrics_line());
            }
            Request::Timeline { job } => {
                let _ = reply.send(self.timeline_line(job));
            }
            Request::Shutdown => {
                let _ = reply.send(resp_ok(|o| o.bool("draining", true)));
                self.enter_drain();
            }
        }
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
        self.jobs.insert(id, Job::new(rec));
        self.stream(id, "state", false, |o| o.str("status", "queued"), "queued");
        job_ack(id, "queued")
    }

    /// The answer to an op naming a job this daemon does not know, counted.
    fn unknown_job(&mut self, id: u64) -> String {
        self.metrics.rejection("unknown-job");
        resp_err("unknown-job", &format!("no job {id}"))
    }

    fn status_line(&mut self, id: u64) -> String {
        let Some(job) = self.jobs.get(&id) else {
            return self.unknown_job(id);
        };
        let result = match job.rec.status.is_terminal() {
            // Nested documents travel as escaped string fields (the wire
            // dialect is flat); clients re-parse the string.
            true => match self.journal.result(id) {
                Ok(payload) => Some(payload),
                Err(e) => return result_unavailable(id, job.rec.status, &e),
            },
            false => None,
        };
        resp_ok(|o| {
            let mut o = o
                .num("job", id)
                .str("status", &job.rec.status.to_string())
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
        for job in self.jobs.values() {
            *counts.entry(job.rec.status).or_insert(0) += 1;
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
        let Some(job) = self.jobs.get_mut(&id) else {
            return self.unknown_job(id);
        };
        if job.rec.status.is_terminal() {
            return job_ack(id, &job.rec.status.to_string());
        }
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

    /// Emits one telemetry stream record for `id`. The sequence number,
    /// self-metrics counter, and timeline event advance unconditionally;
    /// the record (whose own fields `extra` writes) is only built when
    /// someone takes it: a `tail`, or a subscriber (`partial` records go to
    /// `watch`es only). `tl_detail` is the plain-text detail stored in the
    /// job timeline.
    fn stream(
        &mut self,
        id: u64,
        kind: &str,
        is_final: bool,
        extra: impl FnOnce(Obj) -> Obj,
        tl_detail: &str,
    ) {
        let has_tailers = !self.tailers.is_empty();
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        let seq = job.stream_seq;
        job.stream_seq += 1;
        self.metrics.count(Counter::StreamRecords);
        let at_ms = job.submitted_at.elapsed().as_millis() as u64;
        let tl_kind = if kind == "done" { "state" } else { kind };
        job.timeline.push(at_ms, tl_kind, tl_detail);
        let skips = |s: &Subscriber| kind == "partial" && !s.partials;
        if !has_tailers && job.subscribers.iter().all(skips) {
            return;
        }
        // Every taker but the last is sent a copy; the last, most often
        // the only one, takes the record itself.
        let mut takers = job.subscribers.iter().filter(|s| !skips(s)).count() + self.tailers.len();
        let mut record = Some(stream_record(id, seq, job.attempt, kind, is_final, extra));
        let mut send = |to: &Sender<String>| {
            takers -= 1;
            let copy = if takers == 0 { record.take() } else { record.clone() };
            copy.is_some_and(|copy| to.send(copy).is_ok())
        };
        job.subscribers.retain(|s| skips(s) || send(&s.reply));
        if is_final {
            job.subscribers = Vec::new();
        }
        self.tailers.retain(|w| send(w));
    }

    /// Opens a `wait` (`partials` false) or `watch` (`partials` true)
    /// subscription with an acknowledgment sent to this connection alone:
    /// subscribing takes no sequence number, counts no record and leaves
    /// the timeline as it is. A finished job follows the acknowledgment
    /// with its terminal record, rendered again from the journal byte for
    /// byte what live subscribers were sent.
    fn subscribe(&mut self, reply: &Sender<String>, id: u64, partials: bool) {
        let Some(job) = self.jobs.get_mut(&id) else {
            let _ = reply.send(self.unknown_job(id));
            return;
        };
        let status = job.rec.status;
        if !status.is_terminal() {
            let _ = reply.send(job_ack(id, &status.to_string()));
            job.subscribers.push(Subscriber { reply: reply.clone(), partials });
            if partials {
                self.fleet.watch(id);
            }
            return;
        }
        match self.journal.result(id) {
            Ok(payload) => {
                // The terminal record is the last a job emits. One that
                // finished under an earlier daemon process emitted none in
                // this one, and takes seq 0 of its restarted stream.
                let seq = job.stream_seq.saturating_sub(1);
                let fields = done_fields(status, &payload);
                let _ = reply.send(job_ack(id, &status.to_string()));
                let _ = reply.send(stream_record(id, seq, job.attempt, "done", true, fields));
            }
            Err(e) => {
                let _ = reply.send(result_unavailable(id, status, &e));
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
        let Some(job) = self.jobs.get(&id) else {
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
            if self.jobs.get(&id).is_none_or(|j| j.cancel_requested) {
                self.finish(id, JobStatus::Cancelled, "{\"detail\":\"cancelled while queued\"}");
                continue;
            }
            self.spawn(id);
        }
    }

    fn spawn(&mut self, id: u64) {
        let job = &self.jobs[&id];
        let line = worker_job(
            |o| o.num("job", id).num("attempt", job.attempt),
            &self.ckpt_path(id),
            |o| job.rec.spec.write_fields(o),
        );
        let deadline = job
            .rec
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
        if let Some(job) = self.jobs.get_mut(&id) {
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
    fn handle_worker_line(&mut self, id: u64, line: Option<String>) {
        let ended = line.is_none();
        match self.fleet.observe(id, line) {
            Some(WorkerLine::Heartbeat(cycle)) => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.last_heartbeat = Some((Instant::now(), cycle));
                }
                let detail = format!("cycle {cycle}");
                self.stream(id, "heartbeat", false, |o| o.num("cycle", cycle), &detail);
            }
            // The worker emits these at checkpoint boundaries whenever the
            // job asked for metrics — subscribed or not — so relaying them
            // is pure observation. Only a worker told to ([`Fleet::watch`])
            // renders the document; the marker without one is sequenced,
            // counted and timelined all the same.
            Some(WorkerLine::Metrics { key, at, doc }) => {
                self.metrics.count(Counter::PartialSnapshots);
                let detail = format!("{key} {at}");
                self.stream(
                    id,
                    "partial",
                    false,
                    |o| match &doc {
                        Some(doc) => o.num(key, at).str("metrics", doc),
                        None => o.num(key, at),
                    },
                    &detail,
                );
            }
            _ => {}
        }
        // Reap at the end of stdout rather than at the tick after the
        // listener poll: `finish` fsyncs the journal, and a connection
        // arriving during that would wait out the tick.
        if ended {
            self.tick_fleet();
        }
    }

    /// A worker exited: decide the job's fate from how its attempt ended.
    fn settle(&mut self, id: u64, outcome: Outcome) {
        let cancelled = self.jobs.get(&id).is_some_and(|job| job.cancel_requested);
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
        let failure = kind.to_string();
        self.stream(
            id,
            "attempt-failed",
            false,
            |o| o.str("failure", &failure).str("detail", &detail),
            &failure,
        );
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
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.attempt += 1;
                }
                let ms = delay.as_millis();
                self.stream(
                    id,
                    "retry-backoff",
                    false,
                    |o| o.num("delay_ms", ms),
                    &format!("{ms}ms"),
                );
                self.set_state(id, JobStatus::Queued);
            }
        }
    }

    /// Journals and broadcasts a non-terminal state change.
    fn set_state(&mut self, id: u64, status: JobStatus) {
        if let Err(e) = self.journal.record_state(id, status) {
            eprintln!("mempool-serve: journal write failed for job {id}: {e}");
        }
        if let Some(job) = self.jobs.get_mut(&id) {
            job.rec.status = status;
        }
        let word = status.to_string();
        self.stream(id, "state", false, |o| o.str("status", &word), &word);
    }

    /// Moves a job to a terminal state: journal, quota release, the
    /// terminal record, checkpoint cleanup (kept on failure for
    /// postmortems). `payload` goes to the journal and to whoever is
    /// subscribed right now; no copy of it stays here.
    fn finish(&mut self, id: u64, status: JobStatus, payload: &str) {
        self.scheduler.release(id);
        self.fleet.forget(id);
        if let Err(e) = self.journal.record_done(id, status, payload) {
            eprintln!("mempool-serve: journal write failed for job {id}: {e}");
        }
        if let Some(job) = self.jobs.get_mut(&id) {
            job.rec.status = status;
            let latency = job.submitted_at.elapsed().as_millis() as u64;
            self.metrics.job_terminal(status, latency);
        }
        self.stream(
            id,
            "done",
            true,
            done_fields(status, payload),
            &status.to_string(),
        );
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

    /// Everything a reply channel has been sent so far.
    fn lines(rx: &Receiver<String>) -> Vec<String> {
        rx.try_iter().collect()
    }

    /// The journal is the only copy of a finished job's result — unless the
    /// journal could not take it, in which case the result is served from
    /// memory as before; and if the file loses it afterwards, late readers
    /// get a typed error, not a made-up document. Driven without a socket:
    /// requests are method calls, a reply channel stands in for a connection.
    #[test]
    fn late_readers_survive_a_failing_journal_and_name_a_lost_result() {
        let dir = scratch("degraded");
        let state = dir.join("state");
        let (events_tx, _events_rx) = mpsc::channel();
        let config = DaemonConfig {
            state_dir: state.clone(),
            worker_slots: 0,
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::open(config, events_tx).expect("open");
        for _ in 0..2 {
            daemon.submit("team".to_owned(), 0, None, run_spec());
        }
        let journal_path = state.join("jobs.journal");
        let payload = "{\"outcome\":\"completed\",\"note\":\"a \\\"quoted\\\" µ\"}";

        // Job 0 finishes while appends fail, in front of one `wait` and one
        // `watch` subscriber.
        let read_only = std::fs::File::open(&journal_path).expect("journal exists");
        let healthy = daemon.journal.swap_file(read_only);
        let (wait_tx, wait_rx) = mpsc::channel();
        let (watch_tx, watch_rx) = mpsc::channel();
        daemon.subscribe(&wait_tx, 0, false);
        daemon.subscribe(&watch_tx, 0, true);
        daemon.finish(0, JobStatus::Completed, payload);
        let queued = "{\"ok\":true,\"job\":0,\"status\":\"queued\"}";
        let live = lines(&wait_rx);
        assert_eq!(live.len(), 2, "{live:?}");
        assert_eq!(live[0], queued);
        assert_eq!(lines(&watch_rx), live, "one stream, one framing");
        let live = live[1].clone();
        let quoted = format!("\"{}\"", json::escape(payload));
        assert!(live.contains(&quoted), "{live}");
        assert!(live.ends_with(",\"final\":true}"), "{live}");
        let journaled = std::fs::read_to_string(&journal_path).expect("journal reads");
        assert!(!journaled.contains("done 0"), "the append did fail: {journaled}");

        let completed = |id: u64| format!("{{\"ok\":true,\"job\":{id},\"status\":\"completed\"}}");
        let (late_tx, late_rx) = mpsc::channel();
        for partials in [false, true] {
            daemon.subscribe(&late_tx, 0, partials);
            assert_eq!(lines(&late_rx), [completed(0), live.clone()]);
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
        daemon.subscribe(&late_tx, 1, false);
        let twin = live.replace("\"job\":0", "\"job\":1");
        assert_eq!(lines(&late_rx), [completed(1), twin]);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal_path)
            .expect("journal opens");
        file.set_len(file.metadata().expect("metadata").len() - 10)
            .expect("truncate");
        daemon.subscribe(&late_tx, 1, false);
        daemon.subscribe(&late_tx, 1, true);
        let mut answers = lines(&late_rx);
        answers.push(daemon.status_line(1));
        assert_eq!(answers.len(), 3);
        for answer in answers {
            let fields = json::parse_flat_json(&answer).expect("answer parses");
            assert_eq!(fields["ok"], "false", "{answer}");
            assert_eq!(fields["error"], "result-unavailable", "{answer}");
            assert!(fields["detail"].contains("job 1 is completed"), "{answer}");
        }
        // Job 0's result never depended on the file.
        daemon.subscribe(&late_tx, 0, false);
        assert_eq!(lines(&late_rx), [completed(0), live]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every op that names a job answers one it does not know with the
    /// same rejection, and counts it.
    #[test]
    fn every_op_counts_an_unknown_job() {
        let dir = scratch("unknown");
        let (events_tx, _events_rx) = mpsc::channel();
        let config = DaemonConfig {
            state_dir: dir.join("state"),
            worker_slots: 0,
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::open(config, events_tx).expect("open");
        let (tx, rx) = mpsc::channel();
        for op in ["status", "cancel", "wait", "watch", "timeline"] {
            daemon.handle_request(&tx, &format!("{{\"op\":\"{op}\",\"job\":7}}"));
        }
        let rejection = "{\"ok\":false,\"error\":\"unknown-job\",\"detail\":\"no job 7\"}";
        assert_eq!(lines(&rx), [rejection; 5]);
        let reply = json::parse_flat_json(&daemon.metrics_line()).expect("reply");
        assert!(reply["metrics"].contains("\"rejections\": {\"unknown-job\": 5}"), "{reply:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
