//! The one process supervisor of the suite: the [`Fleet`] of crash-isolated
//! worker processes, the [`WorkerLine`] protocol they speak on stdout, the
//! failure classification and seeded retry/backoff policy applied to them,
//! the job document a worker reads ([`worker_job`]), the opaque
//! cluster-config spec exchanged between supervisors and workers, and the
//! signal hookup ([`sig`]). The JSON itself is `mempool::json`'s.
//!
//! `campaign --isolate` ([`Executor`](crate::Executor)) and the
//! `mempool-serve` daemon are both thin drivers of a [`Fleet`]: it lives
//! here — below both — so there is one spawn / deadline-kill / reap /
//! classify / back-off / give-up machine, not two that drift apart.

use mempool::json::{self, Fields, Layout, Obj};
use mempool::{ClusterConfig, Topology};
use mempool_rng::{Rng, SeedableRng, StdRng};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// How a supervised attempt failed, in the classification the executor
/// contract names: `panic|signal|timeout|oom|exit`, plus the sanitizer
/// class the campaign layer adds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The job (or its worker process) panicked.
    Panic,
    /// The worker process died on a signal other than `SIGKILL`.
    Signal(i32),
    /// The wall-clock deadline or sim-cycle budget tripped.
    Timeout,
    /// The worker process was `SIGKILL`ed without the supervisor asking —
    /// the kernel OOM killer's signature (or an outside `kill -9`).
    Oom,
    /// The worker process exited with a nonzero code.
    Exit(i32),
    /// The invariant sanitizer recorded violations during the job.
    Sanitizer,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Signal(sig) => write!(f, "signal({sig})"),
            FailureKind::Timeout => write!(f, "timeout"),
            FailureKind::Oom => write!(f, "oom"),
            FailureKind::Exit(code) => write!(f, "exit({code})"),
            FailureKind::Sanitizer => write!(f, "sanitizer"),
        }
    }
}

/// One failed attempt of a supervised job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// The failure classification.
    pub kind: FailureKind,
    /// Human-readable detail (panic message, signal, cancel cause, ...).
    pub detail: String,
}

/// The seeded retry policy every supervisor in the suite applies: capped
/// exponential backoff with deterministic jitter, an attempt budget, and
/// the repeat-failure give-up rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per job before giving up (minimum 1, default 3).
    pub max_attempts: u32,
    /// Base of the exponential backoff between attempts, in milliseconds
    /// (`0` disables backoff entirely — used by tests).
    pub backoff_base_ms: u64,
    /// Upper bound of the exponential backoff, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the backoff jitter (deterministic per `(seed, attempt)`).
    pub backoff_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            backoff_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Seeded exponential backoff with jitter: `base * 2^(attempt-1)`
    /// capped at `backoff_cap_ms`, plus a jitter draw in `[0, base)` from
    /// a stream determined by `(backoff_seed, seed, attempt)`.
    pub fn delay(&self, seed: u64, attempt: u32) -> Duration {
        let base = self.backoff_base_ms;
        if base == 0 {
            return Duration::ZERO;
        }
        let shift = u64::from(attempt.saturating_sub(1)).min(16);
        let exp = base.saturating_mul(1u64 << shift);
        let capped = exp.min(self.backoff_cap_ms.max(base));
        let mut rng = StdRng::seed_from_u64(
            self.backoff_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ seed.rotate_left(17)
                ^ u64::from(attempt),
        );
        Duration::from_millis(capped + rng.gen_range(0..base))
    }

    /// Give up once the attempt budget is spent, or as soon as the same
    /// failure repeats — two consecutive identical failures mean the
    /// problem is deterministic and further retries are wasted work.
    pub fn give_up(&self, failures: &[TrialFailure]) -> bool {
        if failures.len() >= self.max_attempts.max(1) as usize {
            return true;
        }
        match failures {
            [.., a, b] => a.kind == b.kind && a.detail == b.detail,
            _ => false,
        }
    }
}

/// Classifies a worker process exit per the `panic|signal|timeout|oom|exit`
/// contract. `SIGKILL` without the supervisor having asked for it is the
/// OOM killer's signature (or an outside `kill -9`) — either way the work
/// is recoverable from the job checkpoint, so the classification only
/// matters for reporting and give-up matching.
pub fn classify_exit(
    status: std::process::ExitStatus,
    killed_for_deadline: bool,
) -> (FailureKind, String) {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            if killed_for_deadline {
                return (
                    FailureKind::Timeout,
                    "deadline exceeded (worker killed)".to_owned(),
                );
            }
            if sig == 9 {
                return (FailureKind::Oom, "worker SIGKILLed (possible OOM)".to_owned());
            }
            return (
                FailureKind::Signal(sig),
                format!("worker terminated by signal {sig}"),
            );
        }
    }
    match status.code() {
        // 101 is the Rust runtime's panic exit code.
        Some(101) => (FailureKind::Panic, "worker panicked".to_owned()),
        Some(code) => (
            FailureKind::Exit(code),
            format!("worker exited with code {code}"),
        ),
        None => (
            FailureKind::Signal(0),
            "worker ended without an exit code".to_owned(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Signals.
// ---------------------------------------------------------------------------

/// Raw POSIX signal hookup. No signal crate is available, so this is the
/// one place the suite declares `signal(2)` and `kill(2)`. Elsewhere than
/// on Unix the flag is simply never raised and nothing is signalled.
pub mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Raised by `SIGINT`/`SIGTERM` once [`install`] has run: the daemon's
    /// drain trigger, a campaign's interrupt flag, a worker's park trigger.
    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn kill(pid: i32, sig: i32) -> i32;
    }

    /// Routes `SIGINT` and `SIGTERM` to the [`INTERRUPTED`] flag.
    pub fn install() {
        // SAFETY: `signal` is libc's, declared with its C signature; the
        // handler only stores to an atomic, which is async-signal-safe.
        #[cfg(unix)]
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// `SIGTERM`s a child, so that it can checkpoint-park (`Child::kill`
    /// only knows `SIGKILL`).
    pub(super) fn terminate(child: &std::process::Child) {
        // SAFETY: `kill` is libc's, declared with its C signature. The
        // caller holds the `Child`, so the pid is not yet reaped and
        // cannot have been recycled for another process.
        #[cfg(unix)]
        unsafe {
            kill(child.id() as i32, SIGTERM);
        }
    }
}

// ---------------------------------------------------------------------------
// The worker stdout protocol and the worker fleet.
// ---------------------------------------------------------------------------

/// One line of worker stdout. Workers print only through this type's
/// `Display`, supervisors read only through [`WorkerLine::parse`], so the
/// grammar exists once. Payloads are single-line and trimmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerLine {
    /// `heartbeat <cycle>` — liveness plus the sim cycle reached.
    Heartbeat(u64),
    /// `metrics {"<key>":<at>,"doc":"<escaped>"}` — a mid-job snapshot of
    /// the job's result document; `key` is `"cycle"` or `"trials"`.
    Metrics {
        /// What `at` counts.
        key: &'static str,
        /// Progress when the snapshot was taken.
        at: u64,
        /// The snapshot document.
        doc: String,
    },
    /// `parked <progress>` — checkpointed on `SIGTERM`; exit status 3 follows.
    Parked(u64),
    /// `result <payload>` — the finished job's result; exit status 0 follows.
    Result(String),
    /// `stopped <timeout|sanitizer> <detail>` — a cooperative stop whose
    /// detail is deterministic (a cycle budget, a sanitizer violation).
    Stopped(FailureKind, String),
    /// `error <detail>` — why a nonzero exit status follows.
    Error(String),
}

/// A line break inside a payload would start a second, unparsable line; a
/// payload without one (every 80 KB result) is not copied.
fn one_line(s: &str) -> Cow<'_, str> {
    if s.contains(['\n', '\r']) {
        Cow::Owned(s.replace(['\n', '\r'], " "))
    } else {
        Cow::Borrowed(s)
    }
}

impl fmt::Display for WorkerLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerLine::Heartbeat(cycle) => write!(f, "heartbeat {cycle}"),
            WorkerLine::Metrics { key, at, doc } => {
                let line = json::object(Layout::Compact, |o| o.num(key, at).str("doc", doc));
                write!(f, "metrics {line}")
            }
            WorkerLine::Parked(progress) => write!(f, "parked {progress}"),
            WorkerLine::Result(payload) => write!(f, "result {}", one_line(payload)),
            WorkerLine::Stopped(kind, detail) => write!(f, "stopped {kind} {}", one_line(detail)),
            WorkerLine::Error(detail) => write!(f, "error {}", one_line(detail)),
        }
    }
}

impl WorkerLine {
    /// Parses one stdout line; `None` for anything outside the grammar
    /// (unknown word, non-numeric or overflowing counter, malformed
    /// metrics object, empty result).
    pub fn parse(line: &str) -> Option<WorkerLine> {
        let (word, rest) = line.split_once(' ').unwrap_or((line.trim_end(), ""));
        let rest = rest.trim();
        match word {
            "heartbeat" => rest.parse().ok().map(WorkerLine::Heartbeat),
            "parked" => rest.parse().ok().map(WorkerLine::Parked),
            "metrics" => {
                let fields = Fields::parse(rest).ok()?;
                let key = match (fields.get("cycle"), fields.get("trials")) {
                    (Some(_), None) => "cycle",
                    (None, Some(_)) => "trials",
                    _ => return None,
                };
                let doc = fields.str("doc").ok()?.to_owned();
                Some(WorkerLine::Metrics {
                    key,
                    at: fields.int(key).ok()?,
                    doc,
                })
            }
            "result" if !rest.is_empty() => Some(WorkerLine::Result(rest.to_owned())),
            "stopped" => {
                let (kind, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                let kind = match kind {
                    "timeout" => FailureKind::Timeout,
                    "sanitizer" => FailureKind::Sanitizer,
                    _ => return None,
                };
                Some(WorkerLine::Stopped(kind, detail.trim_start().to_owned()))
            }
            "error" => Some(WorkerLine::Error(rest.to_owned())),
            _ => None,
        }
    }
}

/// The one-line job document a worker reads on stdin: what `lead` writes,
/// the `checkpoint` path, then what `job` writes (the job's own fields).
/// Both drivers render it here: the daemon leads with the job id and
/// attempt, an isolated campaign trial follows its campaign with the trial
/// seed.
pub fn worker_job(
    lead: impl FnOnce(Obj) -> Obj,
    checkpoint: &Path,
    job: impl FnOnce(Obj) -> Obj,
) -> String {
    json::object(Layout::Compact, |o| {
        job(lead(o).str("checkpoint", &checkpoint.to_string_lossy()))
    })
}

/// How a reaped worker attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Exit 0 after a `result` line: the payload.
    Result(String),
    /// A `parked` line or exit status 3: checkpointed, resumable. Not a
    /// failure, whoever asked for the park.
    Parked,
    /// Anything else. The kind comes from a `stopped` line if there was one
    /// and from the exit status otherwise; an `error` line replaces only the
    /// detail, and a crash detail carries the last reported heartbeat so
    /// that only crashes at the same cycle count as identical failures.
    Failed(FailureKind, String),
}

/// What [`Fleet::fail`] decided about a failed attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Retry after this delay; [`Fleet::pop_due`] yields the key once due.
    Retry(Duration),
    /// Budget spent or failure repeated: the key's full failure history.
    GiveUp(Vec<TrialFailure>),
}

/// What one [`Fleet::tick`] did.
#[derive(Debug, Default)]
pub struct Tick {
    /// Workers `SIGKILL`ed for passing their deadline.
    pub deadline_kills: usize,
    /// Workers that exited, with how each attempt ended.
    pub reaped: Vec<(u64, Outcome)>,
}

struct Worker {
    child: Child,
    reader: Option<std::thread::JoinHandle<()>>,
    deadline: Option<Instant>,
    killed_for_deadline: bool,
    /// `Some(n)` once stdout closed: `n` ticks since found it still running.
    lingered: Option<u32>,
    last_heartbeat: Option<u64>,
    /// The `parked`, `result` or `stopped` line, if one was printed.
    verdict: Option<WorkerLine>,
    error: Option<String>,
}

impl Worker {
    fn outcome(mut self, status: io::Result<ExitStatus>) -> Outcome {
        if let Some(reader) = self.reader.take() {
            // Only reaped after end of stdout, the reader's last act.
            let _ = reader.join();
        }
        let status = match status {
            Ok(status) => status,
            Err(e) => return Outcome::Failed(FailureKind::Exit(-1), format!("wait failed: {e}")),
        };
        match (self.verdict, status.code()) {
            (Some(WorkerLine::Parked(_)), _) | (_, Some(3)) => return Outcome::Parked,
            (Some(WorkerLine::Stopped(kind, detail)), _) => return Outcome::Failed(kind, detail),
            (Some(WorkerLine::Result(payload)), Some(0)) => return Outcome::Result(payload),
            (_, Some(0)) => {
                let detail = "worker exited cleanly without a result".to_owned();
                return Outcome::Failed(FailureKind::Exit(0), detail);
            }
            _ => {}
        }
        let (kind, mut detail) = classify_exit(status, self.killed_for_deadline);
        if let Some(error) = self.error {
            detail = error;
        } else if let Some(cycle) = self.last_heartbeat {
            detail.push_str(&format!(" (last heartbeat at cycle {cycle})"));
        }
        Outcome::Failed(kind, detail)
    }
}

/// A fleet of crash-isolated worker processes, keyed by a `u64` the driver
/// chooses (a trial seed, a job id; it also seeds the key's backoff
/// jitter). The fleet owns the children, each key's failure history and the
/// retries waiting out their backoff; the driver owns scheduling and
/// everything it reports.
///
/// Each worker's stdout reaches the channel the driver supplies as
/// `M::from((key, Some(line)))` per line, then `(key, None)` at its end —
/// so a daemon can fold workers into its one event loop. The reader only
/// splits lines: a worker blocked on a full pipe waits for nothing but the
/// next `read`. The driver hands each event to [`Fleet::observe`] and calls
/// [`Fleet::tick`] at least every [`Fleet::poll_interval`].
///
/// Dropping the fleet `SIGKILL`s and reaps every worker it still owns, and
/// reports on stderr how many stdout lines it rejected, if any.
pub struct Fleet<M> {
    policy: RetryPolicy,
    events: Sender<M>,
    workers: BTreeMap<u64, Worker>,
    failures: BTreeMap<u64, Vec<TrialFailure>>,
    retry_at: Vec<(Instant, u64)>,
    rejected_lines: u64,
}

impl<M: From<(u64, Option<String>)> + Send + 'static> Fleet<M> {
    /// An empty fleet retrying under `policy`, forwarding stdout into `events`.
    pub fn new(policy: RetryPolicy, events: Sender<M>) -> Fleet<M> {
        Fleet {
            policy,
            events,
            workers: BTreeMap::new(),
            failures: BTreeMap::new(),
            retry_at: Vec::new(),
            rejected_lines: 0,
        }
    }

    /// Starts `<cmd> worker` (`None` = this executable) for `key`, writes
    /// the one-line `job` document to its stdin, and bounds the attempt by
    /// `deadline` of wall-clock time.
    ///
    /// # Errors
    ///
    /// The executable cannot be found or spawned.
    pub fn spawn(
        &mut self,
        key: u64,
        cmd: Option<&Path>,
        job: &str,
        deadline: Option<Duration>,
    ) -> io::Result<()> {
        let cmd = match cmd {
            Some(cmd) => cmd.to_owned(),
            None => std::env::current_exe()?,
        };
        let mut child = Command::new(&cmd)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("spawn of {} failed: {e}", cmd.display()))
            })?;
        if let Some(mut stdin) = child.stdin.take() {
            // A worker that dies before reading its job must not take the
            // driver down with a broken pipe; its exit status covers it.
            // One write, so that the worker never waits mid-document for a
            // supervisor thread descheduled between two.
            let _ = stdin.write_all(format!("{job}\n").as_bytes());
        }
        let stdout = child.stdout.take().expect("stdout was piped");
        let events = self.events.clone();
        let reader = std::thread::spawn(move || {
            let mut stdout = io::BufReader::new(stdout);
            let mut line = Vec::new();
            while stdout.read_until(b'\n', &mut line).is_ok_and(|n| n > 0) {
                let text = String::from_utf8(std::mem::take(&mut line))
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
                if events.send(M::from((key, Some(text)))).is_err() {
                    return;
                }
            }
            let _ = events.send(M::from((key, None)));
        });
        let worker = Worker {
            child,
            reader: Some(reader),
            deadline: deadline.map(|d| Instant::now() + d),
            killed_for_deadline: false,
            lingered: None,
            last_heartbeat: None,
            verdict: None,
            error: None,
        };
        self.workers.insert(key, worker);
        Ok(())
    }
}

impl<M> Fleet<M> {
    /// Takes in one forwarded event (`None` = end of stdout). Progress lines
    /// (`heartbeat`, `metrics`) are handed back for the driver to report;
    /// the others feed the attempt's [`Outcome`]; a line outside the
    /// [`WorkerLine`] grammar is dropped and counted.
    pub fn observe(&mut self, key: u64, line: Option<String>) -> Option<WorkerLine> {
        let worker = self.workers.get_mut(&key)?;
        let Some(text) = line else {
            worker.lingered = Some(0);
            return None;
        };
        match WorkerLine::parse(&text) {
            Some(WorkerLine::Heartbeat(cycle)) => {
                worker.last_heartbeat = Some(cycle);
                return Some(WorkerLine::Heartbeat(cycle));
            }
            Some(progress @ WorkerLine::Metrics { .. }) => return Some(progress),
            Some(WorkerLine::Error(detail)) => worker.error = Some(detail),
            Some(verdict) => worker.verdict = Some(verdict),
            None => self.rejected_lines += 1,
        }
        None
    }

    /// `SIGKILL`s workers past their deadline and reaps, without blocking,
    /// those that closed stdout and exited. A worker that closed stdout but
    /// keeps running stays owned, and deadline-bound, until it exits.
    pub fn tick(&mut self) -> Tick {
        let now = Instant::now();
        let mut tick = Tick::default();
        let mut exited = Vec::new();
        for (&key, worker) in &mut self.workers {
            if !worker.killed_for_deadline && worker.deadline.is_some_and(|d| now >= d) {
                worker.killed_for_deadline = true;
                tick.deadline_kills += 1;
                let _ = worker.child.kill();
            }
            if let Some(ticks) = &mut worker.lingered {
                match worker.child.try_wait().transpose() {
                    None => *ticks += 1,
                    Some(status) => exited.push((key, status)),
                }
            }
        }
        for (key, status) in exited {
            let worker = self.workers.remove(&key).expect("listed from this map above");
            tick.reaped.push((key, worker.outcome(status)));
        }
        tick
    }

    /// How long a driver may block on its channel before the next
    /// [`Fleet::tick`]: the deadline and backoff granularity. Stdout closes
    /// a moment before the process can be reaped, so a worker seen in
    /// between is looked at again within 100 µs, doubling while it lingers.
    pub fn poll_interval(&self) -> Duration {
        let lingering = self.workers.values().filter_map(|w| w.lingered);
        lingering
            .map(|ticks| Duration::from_micros(100) * (1 << ticks.min(8)))
            .fold(Duration::from_millis(20), Duration::min)
    }

    /// Records a failed attempt of `key` and decides between a retry with
    /// seeded backoff and giving up (see [`RetryPolicy`]).
    pub fn fail(&mut self, key: u64, kind: FailureKind, detail: String) -> Verdict {
        let failures = self.failures.entry(key).or_default();
        let attempt = failures.len() as u32 + 1;
        failures.push(TrialFailure { attempt, kind, detail });
        if self.policy.give_up(failures) {
            return Verdict::GiveUp(self.failures.remove(&key).unwrap_or_default());
        }
        let delay = self.policy.delay(key, attempt);
        self.retry_at.push((Instant::now() + delay, key));
        Verdict::Retry(delay)
    }

    /// Takes one key whose retry backoff has elapsed, if any.
    pub fn pop_due(&mut self) -> Option<u64> {
        let now = Instant::now();
        let pos = self.retry_at.iter().position(|&(at, _)| at <= now)?;
        Some(self.retry_at.remove(pos).1)
    }

    /// Whether `key` is waiting out a retry backoff.
    pub fn awaiting_retry(&self, key: u64) -> bool {
        self.retry_at.iter().any(|&(_, k)| k == key)
    }

    /// Drops `key`'s failure history and pending retry: its job is over.
    pub fn forget(&mut self, key: u64) {
        self.failures.remove(&key);
        self.retry_at.retain(|&(_, k)| k != key);
    }

    /// Number of live workers.
    pub fn running(&self) -> usize {
        self.workers.len()
    }

    /// Stdout lines dropped for being outside the [`WorkerLine`] grammar.
    pub fn rejected_lines(&self) -> u64 {
        self.rejected_lines
    }

    /// `SIGTERM`s `key`'s worker so that it checkpoint-parks; `false` when
    /// the key has no live worker.
    pub fn terminate(&self, key: u64) -> bool {
        self.workers.get(&key).map(|w| sig::terminate(&w.child)).is_some()
    }

    /// `SIGTERM`s every live worker (a drain).
    pub fn terminate_all(&self) {
        self.workers.values().for_each(|w| sig::terminate(&w.child));
    }
}

impl<M> Drop for Fleet<M> {
    fn drop(&mut self) {
        // `Child`'s own drop neither kills nor reaps: without this, an
        // error return in the driver would orphan workers that keep
        // rewriting checkpoints under a run that already reported failure.
        for worker in self.workers.values_mut() {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
            if let Some(reader) = worker.reader.take() {
                let _ = reader.join();
            }
        }
        if self.rejected_lines > 0 {
            let n = self.rejected_lines;
            eprintln!("supervisor: dropped {n} worker stdout line(s) outside the protocol");
        }
    }
}

// ---------------------------------------------------------------------------
// The opaque cluster-config spec.
// ---------------------------------------------------------------------------

/// Renders the supervisor-relevant cluster configuration as the opaque
/// `config_spec` a worker receives ([`parse_config_spec`] reverses it).
pub fn render_config_spec(topology: Topology, small: bool, scramble: bool) -> String {
    format!("topology={topology},small={small},scramble={scramble}")
}

/// The cluster the three `config_spec` fields select — the one place a
/// (topology, small, scramble) triple becomes a [`ClusterConfig`], shared by
/// [`parse_config_spec`] and the binaries' `--topology`/`--small`/
/// `--no-scramble` flags.
pub fn build_config(topology: Topology, small: bool, scramble: bool) -> ClusterConfig {
    let mut config = if small {
        ClusterConfig::small(topology)
    } else {
        ClusterConfig::paper(topology)
    };
    if !scramble {
        config.seq_region_bytes = None;
    }
    config
}

/// Parses [`render_config_spec`]'s output back into a [`ClusterConfig`]
/// with the standard resilience layer attached (workers must be able to
/// absorb injected faults; a fault-free job simply never exercises it).
///
/// # Errors
///
/// A description of the first malformed entry.
pub fn parse_config_spec(spec: &str) -> Result<ClusterConfig, String> {
    let mut topology = None;
    let mut small = false;
    let mut scramble = true;
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad config spec entry `{part}`"))?;
        match key {
            "topology" => topology = Some(value.parse()?),
            "small" => small = value == "true",
            "scramble" => scramble = value == "true",
            other => return Err(format!("unknown config spec key `{other}`")),
        }
    }
    let topology = topology.ok_or_else(|| "config spec lacks a topology".to_owned())?;
    let mut config = build_config(topology, small, scramble);
    config.resilience = mempool::ResilienceConfig::standard();
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_spec_round_trips() {
        for topology in [Topology::Ideal, Topology::Top1, Topology::Top4, Topology::TopH] {
            for small in [false, true] {
                for scramble in [false, true] {
                    let spec = render_config_spec(topology, small, scramble);
                    let config = parse_config_spec(&spec).expect("spec parses");
                    assert_eq!(config.topology, topology, "{spec}");
                    assert_eq!(config.seq_region_bytes.is_some(), scramble, "{spec}");
                }
            }
        }
        assert!(parse_config_spec("small=true").is_err(), "topology required");
        assert!(parse_config_spec("topology=weird").is_err());
        assert!(parse_config_spec("nonsense").is_err());
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            backoff_base_ms: 50,
            backoff_cap_ms: 300,
            ..RetryPolicy::default()
        };
        let a = policy.delay(7, 1);
        assert_eq!(a, policy.delay(7, 1), "same (seed, attempt) -> same delay");
        assert!(a >= Duration::from_millis(50) && a < Duration::from_millis(100));
        let late = policy.delay(7, 10);
        assert!(late >= Duration::from_millis(300) && late < Duration::from_millis(350));
        let off = RetryPolicy {
            backoff_base_ms: 0,
            ..policy
        };
        assert_eq!(off.delay(7, 3), Duration::ZERO);
    }

    #[test]
    fn retry_policy_gives_up_on_repeat_or_exhaustion() {
        let policy = RetryPolicy::default();
        let f = |kind: FailureKind, detail: &str, attempt: u32| TrialFailure {
            attempt,
            kind,
            detail: detail.to_owned(),
        };
        let x = f(FailureKind::Panic, "x", 1);
        let (y, z) = (f(FailureKind::Timeout, "y", 2), f(FailureKind::Oom, "z", 3));
        assert!(!policy.give_up(std::slice::from_ref(&x)), "one failure: retry");
        assert!(!policy.give_up(&[x.clone(), y.clone()]), "two different failures: still retry");
        let again = f(FailureKind::Panic, "x", 2);
        assert!(policy.give_up(&[x.clone(), again]), "the same failure twice: deterministic");
        assert!(policy.give_up(&[x, y, z]), "attempt budget spent, whatever the variety");
    }

    fn every_variant() -> Vec<WorkerLine> {
        vec![
            WorkerLine::Heartbeat(0),
            WorkerLine::Heartbeat(u64::MAX),
            WorkerLine::Metrics {
                key: "cycle",
                at: 4_096,
                doc: "{\n  \"schema\": \"mempool-metrics-v2\", \"q\": \"a\\\"b,c\"\n}\n".to_owned(),
            },
            WorkerLine::Metrics {
                key: "trials",
                at: 3,
                doc: String::new(),
            },
            WorkerLine::Parked(17),
            WorkerLine::Result("{\"outcome\":\"completed\",\"cycles\":477}".to_owned()),
            WorkerLine::Result("11 completed 5 0 0x1 plain trial line".to_owned()),
            WorkerLine::Stopped(
                FailureKind::Timeout,
                "cycle budget of 10 exhausted".to_owned(),
            ),
            WorkerLine::Stopped(FailureKind::Sanitizer, String::new()),
            WorkerLine::Error("no such config, \"quoted\"".to_owned()),
            WorkerLine::Error(String::new()),
        ]
    }

    #[test]
    fn worker_lines_round_trip_and_reject_what_is_not_in_the_grammar() {
        for line in every_variant() {
            let text = line.to_string();
            assert!(!text.contains('\n'), "{text:?}");
            assert_eq!(WorkerLine::parse(&text), Some(line), "{text:?}");
        }
        // What the reader thread hands over still carries the line ending.
        assert_eq!(
            WorkerLine::parse("heartbeat 512\r\n"),
            Some(WorkerLine::Heartbeat(512))
        );
        // A payload never spans lines, whatever it was built from.
        assert_eq!(WorkerLine::Error("a\nb".to_owned()).to_string(), "error a b");
        for garbage in [
            "",
            "garbage",
            "heartbeat",
            "heartbeat x",
            "heartbeat 1,\"final\":true",
            "heartbeat -1",
            "heartbeat 18446744073709551616",
            "parked soon",
            "result",
            "result   ",
            "stopped panic boom",
            "metrics {\"cycle\":1}",
            "metrics {\"doc\":\"x\"}",
            "metrics {\"cycle\":1,\"trials\":2,\"doc\":\"x\"}",
            "metrics {\"cycle\":\"1,\\\"final\\\":true\",\"doc\":\"x\"}",
            "Heartbeat 5",
        ] {
            assert_eq!(WorkerLine::parse(garbage), None, "{garbage:?}");
        }
    }

    /// Structure-aware garbage: valid lines truncated, spliced with
    /// separators and quotes, numerically overflowed, padded to megabytes,
    /// or with raw bytes forced through the reader's lossy decoding. The
    /// parser must answer every one with a typed line or a rejection.
    #[test]
    fn worker_line_parser_never_panics_on_a_seeded_garbage_corpus() {
        let seeds = every_variant();
        let splices = ["\"", ",", "\\", "\n", "\r", "{", "}", ":", " ", "\u{0}", "\u{fffd}", "é"];
        let mut rng = StdRng::seed_from_u64(0x6d65_6d70_6f6f);
        let mut typed = 0;
        for case in 0..4_000 {
            let mut bytes = seeds[rng.gen_range(0..seeds.len())].to_string().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len() + 1);
                let insert: &[u8] = match rng.gen_range(0..6u32) {
                    0 => {
                        bytes.truncate(at);
                        continue;
                    }
                    1 => splices[rng.gen_range(0..splices.len())].as_bytes(),
                    2 => b"99999999999999999999999",
                    3 => &[rng.gen_range(0x80..0xffu8)],
                    4 => b" stopped timeout result error ",
                    _ if case % 500 == 0 => &[b'7'; 1 << 20],
                    _ => {
                        bytes.reverse();
                        continue;
                    }
                };
                bytes.splice(at..at, insert.iter().copied());
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Some(line) = WorkerLine::parse(&text) {
                typed += 1;
                let rendered = line.to_string();
                assert!(!rendered.contains('\n'), "{text:?} -> {rendered:?}");
                let again = WorkerLine::parse(&rendered).map(|l| l.to_string());
                assert_eq!(again, Some(rendered), "{text:?}");
            }
        }
        assert!(typed > 400, "the corpus should not be all rejections: {typed}");
    }

    /// The crate's re-export of the one flat reader.
    #[test]
    fn flat_json_rejects_malformed_documents() {
        use crate::parse_flat_json;
        assert!(parse_flat_json("{\"a\":1}").is_some());
        // Strict: trailing garbage, nested values, trailing commas, bare
        // words, raw control characters and lone surrogates.
        for malformed in [
            "{\"op\":\"shutdown\" xyz}",
            "{\"a\":{\"b\":1},\"c\":2}",
            "{\"a\":[1],\"c\":2}",
            "{\"a\":1,}",
            "{\"a\":abc}",
            "{\"a\":\"tab\there\"}",
            "{\"a\":\"\\ud83d\"}",
            "{\"a\":1} {\"b\":2}",
        ] {
            assert!(parse_flat_json(malformed).is_none(), "{malformed}");
        }
        assert!(parse_flat_json("not json").is_none());
        assert!(parse_flat_json("{\"a\":\"unterminated}").is_none());
        assert!(parse_flat_json("{\"a\"}").is_none());
        // The closing quote is the first one no backslash stands before.
        assert!(parse_flat_json("{\"a\":\"x\\\"}").is_none());
        assert!(parse_flat_json("{\"a\":\"x\\").is_none());
        assert!(parse_flat_json("{\"a\":\"\\é\",\"b\":1}").is_none());
        assert_eq!(parse_flat_json("{\"a\":\"é\\\\\",\"b\":1}").expect("parses")["a"], "é\\");
        let fields = parse_flat_json("{\"s\":\"a\\\"b\",\"n\":3,\"b\":true,\"z\":null}")
            .expect("parses");
        assert_eq!(fields["s"], "a\"b");
        assert_eq!(fields["n"], "3");
        assert_eq!(fields["b"], "true");
        assert_eq!(fields["z"], "null");
    }

    #[test]
    fn a_payload_without_a_line_break_is_rendered_as_it_is() {
        let payload = "{\"doc\":\"é → 𝄞\"}".repeat(3);
        assert_eq!(WorkerLine::Result(payload.clone()).to_string(), format!("result {payload}"));
        assert_eq!(WorkerLine::Error("a\r\nb".to_owned()).to_string(), "error a  b");
    }

    /// The fleet, driving `/bin/sh` fake workers.
    #[cfg(unix)]
    mod fleet {
        use super::super::*;
        use std::sync::mpsc::{channel, Receiver};

        type Event = (u64, Option<String>);

        /// One script serves every fake worker: it runs the "job document" it
        /// reads from stdin as shell. Written once, before any test forks, so no
        /// child of this process can hold it open for writing while another
        /// test execs it (`ETXTBSY`).
        fn sh_worker() -> &'static Path {
            use std::os::unix::fs::PermissionsExt;
            static SCRIPT: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
            SCRIPT.get_or_init(|| {
                let dir = format!("mempool-fleet-{}", std::process::id());
                let dir = std::env::temp_dir().join(dir);
                std::fs::create_dir_all(&dir).expect("scratch dir");
                let path = dir.join("sh-worker");
                std::fs::write(&path, "#!/bin/sh\nread -r job\neval \"$job\"\n").expect("script");
                std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
                path
            })
        }

        fn new_fleet(policy: RetryPolicy) -> (Fleet<Event>, Receiver<Event>) {
            let (tx, rx) = channel();
            (Fleet::new(policy, tx), rx)
        }

        fn no_backoff() -> RetryPolicy {
            RetryPolicy {
                backoff_base_ms: 0,
                ..RetryPolicy::default()
            }
        }

        /// Drives the fleet the way a driver does until one worker is reaped.
        fn reap_one(fleet: &mut Fleet<Event>, rx: &Receiver<Event>) -> (u64, Outcome) {
            let started = Instant::now();
            loop {
                if let Ok((key, event)) = rx.recv_timeout(fleet.poll_interval()) {
                    fleet.observe(key, event);
                }
                if let Some(reaped) = fleet.tick().reaped.pop() {
                    return reaped;
                }
                assert!(started.elapsed() < Duration::from_secs(30), "worker never exited");
            }
        }

        fn run_one(shell: &str, deadline: Option<Duration>) -> Outcome {
            let (mut fleet, rx) = new_fleet(no_backoff());
            fleet.spawn(9, Some(sh_worker()), shell, deadline).expect("spawns");
            assert_eq!(fleet.running(), 1);
            let (key, outcome) = reap_one(&mut fleet, &rx);
            assert_eq!((key, fleet.running()), (9, 0));
            outcome
        }

        #[test]
        fn classifies_how_an_attempt_ended() {
            let failed = |kind, detail: &str| Outcome::Failed(kind, detail.to_owned());
            let payload = Outcome::Result("the payload".to_owned());
            let oom = "worker SIGKILLed (possible OOM) (last heartbeat at cycle 640)";
            for (shell, outcome) in [
                ("echo 'heartbeat 5'; echo 'result the payload'", payload),
                ("echo 'result unfinished'; exit 101", failed(FailureKind::Panic, "worker panicked")),
                ("echo 'heartbeat 640'; kill -9 $$", failed(FailureKind::Oom, oom)),
                // The kind is the exit status's; an `error` line is only the detail.
                (
                    "echo 'heartbeat 640'; echo 'error no such config'; exit 1",
                    failed(FailureKind::Exit(1), "no such config"),
                ),
                (
                    "echo 'stopped timeout cycle budget of 10 exhausted'",
                    failed(FailureKind::Timeout, "cycle budget of 10 exhausted"),
                ),
                ("echo 'parked 12'; exit 3", Outcome::Parked),
                ("exit 3", Outcome::Parked),
                ("true", failed(FailureKind::Exit(0), "worker exited cleanly without a result")),
            ] {
                assert_eq!(run_one(shell, None), outcome, "{shell}");
            }
        }

        #[test]
        fn kills_on_deadline_even_after_stdout_closed() {
            let deadline = Some(Duration::from_millis(150));
            let timeout =
                Outcome::Failed(FailureKind::Timeout, "deadline exceeded (worker killed)".to_owned());
            assert_eq!(run_one("exec sleep 30", deadline), timeout);
            // A worker that closes stdout and lingers is not reaped by a
            // blocking wait: ticks keep running and the deadline ends it.
            let started = Instant::now();
            assert_eq!(run_one("exec >&-; exec sleep 30", deadline), timeout);
            assert!(started.elapsed() < Duration::from_secs(10));
        }

        #[test]
        fn delivers_every_line_before_the_eof_marker() {
            let (mut fleet, rx) = new_fleet(no_backoff());
            let shell = "i=0; while [ $i -lt 300 ]; do echo \"heartbeat $i\"; i=$((i+1)); done; \
                         echo junk; echo 'result done'";
            fleet.spawn(4, Some(sh_worker()), shell, None).expect("spawns");
            let mut events = Vec::new();
            loop {
                let (key, event) = rx.recv_timeout(Duration::from_secs(30)).expect("event");
                assert_eq!(key, 4);
                let eof = event.is_none();
                events.push(event);
                if eof {
                    break;
                }
            }
            assert_eq!(events.len(), 303, "300 heartbeats, junk, result, then the end marker");
            for (i, event) in events.iter().take(300).enumerate() {
                assert!(
                    matches!(event, Some(line) if *line == format!("heartbeat {i}\n")),
                    "{event:?}"
                );
            }
            for event in events {
                fleet.observe(4, event);
            }
            assert_eq!(fleet.rejected_lines(), 1);
            assert_eq!(reap_one(&mut fleet, &rx), (4, Outcome::Result("done".to_owned())));
        }

        /// Runs `shells` as successive attempts of key 3; returns each verdict.
        fn verdicts(policy: &RetryPolicy, shells: &[&str]) -> Vec<Verdict> {
            let (mut fleet, rx) = new_fleet(policy.clone());
            shells
                .iter()
                .map(|shell| {
                    fleet.spawn(3, Some(sh_worker()), shell, None).expect("spawns");
                    let (_, Outcome::Failed(kind, detail)) = reap_one(&mut fleet, &rx) else {
                        panic!("`{shell}` should fail");
                    };
                    fleet.fail(3, kind, detail)
                })
                .collect()
        }

        #[test]
        fn retries_with_the_policy_delay_and_gives_up_by_the_policy_rule() {
            let policy = RetryPolicy::default();
            // Identical failures: deterministic, given up after two.
            let same = verdicts(&policy, &["exit 7", "exit 7"]);
            assert_eq!(same[0], Verdict::Retry(policy.delay(3, 1)));
            let Verdict::GiveUp(history) = &same[1] else {
                panic!("{same:?}");
            };
            assert_eq!(history.len(), 2);
            assert_eq!(history[1].attempt, 2);
            assert_eq!(history[1].kind, FailureKind::Exit(7));
            // Distinct failures: retried until the attempt budget is spent.
            let distinct = verdicts(&policy, &["exit 7", "exit 8", "exit 9"]);
            assert_eq!(distinct[0], Verdict::Retry(policy.delay(3, 1)));
            assert_eq!(distinct[1], Verdict::Retry(policy.delay(3, 2)));
            assert!(
                matches!(&distinct[2], Verdict::GiveUp(history) if history.len() == 3),
                "{distinct:?}"
            );
            // Crashes count as identical only at the same heartbeat.
            let moving = ["echo 'heartbeat 1'; exit 7", "echo 'heartbeat 2'; exit 7"];
            let moving = verdicts(&policy, &moving);
            assert!(matches!(moving[1], Verdict::Retry(_)), "{moving:?}");
        }

        #[test]
        fn backoff_and_forget() {
            let (mut fleet, _rx) = new_fleet(no_backoff());
            let fail = |fleet: &mut Fleet<Event>| fleet.fail(5, FailureKind::Exit(1), "x".to_owned());
            assert_eq!(fail(&mut fleet), Verdict::Retry(Duration::ZERO));
            assert!(fleet.awaiting_retry(5));
            assert_eq!((fleet.pop_due(), fleet.pop_due()), (Some(5), None));
            // A forgotten key starts over: its next failure is a first failure.
            fleet.forget(5);
            assert_eq!(fail(&mut fleet), Verdict::Retry(Duration::ZERO));
            fleet.forget(5);
            assert!(!fleet.awaiting_retry(5));

            let (mut slow, _rx) = new_fleet(RetryPolicy::default());
            let Verdict::Retry(delay) = fail(&mut slow) else {
                panic!("a first failure is retried");
            };
            assert!(delay >= Duration::from_millis(50), "{delay:?}");
            assert_eq!(slow.pop_due(), None, "still backing off");
        }

        #[test]
        fn dropping_the_fleet_kills_and_reaps_its_workers() {
            let (mut fleet, rx) = new_fleet(no_backoff());
            fleet
                .spawn(1, Some(sh_worker()), "echo \"heartbeat $$\"; exec sleep 30", None)
                .expect("spawns");
            let (_, Some(line)) = rx.recv_timeout(Duration::from_secs(30)).expect("pid line")
            else {
                panic!("expected the pid heartbeat");
            };
            let Some(WorkerLine::Heartbeat(pid)) = WorkerLine::parse(&line) else {
                panic!("expected the pid heartbeat, got {line:?}");
            };
            assert!(Path::new(&format!("/proc/{pid}")).exists());
            drop(fleet);
            assert!(
                !Path::new(&format!("/proc/{pid}")).exists(),
                "worker {pid} outlived its fleet"
            );
        }
    }
}
