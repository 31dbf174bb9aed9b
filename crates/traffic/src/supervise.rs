//! The one process supervisor of the suite: the [`Fleet`] of crash-isolated
//! worker processes, the [`WorkerLine`] protocol they speak on stdout, the
//! failure classification and seeded retry/backoff policy applied to them,
//! the job document a worker reads ([`worker_job`]), the opaque
//! cluster-config spec exchanged between supervisors and workers, and the
//! signal and `poll` hookup ([`sig`]). The JSON itself is `mempool::json`'s.
//!
//! `campaign --isolate` ([`Executor`](crate::Executor)) and the
//! `mempool-serve` daemon are both thin drivers of a [`Fleet`]: it lives
//! here — below both — so there is one spawn / deadline-kill / reap /
//! classify / back-off / give-up machine, not two that drift apart.

use mempool::json::{self, Fields, Layout, Obj};
use mempool::{ClusterConfig, Topology};
use mempool_rng::{Rng, SeedableRng, StdRng};
use sig::PollFd;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
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

/// Raw POSIX signal and descriptor hookup. No signal or poll crate is
/// available, so this is the one place the suite declares `signal(2)`,
/// `kill(2)` and `poll(2)`. Elsewhere than on Unix the flag is simply never
/// raised and nothing is signalled.
pub mod sig {
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Raised by `SIGINT`/`SIGTERM` once [`install`] has run: the daemon's
    /// drain trigger, a campaign's interrupt flag, a worker's park trigger.
    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;
    const POLLNVAL: i16 = 0x20;

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn kill(pid: i32, sig: i32) -> i32;
        #[link_name = "poll"]
        fn sys_poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
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

    /// One descriptor of a [`poll`] set: `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        /// Watches `fd` for input (`read`), for room to write (`write`),
        /// and, always, for a hang-up or an error.
        pub fn new(fd: &impl AsRawFd, read: bool, write: bool) -> PollFd {
            let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
            PollFd {
                fd: fd.as_raw_fd(),
                events,
                revents: 0,
            }
        }

        /// The descriptor watched.
        pub fn fd(&self) -> RawFd {
            self.fd
        }

        /// A read would not block: input, end of input, or an error.
        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLHUP | POLLERR) != 0
        }

        /// A write would not block.
        pub fn writable(&self) -> bool {
            self.revents & POLLOUT != 0
        }

        /// The peer hung up, or the descriptor is in error.
        pub fn hung_up(&self) -> bool {
            self.revents & (POLLHUP | POLLERR | POLLNVAL) != 0
        }
    }

    /// Blocks until some descriptor of `fds` is ready or `timeout` (rounded
    /// up to a millisecond) passes; returns how many are ready. A signal
    /// ends the wait early as [`io::ErrorKind::Interrupted`], so that the
    /// caller looks at [`INTERRUPTED`] at once.
    ///
    /// # Errors
    ///
    /// `poll(2)`'s: `EINTR` as above, `ENOMEM`.
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        // SAFETY: `poll` is libc's, declared with its C signature.
        // `PollFd` is `#[repr(C)]` with `struct pollfd`'s fields in order,
        // and the pointer and length come from one live, exclusively
        // borrowed slice, which `poll` only writes `revents` of.
        let ready = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if ready < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(ready as usize)
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
    /// the job's result document; `key` is `"cycle"` or `"trials"`. Without
    /// `doc` it is the marker a worker prints where it would have rendered
    /// a snapshot nobody was [`watching`](Fleet::watch).
    Metrics {
        /// What `at` counts.
        key: &'static str,
        /// Progress when the snapshot was taken.
        at: u64,
        /// The snapshot document; `None` for the marker.
        doc: Option<String>,
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
                let line = json::object(Layout::Compact, |o| {
                    let o = o.num(key, at);
                    match doc {
                        Some(doc) => o.str("doc", doc),
                        None => o,
                    }
                });
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
    /// metrics object, empty result). A `result` payload keeps the line's
    /// own buffer, so a finished job's ≈ 80 KB document is not copied.
    pub fn parse(mut line: String) -> Option<WorkerLine> {
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
                let doc = match fields.get("doc") {
                    Some(_) => Some(fields.str("doc").ok()?.to_owned()),
                    None => None,
                };
                Some(WorkerLine::Metrics {
                    key,
                    at: fields.int(key).ok()?,
                    doc,
                })
            }
            "result" if !rest.is_empty() => {
                // `rest` is the end of the trimmed `line`; keep just that.
                let end = line.trim_end().len();
                let start = end - rest.len();
                line.truncate(end);
                line.drain(..start);
                Some(WorkerLine::Result(line))
            }
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

/// Bytes one `read` of a worker's stdout pipe takes at most.
const READ_CHUNK: usize = 64 * 1024;

struct Worker {
    child: Child,
    /// Open after the job document until [`Fleet::watch`] writes its one
    /// line and closes it.
    stdin: Option<ChildStdin>,
    /// Open until its end is read.
    stdout: Option<ChildStdout>,
    /// What stdout printed after its last line break.
    partial: Vec<u8>,
    deadline: Option<Instant>,
    killed_for_deadline: bool,
    /// `Some(n)` once stdout closed: `n` ticks since found it still running.
    lingered: Option<u32>,
    last_heartbeat: Option<u64>,
    /// The `parked`, `result` or `stopped` line, if one was printed.
    verdict: Option<WorkerLine>,
    error: Option<String>,
}

/// A line as the worker printed it, line break included; invalid UTF-8
/// is replaced, not refused.
fn text(line: Vec<u8>) -> String {
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

impl Worker {
    fn watch(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            // A worker that already exited is reaped like any other.
            let _ = stdin.write_all(b"watch\n");
        }
    }

    /// One `read` of a stdout pipe that polled readable, so it does not
    /// block: the lines it completes, in order, and at the end of stdout
    /// an unterminated last line.
    fn read(&mut self) -> Vec<String> {
        let Some(stdout) = &mut self.stdout else {
            return Vec::new();
        };
        let filled = self.partial.len();
        self.partial.resize(filled + READ_CHUNK, 0);
        let n = match stdout.read(&mut self.partial[filled..]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                self.partial.truncate(filled);
                return Vec::new();
            }
            // An error ends stdout as its end does.
            read => read.unwrap_or(0),
        };
        self.partial.truncate(filled + n);
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(at) = self.partial[start..].iter().position(|&b| b == b'\n') {
            let end = start + at + 1;
            if start == 0 && end == self.partial.len() {
                // The common case, a ≈ 80 KB result among them: the whole
                // buffer is one line, handed over without a copy.
                lines.push(text(std::mem::take(&mut self.partial)));
                return lines;
            }
            lines.push(text(self.partial[start..end].to_vec()));
            start = end;
        }
        self.partial.drain(..start);
        if n == 0 {
            self.stdout = None;
            self.lingered = Some(0);
            if !self.partial.is_empty() {
                lines.push(text(std::mem::take(&mut self.partial)));
            }
        }
        lines
    }

    /// Takes in one stdout line. Progress lines (`heartbeat`, `metrics`)
    /// are handed back for the driver to report; the others feed the
    /// attempt's [`Outcome`]; a line outside the [`WorkerLine`] grammar is
    /// dropped and counted in `rejected`.
    fn observe(&mut self, line: String, rejected: &mut u64) -> Option<WorkerLine> {
        match WorkerLine::parse(line) {
            Some(WorkerLine::Heartbeat(cycle)) => {
                self.last_heartbeat = Some(cycle);
                return Some(WorkerLine::Heartbeat(cycle));
            }
            Some(progress @ WorkerLine::Metrics { .. }) => return Some(progress),
            Some(WorkerLine::Error(detail)) => self.error = Some(detail),
            Some(verdict) => self.verdict = Some(verdict),
            None => *rejected += 1,
        }
        None
    }

    fn outcome(self, status: io::Result<ExitStatus>) -> Outcome {
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
/// jitter). The fleet owns the children, their stdout pipes, each key's
/// failure history and the retries waiting out their backoff; the driver
/// owns scheduling and everything it reports.
///
/// No thread reads a pipe. A driver that waits on nothing else calls
/// [`Fleet::wait`]; one that polls descriptors of its own (the daemon's
/// sockets) adds the pipes to its set with [`Fleet::poll_fds`] and hands
/// the result to [`Fleet::read_ready`]. Either way the progress lines come
/// back, and the driver calls [`Fleet::tick`] at least every
/// [`Fleet::poll_interval`].
///
/// Dropping the fleet `SIGKILL`s and reaps every worker it still owns, and
/// reports on stderr how many stdout lines it rejected, if any.
pub struct Fleet {
    policy: RetryPolicy,
    workers: BTreeMap<u64, Worker>,
    failures: BTreeMap<u64, Vec<TrialFailure>>,
    retry_at: Vec<(Instant, u64)>,
    rejected_lines: u64,
}

impl Fleet {
    /// An empty fleet retrying under `policy`.
    pub fn new(policy: RetryPolicy) -> Fleet {
        Fleet {
            policy,
            workers: BTreeMap::new(),
            failures: BTreeMap::new(),
            retry_at: Vec::new(),
            rejected_lines: 0,
        }
    }

    /// Starts `<cmd> worker` (`None` = this executable) for `key`, writes
    /// the one-line `job` document to its stdin, and bounds the attempt by
    /// `deadline` of wall-clock time. Stdin stays open for [`Fleet::watch`].
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
        let mut stdin = child.stdin.take();
        if let Some(stdin) = &mut stdin {
            // A worker that dies before reading its job must not take the
            // driver down with a broken pipe; its exit status covers it.
            // One write, so that the worker never waits mid-document for a
            // supervisor descheduled between two.
            let _ = stdin.write_all(format!("{job}\n").as_bytes());
        }
        let worker = Worker {
            stdout: child.stdout.take(),
            child,
            stdin,
            partial: Vec::new(),
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

    /// Adds to `fds` a read entry for every stdout pipe still open.
    pub fn poll_fds(&self, fds: &mut Vec<PollFd>) {
        let pipes = self.workers.values().filter_map(|w| w.stdout.as_ref());
        fds.extend(pipes.map(|pipe| PollFd::new(pipe, true, false)));
    }

    /// Reads every stdout pipe that `fds` (polled after
    /// [`Fleet::poll_fds`]; other descriptors are passed over) reports
    /// readable, once each. Returns the progress lines (`heartbeat`,
    /// `metrics`) by key, in the order printed; the other lines feed the
    /// attempt's [`Outcome`], and a line outside the [`WorkerLine`]
    /// grammar is dropped and counted. At the end of a pipe an
    /// unterminated last line still counts.
    pub fn read_ready(&mut self, fds: &[PollFd]) -> Vec<(u64, WorkerLine)> {
        let mut progress = Vec::new();
        for fd in fds.iter().filter(|fd| fd.readable()) {
            let ready = self.workers.iter_mut().find(|(_, w)| {
                w.stdout.as_ref().is_some_and(|pipe| pipe.as_raw_fd() == fd.fd())
            });
            let Some((&key, worker)) = ready else {
                continue;
            };
            for line in worker.read() {
                if let Some(line) = worker.observe(line, &mut self.rejected_lines) {
                    progress.push((key, line));
                }
            }
        }
        progress
    }

    /// [`Fleet::read_ready`] after polling the fleet's own pipes for up to
    /// [`Fleet::poll_interval`] (less, if a signal arrives): the loop of a
    /// driver that waits on nothing else.
    pub fn wait(&mut self) -> Vec<(u64, WorkerLine)> {
        let mut fds = Vec::new();
        self.poll_fds(&mut fds);
        // An interrupted wait reports nothing ready.
        let _ = sig::poll(&mut fds, self.poll_interval());
        self.read_ready(&fds)
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

    /// How long a driver may wait before the next [`Fleet::tick`]: the
    /// deadline and backoff granularity. Stdout closes a moment before the
    /// process can be reaped, so a worker seen in between is looked at
    /// again within 100 µs (a millisecond, as `poll` rounds it), doubling
    /// while it lingers.
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

    /// Tells `key`'s worker that its partial snapshots are taken: writes
    /// the `watch` line to its stdin and closes it, so an attempt is told
    /// at most once. From its next checkpoint on the worker prints
    /// `metrics` lines with their document instead of the bare marker.
    pub fn watch(&mut self, key: u64) {
        if let Some(worker) = self.workers.get_mut(&key) {
            worker.watch();
        }
    }

    /// [`Fleet::watch`] for every live worker (a `tail` subscribed).
    pub fn watch_all(&mut self) {
        self.workers.values_mut().for_each(Worker::watch);
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

impl Drop for Fleet {
    fn drop(&mut self) {
        // `Child`'s own drop neither kills nor reaps: without this, an
        // error return in the driver would orphan workers that keep
        // rewriting checkpoints under a run that already reported failure.
        for worker in self.workers.values_mut() {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
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
/// A description of the first malformed entry: no `=`, an unknown or
/// repeated key, an unknown topology, a flag that is not `true`/`false`;
/// or a spec without a topology.
pub fn parse_config_spec(spec: &str) -> Result<ClusterConfig, String> {
    fn once<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), String> {
        match slot.replace(value) {
            Some(_) => Err(format!("config spec repeats `{key}`")),
            None => Ok(()),
        }
    }
    let (mut topology, mut small, mut scramble) = (None, None, None);
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad config spec entry `{part}`"))?;
        let flag = || match value {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(format!("config spec `{key}` is `{value}`, not true or false")),
        };
        match key {
            "topology" => once(&mut topology, key, value.parse()?)?,
            "small" => once(&mut small, key, flag()?)?,
            "scramble" => once(&mut scramble, key, flag()?)?,
            other => return Err(format!("unknown config spec key `{other}`")),
        }
    }
    let topology = topology.ok_or_else(|| "config spec lacks a topology".to_owned())?;
    let mut config = build_config(topology, small.unwrap_or(false), scramble.unwrap_or(true));
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

    /// A flag is `true` or `false`, and a key is given once: nothing else
    /// is read as `false` or silently overrides an earlier entry.
    #[test]
    fn config_spec_rejects_lenient_flags_and_repeated_keys() {
        for (spec, why) in [
            ("topology=top1,small=yes", "config spec `small` is `yes`, not true or false"),
            ("topology=top1,scramble=1", "config spec `scramble` is `1`, not true or false"),
            ("topology=top1,small=", "config spec `small` is ``, not true or false"),
            ("topology=top1,small=True", "config spec `small` is `True`, not true or false"),
            ("topology=top1,small=true,small=false", "config spec repeats `small`"),
            ("topology=top1,scramble=true,scramble=true", "config spec repeats `scramble`"),
            ("topology=top1,topology=topH", "config spec repeats `topology`"),
        ] {
            assert_eq!(parse_config_spec(spec).err().as_deref(), Some(why), "{spec}");
        }
        // Defaults stand for missing flags; order is free.
        assert_eq!(
            parse_config_spec("scramble=false,topology=top4"),
            parse_config_spec("topology=top4,small=false,scramble=false")
        );
    }

    /// Seeded corpus over the 16 rendered specs: truncations, splices of
    /// separators, keys and values, and raw byte edits. Every case is an
    /// `Err` or one of the 16 canonical configs, never a panic.
    #[test]
    fn config_spec_parser_answers_a_seeded_corpus_with_an_error_or_a_canonical_config() {
        let mut canonical = Vec::new();
        for topology in [Topology::Ideal, Topology::Top1, Topology::Top4, Topology::TopH] {
            for small in [false, true] {
                for scramble in [false, true] {
                    let spec = render_config_spec(topology, small, scramble);
                    let config = parse_config_spec(&spec).expect("a rendered spec parses");
                    canonical.push((spec, config));
                }
            }
        }
        let splices = [
            ",", "=", ",,", "small=", "=true", "true", "false", "topology=", "topH", "scramble",
            " ", "\u{0}", "é", "small=false,", ",topology=top1",
        ];
        let mut rng = StdRng::seed_from_u64(0x636f_6e66_6967);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..3_000 {
            let mut bytes = canonical[rng.gen_range(0..canonical.len())].0.clone().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len() + 1);
                match rng.gen_range(0..4u32) {
                    0 => bytes.truncate(at),
                    1 => {
                        let splice = splices[rng.gen_range(0..splices.len())].bytes();
                        bytes.splice(at..at, splice);
                    }
                    2 if at < bytes.len() => bytes[at] = rng.gen_range(0..256u32) as u8,
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            match parse_config_spec(&text) {
                Ok(config) => {
                    accepted += 1;
                    assert!(
                        canonical.iter().any(|(_, c)| *c == config),
                        "{text:?} parsed to a config no rendered spec gives"
                    );
                }
                Err(why) => {
                    rejected += 1;
                    assert!(!why.is_empty(), "{text:?}");
                }
            }
        }
        assert!(accepted > 25 && rejected > 1_000, "{accepted} accepted, {rejected} rejected");
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
                doc: Some(
                    "{\n  \"schema\": \"mempool-metrics-v2\", \"q\": \"a\\\"b,c\"\n}\n".to_owned(),
                ),
            },
            WorkerLine::Metrics {
                key: "trials",
                at: 3,
                doc: Some(String::new()),
            },
            WorkerLine::Metrics {
                key: "cycle",
                at: 256,
                doc: None,
            },
            WorkerLine::Metrics {
                key: "trials",
                at: 0,
                doc: None,
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
            assert_eq!(WorkerLine::parse(text.clone()), Some(line), "{text:?}");
        }
        // A line read off the pipe still carries its line ending.
        assert_eq!(
            WorkerLine::parse("heartbeat 512\r\n".to_owned()),
            Some(WorkerLine::Heartbeat(512))
        );
        let payload = WorkerLine::Result("{\"é\":1} x".to_owned());
        assert_eq!(
            WorkerLine::parse("result  {\"é\":1} x \r\n".to_owned()),
            Some(payload)
        );
        // The marker is the snapshot line without its document.
        let marker = WorkerLine::Metrics { key: "cycle", at: 512, doc: None };
        assert_eq!(marker.to_string(), "metrics {\"cycle\":512}");
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
            "metrics {\"doc\":\"x\"}",
            "metrics {\"cycle\":1,\"doc\":null}",
            "metrics {\"trials\":1,\"doc\":7}",
            "metrics {}",
            "metrics {\"cycle\":1,\"trials\":2,\"doc\":\"x\"}",
            "metrics {\"cycle\":\"1,\\\"final\\\":true\",\"doc\":\"x\"}",
            "Heartbeat 5",
        ] {
            assert_eq!(WorkerLine::parse(garbage.to_owned()), None, "{garbage:?}");
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
            if let Some(line) = WorkerLine::parse(text.to_string()) {
                typed += 1;
                let rendered = line.to_string();
                assert!(!rendered.contains('\n'), "{text:?} -> {rendered:?}");
                let again = WorkerLine::parse(rendered.clone()).map(|l| l.to_string());
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

        fn no_backoff() -> RetryPolicy {
            RetryPolicy {
                backoff_base_ms: 0,
                ..RetryPolicy::default()
            }
        }

        /// Drives the fleet the way a driver does until one worker is reaped.
        fn reap_one(fleet: &mut Fleet) -> (u64, Outcome) {
            let started = Instant::now();
            loop {
                fleet.wait();
                if let Some(reaped) = fleet.tick().reaped.pop() {
                    return reaped;
                }
                assert!(started.elapsed() < Duration::from_secs(30), "worker never exited");
            }
        }

        fn run_one(shell: &str, deadline: Option<Duration>) -> Outcome {
            let mut fleet = Fleet::new(no_backoff());
            fleet.spawn(9, Some(sh_worker()), shell, deadline).expect("spawns");
            assert_eq!(fleet.running(), 1);
            let (key, outcome) = reap_one(&mut fleet);
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

        /// Stdin stays open after the job document until `watch` writes its
        /// one line and closes it; a second `watch` of the attempt writes
        /// nothing.
        #[test]
        fn watch_writes_one_line_then_closes_stdin() {
            let mut fleet = Fleet::new(no_backoff());
            let shell = "read -r w; read -r x || echo \"result $w then eof\"";
            fleet.spawn(6, Some(sh_worker()), shell, None).expect("spawns");
            fleet.watch(6);
            fleet.watch(6);
            fleet.watch(7); // no such worker
            let done = Outcome::Result("watch then eof".to_owned());
            assert_eq!(reap_one(&mut fleet), (6, done));
            // Unwatched, the worker's stdin is still open: it reads nothing.
            let shell = "read -r w; echo \"result $w\"";
            let deadline = Some(Duration::from_millis(300));
            fleet.spawn(8, Some(sh_worker()), shell, deadline).expect("spawns");
            let killed = "deadline exceeded (worker killed)".to_owned();
            let timeout = Outcome::Failed(FailureKind::Timeout, killed);
            assert_eq!(reap_one(&mut fleet), (8, timeout));
            // `watch_all` reaches every live worker.
            for key in [1, 2] {
                fleet.spawn(key, Some(sh_worker()), shell, None).expect("spawns");
            }
            fleet.watch_all();
            let mut reaped = [reap_one(&mut fleet), reap_one(&mut fleet)];
            reaped.sort_by_key(|(key, _)| *key);
            let watched = Outcome::Result("watch".to_owned());
            assert_eq!(reaped, [(1, watched.clone()), (2, watched)]);
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

        /// Every line comes back in order — progress lines to the driver,
        /// the rest into the outcome — and at the end of stdout an
        /// unterminated last line counts too, invalid UTF-8 replaced.
        #[test]
        fn delivers_every_line_before_the_eof_marker() {
            let mut fleet = Fleet::new(no_backoff());
            let shell = "i=0; while [ $i -lt 300 ]; do echo \"heartbeat $i\"; i=$((i+1)); done; \
                         echo junk; printf 'result done \\377'";
            fleet.spawn(4, Some(sh_worker()), shell, None).expect("spawns");
            let mut progress = Vec::new();
            let started = Instant::now();
            let outcome = loop {
                progress.extend(fleet.wait());
                if let Some(reaped) = fleet.tick().reaped.pop() {
                    break reaped;
                }
                assert!(started.elapsed() < Duration::from_secs(30), "worker never exited");
            };
            let heartbeats: Vec<_> = (0..300).map(|i| (4, WorkerLine::Heartbeat(i))).collect();
            assert_eq!(progress, heartbeats);
            assert_eq!(fleet.rejected_lines(), 1, "junk");
            assert_eq!(outcome, (4, Outcome::Result("done \u{fffd}".to_owned())));
        }

        /// A line longer than one `read` of the pipe, and lines that one
        /// `read` splits, arrive whole.
        #[test]
        fn a_line_longer_than_one_read_arrives_whole() {
            let shell = "i=0; while [ $i -lt 2000 ]; do printf 'heartbeat %s\\n' $i; i=$((i+1)); done; \
                         printf 'result '; head -c 150000 /dev/zero | tr '\\0' x; echo";
            let mut fleet = Fleet::new(no_backoff());
            fleet.spawn(2, Some(sh_worker()), shell, None).expect("spawns");
            let mut beats = 0;
            let started = Instant::now();
            let outcome = loop {
                for (_, line) in fleet.wait() {
                    assert_eq!(line, WorkerLine::Heartbeat(beats));
                    beats += 1;
                }
                if let Some(reaped) = fleet.tick().reaped.pop() {
                    break reaped;
                }
                assert!(started.elapsed() < Duration::from_secs(30), "worker never exited");
            };
            assert_eq!(beats, 2000);
            assert_eq!(outcome, (2, Outcome::Result("x".repeat(150_000))));
            assert_eq!(fleet.rejected_lines(), 0);
        }

        /// Runs `shells` as successive attempts of key 3; returns each verdict.
        fn verdicts(policy: &RetryPolicy, shells: &[&str]) -> Vec<Verdict> {
            let mut fleet = Fleet::new(policy.clone());
            shells
                .iter()
                .map(|shell| {
                    fleet.spawn(3, Some(sh_worker()), shell, None).expect("spawns");
                    let (_, Outcome::Failed(kind, detail)) = reap_one(&mut fleet) else {
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
            let mut fleet = Fleet::new(no_backoff());
            let fail = |fleet: &mut Fleet| fleet.fail(5, FailureKind::Exit(1), "x".to_owned());
            assert_eq!(fail(&mut fleet), Verdict::Retry(Duration::ZERO));
            assert!(fleet.awaiting_retry(5));
            assert_eq!((fleet.pop_due(), fleet.pop_due()), (Some(5), None));
            // A forgotten key starts over: its next failure is a first failure.
            fleet.forget(5);
            assert_eq!(fail(&mut fleet), Verdict::Retry(Duration::ZERO));
            fleet.forget(5);
            assert!(!fleet.awaiting_retry(5));

            let mut slow = Fleet::new(RetryPolicy::default());
            let Verdict::Retry(delay) = fail(&mut slow) else {
                panic!("a first failure is retried");
            };
            assert!(delay >= Duration::from_millis(50), "{delay:?}");
            assert_eq!(slow.pop_due(), None, "still backing off");
        }

        #[test]
        fn dropping_the_fleet_kills_and_reaps_its_workers() {
            let mut fleet = Fleet::new(no_backoff());
            fleet
                .spawn(1, Some(sh_worker()), "echo \"heartbeat $$\"; exec sleep 30", None)
                .expect("spawns");
            let started = Instant::now();
            let pid = loop {
                if let Some((_, WorkerLine::Heartbeat(pid))) = fleet.wait().pop() {
                    break pid;
                }
                assert!(started.elapsed() < Duration::from_secs(30), "no pid heartbeat");
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
