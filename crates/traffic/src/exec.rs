//! The supervised campaign executor: crash isolation, deadlines, seeded
//! retry/backoff, and quarantine-with-partial-results.
//!
//! [`run_campaign_resumable`](crate::run_campaign_resumable) survives kills
//! *between* invocations; the [`Executor`] hardens the invocation itself.
//! Every trial runs as a supervised job bounded by a wall-clock deadline
//! and a sim-cycle budget (a cooperative [`CancelToken`] checked inside the
//! cluster's step loop). A trial that fails — cancellation, a panic, a
//! sanitizer violation, or (in isolation mode) a crashed worker process —
//! is retried from its last checkpoint with seeded exponential backoff;
//! a trial that fails deterministically (two consecutive identical
//! failures, or the attempt budget) is *quarantined*: the campaign records
//! a placeholder outcome and keeps going instead of aborting, so a
//! multi-hour campaign always produces a complete manifest.
//!
//! With [`ExecutorConfig::isolate`] set, trials run in child worker
//! processes (the hidden `worker` subcommand, one trial each) under
//! a [`Fleet`]: a panic, abort, OOM-kill, or stray `SIGKILL` in one trial
//! is classified (`panic|signal|timeout|oom|exit`) without taking down the
//! campaign. `N` workers shard trials in parallel; the manifest stays the
//! single source of truth, appended strictly in seed order.

use crate::campaign::{
    append_trial, open_manifest, parse_trial_line, run_trial_supervised, sibling_path,
    CampaignConfig, CampaignError, CampaignReport, Trial, TrialStop, TrialSupervision,
};
use crate::supervise::{worker_job, Fleet, Outcome, RetryPolicy, Verdict};
use crate::{FailureKind, TrialFailure};
use mempool::json::{Fields, Obj};
use mempool::{CancelToken, ClusterConfig, SanitizerConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A trial the executor gave up on, with its full failure history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedTrial {
    /// The quarantined trial's seed.
    pub seed: u64,
    /// Every failed attempt, in order.
    pub failures: Vec<TrialFailure>,
}

/// Supervision policy of the [`Executor`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Wall-clock deadline per trial attempt (`None` = unbounded). In
    /// isolation mode the parent enforces it by killing the worker; in
    /// process the cancellation token trips cooperatively.
    pub deadline: Option<Duration>,
    /// Absolute sim-cycle budget per trial (`None` = unbounded). Enforced
    /// cooperatively in both modes; deterministic, so a budget overrun
    /// quarantines after two attempts.
    pub cycle_budget: Option<u64>,
    /// Attempt budget and seeded backoff between a trial's attempts;
    /// giving up quarantines the trial.
    pub retry: RetryPolicy,
    /// Mid-trial checkpoint interval in cycles (`0` disables, so every
    /// retry replays the trial from the start).
    pub checkpoint_every: u64,
    /// `Some(n)`: run each trial in a child worker process, `n` at a time.
    /// `None`: run trials in this process, sequentially.
    pub isolate: Option<usize>,
    /// Worker binary for isolation mode (`None` = this executable, which
    /// must understand the `worker` subcommand).
    pub worker_cmd: Option<PathBuf>,
    /// Opaque cluster-config spec passed verbatim to workers in the job
    /// spec; the binary hosting the worker subcommand interprets it.
    pub config_spec: String,
    /// Attach the invariant sanitizer to every trial; a dirty report is a
    /// retryable (then quarantinable) failure.
    pub sanitize: Option<SanitizerConfig>,
    /// Test hook: pre-attempt fault injection. `f(seed, attempt)` returning
    /// `true` fails that attempt as a synthetic panic without running it.
    #[doc(hidden)]
    pub inject_failure: Option<fn(u64, u32) -> bool>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            deadline: None,
            cycle_budget: None,
            retry: RetryPolicy::default(),
            checkpoint_every: 4_096,
            isolate: None,
            worker_cmd: None,
            config_spec: String::new(),
            sanitize: None,
            inject_failure: None,
        }
    }
}

/// A campaign as it travels to a worker process: the `campaign` job of the
/// `mempool-serve` protocol and — with a `trial` field beside it — one
/// isolated trial of an [`Executor`]. The document is rendered and parsed
/// here only.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Opaque cluster-config spec.
    pub config_spec: String,
    /// Fault intensity, in `FaultSpec` form (`bank_fail=1,link_drop=0.001`).
    pub faults: String,
    /// Number of trials.
    pub trials: u32,
    /// Offered load per core.
    pub load: f64,
    /// Traffic pattern, in [`Pattern::to_spec`](crate::Pattern::to_spec) form.
    pub pattern: String,
    /// Warmup window of each trial, in cycles.
    pub warmup: u64,
    /// Measurement window of each trial, in cycles.
    pub measure: u64,
    /// Drain budget of each trial, in cycles.
    pub drain: u64,
    /// First trial seed.
    pub seed: u64,
    /// Mid-trial checkpoint interval in cycles.
    pub checkpoint_every: u64,
    /// Per-trial sim-cycle budget enforced via `CancelToken` (`None` =
    /// unbounded).
    pub cycle_budget: Option<u64>,
}

impl CampaignSpec {
    /// Writes the spec's fields, `kind` first.
    pub fn write_fields<'a>(&self, o: Obj<'a>) -> Obj<'a> {
        o.str("kind", "campaign")
            .str("config_spec", &self.config_spec)
            .str("faults", &self.faults)
            .num("trials", self.trials)
            .num("load", self.load)
            .str("pattern", &self.pattern)
            .num("warmup", self.warmup)
            .num("measure", self.measure)
            .num("drain", self.drain)
            .num("seed", self.seed)
            .num("checkpoint_every", self.checkpoint_every)
            .opt_num("cycle_budget", self.cycle_budget)
    }

    /// Reads the spec back from a job document's fields.
    ///
    /// # Errors
    ///
    /// The first missing or mistyped field.
    pub fn from_fields(fields: &Fields) -> Result<CampaignSpec, String> {
        Ok(CampaignSpec {
            config_spec: fields.str("config_spec")?.to_owned(),
            faults: fields.str("faults")?.to_owned(),
            trials: fields.int("trials")?,
            load: fields.f64("load")?,
            pattern: fields.str("pattern")?.to_owned(),
            warmup: fields.int("warmup")?,
            measure: fields.int("measure")?,
            drain: fields.int("drain")?,
            seed: fields.int("seed")?,
            checkpoint_every: fields.int("checkpoint_every")?,
            cycle_budget: fields.opt_int("cycle_budget")?,
        })
    }
}

/// Result of a supervised campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorReport {
    /// The campaign report (quarantined trials appear as
    /// [`TrialOutcome::Quarantined`](crate::TrialOutcome::Quarantined)
    /// placeholders).
    pub report: CampaignReport,
    /// Trials recovered from the manifest rather than re-run.
    pub resumed_trials: u32,
    /// Trials recorded by this invocation (completed or quarantined).
    pub new_trials: u32,
    /// Failed attempts that were retried (quarantines not included).
    pub retries: u64,
    /// Full failure history of every quarantined trial.
    pub quarantined: Vec<QuarantinedTrial>,
    /// The run stopped early on the interrupt flag (manifest and
    /// checkpoint flushed; re-running resumes exactly where it stopped).
    pub interrupted: bool,
}

/// The supervised campaign executor. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Cluster configuration of every trial.
    pub config: ClusterConfig,
    /// The campaign being executed.
    pub campaign: CampaignConfig,
    /// Supervision policy.
    pub exec: ExecutorConfig,
}

impl Executor {
    /// Creates an executor over `config`/`campaign` with policy `exec`.
    pub fn new(config: ClusterConfig, campaign: CampaignConfig, exec: ExecutorConfig) -> Executor {
        Executor {
            config,
            campaign,
            exec,
        }
    }

    /// Runs (or resumes) the campaign against `manifest`. `interrupt` is an
    /// optional flag (typically raised by a SIGINT/SIGTERM handler): when
    /// set, the executor flushes the current trial checkpoint and manifest
    /// line and returns with [`ExecutorReport::interrupted`].
    ///
    /// # Errors
    ///
    /// Configuration, I/O, and manifest errors. Trial failures are *not*
    /// errors — they are retried or quarantined.
    pub fn run(
        &self,
        manifest: &Path,
        interrupt: Option<&AtomicBool>,
    ) -> Result<ExecutorReport, CampaignError> {
        let (trials, mut file) = open_manifest(&self.config, &self.campaign, manifest)?;
        let mut out = ExecutorReport {
            resumed_trials: trials.len() as u32,
            report: CampaignReport {
                spec: self.campaign.spec,
                trials,
            },
            new_trials: 0,
            retries: 0,
            quarantined: Vec::new(),
            interrupted: false,
        };
        match self.exec.isolate {
            Some(n) => self.run_isolated(manifest, n.max(1), interrupt, &mut file, &mut out)?,
            None => self.run_in_process(manifest, interrupt, &mut file, &mut out)?,
        }
        out.new_trials = out.report.trials.len() as u32 - out.resumed_trials;
        Ok(out)
    }

    fn token(&self) -> Option<CancelToken> {
        if self.exec.deadline.is_none() && self.exec.cycle_budget.is_none() {
            return None;
        }
        let mut t = CancelToken::new();
        if let Some(d) = self.exec.deadline {
            t = t.with_wall_limit(d);
        }
        if let Some(b) = self.exec.cycle_budget {
            t = t.with_cycle_limit(b);
        }
        Some(t)
    }

    // -- in-process mode ---------------------------------------------------

    fn run_in_process(
        &self,
        manifest: &Path,
        interrupt: Option<&AtomicBool>,
        file: &mut std::fs::File,
        out: &mut ExecutorReport,
    ) -> Result<(), CampaignError> {
        let ckpt = sibling_path(manifest, ".ckpt");
        let is_set = |i: Option<&AtomicBool>| i.is_some_and(|f| f.load(Ordering::SeqCst));

        'trials: while out.report.trials.len() < self.campaign.trials as usize {
            if is_set(interrupt) {
                out.interrupted = true;
                break;
            }
            let seed = self.campaign.base_seed + out.report.trials.len() as u64;
            let mut failures: Vec<TrialFailure> = Vec::new();
            let finished = loop {
                let attempt = failures.len() as u32 + 1;
                if is_set(interrupt) {
                    out.interrupted = true;
                    break 'trials;
                }
                let (kind, detail) = if self.exec.inject_failure.is_some_and(|f| f(seed, attempt)) {
                    (FailureKind::Panic, "injected failure".to_owned())
                } else {
                    match self.attempt_in_process(seed, &ckpt, interrupt) {
                        Ok(Ok(Ok(trial))) => break Some(trial),
                        Ok(Ok(Err(TrialStop::Interrupted))) => {
                            out.interrupted = true;
                            break 'trials;
                        }
                        Ok(Ok(Err(stop @ TrialStop::Cancelled(_)))) => {
                            (FailureKind::Timeout, stop.to_string())
                        }
                        Ok(Ok(Err(TrialStop::Sanitizer(what)))) => (FailureKind::Sanitizer, what),
                        Ok(Err(
                            e @ (CampaignError::CheckpointCorrupt(_)
                            | CampaignError::CheckpointMismatch),
                        )) => {
                            // Self-heal: a bad checkpoint (e.g. left behind
                            // by a crashed attempt) costs a replay, not the
                            // campaign.
                            let _ = std::fs::remove_file(&ckpt);
                            (FailureKind::Exit(1), e.to_string())
                        }
                        Ok(Err(e)) => return Err(e),
                        Err(panic) => (FailureKind::Panic, panic),
                    }
                };
                failures.push(TrialFailure {
                    attempt,
                    kind,
                    detail,
                });
                if self.exec.retry.give_up(&failures) {
                    break None;
                }
                out.retries += 1;
                let delay = self.exec.retry.delay(seed, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            };
            let trial = match finished {
                Some(t) => t,
                None => {
                    let _ = std::fs::remove_file(&ckpt);
                    let attempts = failures.len() as u64;
                    out.quarantined.push(QuarantinedTrial { seed, failures });
                    Trial::quarantined(seed, attempts)
                }
            };
            append_trial(file, &trial)?;
            out.report.trials.push(trial);
        }
        Ok(())
    }

    /// One in-process attempt; the outer `Err` is a caught panic message.
    #[allow(clippy::type_complexity)]
    fn attempt_in_process(
        &self,
        seed: u64,
        ckpt: &Path,
        interrupt: Option<&AtomicBool>,
    ) -> Result<Result<Result<Trial, TrialStop>, CampaignError>, String> {
        let sup = TrialSupervision {
            cancel: self.token(),
            interrupt,
            heartbeat: None,
            sanitize: self.exec.sanitize,
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_trial_supervised(
                self.config,
                &self.campaign,
                seed,
                ckpt,
                self.exec.checkpoint_every,
                sup,
            )
        }))
        .map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "opaque panic payload".to_owned()
            }
        })
    }

    // -- isolation mode ----------------------------------------------------

    fn run_isolated(
        &self,
        manifest: &Path,
        workers: usize,
        interrupt: Option<&AtomicBool>,
        file: &mut std::fs::File,
        out: &mut ExecutorReport,
    ) -> Result<(), CampaignError> {
        let trials = &mut out.report.trials;
        let total = self.campaign.trials as usize;
        let base = self.campaign.base_seed;
        let ckpt = |seed: u64| sibling_path(manifest, &format!(".ckpt.{seed}"));
        let mut next_fresh = trials.len();
        let mut ready: BTreeMap<u64, Trial> = BTreeMap::new();
        // Seeds whose worker parked on a signal nobody here sent: resumed
        // from the checkpoint without counting a failure.
        let mut parked: Vec<u64> = Vec::new();
        let (events_tx, events) = mpsc::channel::<(u64, Option<String>)>();
        // Dropped on every way out of this function, which kills and reaps
        // whatever is still running.
        let mut fleet = Fleet::new(self.exec.retry.clone(), events_tx);

        while trials.len() < total {
            if interrupt.is_some_and(|f| f.load(Ordering::SeqCst)) {
                out.interrupted = true;
                break;
            }

            // Fill free worker slots: resumes and due retries first, then
            // fresh seeds.
            while fleet.running() < workers {
                let seed = match parked.pop().or_else(|| fleet.pop_due()) {
                    Some(seed) => seed,
                    None if next_fresh < total => {
                        next_fresh += 1;
                        base + next_fresh as u64 - 1
                    }
                    None => break,
                };
                let job = self.trial_job(seed, &ckpt(seed));
                let cmd = self.exec.worker_cmd.as_deref();
                fleet.spawn(seed, cmd, &job, self.exec.deadline)?;
            }

            // Heartbeats only feed the failure detail here; nothing to report.
            if let Ok((seed, event)) = events.recv_timeout(fleet.poll_interval()) {
                fleet.observe(seed, event);
                while let Ok((seed, event)) = events.try_recv() {
                    fleet.observe(seed, event);
                }
            }
            for (seed, outcome) in fleet.tick().reaped {
                let (kind, detail) = match outcome {
                    Outcome::Parked => {
                        parked.push(seed);
                        continue;
                    }
                    Outcome::Result(line) => match parse_trial_line(&line) {
                        Some(trial) => {
                            fleet.forget(seed);
                            ready.insert(seed, trial);
                            continue;
                        }
                        None => (
                            FailureKind::Exit(0),
                            format!("unparsable result line: {line}"),
                        ),
                    },
                    Outcome::Failed(kind, detail) => (kind, detail),
                };
                match fleet.fail(seed, kind, detail) {
                    Verdict::Retry(_) => out.retries += 1,
                    Verdict::GiveUp(failures) => {
                        let _ = std::fs::remove_file(ckpt(seed));
                        ready.insert(seed, Trial::quarantined(seed, failures.len() as u64));
                        out.quarantined.push(QuarantinedTrial { seed, failures });
                    }
                }
            }

            // Flush completed trials to the manifest strictly in seed order.
            while let Some(t) = ready.remove(&(base + trials.len() as u64)) {
                append_trial(file, &t)?;
                trials.push(t);
            }
        }
        Ok(())
    }

    /// The campaign in its wire form.
    fn campaign_spec(&self) -> CampaignSpec {
        let campaign = &self.campaign;
        CampaignSpec {
            config_spec: self.exec.config_spec.clone(),
            faults: campaign.spec.to_string(),
            trials: campaign.trials,
            load: campaign.load,
            pattern: campaign.pattern.to_spec(),
            warmup: campaign.windows.warmup,
            measure: campaign.windows.measure,
            drain: campaign.windows.drain,
            seed: campaign.base_seed,
            checkpoint_every: self.exec.checkpoint_every,
            cycle_budget: self.exec.cycle_budget,
        }
    }

    /// The job document of one isolated trial, a single JSON line: the
    /// `campaign` job a daemon's worker takes, pinned by its `trial` field
    /// to the one trial `seed` (whose manifest line is then the result).
    /// `config_spec` travels verbatim; the binary hosting the `worker`
    /// subcommand both rendered it and parses it back.
    fn trial_job(&self, seed: u64, checkpoint: &Path) -> String {
        worker_job(
            |o| o,
            checkpoint,
            |o| {
                let o = self.campaign_spec().write_fields(o);
                o.num("trial", seed)
                    .bool("sanitize", self.exec.sanitize.is_some())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_job_parses_back_to_the_campaign_it_was_rendered_from() {
        let campaign = CampaignConfig {
            trials: 4,
            base_seed: 11,
            load: 0.3,
            ..CampaignConfig::default()
        };
        let exec = ExecutorConfig {
            config_spec: "topology=topH,small=true,scramble=\"odd\\one\"".to_owned(),
            cycle_budget: Some(1_000_000),
            sanitize: Some(SanitizerConfig::default()),
            ..ExecutorConfig::default()
        };
        let config = ClusterConfig::small(mempool::Topology::TopH);
        let mut executor = Executor::new(config, campaign, exec);
        for budget in [Some(1_000_000), None] {
            executor.exec.cycle_budget = budget;
            let line = executor.trial_job(13, Path::new("/tmp/weird \"path\"\\x.ckpt"));
            assert!(!line.contains('\n'));
            let fields = Fields::parse(&line).expect("flat JSON");
            assert_eq!(fields.str("kind"), Ok("campaign"));
            assert_eq!(fields.str("checkpoint"), Ok("/tmp/weird \"path\"\\x.ckpt"));
            assert_eq!(fields.int::<u64>("trial"), Ok(13));
            assert_eq!(fields.bool("sanitize"), Ok(true));
            // What the worker reads is what the executor meant.
            let parsed = CampaignSpec::from_fields(&fields).expect("campaign fields");
            assert_eq!(parsed, executor.campaign_spec());
            assert_eq!((parsed.seed, parsed.trials, parsed.cycle_budget), (11, 4, budget));
            assert_eq!(parsed.faults.parse(), Ok(executor.campaign.spec));
            assert_eq!(crate::Pattern::parse_spec(&parsed.pattern), Some(executor.campaign.pattern));
        }
        let line = executor.trial_job(13, Path::new("c"));
        let edited = |from: &str, to: &str| {
            assert!(line.contains(from), "{line}");
            CampaignSpec::from_fields(&Fields::parse(&line.replace(from, to)).expect("flat JSON"))
        };
        assert_eq!(
            edited("\"drain\":", "\"drained\":"),
            Err("missing field `drain`".to_owned())
        );
        // 2^32 + 1 is no trial count: read as a `u32` it would be one.
        assert_eq!(
            edited("\"trials\":4,", "\"trials\":4294967297,"),
            Err("field `trials` is not a u32".to_owned())
        );
        assert!(
            edited("\"trials\":4,", "\"trials\":\"4\",").is_err(),
            "a number, not a string"
        );
    }
}
