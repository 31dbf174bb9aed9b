//! The supervised campaign executor. [`Executor::run`] is the one function
//! that runs a campaign: each finished trial is a synced manifest line, so
//! a killed campaign resumes where it stopped, and each trial runs as a
//! supervised job bounded by a wall-clock deadline and a sim-cycle budget
//! (a cooperative [`CancelToken`] checked in the cluster's step loop). A
//! failed trial — cancelled, panicked, sanitizer-dirty, or (isolated) a
//! crashed worker — is retried from its last checkpoint with seeded
//! backoff; one that fails deterministically (twice identically, or past
//! the attempt budget) is *quarantined*: the campaign records a placeholder
//! and goes on, so it always ends with a complete manifest.
//!
//! With [`ExecutorConfig::isolate`], trials run `N` at a time in child
//! `worker` processes under a [`Fleet`], which classifies a panic, abort,
//! OOM-kill or stray `SIGKILL` (`panic|signal|timeout|oom|exit`) without
//! taking the campaign down; trials are still recorded in seed order.

use crate::campaign::{
    parse_trial_line, run_trial_supervised, CampaignConfig, CampaignError, CampaignReport,
    Manifest, Trial, TrialStop, TrialSupervision,
};
use crate::experiment::panic_message;
use crate::supervise::{worker_job, Fleet, Outcome, RetryPolicy, Verdict};
use crate::{FailureKind, TrialFailure};
use mempool::json::{Fields, Obj};
use mempool::{CancelToken, ClusterConfig, SanitizerConfig};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
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

    /// The cluster and the campaign the spec describes: the one rule for a
    /// campaign spec, held by the daemon at admission and by a worker that
    /// reads one.
    ///
    /// # Errors
    ///
    /// The first of the config, fault and pattern specs that does not parse,
    /// or of `trials`, `measure`, `load` and `checkpoint_every` out of range.
    pub fn campaign(&self) -> Result<(ClusterConfig, CampaignConfig), String> {
        if self.trials == 0 {
            return Err("trials must be nonzero".to_owned());
        }
        if self.measure == 0 {
            return Err("measure window must be nonzero".to_owned());
        }
        // Written so that NaN fails it too.
        if !(self.load > 0.0 && self.load <= 1.0) {
            return Err(format!("load {} out of (0, 1]", self.load));
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be nonzero".to_owned());
        }
        let config = crate::parse_config_spec(&self.config_spec)?;
        let faults = &self.faults;
        let spec = faults
            .parse()
            .map_err(|e| format!("bad fault spec `{faults}`: {e}"))?;
        let pattern = crate::Pattern::parse_spec(&self.pattern)
            .ok_or_else(|| format!("bad pattern spec `{}`", self.pattern))?;
        let windows = crate::Windows {
            warmup: self.warmup,
            measure: self.measure,
            drain: self.drain,
        };
        let campaign = CampaignConfig {
            load: self.load,
            pattern,
            windows,
            spec,
            trials: self.trials,
            base_seed: self.seed,
        };
        Ok((config, campaign))
    }
}

/// The files of a daemon `campaign` job whose document names `checkpoint`
/// (`job-7.ckpt`): its trial checkpoint (`job-7.manifest.ckpt`, see
/// [`trial_checkpoint`]), then its manifest (`job-7.manifest`).
pub fn job_files(checkpoint: &Path) -> (PathBuf, PathBuf) {
    let manifest = checkpoint.with_extension("manifest");
    (trial_checkpoint(&manifest), manifest)
}

/// Where a campaign run against `manifest` checkpoints its trial in flight:
/// `<manifest>.ckpt` (in isolation mode, trial `seed`'s `<manifest>.ckpt.<seed>`).
pub fn trial_checkpoint(manifest: &Path) -> PathBuf {
    let mut path = manifest.as_os_str().to_owned();
    path.push(".ckpt");
    path.into()
}

/// What [`Executor::run`] tells its progress observer.
#[derive(Debug)]
pub enum Progress<'a> {
    /// A chunk of an in-process trial ran; its cluster is at this cycle.
    Cycle(u64),
    /// A trial was recorded in the manifest: the report so far.
    Recorded(&'a CampaignReport),
}

/// Result of a supervised campaign run.
#[derive(Debug, Clone, Default, PartialEq)]
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

type Failure = (FailureKind, String);

/// One [`Executor::run`] in flight: what it records, and who watches.
struct Run<'r> {
    manifest: Manifest,
    out: ExecutorReport,
    /// Every trial's failure history and retry verdicts, in both modes; in
    /// isolation mode also the workers. Dropping it kills and reaps them.
    fleet: Fleet,
    interrupt: Option<&'r AtomicBool>,
    progress: &'r mut dyn FnMut(Progress<'_>),
}

impl Run<'_> {
    /// Whether the interrupt flag is up, noting it in the report if so.
    fn interrupted(&mut self) -> bool {
        let up = self.interrupt.is_some_and(|f| f.load(Ordering::SeqCst));
        self.out.interrupted |= up;
        up
    }

    /// Records a trial: the synced manifest line first, then the report and its observer.
    fn record(&mut self, trial: Trial) -> std::io::Result<()> {
        self.manifest.append(&trial)?;
        self.out.report.trials.push(trial);
        self.out.new_trials += 1;
        (self.progress)(Progress::Recorded(&self.out.report));
        Ok(())
    }

    /// A failed attempt of `seed`: retry after a delay, or quarantine it.
    fn fail(&mut self, seed: u64, failure: Failure, ckpt: &Path) -> ControlFlow<Trial, Duration> {
        match self.fleet.fail(seed, failure.0, failure.1) {
            Verdict::Retry(delay) => {
                self.out.retries += 1;
                ControlFlow::Continue(delay)
            }
            Verdict::GiveUp(failures) => {
                let _ = std::fs::remove_file(ckpt);
                let trial = Trial::quarantined(seed, failures.len() as u64);
                let quarantined = QuarantinedTrial { seed, failures };
                self.out.quarantined.push(quarantined);
                ControlFlow::Break(trial)
            }
        }
    }
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

    /// Runs (or resumes) the campaign against `manifest`, the trial in
    /// flight checkpointing beside it ([`trial_checkpoint`]). `interrupt` is an
    /// optional flag (typically raised by a SIGINT/SIGTERM handler): when
    /// set, the executor flushes the current trial checkpoint and manifest
    /// line and returns with [`ExecutorReport::interrupted`]. `progress`,
    /// if given, is called with the cycle after every chunk of an
    /// in-process trial and with the report after every recorded trial.
    ///
    /// # Errors
    ///
    /// Configuration, I/O, and manifest errors. Trial failures are *not*
    /// errors — they are retried or quarantined.
    pub fn run(
        &self,
        manifest: &Path,
        interrupt: Option<&AtomicBool>,
        progress: Option<&mut dyn FnMut(Progress<'_>)>,
    ) -> Result<ExecutorReport, CampaignError> {
        let ckpt = trial_checkpoint(manifest);
        let (manifest, trials) = Manifest::open(manifest, &self.config, &self.campaign)?;
        let mut unobserved = |_: Progress<'_>| {};
        let mut run = Run {
            manifest,
            out: ExecutorReport {
                resumed_trials: trials.len() as u32,
                report: CampaignReport {
                    spec: self.campaign.spec,
                    trials,
                },
                ..ExecutorReport::default()
            },
            fleet: Fleet::new(self.exec.retry.clone()),
            interrupt,
            progress: progress.unwrap_or(&mut unobserved),
        };
        match self.exec.isolate {
            Some(n) => self.run_isolated(&ckpt, n.max(1), &mut run)?,
            None => self.run_in_process(&ckpt, &mut run)?,
        }
        Ok(run.out)
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

    fn run_in_process(&self, ckpt: &Path, run: &mut Run<'_>) -> Result<(), CampaignError> {
        while run.out.report.trials.len() < self.campaign.trials as usize && !run.interrupted() {
            let seed = self.campaign.base_seed + run.out.report.trials.len() as u64;
            let mut attempt = 0;
            let trial = loop {
                attempt += 1;
                let failure = match self.attempt_in_process(seed, attempt, ckpt, run)? {
                    Ok(trial) => break trial,
                    Err(failure) => failure,
                };
                // A stop on the interrupt flag is no failure.
                if run.interrupted() {
                    return Ok(());
                }
                match run.fail(seed, failure, ckpt) {
                    ControlFlow::Continue(delay) => std::thread::sleep(delay),
                    ControlFlow::Break(quarantined) => break quarantined,
                }
            };
            run.fleet.forget(seed);
            run.record(trial)?;
        }
        Ok(())
    }

    /// One in-process attempt: a stop, a panic or a bad checkpoint is a
    /// failed attempt; only what no retry can mend is an error.
    fn attempt_in_process(
        &self,
        seed: u64,
        attempt: u32,
        ckpt: &Path,
        run: &mut Run<'_>,
    ) -> Result<Result<Trial, Failure>, CampaignError> {
        if self.exec.inject_failure.is_some_and(|f| f(seed, attempt)) {
            return Ok(Err((FailureKind::Panic, "injected failure".to_owned())));
        }
        let progress = &mut *run.progress;
        let mut beat = |cycle: u64| progress(Progress::Cycle(cycle));
        let sup = TrialSupervision {
            cancel: self.token(),
            interrupt: run.interrupt,
            heartbeat: Some(&mut beat),
            sanitize: self.exec.sanitize,
        };
        let every = self.exec.checkpoint_every;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_trial_supervised(self.config, &self.campaign, seed, ckpt, every, sup)
        }));
        Ok(match result {
            Ok(Ok(Ok(trial))) => Ok(trial),
            Ok(Ok(Err(TrialStop::Sanitizer(what)))) => Err((FailureKind::Sanitizer, what)),
            // A cancellation, or the interrupt flag the caller looks at first.
            Ok(Ok(Err(stop))) => Err((FailureKind::Timeout, stop.to_string())),
            Ok(Err(
                e @ (CampaignError::CheckpointCorrupt(_) | CampaignError::CheckpointMismatch),
            )) => {
                // Self-heal: a bad checkpoint (e.g. left behind by a crashed
                // attempt) costs a replay, not the campaign.
                let _ = std::fs::remove_file(ckpt);
                Err((FailureKind::Exit(1), e.to_string()))
            }
            Ok(Err(e)) => return Err(e),
            Err(panic) => Err((FailureKind::Panic, panic_message(&*panic))),
        })
    }

    // -- isolation mode ----------------------------------------------------

    fn run_isolated(
        &self,
        ckpt: &Path,
        workers: usize,
        run: &mut Run<'_>,
    ) -> Result<(), CampaignError> {
        let total = self.campaign.trials as usize;
        let base = self.campaign.base_seed;
        let mut next_fresh = run.out.report.trials.len();
        let mut ready: BTreeMap<u64, Trial> = BTreeMap::new();
        // Seeds whose worker parked on a signal nobody here sent: resumed
        // from the checkpoint without counting a failure.
        let mut parked: Vec<u64> = Vec::new();
        let ckpt = |seed: u64| ckpt.with_extension(format!("ckpt.{seed}"));
        while run.out.report.trials.len() < total && !run.interrupted() {
            // Fill free worker slots: resumes and due retries first, then
            // fresh seeds.
            while run.fleet.running() < workers {
                let seed = match parked.pop().or_else(|| run.fleet.pop_due()) {
                    Some(seed) => seed,
                    None if next_fresh < total => {
                        next_fresh += 1;
                        base + next_fresh as u64 - 1
                    }
                    None => break,
                };
                let job = self.trial_job(seed, &ckpt(seed));
                let cmd = self.exec.worker_cmd.as_deref();
                run.fleet.spawn(seed, cmd, &job, self.exec.deadline)?;
            }

            // Heartbeats only feed the failure detail here.
            run.fleet.wait();
            for (seed, outcome) in run.fleet.tick().reaped {
                let failure = match outcome {
                    Outcome::Parked => {
                        parked.push(seed);
                        continue;
                    }
                    Outcome::Result(line) => match parse_trial_line(&line) {
                        Some(trial) => {
                            run.fleet.forget(seed);
                            ready.insert(seed, trial);
                            continue;
                        }
                        None => {
                            let detail = format!("unparsable result line: {line}");
                            (FailureKind::Exit(0), detail)
                        }
                    },
                    Outcome::Failed(kind, detail) => (kind, detail),
                };
                if let ControlFlow::Break(trial) = run.fail(seed, failure, &ckpt(seed)) {
                    ready.insert(seed, trial);
                }
            }

            // Record finished trials strictly in seed order.
            while let Some(t) = ready.remove(&(base + run.out.report.trials.len() as u64)) {
                run.record(t)?;
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
