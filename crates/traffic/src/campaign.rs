//! Fault-injection campaigns: sweep one [`FaultSpec`] over many seeds and
//! classify how the cluster degrades.
//!
//! A campaign is the statistical complement of a single fault run: one
//! seed shows *a* failure, a campaign measures *how often* the cluster
//! completes, deadlocks, or times out under a given fault intensity, and
//! what the resilience layer (retries, quarantine, watchdog) absorbed
//! along the way. Every trial is driven by synthetic Poisson traffic (the
//! same generators as the §V-A experiments) and is fully determined by
//! `base_seed + trial index`, so a campaign line is replayable. The one
//! campaign runner is the [`Executor`](crate::Executor); the one trial body
//! is [`run_trial_supervised`].

use crate::{Pattern, TrafficGen, Windows};
use mempool::json::{self, Layout};
use mempool::log::{self, Log};
use mempool::snapshot::fnv64;
use mempool::{
    CancelCause, CancelToken, Cluster, ClusterConfig, ClusterSnapshot, FaultPlan, FaultSpec,
    FaultStats, SanitizerConfig, SimError, ValidateConfigError,
};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Parameters of one fault-injection campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Offered load per core (requests/core/cycle) of the driving traffic.
    pub load: f64,
    /// Destination pattern of the driving traffic.
    pub pattern: Pattern,
    /// Warmup/measure/drain windows of each trial.
    pub windows: Windows,
    /// The fault intensity under test.
    pub spec: FaultSpec,
    /// Number of independent trials (fault seeds).
    pub trials: u32,
    /// Seed of the first trial; trial `i` uses `base_seed + i` for both the
    /// traffic and the fault plan.
    pub base_seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            load: 0.05,
            pattern: Pattern::Uniform,
            windows: Windows::default(),
            spec: FaultSpec::default(),
            trials: 8,
            base_seed: 0,
        }
    }
}

/// How one campaign trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// All traffic drained within the drain budget.
    Completed {
        /// Cycles the drain phase took.
        drain_cycles: u64,
    },
    /// The watchdog detected a deadlock in the memory system.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
    /// The drain budget expired with traffic still in flight.
    Timeout,
    /// The executor gave up on this trial after repeated failures and
    /// quarantined it with partial results (see
    /// [`Executor`](crate::exec::Executor)).
    Quarantined {
        /// Attempts the executor made before giving up.
        attempts: u64,
    },
}

/// One trial of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// The seed driving this trial's traffic and faults.
    pub seed: u64,
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// Fault and resilience counters of the trial.
    pub faults: FaultStats,
    /// Banks quarantined by the end of the trial.
    pub quarantined_banks: usize,
    /// Responses delivered over the whole trial.
    pub delivered: u64,
    /// The cluster's state digest at trial end (`0` for quarantined trials,
    /// which never reach a final state). Recorded in the manifest so
    /// interrupted-and-resumed campaigns can be compared bit-for-bit
    /// against uninterrupted ones.
    pub digest: u64,
}

impl Trial {
    /// A placeholder trial entry for a seed the executor quarantined:
    /// partial results only (no final state, no digest).
    pub fn quarantined(seed: u64, attempts: u64) -> Trial {
        Trial {
            seed,
            outcome: TrialOutcome::Quarantined { attempts },
            faults: FaultStats::default(),
            quarantined_banks: 0,
            delivered: 0,
            digest: 0,
        }
    }
}

/// Aggregated result of a fault-injection campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// The fault intensity that was swept.
    pub spec: FaultSpec,
    /// Every trial, in seed order.
    pub trials: Vec<Trial>,
}

impl CampaignReport {
    fn count(&self, outcome: fn(&TrialOutcome) -> bool) -> usize {
        self.trials.iter().filter(|t| outcome(&t.outcome)).count()
    }

    fn completed(&self) -> usize {
        self.count(|o| matches!(o, TrialOutcome::Completed { .. }))
    }

    /// Fraction of trials that completed (drained all traffic).
    pub fn completion_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 1.0;
        }
        self.completed() as f64 / self.trials.len() as f64
    }

    /// Number of trials the watchdog ended with a deadlock report.
    pub fn deadlocks(&self) -> usize {
        self.count(|o| matches!(o, TrialOutcome::Deadlock { .. }))
    }

    /// Number of trials the executor quarantined after repeated failures.
    pub fn quarantined(&self) -> usize {
        self.count(|o| matches!(o, TrialOutcome::Quarantined { .. }))
    }

    /// Fault and resilience counters summed over all trials.
    pub fn total_faults(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for t in &self.trials {
            total.merge(&t.faults);
        }
        total
    }

    /// Renders the report as deterministic, byte-stable JSON: two runs
    /// that produced identical trial results render identical bytes, no
    /// matter how many retries, interruptions, or resumes either run went
    /// through. The crash-isolation acceptance test diffs these bytes.
    pub fn to_json(&self) -> String {
        json::document(|d| {
            d.str("schema", "mempool-campaign-report-v1")
                .str("spec", &self.spec.to_string())
                .num("trials", self.trials.len())
                .num(
                    "completion_rate",
                    format_args!("{:.6}", self.completion_rate()),
                )
                .num("deadlocks", self.deadlocks())
                .num("quarantined", self.quarantined())
                .arr("trial_lines", Layout::Block(4), |lines| {
                    self.trials
                        .iter()
                        .fold(lines, |lines, t| lines.push_str(&format_trial_line(t)))
                })
        })
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let total = self.total_faults();
        format!(
            "spec [{}]: {}/{} trials completed ({} deadlocked, {} quarantined), \
             {} faults injected, {} retries, {} abandoned, {} banks quarantined",
            self.spec,
            self.completed(),
            self.trials.len(),
            self.deadlocks(),
            self.quarantined(),
            total.total_injected(),
            total.request_retries,
            total.requests_abandoned,
            total.banks_quarantined,
        )
    }
}

/// Builds the traffic-driven cluster one campaign trial runs: Poisson
/// generators at the campaign's load and pattern on every core, the
/// standard resilience layer, and `FaultPlan::new(seed, spec)` installed.
///
/// Exposed so checkpoint tooling and tests can reconstruct a trial's exact
/// starting state (e.g. to restore a snapshot into it, or to bisect a
/// divergent trial).
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn trial_cluster(
    mut config: ClusterConfig,
    campaign: &CampaignConfig,
    seed: u64,
) -> Result<Cluster<TrafficGen>, ValidateConfigError> {
    // Campaigns need the resilience layer: without retries a single dropped
    // flit is a guaranteed hang, and without the watchdog a deadlock burns
    // the whole drain budget.
    config.resilience = mempool::ResilienceConfig::standard();
    let mut cluster = crate::traffic_cluster(config, campaign.pattern, campaign.load, seed)?;
    cluster.install_fault_plan(Some(FaultPlan::new(seed, campaign.spec)));
    Ok(cluster)
}

/// Error raised by the campaign runner.
#[derive(Debug)]
pub enum CampaignError {
    /// The cluster configuration failed validation.
    Config(ValidateConfigError),
    /// A manifest or checkpoint file could not be read or written.
    Io(io::Error),
    /// The manifest belongs to a different campaign (config, spec, windows,
    /// load, pattern, or seeds differ).
    ManifestMismatch,
    /// The manifest lacks its header or its campaign digest line: the file
    /// is not a campaign manifest, so it is left as it is.
    ManifestCorrupt(&'static str),
    /// The trial checkpoint does not belong to the trial being resumed.
    CheckpointMismatch,
    /// The trial checkpoint file is structurally invalid (truncated, bad
    /// magic, or a corrupt embedded snapshot).
    CheckpointCorrupt(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Config(e) => write!(f, "invalid cluster configuration: {e}"),
            CampaignError::Io(e) => write!(f, "campaign i/o error: {e}"),
            CampaignError::ManifestMismatch => {
                write!(f, "manifest belongs to a different campaign")
            }
            CampaignError::ManifestCorrupt(what) => write!(f, "corrupt manifest: {what}"),
            CampaignError::CheckpointMismatch => {
                write!(f, "checkpoint belongs to a different trial")
            }
            CampaignError::CheckpointCorrupt(what) => {
                write!(f, "corrupt trial checkpoint: {what}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ValidateConfigError> for CampaignError {
    fn from(e: ValidateConfigError) -> Self {
        CampaignError::Config(e)
    }
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Which window of a trial a checkpoint was taken in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialPhase {
    /// Warmup or measurement: generators still producing traffic.
    Generate,
    /// Drain: generators stopped, outstanding traffic flushing out.
    Drain {
        /// Cycle at which the drain window began.
        drain_start: u64,
    },
}

/// A mid-trial checkpoint: the trial's seed and phase plus a full cluster
/// snapshot, written atomically so a kill mid-trial loses at most one
/// checkpoint interval of work.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialCheckpoint {
    /// The seed of the trial being checkpointed.
    pub seed: u64,
    /// Which trial window the snapshot was taken in.
    pub phase: TrialPhase,
    /// The cluster state at the checkpoint.
    pub snapshot: ClusterSnapshot,
}

/// Trial checkpoint file magic: `"MPCK"` little-endian.
const CKPT_MAGIC: u32 = 0x4d50_434b;

impl TrialCheckpoint {
    /// Writes the checkpoint to `path` atomically ([`log::replace`]).
    ///
    /// # Errors
    ///
    /// Any underlying I/O error.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        let (phase, drain_start) = match self.phase {
            TrialPhase::Generate => (0, 0),
            TrialPhase::Drain { drain_start } => (1, drain_start),
        };
        log::replace(path, |out| {
            out.write_all(&CKPT_MAGIC.to_le_bytes())?;
            out.write_all(&self.seed.to_le_bytes())?;
            out.write_all(&[phase])?;
            out.write_all(&drain_start.to_le_bytes())?;
            out.write_all(self.snapshot.as_bytes())
        })
    }

    /// Reads and validates a checkpoint from `path` (the embedded snapshot
    /// is digest-checked).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when the file cannot be read, and
    /// [`CampaignError::CheckpointCorrupt`] when what it holds is invalid.
    pub fn read_file(path: &Path) -> Result<TrialCheckpoint, CampaignError> {
        let bytes = std::fs::read(path)?;
        let bad = |what: String| CampaignError::CheckpointCorrupt(what);
        if bytes.len() < 21 {
            return Err(bad("truncated trial checkpoint".to_owned()));
        }
        if u32::from_le_bytes(bytes[0..4].try_into().expect("length 4")) != CKPT_MAGIC {
            return Err(bad("not a trial checkpoint (bad magic)".to_owned()));
        }
        let seed = u64::from_le_bytes(bytes[4..12].try_into().expect("length 8"));
        let drain_start = u64::from_le_bytes(bytes[13..21].try_into().expect("length 8"));
        let phase = match bytes[12] {
            0 if drain_start == 0 => TrialPhase::Generate,
            1 => TrialPhase::Drain { drain_start },
            _ => return Err(bad("unknown trial phase".to_owned())),
        };
        let snapshot = ClusterSnapshot::from_bytes(&bytes[21..]).map_err(|e| bad(e.to_string()))?;
        Ok(TrialCheckpoint {
            seed,
            phase,
            snapshot,
        })
    }
}

/// Why a supervised trial stopped before producing a [`Trial`]. The trial's
/// checkpoint (when checkpointing is on) has been flushed in every case, so
/// the trial can be resumed or retried from where it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialStop {
    /// The supervision's interrupt flag was raised (e.g. by a SIGINT
    /// handler); resume is safe.
    Interrupted,
    /// The supervision's cancellation token tripped (wall-clock deadline or
    /// sim-cycle budget).
    Cancelled(CancelCause),
    /// The invariant sanitizer recorded violations during the trial. The
    /// string is the first violation plus a count. The checkpoint is
    /// *removed* so a retry replays the whole trial (a fresh sanitizer
    /// cannot re-check cycles hidden behind a checkpoint).
    Sanitizer(String),
}

impl fmt::Display for TrialStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialStop::Interrupted => write!(f, "interrupted"),
            TrialStop::Cancelled(cause) => match cause {
                CancelCause::Requested => write!(f, "cancelled"),
                CancelCause::WallClock { limit_ms } => {
                    write!(f, "deadline of {limit_ms} ms exceeded")
                }
                CancelCause::CycleBudget { limit } => {
                    write!(f, "cycle budget of {limit} exhausted")
                }
            },
            TrialStop::Sanitizer(what) => write!(f, "sanitizer violation: {what}"),
        }
    }
}

/// Supervision hooks for [`run_trial_supervised`]; the default supervises
/// nothing (the trial always runs to an outcome).
#[derive(Default)]
pub struct TrialSupervision<'a> {
    /// Cooperative cancellation (deadline / cycle budget), checked by the
    /// cluster inside its step loop.
    pub cancel: Option<CancelToken>,
    /// Interrupt flag checked between chunks; when raised the trial
    /// checkpoints and stops with [`TrialStop::Interrupted`].
    pub interrupt: Option<&'a AtomicBool>,
    /// Called with the current cycle after every executed chunk (worker
    /// processes forward this as heartbeat lines).
    pub heartbeat: Option<&'a mut dyn FnMut(u64)>,
    /// Attaches the invariant sanitizer to the trial cluster; a dirty
    /// report at trial end stops the trial with [`TrialStop::Sanitizer`].
    pub sanitize: Option<SanitizerConfig>,
}

impl fmt::Debug for TrialSupervision<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrialSupervision")
            .field("cancel", &self.cancel)
            .field("interrupt", &self.interrupt.map(|i| i.load(Ordering::Relaxed)))
            .field("heartbeat", &self.heartbeat.is_some())
            .field("sanitize", &self.sanitize)
            .finish()
    }
}

/// Runs one fault-injection trial of `campaign` — [`trial_cluster`] warmed
/// up and measured, its generators stopped, then drained — under
/// supervision: a cancellation token (deadline, cycle budget), an interrupt
/// flag checked between chunks, per-chunk heartbeats and an optional
/// sanitizer. It checkpoints to `checkpoint` every `every` cycles (`0`:
/// never), resumes from a valid checkpoint of `seed` found there, and
/// deletes the file once it finishes: interruptions never show in the result.
///
/// The outer `Result` carries environment errors; the inner one separates
/// a finished [`Trial`] from a [`TrialStop`], which the
/// [`Executor`](crate::exec::Executor) turns into a retry or a quarantine.
///
/// # Errors
///
/// Configuration and I/O errors; [`CampaignError::CheckpointMismatch`] or
/// [`CampaignError::CheckpointCorrupt`] for a checkpoint that is not this
/// trial's or is damaged.
pub fn run_trial_supervised(
    config: ClusterConfig,
    campaign: &CampaignConfig,
    seed: u64,
    checkpoint: &Path,
    every: u64,
    mut sup: TrialSupervision<'_>,
) -> Result<Result<Trial, TrialStop>, CampaignError> {
    let mut cluster = trial_cluster(config, campaign, seed)?;
    if let Some(san) = sup.sanitize {
        cluster.enable_sanitizer(san);
    }
    let gen_end = campaign.windows.warmup + campaign.windows.measure;
    let mut phase = TrialPhase::Generate;
    if checkpoint.exists() {
        let ckpt = TrialCheckpoint::read_file(checkpoint)?;
        if ckpt.seed != seed {
            return Err(CampaignError::CheckpointMismatch);
        }
        cluster
            .restore(&ckpt.snapshot)
            .map_err(|_| CampaignError::CheckpointMismatch)?;
        // The envelope and the snapshot header's cycle lie outside the
        // snapshot's digests: hold them to the restored state and the
        // trial's windows, or a damaged phase resumes a different trial.
        let now = cluster.now();
        let fits = ckpt.snapshot.cycle() == now
            && match ckpt.phase {
                TrialPhase::Generate => now <= gen_end,
                TrialPhase::Drain { drain_start } => drain_start == gen_end && now >= gen_end,
            };
        if !fits {
            return Err(CampaignError::CheckpointMismatch);
        }
        phase = ckpt.phase;
    }
    cluster.set_cancel_token(sup.cancel.clone());

    let save = |cluster: &Cluster<TrafficGen>, phase: TrialPhase| -> Result<(), CampaignError> {
        if every > 0 {
            TrialCheckpoint {
                seed,
                phase,
                snapshot: cluster.snapshot(),
            }
            .write_file(checkpoint)?;
        }
        Ok(())
    };
    let interrupted =
        |sup: &TrialSupervision<'_>| sup.interrupt.is_some_and(|i| i.load(Ordering::SeqCst));

    if phase == TrialPhase::Generate {
        while cluster.now() < gen_end {
            let chunk = match every {
                0 => gen_end - cluster.now(),
                n => n.min(gen_end - cluster.now()),
            };
            match cluster.try_step_cycles(chunk) {
                Ok(_) => {}
                Err(SimError::Cancelled(c)) => {
                    save(&cluster, TrialPhase::Generate)?;
                    return Ok(Err(TrialStop::Cancelled(c.cause)));
                }
                Err(e) => unreachable!("step_cycles cannot fail otherwise: {e}"),
            }
            if let Some(beat) = sup.heartbeat.as_deref_mut() {
                beat(cluster.now());
            }
            if interrupted(&sup) {
                save(&cluster, TrialPhase::Generate)?;
                return Ok(Err(TrialStop::Interrupted));
            }
            if cluster.now() < gen_end {
                save(&cluster, TrialPhase::Generate)?;
            }
        }
        for gen in cluster.cores_mut() {
            gen.stop();
        }
        phase = TrialPhase::Drain {
            drain_start: cluster.now(),
        };
        save(&cluster, phase)?;
    }

    let TrialPhase::Drain { drain_start } = phase else {
        unreachable!("generate phase always transitions to drain");
    };
    let outcome = loop {
        let spent = cluster.now() - drain_start;
        if spent >= campaign.windows.drain {
            break TrialOutcome::Timeout;
        }
        let remaining = campaign.windows.drain - spent;
        let chunk = match every {
            0 => remaining,
            n => n.min(remaining),
        };
        let step = cluster.run(chunk);
        if let Some(beat) = sup.heartbeat.as_deref_mut() {
            beat(cluster.now());
        }
        match step {
            Ok(_) => {
                break TrialOutcome::Completed {
                    drain_cycles: cluster.now() - drain_start,
                }
            }
            Err(SimError::Deadlock(d)) => break TrialOutcome::Deadlock { cycle: d.cycle },
            Err(SimError::Cancelled(c)) => {
                save(&cluster, phase)?;
                return Ok(Err(TrialStop::Cancelled(c.cause)));
            }
            Err(SimError::Timeout(_)) if chunk < remaining => {
                // Only the checkpoint chunk expired, not the drain budget.
                save(&cluster, phase)?;
                if interrupted(&sup) {
                    return Ok(Err(TrialStop::Interrupted));
                }
            }
            Err(SimError::Timeout(_)) => break TrialOutcome::Timeout,
        }
    };
    if let Some(report) = cluster.sanitizer_report() {
        if !report.is_clean() {
            // A retry must replay the whole trial: a fresh sanitizer cannot
            // re-check the cycles hidden behind the checkpoint.
            if checkpoint.exists() {
                std::fs::remove_file(checkpoint)?;
            }
            let first = report
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default();
            return Ok(Err(TrialStop::Sanitizer(format!(
                "{} violation(s); first: {first}",
                report.total_violations()
            ))));
        }
    }
    if checkpoint.exists() {
        std::fs::remove_file(checkpoint)?;
    }
    Ok(Ok(Trial {
        seed,
        outcome,
        faults: cluster.stats().faults,
        quarantined_banks: cluster.quarantined_banks(),
        delivered: cluster.stats().responses_delivered,
        digest: cluster.state_digest(),
    }))
}

const MANIFEST_HEADER: &str = "mempool-campaign-manifest v2";

/// Digest identifying a campaign: configuration plus every campaign
/// parameter, so a manifest is only ever resumed against the exact campaign
/// that produced it.
fn campaign_digest(config: &ClusterConfig, campaign: &CampaignConfig) -> u64 {
    fnv64(format!("{config:?}|{campaign:?}").as_bytes())
}

/// Renders a trial as its manifest line, which is also the `result` payload
/// an isolated trial worker reports.
pub fn format_trial_line(trial: &Trial) -> String {
    let (kind, value) = match trial.outcome {
        TrialOutcome::Completed { drain_cycles } => ("completed", drain_cycles),
        TrialOutcome::Deadlock { cycle } => ("deadlock", cycle),
        TrialOutcome::Timeout => ("timeout", 0),
        TrialOutcome::Quarantined { attempts } => ("quarantined", attempts),
    };
    let f = &trial.faults;
    format!(
        "trial {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {:016x}",
        trial.seed,
        kind,
        value,
        f.bank_stalls,
        f.banks_failed,
        f.banks_quarantined,
        f.quarantine_remaps,
        f.requests_dropped,
        f.link_stalls,
        f.link_drops,
        f.link_corruptions,
        f.ring_stalls,
        f.ring_drops,
        f.core_lockups,
        f.spurious_retires,
        f.request_timeouts,
        f.request_retries,
        f.requests_abandoned,
        f.stale_responses,
        trial.quarantined_banks,
        trial.delivered,
        trial.digest,
    )
}

/// Parses one manifest trial line; `None` means the line is unusable (e.g.
/// the tail of a write cut short by a kill, which the digest's fixed width
/// tells from a whole line).
pub(crate) fn parse_trial_line(line: &str) -> Option<Trial> {
    let mut it = line.split_whitespace();
    if it.next()? != "trial" {
        return None;
    }
    let seed = it.next()?.parse().ok()?;
    let kind = it.next()?;
    let value: u64 = it.next()?.parse().ok()?;
    let outcome = match kind {
        "completed" => TrialOutcome::Completed {
            drain_cycles: value,
        },
        "deadlock" => TrialOutcome::Deadlock { cycle: value },
        "timeout" => TrialOutcome::Timeout,
        "quarantined" => TrialOutcome::Quarantined { attempts: value },
        _ => return None,
    };
    let mut counters = [0u64; 18];
    for c in &mut counters {
        *c = it.next()?.parse().ok()?;
    }
    let digest = u64::from_str_radix(it.next().filter(|d| d.len() == 16)?, 16).ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(Trial {
        seed,
        outcome,
        faults: FaultStats {
            bank_stalls: counters[0],
            banks_failed: counters[1],
            banks_quarantined: counters[2],
            quarantine_remaps: counters[3],
            requests_dropped: counters[4],
            link_stalls: counters[5],
            link_drops: counters[6],
            link_corruptions: counters[7],
            ring_stalls: counters[8],
            ring_drops: counters[9],
            core_lockups: counters[10],
            spurious_retires: counters[11],
            request_timeouts: counters[12],
            request_retries: counters[13],
            requests_abandoned: counters[14],
            stale_responses: counters[15],
        },
        quarantined_banks: counters[16] as usize,
        delivered: counters[17],
        digest,
    })
}

/// The campaign manifest, a record grammar over [`mempool::log`]: the
/// header, the campaign's digest line, then one line per recorded trial in
/// seed order. It is the campaign's single source of truth: a trial counts
/// as recorded once its line is synced.
pub(crate) struct Manifest(Log);

impl Manifest {
    /// Opens the manifest of `campaign` at `path`, creating it if missing:
    /// reads the recorded trials back and atomically rewrites the file from
    /// them. A trial line the log's damage rule skips costs that trial and
    /// every later one: they re-run, to the report an uninterrupted run gives.
    ///
    /// # Errors
    ///
    /// I/O errors; [`CampaignError::ManifestMismatch`] for another campaign's
    /// manifest and [`CampaignError::ManifestCorrupt`] for a file without the
    /// header or digest line. Neither file is overwritten.
    pub(crate) fn open(
        path: &Path,
        config: &ClusterConfig,
        campaign: &CampaignConfig,
    ) -> Result<(Manifest, Vec<Trial>), CampaignError> {
        let digest_line = format!("campaign {:016x}", campaign_digest(config, campaign));
        let existed = path.exists();
        let (mut header, mut digest, mut intact) = (false, None, true);
        let mut trials: Vec<Trial> = Vec::new();
        let warnings = log::replay(path, |n, line| {
            let seed = campaign.base_seed + trials.len() as u64;
            let wanted = trials.len() < campaign.trials as usize;
            match n {
                0 => header = line == MANIFEST_HEADER,
                1 => digest = Some(line == digest_line),
                _ if !intact => {}
                _ => match parse_trial_line(line).filter(|t| wanted && t.seed == seed) {
                    Some(trial) => trials.push(trial),
                    None => {
                        intact = false;
                        return Err(format!("not trial {seed}; it and the later trials re-run"));
                    }
                },
            }
            Ok(())
        })?;
        let corrupt = |what| Err(CampaignError::ManifestCorrupt(what));
        match (existed, header, digest) {
            (false, ..) | (true, true, Some(true)) => {}
            (true, true, Some(false)) => return Err(CampaignError::ManifestMismatch),
            (true, true, None) => return corrupt("missing campaign digest"),
            _ => return corrupt("missing header"),
        }
        for warning in &warnings {
            eprintln!("warning: {warning}");
        }
        let log = Log::rewrite(path, |line| {
            line(&format!("{MANIFEST_HEADER}\n"))?;
            line(&format!("{digest_line}\n"))?;
            trials
                .iter()
                .try_for_each(|t| line(&format!("{}\n", format_trial_line(t))).map(drop))
        })?;
        Ok((Manifest(log), trials))
    }

    /// Records `trial`: appends its line and syncs it.
    pub(crate) fn append(&mut self, trial: &Trial) -> io::Result<()> {
        let line = format!("{}\n", format_trial_line(trial));
        self.0.append(&line).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, ExecutorConfig};
    use mempool::Topology;
    use std::sync::atomic::AtomicU64;

    fn small_windows() -> Windows {
        Windows {
            warmup: 100,
            measure: 400,
            drain: 50_000,
        }
    }

    /// The campaign's report, run by the executor against a fresh manifest.
    fn run(config: ClusterConfig, campaign: &CampaignConfig) -> CampaignReport {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let n = RUNS.fetch_add(1, Ordering::Relaxed);
        let manifest =
            std::env::temp_dir().join(format!("mempool-campaign-unit-{}-{n}", std::process::id()));
        let exec = ExecutorConfig {
            checkpoint_every: 0,
            ..ExecutorConfig::default()
        };
        let out = Executor::new(config, *campaign, exec)
            .run(&manifest, None, None)
            .expect("valid config");
        std::fs::remove_file(&manifest).ok();
        out.report
    }

    #[test]
    fn fault_free_campaign_always_completes() {
        let campaign = CampaignConfig {
            windows: small_windows(),
            trials: 2,
            base_seed: 7,
            ..CampaignConfig::default()
        };
        let report = run(ClusterConfig::small(Topology::TopH), &campaign);
        assert_eq!(report.completion_rate(), 1.0);
        assert_eq!(report.total_faults().total_injected(), 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let campaign = CampaignConfig {
            spec: "bank_fail=2,link_drop=0.001,core_lockup=0.0005"
                .parse()
                .expect("valid spec"),
            windows: small_windows(),
            trials: 2,
            base_seed: 42,
            ..CampaignConfig::default()
        };
        let config = ClusterConfig::small(Topology::Top1);
        let a = run(config, &campaign);
        let b = run(config, &campaign);
        assert_eq!(a, b, "same seeds must reproduce the identical report");
        assert!(a.total_faults().total_injected() > 0, "{}", a.summary());
    }

    #[test]
    fn campaign_counts_resilience_actions_under_heavy_drops() {
        let campaign = CampaignConfig {
            spec: "link_drop=0.02".parse().expect("valid spec"),
            windows: small_windows(),
            trials: 1,
            base_seed: 3,
            ..CampaignConfig::default()
        };
        let report = run(ClusterConfig::small(Topology::Top1), &campaign);
        let total = report.total_faults();
        assert!(total.link_drops > 0, "{}", report.summary());
    }
}
