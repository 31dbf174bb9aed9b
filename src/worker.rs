//! The hidden `worker` subcommand both `mempool-run` and `mempool-serve`
//! dispatch to, and both supervisors (`campaign --isolate`, the daemon)
//! spawn through [`Fleet`](mempool_traffic::Fleet): one job per process,
//! crash isolation by construction.
//!
//! The job document arrives as one flat-JSON line on stdin; its `kind`
//! selects the runner (`run`, `campaign`, `bench`; a campaign document with
//! a `trial` field is one trial of a `campaign --isolate` run). A `watch`
//! line may follow it at any time: from then on a partial snapshot is
//! rendered into each `metrics` line, which until then is the doc-less
//! marker. Progress and the result go back as [`WorkerLine`]s on stdout.
//! The process exits 0 (done, or stopped cooperatively), 3
//! (checkpoint-parked on `SIGTERM`/`SIGINT`), or nonzero (failed — the
//! supervisor classifies the exit and retries from the checkpoint).

use crate::bench::{run_bench_supervised, BenchConfig};
use mempool::json::{self, Fields, Layout};
use mempool::{CancelToken, ObsConfig, SanitizerConfig, SimSession};
use mempool_serve::{BenchSpec, CampaignSpec, JobSpec, RunSpec};
use mempool_traffic::{
    format_trial_line, job_files, parse_config_spec, run_trial_supervised, sig, Executor,
    ExecutorConfig, FailureKind, Progress, TrialStop, TrialSupervision, WorkerLine,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Exit status of a checkpoint-parked worker.
const PARKED: u8 = 3;

/// Raised by the supervisor's `watch` line ([`mempool_traffic::Fleet::watch`]):
/// a subscriber takes this job's partial snapshots.
static WATCHED: AtomicBool = AtomicBool::new(false);

/// The document of a `metrics` line: `render`ed once the job is
/// [`WATCHED`], else `None`, the marker. Which of the two a line carries
/// never changes the job, so watched and unwatched runs stay bit-identical.
fn snapshot(render: impl FnOnce() -> String) -> Option<String> {
    WATCHED.load(Ordering::Relaxed).then(render)
}

/// The one place a protocol line reaches stdout (line-buffered by the
/// standard library, so each line is flushed as it is printed).
fn emit(line: WorkerLine) {
    println!("{line}");
}

/// Reads the job document from stdin and runs it to an exit status. A
/// runner's `Err` becomes the `error` line the supervisor attaches to the
/// failure, and exit status 1.
pub fn run() -> ExitCode {
    sig::install();
    job().unwrap_or_else(|why| {
        emit(WorkerLine::Error(why));
        ExitCode::from(1)
    })
}

fn job() -> Result<ExitCode, String> {
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .map_err(|e| format!("reading the job document: {e}"))?;
    // The rest of stdin is at most the `watch` line; the supervisor closes
    // it after writing one.
    std::thread::spawn(|| {
        if std::io::stdin().lines().any(|line| line.is_ok_and(|l| l == "watch")) {
            WATCHED.store(true, Ordering::Relaxed);
        }
    });
    let (ckpt, spec, trial) = read_job(&line)?;
    match (spec, trial) {
        (JobSpec::Run(spec), _) => run_worker(&spec, &ckpt),
        (JobSpec::Campaign(spec), Some((seed, sanitize))) => {
            trial_worker(&spec, seed, sanitize, &ckpt)
        }
        (JobSpec::Campaign(spec), None) => campaign_worker(&spec, &ckpt),
        (JobSpec::Bench(spec), _) => bench_worker(&spec),
    }
}

/// A worker job document (`mempool_traffic::worker_job`'s): the checkpoint
/// path, the job, and — for one trial of a `campaign --isolate` run — the
/// trial's seed and whether it runs sanitized.
type JobDocument = (PathBuf, JobSpec, Option<(u64, bool)>);

fn read_job(line: &str) -> Result<JobDocument, String> {
    let fields = Fields::parse(line).map_err(|e| format!("malformed job document: {e}"))?;
    let ckpt = PathBuf::from(fields.str("checkpoint")?);
    let trial = match fields.opt_int("trial")? {
        Some(seed) => Some((seed, fields.bool("sanitize")?)),
        None => None,
    };
    Ok((ckpt, JobSpec::from_fields(&fields)?, trial))
}

/// One trial of a `campaign --isolate` run. A cooperative stop (cycle
/// budget, sanitizer) is reported with its deterministic detail and a clean
/// exit, so the supervisor's repeat-failure rule can recognise it.
fn trial_worker(
    spec: &CampaignSpec,
    seed: u64,
    sanitize: bool,
    ckpt: &Path,
) -> Result<ExitCode, String> {
    let (config, campaign) = spec.campaign()?;
    let mut beat = |cycle: u64| emit(WorkerLine::Heartbeat(cycle));
    let supervision = TrialSupervision {
        cancel: spec.cycle_budget.map(|budget| CancelToken::new().with_cycle_limit(budget)),
        interrupt: Some(&sig::INTERRUPTED),
        heartbeat: Some(&mut beat),
        sanitize: sanitize.then(SanitizerConfig::default),
    };
    let every = spec.checkpoint_every;
    let trial = run_trial_supervised(config, &campaign, seed, ckpt, every, supervision);
    emit(match trial.map_err(|e| e.to_string())? {
        Ok(trial) => WorkerLine::Result(format_trial_line(&trial)),
        Err(TrialStop::Interrupted) => {
            // The stop does not say which cycle the checkpoint holds.
            emit(WorkerLine::Parked(0));
            return Ok(ExitCode::from(PARKED));
        }
        Err(stop @ TrialStop::Cancelled(_)) => {
            WorkerLine::Stopped(FailureKind::Timeout, stop.to_string())
        }
        Err(TrialStop::Sanitizer(what)) => WorkerLine::Stopped(FailureKind::Sanitizer, what),
    });
    Ok(ExitCode::SUCCESS)
}

/// Streams a mid-job `mempool-metrics-v2` snapshot of a metered run, or
/// its marker. The snapshot is a pure read of recorder state the digest
/// already covers.
fn emit_partial_metrics<C: mempool::Core + mempool::Walk>(session: &SimSession<C>) {
    if session.observability_enabled() {
        emit(WorkerLine::Metrics {
            key: "cycle",
            at: session.now(),
            doc: snapshot(|| session.metrics_registry().to_json()),
        });
    }
}

fn run_worker(spec: &RunSpec, ckpt: &Path) -> Result<ExitCode, String> {
    let config = parse_config_spec(&spec.config_spec)?;
    let program = mempool_riscv::assemble(&spec.program)
        .map_err(|e| format!("program does not assemble: {e}"))?;
    let mut builder = SimSession::builder(config);
    if spec.metrics {
        builder = builder.observability(ObsConfig::histograms());
    }
    let mut session = builder
        .build_snitch()
        .map_err(|e| format!("building the session: {e}"))?;
    session
        .load_program(&program)
        .map_err(|e| format!("loading the program: {e}"))?;
    if ckpt.exists() {
        // A corrupt checkpoint costs the progress it held, never the job:
        // discard it and replay from reset (determinism makes the replay
        // land on the identical result).
        if let Err(e) = session.unpark(ckpt) {
            eprintln!(
                "mempool worker: discarding unreadable checkpoint {}: {e}",
                ckpt.display()
            );
            let _ = std::fs::remove_file(ckpt);
        }
    }
    loop {
        if sig::INTERRUPTED.load(Ordering::SeqCst) {
            session
                .park(ckpt)
                .map_err(|e| format!("parking checkpoint: {e}"))?;
            emit_partial_metrics(&session);
            emit(WorkerLine::Parked(session.now()));
            return Ok(ExitCode::from(PARKED));
        }
        let now = session.now();
        if now >= spec.max_cycles {
            return Err(format!(
                "program did not halt within {} cycles",
                spec.max_cycles
            ));
        }
        let chunk = spec.checkpoint_every.min(spec.max_cycles - now).max(1);
        match session.cluster_mut().run(chunk) {
            Ok(_) => {
                let metrics = if spec.metrics {
                    session.metrics_registry().to_json()
                } else {
                    String::new()
                };
                let digest = format!("{:#018x}", session.state_digest());
                emit(WorkerLine::Result(json::object(Layout::Compact, |o| {
                    o.str("outcome", "completed")
                        .num("cycles", session.now())
                        .str("state_digest", &digest)
                        .str("metrics", &metrics)
                })));
                let _ = std::fs::remove_file(ckpt);
                return Ok(ExitCode::SUCCESS);
            }
            Err(mempool::SimError::Timeout(_)) => {
                // Chunk boundary: refresh the checkpoint and report
                // liveness; the loop re-checks the park flag.
                session
                    .park(ckpt)
                    .map_err(|e| format!("writing checkpoint: {e}"))?;
                emit(WorkerLine::Heartbeat(session.now()));
                emit_partial_metrics(&session);
            }
            Err(e) => return Err(format!("simulation stopped: {e}")),
        }
    }
}

/// A daemon `campaign` job: the campaign on the in-process [`Executor`]
/// under its default retry policy, as under `mempool-run campaign`, against
/// the manifest beside the job's checkpoint path ([`job_files`]).
/// Heartbeats stream per chunk, the partial report (or its marker) per
/// recorded trial.
fn campaign_worker(spec: &CampaignSpec, ckpt: &Path) -> Result<ExitCode, String> {
    let (config, campaign) = spec.campaign()?;
    let exec = ExecutorConfig {
        cycle_budget: spec.cycle_budget,
        checkpoint_every: spec.checkpoint_every,
        ..ExecutorConfig::default()
    };
    let mut progress = |progress: Progress<'_>| {
        emit(match progress {
            Progress::Cycle(cycle) => WorkerLine::Heartbeat(cycle),
            Progress::Recorded(report) => WorkerLine::Metrics {
                key: "trials",
                at: report.trials.len() as u64,
                doc: snapshot(|| report.to_json()),
            },
        })
    };
    let (_, manifest) = job_files(ckpt);
    let run = Executor::new(config, campaign, exec)
        .run(&manifest, Some(&sig::INTERRUPTED), Some(&mut progress))
        .map_err(|e| e.to_string())?;
    let trials = run.report.trials.len();
    if run.interrupted {
        emit(WorkerLine::Parked(trials as u64));
        return Ok(ExitCode::from(PARKED));
    }
    emit(WorkerLine::Result(json::object(Layout::Compact, |o| {
        o.str("outcome", "completed")
            .num("trials", trials)
            .str("report", &run.report.to_json())
    })));
    Ok(ExitCode::SUCCESS)
}

fn bench_worker(spec: &BenchSpec) -> Result<ExitCode, String> {
    let config = BenchConfig {
        cycles: spec.cycles,
        warmup: spec.warmup,
        core_counts: spec.cores.clone(),
    };
    // Bench points are wall-clock measurements — there is nothing to
    // checkpoint. A park simply reruns the matrix after resume.
    let (report, parked) = run_bench_supervised(&config, Some(&sig::INTERRUPTED))?;
    if parked {
        emit(WorkerLine::Parked(report.points.len() as u64));
        return Ok(ExitCode::from(PARKED));
    }
    emit(WorkerLine::Result(json::object(Layout::Compact, |o| {
        o.str("outcome", "completed")
            .num("points", report.points.len())
            .str("report", &report.to_json())
    })));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_traffic::worker_job;
    use std::path::Path;

    /// A trial document as `campaign --isolate` renders it.
    fn trial_line(sanitize: &str) -> String {
        let spec = CampaignSpec {
            config_spec: "topology=top1,small=true,scramble=true".to_owned(),
            faults: "bank_fail=1".to_owned(),
            trials: 2,
            load: 0.05,
            pattern: "uniform".to_owned(),
            warmup: 10,
            measure: 20,
            drain: 1_000,
            seed: 3,
            checkpoint_every: 64,
            cycle_budget: None,
        };
        let line = worker_job(
            |o| o,
            Path::new("t.ckpt"),
            |o| spec.write_fields(o).num("trial", 4).bool("sanitize", true),
        );
        line.replace("\"sanitize\":true", &format!("\"sanitize\":{sanitize}"))
    }

    #[test]
    fn a_trial_document_reads_back_with_its_seed_and_sanitizer_flag() {
        let (ckpt, spec, trial) = read_job(&trial_line("true")).expect("a trial document");
        assert_eq!(ckpt, PathBuf::from("t.ckpt"));
        assert!(matches!(spec, JobSpec::Campaign(_)), "{spec:?}");
        assert_eq!(trial, Some((4, true)));
        assert_eq!(
            read_job(&trial_line("false")).expect("a trial").2,
            Some((4, false))
        );
    }

    /// A campaign document is held to the daemon's admission rule: a load,
    /// count or interval out of range is that rule's error, from a trial
    /// and from a whole campaign alike, and never a panic in a generator.
    #[test]
    fn an_out_of_range_campaign_document_is_the_admission_error() {
        let line = trial_line("true");
        for (from, to, why) in [
            ("\"load\":0.05", "\"load\":-1", "load -1 out of (0, 1]"),
            ("\"load\":0.05", "\"load\":1e999", "load inf out of (0, 1]"),
            ("\"trials\":2", "\"trials\":0", "trials must be nonzero"),
            ("\"measure\":20", "\"measure\":0", "measure window must be nonzero"),
            ("\"checkpoint_every\":64", "\"checkpoint_every\":0", "checkpoint_every must be nonzero"),
        ] {
            assert!(line.contains(from), "{line}");
            let (ckpt, spec, _) = read_job(&line.replace(from, to)).expect("well-formed");
            let JobSpec::Campaign(spec) = spec else {
                panic!("a campaign document: {spec:?}")
            };
            assert_eq!(trial_worker(&spec, 4, false, &ckpt).err().as_deref(), Some(why));
            assert_eq!(campaign_worker(&spec, &ckpt).err().as_deref(), Some(why));
            assert_eq!(JobSpec::Campaign(spec).validate().err().as_deref(), Some(why));
        }
        // No document carries a NaN; a spec built in code can.
        let (_, spec, _) = read_job(&line).expect("well-formed");
        let JobSpec::Campaign(mut spec) = spec else {
            panic!("a campaign document: {spec:?}")
        };
        spec.load = f64::NAN;
        assert_eq!(spec.campaign().err().as_deref(), Some("load NaN out of (0, 1]"));
    }

    /// `sanitize` is `true` or `false`: any other token is a malformed
    /// document, not a trial run unsanitized.
    #[test]
    fn a_sanitize_flag_that_is_not_a_boolean_is_rejected() {
        for token in ["\"true\"", "1", "null", "yes"] {
            assert!(read_job(&trial_line(token)).is_err(), "{token}");
        }
    }
}
