//! `mempool-serve` — the fault-tolerant multi-tenant simulation service.
//!
//! Two entry points share this binary:
//!
//! - **Daemon** (default): binds the Unix socket, replays the job journal,
//!   and supervises a fleet of crash-isolated worker processes (see
//!   [`mempool_serve::daemon`]). `SIGTERM`/`SIGINT` starts a graceful
//!   drain: every in-flight job checkpoint-parks and a restart with the
//!   same `--state-dir` resumes it bit-identically.
//! - **`job-worker`** (internal): spawned by the daemon with one job
//!   document on stdin; executes a run/campaign/bench job, reporting
//!   `heartbeat`/`parked`/`result`/`error` lines over stdout and exiting
//!   0 (done), 3 (checkpoint-parked), or nonzero (failed — the daemon
//!   classifies and retries).

#![cfg(unix)]

use mempool::{CancelToken, ObsConfig, SimSession};
use mempool_serve::{run_daemon, DaemonConfig, JobSpec};
use mempool_suite::bench::{run_bench_supervised, BenchConfig};
use mempool_suite::error::Error;
use mempool_traffic::{
    append_trial, json_escape, open_manifest, parse_config_spec, parse_flat_json,
    run_trial_supervised, CampaignConfig, CampaignError, CampaignReport, Pattern, TrialStop,
    TrialSupervision, Windows,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: mempool-serve [OPTIONS]

The simulation service daemon: accepts run/campaign/bench jobs over a Unix
socket (protocol mempool-job-v1, see `mempool-cli`), multiplexes them over
supervised worker processes, and checkpoint-parks everything on SIGTERM so
a restart with the same --state-dir resumes bit-identically.

options:
  --socket <path>        Unix socket to listen on (default mempool-serve.sock)
  --state-dir <dir>      journal + job checkpoints (default mempool-serve-state)
  --workers <n>          concurrent worker processes (default 2)
  --queue-depth <n>      bound on queued jobs; beyond it submissions get a
                         typed `overloaded` rejection (default 64)
  --default-quota <n>    per-tenant in-flight quota (default 8)
  --quota <tenant=n>     quota override for one tenant (repeatable; 0 blocks)
  --max-attempts <n>     attempts per job before giving up (default 3)
  --backoff-ms <n>       retry backoff base in ms, exponential + seeded
                         jitter (default 50)
  --deadline-secs <n>    default wall-clock deadline per attempt (default none)
  --help                 this text

exit status: 0 after a clean drain, 1 on runtime errors, 2 on usage errors";

mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Routes SIGINT and SIGTERM to the `INTERRUPTED` flag (the daemon's
    /// drain trigger; the worker's park trigger).
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("job-worker") {
        return job_worker_mode();
    }
    match daemon_mode(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(msg)) => {
            if msg.is_empty() {
                println!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("mempool-serve: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("mempool-serve: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon mode.
// ---------------------------------------------------------------------------

fn daemon_mode(args: &[String]) -> Result<(), Error> {
    let mut config = DaemonConfig::default();
    let mut args = args.iter();
    let usage = |msg: String| Error::Usage(msg);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| Error::Usage(format!("{name} needs a value")))
        };
        let parse_num = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| Error::Usage(format!("{name}: expected a number, got `{v}`")))
        };
        match arg.as_str() {
            "--socket" => config.socket = PathBuf::from(value("--socket")?),
            "--state-dir" => config.state_dir = PathBuf::from(value("--state-dir")?),
            "--workers" => {
                config.worker_slots = parse_num("--workers", value("--workers")?)? as usize;
            }
            "--queue-depth" => {
                config.scheduler.queue_depth =
                    parse_num("--queue-depth", value("--queue-depth")?)? as usize;
            }
            "--default-quota" => {
                config.scheduler.default_quota =
                    parse_num("--default-quota", value("--default-quota")?)? as u32;
            }
            "--quota" => {
                let spec = value("--quota")?;
                let (tenant, n) = spec
                    .split_once('=')
                    .ok_or_else(|| usage(format!("--quota: expected tenant=n, got `{spec}`")))?;
                let n = parse_num("--quota", n)? as u32;
                config.scheduler.quotas.insert(tenant.to_owned(), n);
            }
            "--max-attempts" => {
                config.retry.max_attempts =
                    parse_num("--max-attempts", value("--max-attempts")?)? as u32;
            }
            "--backoff-ms" => {
                config.retry.backoff_base_ms = parse_num("--backoff-ms", value("--backoff-ms")?)?;
            }
            "--deadline-secs" => {
                config.default_deadline = Some(Duration::from_secs(parse_num(
                    "--deadline-secs",
                    value("--deadline-secs")?,
                )?));
            }
            "--help" | "-h" => return Err(Error::Usage(String::new())),
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    sig::install();
    println!(
        "mempool-serve: listening on {} ({} worker slot(s), state in {})",
        config.socket.display(),
        config.worker_slots,
        config.state_dir.display()
    );
    let summary =
        run_daemon(config, &sig::INTERRUPTED).map_err(|e| Error::io("mempool-serve", e))?;
    println!(
        "mempool-serve: drained — {} completed, {} failed, {} cancelled, {} parked, {} queued{}",
        summary.completed,
        summary.failed,
        summary.cancelled,
        summary.parked,
        summary.queued,
        if summary.journal_skipped > 0 {
            format!(" ({} corrupt journal line(s) skipped)", summary.journal_skipped)
        } else {
            String::new()
        }
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Worker mode: one job per process, crash isolation by construction.
// ---------------------------------------------------------------------------

/// Reports a worker failure over stdout (the daemon attaches it as the
/// failure detail) and exits 1.
fn fail(msg: &str) -> ExitCode {
    println!("error {msg}");
    ExitCode::from(1)
}

fn parked() -> bool {
    sig::INTERRUPTED.load(std::sync::atomic::Ordering::SeqCst)
}

fn job_worker_mode() -> ExitCode {
    sig::install();
    let mut line = String::new();
    if let Err(e) = std::io::stdin().read_line(&mut line) {
        return fail(&format!("reading the job document: {e}"));
    }
    let Some(fields) = parse_flat_json(&line) else {
        return fail("malformed job document");
    };
    let Some(ckpt) = fields.get("checkpoint").map(PathBuf::from) else {
        return fail("job document lacks a checkpoint path");
    };
    let spec = match JobSpec::from_fields(&fields) {
        Ok(spec) => spec,
        Err(e) => return fail(&e),
    };
    match spec {
        JobSpec::Run(spec) => run_worker(&spec, &ckpt),
        JobSpec::Campaign(spec) => campaign_worker(&spec, &ckpt),
        JobSpec::Bench(spec) => bench_worker(&spec),
    }
}

/// Streams a mid-job `mempool-metrics-v2` snapshot over the worker's
/// stdout channel. A pure read of recorder state the digest already
/// covers — emitting (or not emitting) one never changes the simulation,
/// which is what keeps watched and unwatched runs bit-identical.
fn emit_partial_metrics<C: mempool::Core + mempool::CoreState>(session: &SimSession<C>) {
    if let Some(partial) = session.partial_metrics() {
        println!(
            "metrics {{\"cycle\":{},\"doc\":\"{}\"}}",
            session.now(),
            json_escape(&partial.to_json()),
        );
    }
}

fn run_worker(spec: &mempool_serve::RunSpec, ckpt: &Path) -> ExitCode {
    let config = match parse_config_spec(&spec.config_spec) {
        Ok(config) => config,
        Err(e) => return fail(&e),
    };
    let program = match mempool_riscv::assemble(&spec.program) {
        Ok(program) => program,
        Err(e) => return fail(&format!("program does not assemble: {e}")),
    };
    let mut builder = SimSession::builder(config);
    if spec.metrics {
        builder = builder.observability(ObsConfig::histograms());
    }
    let mut session = match builder.build_snitch() {
        Ok(session) => session,
        Err(e) => return fail(&format!("building the session: {e}")),
    };
    if let Err(e) = session.load_program(&program) {
        return fail(&format!("loading the program: {e}"));
    }
    if ckpt.exists() {
        // A corrupt checkpoint costs the progress it held, never the job:
        // discard it and replay from reset (determinism makes the replay
        // land on the identical result).
        if let Err(e) = session.unpark(ckpt) {
            eprintln!(
                "mempool-serve worker: discarding unreadable checkpoint {}: {e}",
                ckpt.display()
            );
            let _ = std::fs::remove_file(ckpt);
        }
    }
    loop {
        if parked() {
            if let Err(e) = session.park(ckpt) {
                return fail(&format!("parking checkpoint: {e}"));
            }
            emit_partial_metrics(&session);
            println!("parked {}", session.now());
            return ExitCode::from(3);
        }
        let now = session.now();
        if now >= spec.max_cycles {
            return fail(&format!(
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
                println!(
                    "result {{\"outcome\":\"completed\",\"cycles\":{},\"state_digest\":\"{:#018x}\",\"metrics\":\"{}\"}}",
                    session.now(),
                    session.state_digest(),
                    json_escape(&metrics),
                );
                let _ = std::fs::remove_file(ckpt);
                return ExitCode::SUCCESS;
            }
            Err(mempool::SimError::Timeout(_)) => {
                // Chunk boundary: refresh the checkpoint and report
                // liveness; the loop re-checks the park flag.
                if let Err(e) = session.park(ckpt) {
                    return fail(&format!("writing checkpoint: {e}"));
                }
                println!("heartbeat {}", session.now());
                emit_partial_metrics(&session);
            }
            Err(e) => return fail(&format!("simulation stopped: {e}")),
        }
    }
}

fn campaign_worker(spec: &mempool_serve::CampaignSpec, ckpt: &Path) -> ExitCode {
    let config = match parse_config_spec(&spec.config_spec) {
        Ok(config) => config,
        Err(e) => return fail(&e),
    };
    let faults = match spec.faults.parse() {
        Ok(faults) => faults,
        Err(e) => return fail(&format!("bad fault spec `{}`: {e}", spec.faults)),
    };
    let Some(pattern) = Pattern::parse_spec(&spec.pattern) else {
        return fail(&format!("bad pattern spec `{}`", spec.pattern));
    };
    let campaign = CampaignConfig {
        load: spec.load,
        pattern,
        windows: Windows {
            warmup: spec.warmup,
            measure: spec.measure,
            drain: spec.drain,
        },
        spec: faults,
        trials: spec.trials,
        base_seed: spec.seed,
    };
    // The manifest records completed trials; the checkpoint holds the
    // in-flight one. Together a retried or resumed worker skips recorded
    // trials and continues the interrupted one mid-flight.
    let manifest = ckpt.with_extension("manifest");
    let (mut trials, mut file) = match open_manifest(&config, &campaign, &manifest) {
        Ok(opened) => opened,
        Err(e) => return fail(&format!("opening the manifest: {e}")),
    };
    while trials.len() < spec.trials as usize {
        let seed = spec.seed + trials.len() as u64;
        let mut beat = |cycle: u64| println!("heartbeat {cycle}");
        let supervision = TrialSupervision {
            cancel: spec
                .cycle_budget
                .map(|budget| CancelToken::new().with_cycle_limit(budget)),
            interrupt: Some(&sig::INTERRUPTED),
            heartbeat: Some(&mut beat),
            sanitize: None,
        };
        match run_trial_supervised(
            config,
            &campaign,
            seed,
            ckpt,
            spec.checkpoint_every,
            supervision,
        ) {
            Ok(Ok(trial)) => {
                if let Err(e) = append_trial(&mut file, &trial) {
                    return fail(&format!("appending trial {seed} to the manifest: {e}"));
                }
                trials.push(trial);
                // Stream the partial report so watchers see per-trial
                // progress; the manifest stays the durable record.
                let partial = CampaignReport {
                    spec: campaign.spec,
                    trials: trials.clone(),
                };
                println!(
                    "metrics {{\"trials\":{},\"doc\":\"{}\"}}",
                    trials.len(),
                    json_escape(&partial.to_json()),
                );
            }
            Ok(Err(TrialStop::Interrupted)) => {
                println!("parked {}", trials.len());
                return ExitCode::from(3);
            }
            Ok(Err(TrialStop::Cancelled(cause))) => {
                return fail(&format!("trial {seed} cancelled: {cause:?}"));
            }
            Ok(Err(TrialStop::Sanitizer(detail))) => {
                return fail(&format!("trial {seed} sanitizer: {detail}"));
            }
            Err(CampaignError::CheckpointMismatch | CampaignError::CheckpointCorrupt(_)) => {
                // Stale or damaged trial checkpoint: drop it and replay
                // the trial from its seed (bit-identical by determinism).
                eprintln!(
                    "mempool-serve worker: discarding stale trial checkpoint {}",
                    ckpt.display()
                );
                let _ = std::fs::remove_file(ckpt);
            }
            Err(e) => return fail(&format!("trial {seed}: {e}")),
        }
    }
    let report = CampaignReport {
        spec: campaign.spec,
        trials,
    };
    println!(
        "result {{\"outcome\":\"completed\",\"trials\":{},\"report\":\"{}\"}}",
        report.trials.len(),
        json_escape(&report.to_json()),
    );
    ExitCode::SUCCESS
}

fn bench_worker(spec: &mempool_serve::BenchSpec) -> ExitCode {
    let config = BenchConfig {
        cycles: spec.cycles,
        warmup: spec.warmup,
        core_counts: spec.cores.clone(),
    };
    // Bench points are wall-clock measurements — there is nothing to
    // checkpoint. A park simply reruns the matrix after resume.
    match run_bench_supervised(&config, Some(&sig::INTERRUPTED)) {
        Ok((report, true)) => {
            println!("parked {}", report.points.len());
            ExitCode::from(3)
        }
        Ok((report, false)) => {
            println!(
                "result {{\"outcome\":\"completed\",\"points\":{},\"report\":\"{}\"}}",
                report.points.len(),
                json_escape(&report.to_json()),
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}
