//! `mempool-serve` — the fault-tolerant multi-tenant simulation service.
//!
//! Two entry points share this binary:
//!
//! - **Daemon** (default): binds the Unix socket, replays the job journal,
//!   and supervises a fleet of crash-isolated worker processes (see
//!   [`mempool_serve::daemon`]). `SIGTERM`/`SIGINT` starts a graceful
//!   drain: every in-flight job checkpoint-parks and a restart with the
//!   same `--state-dir` resumes it bit-identically.
//! - **`worker`** (internal): spawned by the daemon with one job document
//!   on stdin; see [`mempool_suite::worker`].

#![cfg(unix)]

use mempool_serve::{run_daemon, DaemonConfig};
use mempool_suite::cli::{
    exit_error, exit_usage, invalid, parse_value, unexpected, Args, UsageError,
};
use mempool_suite::error::Error;
use mempool_traffic::sig;
use std::path::PathBuf;
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return mempool_suite::worker::run();
    }
    let config = match parse(args) {
        Ok(config) => config,
        Err(e) => return exit_usage(&e, USAGE),
    };
    match daemon_mode(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => exit_error(&e),
    }
}

/// Every number is parsed at its field's own width: a value the field
/// cannot hold is a usage error, never a silently truncated setting.
fn parse(args: Vec<String>) -> Result<DaemonConfig, UsageError> {
    let mut config = DaemonConfig::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--socket" => config.socket = PathBuf::from(args.value()?),
            "--state-dir" => config.state_dir = PathBuf::from(args.value()?),
            "--workers" => config.worker_slots = args.parse("expected a worker count")?,
            "--queue-depth" => config.scheduler.queue_depth = args.parse("expected a job count")?,
            "--default-quota" => {
                config.scheduler.default_quota = args.parse("expected a job count")?;
            }
            "--quota" => {
                let spec = args.value()?;
                let (tenant, n) = spec
                    .split_once('=')
                    .ok_or_else(|| invalid("--quota", format!("expected tenant=n, got `{spec}`")))?;
                let n = parse_value("--quota", n, "expected tenant=<job count>")?;
                config.scheduler.quotas.insert(tenant.to_owned(), n);
            }
            "--max-attempts" => {
                config.retry.max_attempts = args.parse("expected an attempt count")?;
            }
            "--backoff-ms" => config.retry.backoff_base_ms = args.parse("expected milliseconds")?,
            "--deadline-secs" => {
                config.default_deadline =
                    Some(Duration::from_secs(args.parse("expected seconds")?));
            }
            _ => return Err(unexpected(arg)),
        }
    }
    Ok(config)
}

fn daemon_mode(config: DaemonConfig) -> Result<(), Error> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_option_the_usage_text_names_is_accepted_by_the_parser() {
        assert_eq!(mempool_suite::cli::unparsed_options(USAGE, parse), [""; 0]);
    }
}
