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
