//! `mempool-cli` — command-line client for the `mempool-serve` daemon.
//!
//! Speaks the `mempool-job-v1` JSON-lines protocol over the daemon's Unix
//! socket: submits run/campaign/bench jobs, streams their event feeds,
//! queries health, cancels, and triggers a graceful drain. All the heavy
//! lifting lives in [`mempool_serve::ServeClient`]; this binary is flags,
//! human-readable rendering, and exit codes.

#![cfg(unix)]

use mempool::json::parse_flat_json;
use mempool::Topology;
use mempool_serve::{BenchSpec, CampaignSpec, ClientError, JobSpec, RunSpec, ServeClient};
use mempool_suite::cli::{
    exit_error, exit_usage, parse_value, unexpected, Args, ClusterFlags, UsageError,
};
use mempool_suite::error::Error;
use mempool_traffic::RetryPolicy;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: mempool-cli [--socket <path>] <command> [OPTIONS]

Client for the mempool-serve daemon (protocol mempool-job-v1).

commands:
  submit run <file.s>    submit a program for execution
      --topology <ideal|top1|top4|topH>   interconnect (default top1)
      --small                             64-core cluster instead of 256
      --no-scramble                       disable address scrambling
      --max-cycles <n>                    halt deadline in cycles (default 1000000)
      --checkpoint-every <n>              park/heartbeat granularity (default 4096)
      --metrics                           attach the metrics recorder
  submit campaign        submit a fault-injection campaign
      --faults <spec>                     required, e.g. bank_fail=1,link_drop=0.001
      --topology/--small/--no-scramble    as for run
      --trials <n>        (default 3)     --load <f>      (default 0.05)
      --pattern <spec>    (default uniform)
      --warmup <n>        (default 100)   --measure <n>   (default 2000)
      --drain <n>         (default 10000) --seed <n>      (default 1)
      --checkpoint-every <n> (default 256)
      --cycle-budget <n>                  per-trial sim-cycle cap (default none)
  submit bench           submit a simulator-throughput bench matrix
      --cycles <n>        (default 1000)  --warmup <n>    (default 100)
      --cores <list>      (default 16)
  status <job>           one job's state, heartbeat age, cycle progress
  wait <job>             stream a job's events until it finishes
      --out <file>                        write the result document (metrics /
                                          campaign report / bench report) there
      --timeout <secs>                    give up after this long (exit 2; the
                                          job keeps running)
  watch <job>            stream the job's mempool-job-stream-v1 telemetry
                         records (JSON lines) until the terminal record
  tail                   stream every job's telemetry records until the
                         daemon drains
  timeline <job>         fetch the job's Chrome trace_event timeline
      --out <file>                        write it there instead of stdout
  health                 daemon health and queue counters
      --metrics                           print the full mempool-serve-metrics-v2
                                          document instead
  cancel <job>           cancel a queued or running job
  shutdown               ask the daemon to drain (park jobs and exit)

submit options (all kinds):
  --tenant <name>        tenant to charge (default `default`)
  --priority <n>         higher dispatches first (default 0)
  --deadline-secs <n>    per-attempt wall-clock deadline
  --wait                 submit, then behave like `wait <job>` (honors --out)

exit status: 0 on success (wait: job completed), 1 on failures and typed
rejections, 2 on usage errors and wait --timeout expiry";

fn main() -> ExitCode {
    let (socket, command) = match parse(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => return exit_usage(&e, USAGE),
    };
    match execute(&ServeClient::connect(&socket), command) {
        Ok(code) => code,
        Err(Error::Usage(e)) => exit_usage(&e, USAGE),
        Err(e) => exit_error(&e),
    }
}

type Fields = BTreeMap<String, String>;

/// A parsed command line: what to ask the daemon.
enum Command {
    Submit {
        common: SubmitCommon,
        spec: JobSpec,
        /// `submit run`'s assembly file, read into the spec on execution.
        source: Option<PathBuf>,
    },
    Status(u64),
    Wait {
        job: u64,
        out: Option<PathBuf>,
        timeout: Option<Duration>,
    },
    Watch(u64),
    Tail,
    Timeline {
        job: u64,
        out: Option<PathBuf>,
    },
    Health { metrics: bool },
    Cancel(u64),
    Shutdown,
}

/// Splits the command line into the daemon's socket and the command for it.
fn parse(args: Vec<String>) -> Result<(PathBuf, Command), UsageError> {
    let mut socket = PathBuf::from("mempool-serve.sock");
    let mut args = Args::new(args);
    // `--socket` may precede the command.
    let name = loop {
        match args.next_arg()? {
            Some(arg) if arg == "--socket" => socket = PathBuf::from(args.value()?),
            arg => break arg.unwrap_or_default(),
        }
    };
    let command = match name.as_str() {
        "submit" => submit(&mut args)?,
        "status" => Command::Status(job_id(&mut args)?),
        "wait" | "timeline" => {
            let job = job_id(&mut args)?;
            let (mut out, mut timeout) = (None, None);
            while let Some(arg) = args.next_arg()? {
                match arg.as_str() {
                    "--out" => out = Some(PathBuf::from(args.value()?)),
                    "--timeout" if name == "wait" => {
                        timeout = Some(Duration::from_secs(args.parse(NUMBER)?));
                    }
                    _ => return Err(unexpected(arg)),
                }
            }
            match name.as_str() {
                "wait" => Command::Wait { job, out, timeout },
                _ => Command::Timeline { job, out },
            }
        }
        "watch" => Command::Watch(job_id(&mut args)?),
        "tail" => Command::Tail,
        "health" => {
            let mut metrics = false;
            while let Some(arg) = args.next_arg()? {
                match arg.as_str() {
                    "--metrics" => metrics = true,
                    _ => return Err(unexpected(arg)),
                }
            }
            Command::Health { metrics }
        }
        "cancel" => Command::Cancel(job_id(&mut args)?),
        "shutdown" => Command::Shutdown,
        _ if name.starts_with('-') => return Err(UsageError::UnknownOption(name)),
        _ => {
            return Err(UsageError::MissingSubcommand(
                "submit, status, wait, watch, tail, timeline, health, cancel or shutdown",
            ))
        }
    };
    args.finish()?;
    Ok((socket, command))
}

fn job_id(args: &mut Args) -> Result<u64, UsageError> {
    let id = args.next_arg()?.ok_or(UsageError::MissingArgument("job id"))?;
    parse_value("<job>", &id, "expected a job id")
}

fn execute(client: &ServeClient, command: Command) -> Result<ExitCode, Error> {
    match command {
        Command::Submit { common, mut spec, source } => {
            if let (JobSpec::Run(run), Some(source)) = (&mut spec, source) {
                run.program = std::fs::read_to_string(&source)
                    .map_err(|e| Error::Other(format!("reading {}: {e}", source.display())))?;
            }
            spec.validate().map_err(|e| Error::Usage(UsageError::InvalidJob(e)))?;
            let job = client.submit(&common.tenant, common.priority, common.deadline_secs, &spec)?;
            println!("job {job} submitted ({})", spec.kind());
            if common.wait {
                return wait_and_render(client, job, common.out.as_deref(), None);
            }
        }
        Command::Status(job) => print_status(job, &client.status(job)?),
        Command::Wait { job, out, timeout } => {
            return wait_and_render(client, job, out.as_deref(), timeout);
        }
        Command::Watch(job) => return watch_and_render(client, job),
        Command::Tail => {
            client.tail(&mut |raw, _| println!("{raw}"))?;
            eprintln!("daemon closed the stream");
        }
        Command::Timeline { job, out } => {
            let doc = client.timeline(job)?;
            match out {
                Some(out) => {
                    std::fs::write(&out, doc.as_bytes())
                        .map_err(|e| Error::Other(format!("writing {}: {e}", out.display())))?;
                    println!("wrote {}", out.display());
                }
                None => println!("{doc}"),
            }
        }
        Command::Health { metrics: true } => println!("{}", client.serve_metrics()?),
        Command::Health { metrics: false } => {
            for (key, value) in &client.health()? {
                if key != "ok" {
                    println!("{key}: {value}");
                }
            }
        }
        Command::Cancel(job) => match client.cancel(job)?.get("status") {
            Some(status) => println!("job {job}: {status}"),
            None => println!("job {job}: cancelling"),
        },
        Command::Shutdown => {
            client.shutdown()?;
            println!("daemon draining");
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// submit
// ---------------------------------------------------------------------------

#[derive(Default)]
struct SubmitCommon {
    tenant: String,
    priority: u8,
    deadline_secs: Option<u64>,
    wait: bool,
    out: Option<PathBuf>,
}

/// What the numeric submit options expect.
const NUMBER: &str = "expected a number";

fn submit(args: &mut Args) -> Result<Command, UsageError> {
    let mut common = SubmitCommon {
        tenant: "default".to_owned(),
        ..SubmitCommon::default()
    };
    let mut source = None;
    let spec = match args.next_arg()?.unwrap_or_default().as_str() {
        "run" => submit_run(args, &mut common, &mut source)?,
        "campaign" => submit_campaign(args, &mut common)?,
        "bench" => submit_bench(args, &mut common)?,
        _ => return Err(UsageError::MissingSubcommand("run, campaign or bench")),
    };
    Ok(Command::Submit { common, spec, source })
}

/// Parses one flag shared by every submit kind; returns false if the flag
/// is not a common one.
fn common_flag(arg: &str, args: &mut Args, common: &mut SubmitCommon) -> Result<bool, UsageError> {
    match arg {
        "--tenant" => common.tenant = args.value()?,
        "--priority" => common.priority = args.parse("expected a number in 0..=255")?,
        "--deadline-secs" => common.deadline_secs = Some(args.parse(NUMBER)?),
        "--wait" => common.wait = true,
        "--out" => common.out = Some(PathBuf::from(args.value()?)),
        _ => return Ok(false),
    }
    Ok(true)
}

fn submit_run(
    args: &mut Args,
    common: &mut SubmitCommon,
    source: &mut Option<PathBuf>,
) -> Result<JobSpec, UsageError> {
    let mut cluster = ClusterFlags {
        topology: Topology::Top1,
        ..ClusterFlags::default()
    };
    let mut spec = RunSpec {
        config_spec: String::new(),
        program: String::new(),
        max_cycles: 1_000_000,
        checkpoint_every: 4096,
        metrics: false,
    };
    while let Some(arg) = args.next_arg()? {
        if common_flag(&arg, args, common)? || cluster.accept(&arg, args)? {
            continue;
        }
        match arg.as_str() {
            "--max-cycles" => spec.max_cycles = args.parse(NUMBER)?,
            "--checkpoint-every" => spec.checkpoint_every = args.parse(NUMBER)?,
            "--metrics" => spec.metrics = true,
            _ if !arg.starts_with('-') && source.is_none() => *source = Some(PathBuf::from(arg)),
            _ => return Err(unexpected(arg)),
        }
    }
    if source.is_none() {
        return Err(UsageError::MissingArgument("assembly file"));
    }
    spec.config_spec = cluster.spec();
    Ok(JobSpec::Run(spec))
}

fn submit_campaign(args: &mut Args, common: &mut SubmitCommon) -> Result<JobSpec, UsageError> {
    let mut cluster = ClusterFlags {
        topology: Topology::Top1,
        ..ClusterFlags::default()
    };
    let mut spec = CampaignSpec {
        config_spec: String::new(),
        faults: String::new(),
        trials: 3,
        load: 0.05,
        pattern: "uniform".to_owned(),
        warmup: 100,
        measure: 2000,
        drain: 10_000,
        seed: 1,
        checkpoint_every: 256,
        cycle_budget: None,
    };
    while let Some(arg) = args.next_arg()? {
        if common_flag(&arg, args, common)? || cluster.accept(&arg, args)? {
            continue;
        }
        match arg.as_str() {
            "--faults" => spec.faults = args.value()?,
            "--trials" => spec.trials = args.parse(NUMBER)?,
            "--load" => spec.load = args.parse(NUMBER)?,
            "--pattern" => spec.pattern = args.value()?,
            "--warmup" => spec.warmup = args.parse(NUMBER)?,
            "--measure" => spec.measure = args.parse(NUMBER)?,
            "--drain" => spec.drain = args.parse(NUMBER)?,
            "--seed" => spec.seed = args.parse(NUMBER)?,
            "--checkpoint-every" => spec.checkpoint_every = args.parse(NUMBER)?,
            "--cycle-budget" => spec.cycle_budget = Some(args.parse(NUMBER)?),
            _ => return Err(unexpected(arg)),
        }
    }
    if spec.faults.is_empty() {
        return Err(UsageError::MissingOption("--faults"));
    }
    spec.config_spec = cluster.spec();
    Ok(JobSpec::Campaign(spec))
}

fn submit_bench(args: &mut Args, common: &mut SubmitCommon) -> Result<JobSpec, UsageError> {
    let mut spec = BenchSpec {
        cycles: 1000,
        warmup: 100,
        cores: vec![16],
    };
    while let Some(arg) = args.next_arg()? {
        if common_flag(&arg, args, common)? {
            continue;
        }
        match arg.as_str() {
            "--cycles" => spec.cycles = args.parse(NUMBER)?,
            "--warmup" => spec.warmup = args.parse(NUMBER)?,
            "--cores" => {
                spec.cores = args
                    .value()?
                    .split(',')
                    .map(|p| parse_value("--cores", p.trim(), "expected a comma-separated list"))
                    .collect::<Result<_, _>>()?;
            }
            _ => return Err(unexpected(arg)),
        }
    }
    Ok(JobSpec::Bench(spec))
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn print_status(job: u64, fields: &Fields) {
    let status = fields.get("status").map_or("?", String::as_str);
    let attempt = fields.get("attempt").map_or("0", String::as_str);
    println!("job {job}: {status} (attempt {attempt})");
    if let Some(age) = fields.get("heartbeat_age_ms") {
        match fields.get("cycle") {
            Some(cycle) => println!("heartbeat: {age}ms ago, at cycle {cycle}"),
            None => println!("heartbeat: {age}ms ago"),
        }
    }
    if let Some(result) = fields.get("result") {
        println!("result: {result}");
    }
}

/// Streams a job's events until terminal, prints progress, optionally
/// writes the embedded result document to `out`. Exit code mirrors the
/// job: 0 completed, 1 failed or cancelled, 2 when `--timeout` expires
/// first.
///
/// A dropped connection (the daemon draining for a restart) is retried
/// with the fleet's seeded jittered backoff ([`RetryPolicy::delay`]),
/// polling `status` between attempts in case the job went terminal while
/// the daemon was away.
fn wait_and_render(
    client: &ServeClient,
    job: u64,
    out: Option<&Path>,
    timeout: Option<Duration>,
) -> Result<ExitCode, Error> {
    let deadline = timeout.map(|t| Instant::now() + t);
    // Without a --timeout we still stop retrying eventually rather than
    // spin forever against a daemon that never came back.
    // From 50 ms, doubling to a 2 s cap, with jitter seeded by the job id.
    let reconnect = RetryPolicy {
        max_attempts: 8,
        ..RetryPolicy::default()
    };
    let mut attempt = 0;
    let mut on_event = |fields: &Fields| {
        let field = |key: &str| fields.get(key).map_or("?", String::as_str);
        match fields.get("kind").map(String::as_str) {
            // The acknowledgment, which has no kind, opens with the status.
            None | Some("state") => eprintln!("job {job}: {}", field("status")),
            Some("heartbeat") => eprintln!("job {job}: heartbeat at cycle {}", field("cycle")),
            Some("attempt-failed") => {
                eprintln!("job {job}: attempt {} failed ({})", field("attempt"), field("failure"));
            }
            _ => {}
        }
    };
    let done = loop {
        match client.wait_until(job, deadline, &mut on_event) {
            Ok(done) => break done,
            Err(ClientError::TimedOut(after)) => return Ok(timed_out(after)),
            Err(e @ ClientError::Rejected { .. }) => return Err(e.into()),
            Err(e) => {
                if attempt == reconnect.max_attempts {
                    return Err(e.into());
                }
                attempt += 1;
                let delay = reconnect.delay(job, attempt);
                if let Some(deadline) = deadline {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(timed_out(timeout.unwrap_or_default()));
                    }
                    std::thread::sleep(delay.min(left));
                } else {
                    std::thread::sleep(delay);
                }
                eprintln!("job {job}: reconnecting ({e})");
                // The job may have finished while the daemon was away.
                if let Ok(fields) = client.status(job) {
                    let status = fields.get("status").map_or("", String::as_str);
                    if matches!(status, "completed" | "failed" | "cancelled") {
                        break fields;
                    }
                }
            }
        }
    };
    let status = done.get("status").map_or("?", String::as_str);
    println!("job {job}: {status}");
    let result = done.get("result").cloned().unwrap_or_default();
    if !result.is_empty() {
        render_result(job, &result, out)?;
    }
    Ok(if status == "completed" {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `wait --timeout` expired before the job went terminal. Exits 2, the
/// suite-wide "caller's constraint, not a job failure" code, so scripts can
/// tell "job failed" (1) from "I stopped waiting" (2).
fn timed_out(after: Duration) -> ExitCode {
    exit_error(&ClientError::TimedOut(after).into());
    ExitCode::from(Error::USAGE_EXIT_CODE)
}

/// Streams a job's `mempool-job-stream-v1` telemetry records to stdout as
/// raw JSON lines (machine-consumable; pipe to `jq` or a file) until the
/// terminal record. Exit code mirrors the job like `wait`.
fn watch_and_render(client: &ServeClient, job: u64) -> Result<ExitCode, Error> {
    let done = client.watch(job, &mut |raw, _| println!("{raw}"))?;
    let status = done.get("status").map_or("?", String::as_str);
    eprintln!("job {job}: {status}");
    Ok(if status == "completed" {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The result payload is itself a flat JSON document; nested documents
/// (metrics registry, campaign report, bench report) ride inside it as
/// escaped strings. Surface the scalars, and write the first embedded
/// document to `out` when asked.
fn render_result(job: u64, result: &str, out: Option<&Path>) -> Result<(), Error> {
    let Some(fields) = parse_flat_json(result) else {
        println!("result: {result}");
        return Ok(());
    };
    for (key, value) in &fields {
        if !matches!(key.as_str(), "metrics" | "report") {
            println!("{key}: {value}");
        }
    }
    if let Some(out) = out {
        // parse_flat_json already unescaped the embedded document.
        let doc = fields
            .get("metrics")
            .or_else(|| fields.get("report"))
            .ok_or_else(|| {
                Error::Other(format!("job {job} result has no embedded document"))
            })?;
        std::fs::write(out, doc.as_bytes())
            .map_err(|e| Error::Other(format!("writing {}: {e}", out.display())))?;
        println!("wrote {}", out.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_option_the_usage_text_names_is_accepted_by_a_command() {
        // One text documents every command: an option is known when the
        // command it belongs to takes it.
        let commands: [&[&str]; 7] = [
            &[],
            &["submit", "run"],
            &["submit", "campaign"],
            &["submit", "bench"],
            &["wait", "0"],
            &["timeline", "0"],
            &["health"],
        ];
        let parse_any = |args: Vec<String>| {
            let unknown = Err(UsageError::UnknownOption(args[0].clone()));
            commands
                .iter()
                .map(|command| command.iter().map(|s| s.to_string()).chain(args.clone()))
                .map(|args| parse(args.collect()))
                .find(|outcome| !matches!(outcome, Err(UsageError::UnknownOption(_))))
                .unwrap_or(unknown)
        };
        assert_eq!(mempool_suite::cli::unparsed_options(USAGE, parse_any), [""; 0]);
    }
}
