//! `mempool-cli` — command-line client for the `mempool-serve` daemon.
//!
//! Speaks the `mempool-job-v1` JSON-lines protocol over the daemon's Unix
//! socket: submits run/campaign/bench jobs, streams their event feeds,
//! queries health, cancels, and triggers a graceful drain. All the heavy
//! lifting lives in [`mempool_serve::ServeClient`]; this binary is flags,
//! human-readable rendering, and exit codes.

#![cfg(unix)]

use mempool::Topology;
use mempool_serve::{
    Backoff, BenchSpec, CampaignSpec, ClientError, JobSpec, RunSpec, ServeClient,
};
use mempool_traffic::{parse_flat_json, render_config_spec};
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
      --metrics                           print the full mempool-serve-metrics-v1
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            if msg.is_empty() {
                println!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("mempool-cli: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        }
        Err(CliError::Client(e)) => {
            eprintln!("mempool-cli: {e}");
            ExitCode::from(1)
        }
        Err(CliError::Other(msg)) => {
            eprintln!("mempool-cli: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Timeout(msg)) => {
            eprintln!("mempool-cli: {msg}");
            ExitCode::from(2)
        }
    }
}

enum CliError {
    /// Bad command line; empty message means `--help`.
    Usage(String),
    Client(ClientError),
    Other(String),
    /// `wait --timeout` expired before the job went terminal. Exits 2, the
    /// suite-wide "caller's constraint, not a job failure" code, so scripts
    /// can tell "job failed" (1) from "I stopped waiting" (2).
    Timeout(String),
}

impl From<ClientError> for CliError {
    fn from(e: ClientError) -> CliError {
        match e {
            ClientError::TimedOut(after) => {
                CliError::Timeout(format!("timed out after {:.1}s", after.as_secs_f64()))
            }
            other => CliError::Client(other),
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

type Fields = BTreeMap<String, String>;

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let mut socket = PathBuf::from("mempool-serve.sock");
    let mut rest = args;
    // `--socket` may precede the command.
    while let Some(arg) = rest.first() {
        match arg.as_str() {
            "--socket" => {
                socket = PathBuf::from(
                    rest.get(1).ok_or_else(|| usage("--socket needs a value"))?,
                );
                rest = &rest[2..];
            }
            "--help" | "-h" => return Err(CliError::Usage(String::new())),
            _ => break,
        }
    }
    let client = ServeClient::connect(&socket);
    let (command, rest) = rest
        .split_first()
        .ok_or_else(|| usage("missing command"))?;
    match command.as_str() {
        "submit" => submit(&client, rest),
        "status" => {
            let job = job_arg(rest)?;
            let fields = client.status(job)?;
            print_status(job, &fields);
            Ok(ExitCode::SUCCESS)
        }
        "wait" => {
            let (job, out, timeout) = wait_args(rest)?;
            wait_and_render(&client, job, out.as_deref(), timeout)
        }
        "watch" => {
            let job = job_arg(rest)?;
            watch_and_render(&client, job)
        }
        "tail" => {
            if let Some(extra) = rest.first() {
                return Err(usage(format!("unexpected argument `{extra}`")));
            }
            client.tail(&mut |raw, _| println!("{raw}"))?;
            eprintln!("daemon closed the stream");
            Ok(ExitCode::SUCCESS)
        }
        "timeline" => {
            let (job, out) = timeline_args(rest)?;
            let doc = client.timeline(job)?;
            match out {
                Some(out) => {
                    std::fs::write(&out, doc.as_bytes()).map_err(|e| {
                        CliError::Other(format!("writing {}: {e}", out.display()))
                    })?;
                    println!("wrote {}", out.display());
                }
                None => println!("{doc}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "health" => {
            match rest.first().map(String::as_str) {
                Some("--metrics") => {
                    println!("{}", client.serve_metrics()?);
                    return Ok(ExitCode::SUCCESS);
                }
                Some(extra) => return Err(usage(format!("unexpected argument `{extra}`"))),
                None => {}
            }
            let fields = client.health()?;
            for (key, value) in &fields {
                if key != "ok" {
                    println!("{key}: {value}");
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "cancel" => {
            let job = job_arg(rest)?;
            let fields = client.cancel(job)?;
            match fields.get("status") {
                Some(status) => println!("job {job}: {status}"),
                None => println!("job {job}: cancelling"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            client.shutdown()?;
            println!("daemon draining");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

fn job_arg(rest: &[String]) -> Result<u64, CliError> {
    let id = rest.first().ok_or_else(|| usage("expected a job id"))?;
    if rest.len() > 1 {
        return Err(usage(format!("unexpected argument `{}`", rest[1])));
    }
    id.parse()
        .map_err(|_| usage(format!("bad job id `{id}`")))
}

fn wait_args(rest: &[String]) -> Result<(u64, Option<PathBuf>, Option<Duration>), CliError> {
    let (id, mut rest) = rest
        .split_first()
        .ok_or_else(|| usage("expected a job id"))?;
    let job = id.parse().map_err(|_| usage(format!("bad job id `{id}`")))?;
    let mut out = None;
    let mut timeout = None;
    while let Some(arg) = rest.first() {
        match arg.as_str() {
            "--out" => {
                out = Some(PathBuf::from(
                    rest.get(1).ok_or_else(|| usage("--out needs a value"))?,
                ));
                rest = &rest[2..];
            }
            "--timeout" => {
                let secs: u64 = parse_num(
                    "--timeout",
                    rest.get(1).ok_or_else(|| usage("--timeout needs a value"))?,
                )?;
                timeout = Some(Duration::from_secs(secs));
                rest = &rest[2..];
            }
            other => return Err(usage(format!("unexpected argument `{other}`"))),
        }
    }
    Ok((job, out, timeout))
}

fn timeline_args(rest: &[String]) -> Result<(u64, Option<PathBuf>), CliError> {
    let (id, mut rest) = rest
        .split_first()
        .ok_or_else(|| usage("expected a job id"))?;
    let job = id.parse().map_err(|_| usage(format!("bad job id `{id}`")))?;
    let mut out = None;
    while let Some(arg) = rest.first() {
        match arg.as_str() {
            "--out" => {
                out = Some(PathBuf::from(
                    rest.get(1).ok_or_else(|| usage("--out needs a value"))?,
                ));
                rest = &rest[2..];
            }
            other => return Err(usage(format!("unexpected argument `{other}`"))),
        }
    }
    Ok((job, out))
}

// ---------------------------------------------------------------------------
// submit
// ---------------------------------------------------------------------------

struct SubmitCommon {
    tenant: String,
    priority: u8,
    deadline_secs: Option<u64>,
    wait: bool,
    out: Option<PathBuf>,
}

impl Default for SubmitCommon {
    fn default() -> SubmitCommon {
        SubmitCommon {
            tenant: "default".to_owned(),
            priority: 0,
            deadline_secs: None,
            wait: false,
            out: None,
        }
    }
}

fn submit(client: &ServeClient, rest: &[String]) -> Result<ExitCode, CliError> {
    let (kind, rest) = rest
        .split_first()
        .ok_or_else(|| usage("submit: expected run, campaign, or bench"))?;
    let mut common = SubmitCommon::default();
    let spec = match kind.as_str() {
        "run" => submit_run(rest, &mut common)?,
        "campaign" => submit_campaign(rest, &mut common)?,
        "bench" => submit_bench(rest, &mut common)?,
        other => return Err(usage(format!("submit: unknown job kind `{other}`"))),
    };
    spec.validate().map_err(|e| usage(format!("invalid job: {e}")))?;
    let job = client.submit(&common.tenant, common.priority, common.deadline_secs, &spec)?;
    println!("job {job} submitted ({})", spec.kind());
    if common.wait {
        wait_and_render(client, job, common.out.as_deref(), None)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Parses one flag shared by every submit kind; returns false if the flag
/// is not a common one.
fn common_flag(
    arg: &str,
    next: &mut dyn FnMut(&str) -> Result<String, CliError>,
    common: &mut SubmitCommon,
) -> Result<bool, CliError> {
    match arg {
        "--tenant" => common.tenant = next("--tenant")?,
        "--priority" => {
            common.priority = parse_num::<u8>("--priority", &next("--priority")?)?;
        }
        "--deadline-secs" => {
            common.deadline_secs =
                Some(parse_num::<u64>("--deadline-secs", &next("--deadline-secs")?)?);
        }
        "--wait" => common.wait = true,
        "--out" => common.out = Some(PathBuf::from(next("--out")?)),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| usage(format!("{name}: expected a number, got `{v}`")))
}

fn parse_topology_flag(v: &str) -> Result<Topology, CliError> {
    match v {
        "ideal" => Ok(Topology::Ideal),
        "top1" => Ok(Topology::Top1),
        "top4" => Ok(Topology::Top4),
        "topH" | "toph" => Ok(Topology::TopH),
        other => Err(usage(format!("unknown topology `{other}`"))),
    }
}

fn parse_list(name: &str, v: &str) -> Result<Vec<usize>, CliError> {
    v.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| usage(format!("{name}: bad list entry `{p}`")))
        })
        .collect()
}

fn submit_run(rest: &[String], common: &mut SubmitCommon) -> Result<JobSpec, CliError> {
    let mut source: Option<PathBuf> = None;
    let mut topology = Topology::Top1;
    let mut small = false;
    let mut scramble = true;
    let mut spec = RunSpec {
        config_spec: String::new(),
        program: String::new(),
        max_cycles: 1_000_000,
        checkpoint_every: 4096,
        metrics: false,
    };
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        let mut next = |name: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| usage(format!("{name} needs a value")))
        };
        if common_flag(arg, &mut next, common)? {
            continue;
        }
        match arg.as_str() {
            "--topology" => topology = parse_topology_flag(&next("--topology")?)?,
            "--small" => small = true,
            "--no-scramble" => scramble = false,
            "--max-cycles" => {
                spec.max_cycles = parse_num("--max-cycles", &next("--max-cycles")?)?;
            }
            "--checkpoint-every" => {
                spec.checkpoint_every =
                    parse_num("--checkpoint-every", &next("--checkpoint-every")?)?;
            }
            "--metrics" => spec.metrics = true,
            other if !other.starts_with('-') && source.is_none() => {
                source = Some(PathBuf::from(other));
            }
            other => return Err(usage(format!("submit run: unexpected `{other}`"))),
        }
    }
    let source = source.ok_or_else(|| usage("submit run: expected an assembly file"))?;
    spec.program = std::fs::read_to_string(&source)
        .map_err(|e| CliError::Other(format!("reading {}: {e}", source.display())))?;
    spec.config_spec = render_config_spec(topology, small, scramble);
    Ok(JobSpec::Run(spec))
}

fn submit_campaign(rest: &[String], common: &mut SubmitCommon) -> Result<JobSpec, CliError> {
    let mut topology = Topology::Top1;
    let mut small = false;
    let mut scramble = true;
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
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        let mut next = |name: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| usage(format!("{name} needs a value")))
        };
        if common_flag(arg, &mut next, common)? {
            continue;
        }
        match arg.as_str() {
            "--topology" => topology = parse_topology_flag(&next("--topology")?)?,
            "--small" => small = true,
            "--no-scramble" => scramble = false,
            "--faults" => spec.faults = next("--faults")?,
            "--trials" => spec.trials = parse_num("--trials", &next("--trials")?)?,
            "--load" => spec.load = parse_num("--load", &next("--load")?)?,
            "--pattern" => spec.pattern = next("--pattern")?,
            "--warmup" => spec.warmup = parse_num("--warmup", &next("--warmup")?)?,
            "--measure" => spec.measure = parse_num("--measure", &next("--measure")?)?,
            "--drain" => spec.drain = parse_num("--drain", &next("--drain")?)?,
            "--seed" => spec.seed = parse_num("--seed", &next("--seed")?)?,
            "--checkpoint-every" => {
                spec.checkpoint_every =
                    parse_num("--checkpoint-every", &next("--checkpoint-every")?)?;
            }
            "--cycle-budget" => {
                spec.cycle_budget = Some(parse_num("--cycle-budget", &next("--cycle-budget")?)?);
            }
            other => return Err(usage(format!("submit campaign: unexpected `{other}`"))),
        }
    }
    if spec.faults.is_empty() {
        return Err(usage("submit campaign: --faults is required"));
    }
    spec.config_spec = render_config_spec(topology, small, scramble);
    Ok(JobSpec::Campaign(spec))
}

fn submit_bench(rest: &[String], common: &mut SubmitCommon) -> Result<JobSpec, CliError> {
    let mut spec = BenchSpec {
        cycles: 1000,
        warmup: 100,
        cores: vec![16],
    };
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        let mut next = |name: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| usage(format!("{name} needs a value")))
        };
        if common_flag(arg, &mut next, common)? {
            continue;
        }
        match arg.as_str() {
            "--cycles" => spec.cycles = parse_num("--cycles", &next("--cycles")?)?,
            "--warmup" => spec.warmup = parse_num("--warmup", &next("--warmup")?)?,
            "--cores" => spec.cores = parse_list("--cores", &next("--cores")?)?,
            other => return Err(usage(format!("submit bench: unexpected `{other}`"))),
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
/// with jittered exponential backoff, polling `status` between attempts
/// in case the job went terminal while the daemon was away.
fn wait_and_render(
    client: &ServeClient,
    job: u64,
    out: Option<&Path>,
    timeout: Option<Duration>,
) -> Result<ExitCode, CliError> {
    let deadline = timeout.map(|t| Instant::now() + t);
    let mut backoff = Backoff::new(0x6d65_6d70 ^ job);
    // Without a --timeout we still stop retrying eventually rather than
    // spin forever against a daemon that never came back.
    let mut retries_left: u32 = 8;
    let mut on_event = |fields: &Fields| {
        match fields.get("event").map(String::as_str) {
            Some("state") => {
                if let Some(status) = fields.get("status") {
                    eprintln!("job {job}: {status}");
                }
            }
            Some("heartbeat") => {
                if let Some(cycle) = fields.get("cycle") {
                    eprintln!("job {job}: heartbeat at cycle {cycle}");
                }
            }
            Some("attempt-failed") => {
                eprintln!(
                    "job {job}: attempt {} failed ({})",
                    fields.get("attempt").map_or("?", String::as_str),
                    fields.get("kind").map_or("?", String::as_str),
                );
            }
            _ => {}
        }
    };
    let done = loop {
        match client.wait_until(job, deadline, &mut on_event) {
            Ok(done) => break done,
            Err(e @ (ClientError::Rejected { .. } | ClientError::TimedOut(_))) => {
                return Err(e.into());
            }
            Err(e) => {
                if retries_left == 0 {
                    return Err(e.into());
                }
                retries_left -= 1;
                let delay = backoff.next_delay();
                if let Some(deadline) = deadline {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(CliError::Timeout(format!(
                            "timed out after {:.1}s",
                            timeout.unwrap_or_default().as_secs_f64()
                        )));
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

/// Streams a job's `mempool-job-stream-v1` telemetry records to stdout as
/// raw JSON lines (machine-consumable; pipe to `jq` or a file) until the
/// terminal record. Exit code mirrors the job like `wait`.
fn watch_and_render(client: &ServeClient, job: u64) -> Result<ExitCode, CliError> {
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
fn render_result(job: u64, result: &str, out: Option<&Path>) -> Result<(), CliError> {
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
                CliError::Other(format!("job {job} result has no embedded document"))
            })?;
        std::fs::write(out, doc.as_bytes())
            .map_err(|e| CliError::Other(format!("writing {}: {e}", out.display())))?;
        println!("wrote {}", out.display());
    }
    Ok(())
}
