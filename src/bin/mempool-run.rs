//! `mempool-run` — assemble an RV32IMA source file and execute it on the
//! cycle-accurate MemPool cluster.
//!
//! ```console
//! $ mempool-run run program.s                        # 256 cores, TopH
//! $ mempool-run run --topology top1 --small prog.s  # 64 cores, Top1
//! $ mempool-run run --metrics-json m.json --trace-out t.json prog.s
//! $ mempool-run bench --out bench.json --cores 16
//! $ mempool-run campaign --small --loads 0.02,0.10 --metrics-json sweep.json
//! ```

use mempool::{
    ClusterConfig, ClusterSnapshot, FaultPlan, FaultSpec, ObsConfig, ProfileConfig,
    ResilienceConfig, SanitizerConfig, SimSession, Topology,
};
use mempool_riscv::{assemble, Reg};
use mempool_suite::error::Error;
use mempool_traffic::{
    parse_config_spec, render_config_spec, run_point_with_metrics, sig, Executor, ExecutorConfig,
    MeteredPoint, Pattern, RetryPolicy, Windows,
};
use std::fmt;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug)]
struct Options {
    topology: Topology,
    small: bool,
    scramble: bool,
    max_cycles: u64,
    dump_regs: Option<usize>,
    dump_mem: Option<(u32, usize)>,
    trace_core: Option<usize>,
    functional: bool,
    listing: bool,
    emit_bin: Option<String>,
    describe: bool,
    faults: Option<FaultSpec>,
    seed: u64,
    checkpoint_every: u64,
    checkpoint_file: Option<String>,
    resume: Option<String>,
    json: bool,
    metrics_json: Option<String>,
    metrics_stream: Option<String>,
    trace_out: Option<String>,
    trace_sample: u64,
    profile_out: Option<String>,
    power_out: Option<String>,
    max_wall_secs: Option<u64>,
    sanitize: bool,
    path: String,
}

/// Options of the `bench` subcommand.
#[derive(Debug, PartialEq, Eq)]
struct BenchOptions {
    out: String,
    cores: Vec<usize>,
    cycles: u64,
}

/// Options of the `profile` subcommand: one profiled program run with the
/// per-region summary on stdout and optional folded-stack / power exports.
#[derive(Debug, PartialEq, Eq)]
struct ProfileOptions {
    topology: Topology,
    small: bool,
    scramble: bool,
    max_cycles: u64,
    max_pcs: usize,
    window: u64,
    top: usize,
    out: Option<String>,
    power_out: Option<String>,
    path: String,
}

/// Options of the `campaign` subcommand. Without `--faults` this is a
/// synthetic-traffic load sweep with full observability exports; with
/// `--faults` it is a supervised fault-injection campaign run by the
/// crash-isolated executor.
#[derive(Debug, PartialEq)]
struct CampaignOptions {
    topology: Topology,
    small: bool,
    scramble: bool,
    pattern: Pattern,
    pattern_label: String,
    loads: Vec<f64>,
    windows: Windows,
    seed: u64,
    metrics_json: Option<String>,
    trace_out: Option<String>,
    trace_sample: u64,
    // Fault-campaign (executor) mode; active when `faults` is set.
    faults: Option<FaultSpec>,
    trials: u32,
    manifest: Option<String>,
    load: f64,
    deadline_secs: Option<u64>,
    cycle_budget: Option<u64>,
    max_attempts: u32,
    backoff_ms: u64,
    checkpoint_every: u64,
    isolate: Option<usize>,
    sanitize: bool,
    json_out: Option<String>,
}

/// A parsed command line: which subcommand runs, with its options.
#[derive(Debug)]
enum Command {
    Run(Box<Options>),
    Bench(BenchOptions),
    Campaign(Box<CampaignOptions>),
    Profile(ProfileOptions),
    /// Hidden: one supervised job, driven over stdin/stdout by a parent
    /// `campaign --isolate` process.
    Worker,
}

const USAGE: &str = "usage: mempool-run <run|bench|campaign|profile> [OPTIONS]

subcommands:
  run        assemble and execute a program (see `run --help`)
  bench      the simulator benchmark matrix (see `bench --help`)
  campaign   a synthetic-traffic load sweep with metrics (see `campaign --help`)
  profile    a profiled run: region/stall breakdown, flamegraph and power
             exports (see `profile --help`)

run options:
  --topology <top1|top4|topH|ideal>  interconnect topology (default topH)
  --small                            64-core cluster instead of 256
  --no-scramble                      disable the hybrid addressing scheme
  --max-cycles <n>                   cycle budget (default 100000000)
  --dump-regs <core>                 print core's registers after the run
  --dump-mem <addr>:<words>          print an L1 region after the run
  --trace-core <core>                print the core's last 32 retired instructions
  --functional                       run on the untimed reference simulator
  --listing                          print the assembled program and exit
  --emit-bin <file>                  write the assembled image (LE words) and exit
  --describe                         print the instantiated hardware and exit
  --faults <spec>                    inject faults: key=value pairs, e.g.
                                     bank_fail=2,link_stall=0.01 (see FaultSpec)
  --seed <n>                         fault-injection seed (default 0)
  --checkpoint-every <n>             write a checkpoint every n cycles
  --checkpoint-file <file>           checkpoint path (default <program.s>.ckpt)
  --resume <file>                    restore a checkpoint and continue the run
  --json                             machine-readable result (incl. state digest)
  --metrics-json <file>              export the mempool-metrics-v1 registry
                                     (per-scope counters + latency histograms)
  --metrics-stream <file>            append a partial-metrics JSON line
                                     ({\"cycle\":n,\"doc\":\"...\"}) at every
                                     chunk boundary (--checkpoint-every wide,
                                     default 4096) while the run progresses
  --trace-out <file>                 export a Chrome trace_event timeline
  --trace-sample <n>                 sample every n-th delivery (default 64;
                                     requires --trace-out)
  --profile-out <file>               export the folded-stack (flamegraph)
                                     profile of the run
  --power-out <file>                 export the mempool-power-v1 power
                                     timeline (1024-cycle windows)
  --max-wall-secs <s>                wall-clock limit; the run stops with a
                                     typed timeout error when it expires
  --sanitize                         check cycle-level interconnect invariants
                                     every cycle; violations are an error
  --help                             this text

exit status: 0 on success, 1 on runtime errors, 2 on usage errors";

const BENCH_USAGE: &str = "usage: mempool-run bench --out <file> [OPTIONS]

options:
  --out <file>            write the mempool-bench-v2 report here (required)
  --cores <16|256|all>    bench cluster sizes (default all)
  --cycles <n>            measured cycles per bench point (default 2000)
  --help                  this text

exit status: 0 on success, 1 on runtime errors, 2 on usage errors, 3 when
interrupted (completed points are still flushed to --out)";

const CAMPAIGN_USAGE: &str = "usage: mempool-run campaign [OPTIONS]

Without --faults: a synthetic-traffic load sweep with metrics exports.
With --faults: a supervised fault-injection campaign — each trial runs
under the crash-isolated executor with deadlines, retry-from-checkpoint
with seeded backoff, and quarantine of deterministically failing trials.

sweep options:
  --topology <top1|top4|topH|ideal>  interconnect topology (default topH)
  --small                            64-core cluster instead of 256
  --no-scramble                      disable the hybrid addressing scheme
  --pattern <uniform|plocal=<p>>     traffic pattern (default uniform)
  --loads <l1,l2,...>                offered loads in requests/core/cycle
                                     (default 0.02,0.05,0.10,0.20)
  --warmup <n>                       warm-up cycles (default 1000)
  --measure <n>                      measured cycles (default 8000)
  --drain <n>                        drain-phase cycle cap (default 50000)
  --seed <n>                         traffic (and fault) seed (default 0)
  --metrics-json <file>              write the sweep + per-point
                                     mempool-metrics-v1 registries here
  --trace-out <file>                 Chrome trace of the last point's run
  --trace-sample <n>                 sample every n-th delivery (default 64)

fault-campaign options (require --faults):
  --faults <spec>                    fault intensity, e.g. bank_fail=2,link_drop=0.001
  --manifest <file>                  trial manifest, the campaign's single
                                     source of truth (required; re-running
                                     against it resumes where it stopped)
  --trials <n>                       trials to run (default 8)
  --load <l>                         offered load per core (default 0.05)
  --deadline-secs <s>                wall-clock deadline per trial attempt
  --cycle-budget <n>                 sim-cycle budget per trial
  --max-attempts <n>                 attempts before quarantine (default 3)
  --backoff-ms <n>                   retry backoff base (default 50; 0 disables)
  --checkpoint-every <n>             mid-trial checkpoint interval (default 4096)
  --isolate[=N]                      run trials in child worker processes,
                                     N at a time (default 1); a crashed or
                                     killed worker is retried, not fatal
  --sanitize                         run every trial under the cycle-level
                                     invariant sanitizer
  --json-out <file>                  write the byte-stable campaign report here
  --help                             this text

exit status: 0 on success, 1 on runtime errors, 2 on usage errors, 3 when
interrupted by SIGINT/SIGTERM (progress saved; re-run to resume)";

const PROFILE_USAGE: &str = "usage: mempool-run profile [OPTIONS] <program.s>

Assembles and executes the program with the program-level profiler enabled,
then prints the per-region cycle/stall breakdown and the hottest PCs.

options:
  --topology <top1|top4|topH|ideal>  interconnect topology (default topH)
  --small                            64-core cluster instead of 256
  --no-scramble                      disable the hybrid addressing scheme
  --max-cycles <n>                   cycle budget (default 100000000)
  --max-pcs <n>                      per-core (region, PC)-pair bound
                                     (default 4096)
  --window <n>                       power-sampling window in cycles
                                     (default 1024; 0 disables power windows)
  --top <n>                          hottest PCs to print (default 10)
  --out <file>                       write the folded-stack (flamegraph) profile
  --power-out <file>                 write the mempool-power-v1 power timeline
  --help                             this text

exit status: 0 on success, 1 on runtime errors, 2 on usage errors";

/// A typed argument-parsing failure (or the `--help` request, which is not
/// an error and exits 0).
#[derive(Debug, PartialEq, Eq)]
enum ParseArgsError {
    /// `--help`/`-h`: print usage on stdout and exit successfully.
    Help,
    /// An option that requires a value was last on the command line.
    MissingValue(&'static str),
    /// An option's value did not parse; `reason` names what was expected.
    InvalidValue {
        option: &'static str,
        reason: String,
    },
    /// An option we do not recognize.
    UnknownOption(String),
    /// A second positional argument after the program path.
    UnexpectedArgument(String),
    /// No program path was given (and no `--describe`).
    MissingProgram,
    /// A required option was not given.
    MissingOption(&'static str),
    /// Two options that cannot be combined.
    Conflict(&'static str),
    /// The first argument is not a subcommand name (or there is none).
    MissingSubcommand,
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArgsError::Help => write!(f, "help requested"),
            ParseArgsError::MissingValue(option) => write!(f, "{option} expects a value"),
            ParseArgsError::InvalidValue { option, reason } => {
                write!(f, "invalid {option} value: {reason}")
            }
            ParseArgsError::UnknownOption(arg) => write!(f, "unknown option `{arg}`"),
            ParseArgsError::UnexpectedArgument(arg) => {
                write!(f, "unexpected argument `{arg}` (program path already given)")
            }
            ParseArgsError::MissingProgram => write!(f, "no program path given"),
            ParseArgsError::MissingOption(option) => write!(f, "{option} is required"),
            ParseArgsError::Conflict(what) => write!(f, "{what}"),
            ParseArgsError::MissingSubcommand => {
                write!(f, "expected a subcommand: run, bench, campaign or profile")
            }
        }
    }
}

fn invalid(option: &'static str, reason: &str) -> ParseArgsError {
    ParseArgsError::InvalidValue {
        option,
        reason: reason.to_owned(),
    }
}

fn parse_topology(value: &str) -> Result<Topology, ParseArgsError> {
    match value {
        "top1" => Ok(Topology::Top1),
        "top4" => Ok(Topology::Top4),
        "topH" | "toph" => Ok(Topology::TopH),
        "ideal" => Ok(Topology::Ideal),
        other => Err(invalid(
            "--topology",
            &format!("unknown topology `{other}`"),
        )),
    }
}

/// Splits the command line into a subcommand and its options. A bare
/// `--help`/`-h` prints the top-level usage; anything else that does not
/// start with a subcommand name is a usage error.
fn parse_command(args: Vec<String>) -> Result<Command, (ParseArgsError, &'static str)> {
    match args.first().map(String::as_str) {
        Some("run") => parse_args(args.into_iter().skip(1))
            .map(|o| Command::Run(Box::new(o)))
            .map_err(|e| (e, USAGE)),
        Some("bench") => parse_bench_args(args.into_iter().skip(1))
            .map(Command::Bench)
            .map_err(|e| (e, BENCH_USAGE)),
        Some("campaign") => parse_campaign_args(args.into_iter().skip(1))
            .map(|o| Command::Campaign(Box::new(o)))
            .map_err(|e| (e, CAMPAIGN_USAGE)),
        // Hidden: spawned by `campaign --isolate`, not for interactive use.
        Some("worker") => Ok(Command::Worker),
        Some("profile") => parse_profile_args(args.into_iter().skip(1))
            .map(Command::Profile)
            .map_err(|e| (e, PROFILE_USAGE)),
        Some("--help" | "-h") => Err((ParseArgsError::Help, USAGE)),
        _ => Err((ParseArgsError::MissingSubcommand, USAGE)),
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, ParseArgsError> {
    let mut opts = Options {
        topology: Topology::TopH,
        small: false,
        scramble: true,
        max_cycles: 100_000_000,
        dump_regs: None,
        dump_mem: None,
        trace_core: None,
        functional: false,
        listing: false,
        emit_bin: None,
        describe: false,
        faults: None,
        seed: 0,
        checkpoint_every: 0,
        checkpoint_file: None,
        resume: None,
        json: false,
        metrics_json: None,
        metrics_stream: None,
        trace_out: None,
        trace_sample: 64,
        profile_out: None,
        power_out: None,
        max_wall_secs: None,
        sanitize: false,
        path: String::new(),
    };
    let mut trace_sample_given = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &'static str| {
            args.next().ok_or(ParseArgsError::MissingValue(name))
        };
        match arg.as_str() {
            "--topology" => opts.topology = parse_topology(&value("--topology")?)?,
            "--small" => opts.small = true,
            "--no-scramble" => opts.scramble = false,
            "--max-cycles" => {
                opts.max_cycles = value("--max-cycles")?
                    .parse()
                    .map_err(|_| invalid("--max-cycles", "expected a cycle count"))?;
            }
            "--dump-regs" => {
                opts.dump_regs = Some(
                    value("--dump-regs")?
                        .parse()
                        .map_err(|_| invalid("--dump-regs", "expected a core index"))?,
                );
            }
            "--dump-mem" => {
                let spec = value("--dump-mem")?;
                let (addr, words) = spec
                    .split_once(':')
                    .ok_or_else(|| invalid("--dump-mem", "expected <addr>:<words>"))?;
                let addr =
                    parse_u32(addr).ok_or_else(|| invalid("--dump-mem", "bad address"))?;
                let words = words
                    .parse()
                    .map_err(|_| invalid("--dump-mem", "bad word count"))?;
                opts.dump_mem = Some((addr, words));
            }
            "--trace-core" => {
                opts.trace_core = Some(
                    value("--trace-core")?
                        .parse()
                        .map_err(|_| invalid("--trace-core", "expected a core index"))?,
                );
            }
            "--functional" => opts.functional = true,
            "--listing" => opts.listing = true,
            "--emit-bin" => opts.emit_bin = Some(value("--emit-bin")?),
            "--describe" => opts.describe = true,
            "--faults" => {
                opts.faults = Some(value("--faults")?.parse().map_err(
                    |e: mempool::ParseFaultSpecError| invalid("--faults", &e.to_string()),
                )?);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| invalid("--seed", "expected an integer"))?;
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| invalid("--checkpoint-every", "expected a cycle count"))?;
                if opts.checkpoint_every == 0 {
                    return Err(invalid("--checkpoint-every", "interval must be nonzero"));
                }
            }
            "--checkpoint-file" => opts.checkpoint_file = Some(value("--checkpoint-file")?),
            "--resume" => opts.resume = Some(value("--resume")?),
            "--json" => opts.json = true,
            "--metrics-json" => opts.metrics_json = Some(value("--metrics-json")?),
            "--metrics-stream" => opts.metrics_stream = Some(value("--metrics-stream")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-sample" => {
                opts.trace_sample = value("--trace-sample")?
                    .parse()
                    .map_err(|_| invalid("--trace-sample", "expected a sampling interval"))?;
                if opts.trace_sample == 0 {
                    return Err(invalid("--trace-sample", "interval must be nonzero"));
                }
                trace_sample_given = true;
            }
            "--profile-out" => opts.profile_out = Some(value("--profile-out")?),
            "--power-out" => opts.power_out = Some(value("--power-out")?),
            "--max-wall-secs" => {
                let secs: u64 = value("--max-wall-secs")?
                    .parse()
                    .map_err(|_| invalid("--max-wall-secs", "expected seconds"))?;
                if secs == 0 {
                    return Err(invalid("--max-wall-secs", "limit must be nonzero"));
                }
                opts.max_wall_secs = Some(secs);
            }
            "--sanitize" => opts.sanitize = true,
            "--help" | "-h" => return Err(ParseArgsError::Help),
            _ if arg.starts_with('-') => return Err(ParseArgsError::UnknownOption(arg)),
            _ if opts.path.is_empty() => opts.path = arg,
            _ => return Err(ParseArgsError::UnexpectedArgument(arg)),
        }
    }
    if opts.path.is_empty() && !opts.describe {
        return Err(ParseArgsError::MissingProgram);
    }
    if trace_sample_given && opts.trace_out.is_none() {
        return Err(ParseArgsError::Conflict(
            "--trace-sample only applies to --trace-out",
        ));
    }
    if opts.functional {
        if opts.faults.is_some() {
            return Err(ParseArgsError::Conflict(
                "--faults requires the cycle-accurate simulator",
            ));
        }
        if opts.checkpoint_every > 0 || opts.checkpoint_file.is_some() || opts.resume.is_some() {
            return Err(ParseArgsError::Conflict(
                "checkpointing requires the cycle-accurate simulator",
            ));
        }
        if opts.json {
            return Err(ParseArgsError::Conflict(
                "--json requires the cycle-accurate simulator",
            ));
        }
        if opts.metrics_json.is_some() || opts.metrics_stream.is_some() || opts.trace_out.is_some()
        {
            return Err(ParseArgsError::Conflict(
                "--metrics-json/--metrics-stream/--trace-out require the cycle-accurate simulator",
            ));
        }
        if opts.profile_out.is_some() || opts.power_out.is_some() {
            return Err(ParseArgsError::Conflict(
                "--profile-out/--power-out require the cycle-accurate simulator",
            ));
        }
        if opts.max_wall_secs.is_some() || opts.sanitize {
            return Err(ParseArgsError::Conflict(
                "--max-wall-secs/--sanitize require the cycle-accurate simulator",
            ));
        }
    }
    if opts.json && (opts.dump_regs.is_some() || opts.dump_mem.is_some() || opts.trace_core.is_some())
    {
        return Err(ParseArgsError::Conflict(
            "--json cannot be combined with --dump-regs/--dump-mem/--trace-core",
        ));
    }
    Ok(opts)
}

fn parse_bench_cores(value: &str) -> Result<Vec<usize>, ParseArgsError> {
    match value {
        "16" => Ok(vec![16]),
        "256" => Ok(vec![256]),
        "all" => Ok(vec![16, 256]),
        other => Err(invalid(
            "--cores",
            &format!("expected 16, 256 or all, got `{other}`"),
        )),
    }
}

fn parse_bench_args(
    args: impl IntoIterator<Item = String>,
) -> Result<BenchOptions, ParseArgsError> {
    let mut out = None;
    let mut cores = vec![16, 256];
    let mut cycles = 2_000;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &'static str| {
            args.next().ok_or(ParseArgsError::MissingValue(name))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")?),
            "--cores" => cores = parse_bench_cores(&value("--cores")?)?,
            "--cycles" => {
                cycles = value("--cycles")?
                    .parse()
                    .map_err(|_| invalid("--cycles", "expected a cycle count"))?;
                if cycles == 0 {
                    return Err(invalid("--cycles", "must be nonzero"));
                }
            }
            "--help" | "-h" => return Err(ParseArgsError::Help),
            _ if arg.starts_with('-') => return Err(ParseArgsError::UnknownOption(arg)),
            _ => return Err(ParseArgsError::UnexpectedArgument(arg)),
        }
    }
    let out = out.ok_or(ParseArgsError::MissingOption("--out"))?;
    Ok(BenchOptions { out, cores, cycles })
}

fn parse_campaign_args(
    args: impl IntoIterator<Item = String>,
) -> Result<CampaignOptions, ParseArgsError> {
    let mut opts = CampaignOptions {
        topology: Topology::TopH,
        small: false,
        scramble: true,
        pattern: Pattern::Uniform,
        pattern_label: "uniform".to_owned(),
        loads: vec![0.02, 0.05, 0.10, 0.20],
        windows: Windows::default(),
        seed: 0,
        metrics_json: None,
        trace_out: None,
        trace_sample: 64,
        faults: None,
        trials: 8,
        manifest: None,
        load: 0.05,
        deadline_secs: None,
        cycle_budget: None,
        max_attempts: 3,
        backoff_ms: 50,
        checkpoint_every: 4_096,
        isolate: None,
        sanitize: false,
        json_out: None,
    };
    let mut trace_sample_given = false;
    let mut fault_flag_given: Option<&'static str> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &'static str| {
            args.next().ok_or(ParseArgsError::MissingValue(name))
        };
        match arg.as_str() {
            "--topology" => opts.topology = parse_topology(&value("--topology")?)?,
            "--small" => opts.small = true,
            "--no-scramble" => opts.scramble = false,
            "--pattern" => {
                let spec = value("--pattern")?;
                opts.pattern = match spec.as_str() {
                    "uniform" => Pattern::Uniform,
                    other => match other.strip_prefix("plocal=") {
                        Some(p) => {
                            let p_local: f64 = p.parse().map_err(|_| {
                                invalid("--pattern", "expected plocal=<probability>")
                            })?;
                            if !(0.0..=1.0).contains(&p_local) {
                                return Err(invalid(
                                    "--pattern",
                                    "plocal probability must be in [0, 1]",
                                ));
                            }
                            Pattern::PLocal { p_local }
                        }
                        None => {
                            return Err(invalid(
                                "--pattern",
                                &format!("unknown pattern `{other}`"),
                            ))
                        }
                    },
                };
                opts.pattern_label = spec;
            }
            "--loads" => {
                let list = value("--loads")?;
                let mut loads = Vec::new();
                for part in list.split(',') {
                    let load: f64 = part
                        .trim()
                        .parse()
                        .map_err(|_| invalid("--loads", "expected comma-separated loads"))?;
                    if !(load > 0.0 && load <= 1.0) {
                        return Err(invalid("--loads", "loads must be in (0, 1]"));
                    }
                    loads.push(load);
                }
                if loads.is_empty() {
                    return Err(invalid("--loads", "at least one load is required"));
                }
                opts.loads = loads;
            }
            "--warmup" => {
                opts.windows.warmup = value("--warmup")?
                    .parse()
                    .map_err(|_| invalid("--warmup", "expected a cycle count"))?;
            }
            "--measure" => {
                opts.windows.measure = value("--measure")?
                    .parse()
                    .map_err(|_| invalid("--measure", "expected a cycle count"))?;
                if opts.windows.measure == 0 {
                    return Err(invalid("--measure", "must be nonzero"));
                }
            }
            "--drain" => {
                opts.windows.drain = value("--drain")?
                    .parse()
                    .map_err(|_| invalid("--drain", "expected a cycle count"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| invalid("--seed", "expected an integer"))?;
            }
            "--metrics-json" => opts.metrics_json = Some(value("--metrics-json")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-sample" => {
                opts.trace_sample = value("--trace-sample")?
                    .parse()
                    .map_err(|_| invalid("--trace-sample", "expected a sampling interval"))?;
                if opts.trace_sample == 0 {
                    return Err(invalid("--trace-sample", "interval must be nonzero"));
                }
                trace_sample_given = true;
            }
            "--faults" => {
                opts.faults = Some(value("--faults")?.parse().map_err(
                    |e: mempool::ParseFaultSpecError| invalid("--faults", &e.to_string()),
                )?);
            }
            "--manifest" => {
                opts.manifest = Some(value("--manifest")?);
                fault_flag_given.get_or_insert("--manifest");
            }
            "--trials" => {
                opts.trials = value("--trials")?
                    .parse()
                    .map_err(|_| invalid("--trials", "expected a trial count"))?;
                if opts.trials == 0 {
                    return Err(invalid("--trials", "must be nonzero"));
                }
                fault_flag_given.get_or_insert("--trials");
            }
            "--load" => {
                opts.load = value("--load")?
                    .parse()
                    .map_err(|_| invalid("--load", "expected a load in (0, 1]"))?;
                if !(opts.load > 0.0 && opts.load <= 1.0) {
                    return Err(invalid("--load", "load must be in (0, 1]"));
                }
                fault_flag_given.get_or_insert("--load");
            }
            "--deadline-secs" => {
                let secs: u64 = value("--deadline-secs")?
                    .parse()
                    .map_err(|_| invalid("--deadline-secs", "expected seconds"))?;
                if secs == 0 {
                    return Err(invalid("--deadline-secs", "deadline must be nonzero"));
                }
                opts.deadline_secs = Some(secs);
                fault_flag_given.get_or_insert("--deadline-secs");
            }
            "--cycle-budget" => {
                let budget: u64 = value("--cycle-budget")?
                    .parse()
                    .map_err(|_| invalid("--cycle-budget", "expected a cycle count"))?;
                if budget == 0 {
                    return Err(invalid("--cycle-budget", "budget must be nonzero"));
                }
                opts.cycle_budget = Some(budget);
                fault_flag_given.get_or_insert("--cycle-budget");
            }
            "--max-attempts" => {
                opts.max_attempts = value("--max-attempts")?
                    .parse()
                    .map_err(|_| invalid("--max-attempts", "expected an attempt count"))?;
                if opts.max_attempts == 0 {
                    return Err(invalid("--max-attempts", "must be nonzero"));
                }
                fault_flag_given.get_or_insert("--max-attempts");
            }
            "--backoff-ms" => {
                opts.backoff_ms = value("--backoff-ms")?
                    .parse()
                    .map_err(|_| invalid("--backoff-ms", "expected milliseconds"))?;
                fault_flag_given.get_or_insert("--backoff-ms");
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| invalid("--checkpoint-every", "expected a cycle count"))?;
                fault_flag_given.get_or_insert("--checkpoint-every");
            }
            "--isolate" => {
                opts.isolate = Some(1);
                fault_flag_given.get_or_insert("--isolate");
            }
            arg_str if arg_str.starts_with("--isolate=") => {
                let n: usize = arg_str["--isolate=".len()..]
                    .parse()
                    .map_err(|_| invalid("--isolate", "expected a worker count"))?;
                if n == 0 {
                    return Err(invalid("--isolate", "worker count must be nonzero"));
                }
                opts.isolate = Some(n);
                fault_flag_given.get_or_insert("--isolate");
            }
            "--sanitize" => {
                opts.sanitize = true;
                fault_flag_given.get_or_insert("--sanitize");
            }
            "--json-out" => {
                opts.json_out = Some(value("--json-out")?);
                fault_flag_given.get_or_insert("--json-out");
            }
            "--help" | "-h" => return Err(ParseArgsError::Help),
            _ if arg.starts_with('-') => return Err(ParseArgsError::UnknownOption(arg)),
            _ => return Err(ParseArgsError::UnexpectedArgument(arg)),
        }
    }
    if trace_sample_given && opts.trace_out.is_none() {
        return Err(ParseArgsError::Conflict(
            "--trace-sample only applies to --trace-out",
        ));
    }
    if opts.faults.is_some() {
        if opts.manifest.is_none() {
            return Err(ParseArgsError::MissingOption("--manifest"));
        }
        if opts.metrics_json.is_some() || opts.trace_out.is_some() {
            return Err(ParseArgsError::Conflict(
                "--metrics-json/--trace-out apply to the load sweep; use --json-out with --faults",
            ));
        }
    } else if let Some(flag) = fault_flag_given {
        return Err(ParseArgsError::Conflict(
            match flag {
                "--manifest" => "--manifest requires --faults",
                "--trials" => "--trials requires --faults",
                "--load" => "--load requires --faults",
                "--deadline-secs" => "--deadline-secs requires --faults",
                "--cycle-budget" => "--cycle-budget requires --faults",
                "--max-attempts" => "--max-attempts requires --faults",
                "--backoff-ms" => "--backoff-ms requires --faults",
                "--checkpoint-every" => "--checkpoint-every requires --faults",
                "--isolate" => "--isolate requires --faults",
                "--sanitize" => "--sanitize requires --faults",
                _ => "--json-out requires --faults",
            },
        ));
    }
    Ok(opts)
}

fn parse_profile_args(
    args: impl IntoIterator<Item = String>,
) -> Result<ProfileOptions, ParseArgsError> {
    let mut opts = ProfileOptions {
        topology: Topology::TopH,
        small: false,
        scramble: true,
        max_cycles: 100_000_000,
        max_pcs: 4096,
        window: 1024,
        top: 10,
        out: None,
        power_out: None,
        path: String::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &'static str| {
            args.next().ok_or(ParseArgsError::MissingValue(name))
        };
        match arg.as_str() {
            "--topology" => opts.topology = parse_topology(&value("--topology")?)?,
            "--small" => opts.small = true,
            "--no-scramble" => opts.scramble = false,
            "--max-cycles" => {
                opts.max_cycles = value("--max-cycles")?
                    .parse()
                    .map_err(|_| invalid("--max-cycles", "expected a cycle count"))?;
            }
            "--max-pcs" => {
                opts.max_pcs = value("--max-pcs")?
                    .parse()
                    .map_err(|_| invalid("--max-pcs", "expected a PC-table bound"))?;
                if opts.max_pcs == 0 {
                    return Err(invalid("--max-pcs", "bound must be nonzero"));
                }
            }
            "--window" => {
                opts.window = value("--window")?
                    .parse()
                    .map_err(|_| invalid("--window", "expected a cycle count"))?;
            }
            "--top" => {
                opts.top = value("--top")?
                    .parse()
                    .map_err(|_| invalid("--top", "expected a PC count"))?;
            }
            "--out" => opts.out = Some(value("--out")?),
            "--power-out" => opts.power_out = Some(value("--power-out")?),
            "--help" | "-h" => return Err(ParseArgsError::Help),
            _ if arg.starts_with('-') => return Err(ParseArgsError::UnknownOption(arg)),
            _ if opts.path.is_empty() => opts.path = arg,
            _ => return Err(ParseArgsError::UnexpectedArgument(arg)),
        }
    }
    if opts.path.is_empty() {
        return Err(ParseArgsError::MissingProgram);
    }
    if opts.power_out.is_some() && opts.window == 0 {
        return Err(ParseArgsError::Conflict(
            "--power-out needs power windows; drop `--window 0`",
        ));
    }
    Ok(opts)
}

fn run_functional(opts: &Options, program: &mempool_riscv::Program) -> Result<(), String> {
    use mempool::{FunctionalSim, L1Memory};
    let mut config = if opts.small {
        ClusterConfig::small(opts.topology)
    } else {
        ClusterConfig::paper(opts.topology)
    };
    if !opts.scramble {
        config.seq_region_bytes = None;
    }
    let mut sim = FunctionalSim::new(config).map_err(|e| e.to_string())?;
    sim.load_program(program).map_err(|e| e.to_string())?;
    let steps = sim.run(opts.max_cycles).map_err(|e| e.to_string())?;
    println!(
        "functional run finished in {steps} round-robin steps ({} instructions, {} cores)",
        sim.instret(),
        config.num_cores()
    );
    if sim.any_faulted() {
        println!("warning: at least one core halted on a fault");
    }
    if let Some((addr, words)) = opts.dump_mem {
        println!("\nL1 at {addr:#010x} ({words} words):");
        let dump = sim.read_words(addr, words).map_err(|e| e.to_string())?;
        for (i, w) in dump.into_iter().enumerate() {
            if i % 4 == 0 {
                print!("  {:08x}: ", addr as usize + 4 * i);
            }
            print!("{w:08x} ");
            if i % 4 == 3 {
                println!();
            }
        }
        if words % 4 != 0 {
            println!();
        }
    }
    Ok(())
}

fn parse_u32(s: &str) -> Option<u32> {
    if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let cmd = match parse_command(std::env::args().skip(1).collect()) {
        Ok(c) => c,
        Err((ParseArgsError::Help, usage)) => {
            println!("{usage}");
            return ExitCode::SUCCESS;
        }
        Err((e, usage)) => {
            eprintln!("error: {e}");
            eprintln!("{usage}");
            return ExitCode::from(Error::Usage(e.to_string()).exit_code());
        }
    };
    let result = match cmd {
        Command::Run(opts) => run(&opts),
        Command::Bench(opts) => run_bench_mode(&opts),
        Command::Campaign(opts) => {
            if opts.faults.is_some() {
                run_fault_campaign_mode(&opts)
            } else {
                run_campaign_mode(&opts)
            }
        }
        Command::Profile(opts) => run_profile_mode(&opts),
        Command::Worker => return mempool_suite::worker::run(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Print the full cause chain: the top-level category alone
            // ("simulation stopped abnormally") hides the typed cause —
            // watchdog deadlock vs cycle budget vs wall-clock timeout.
            let mut line = format!("error: {e}");
            let mut last = e.to_string();
            let mut source = std::error::Error::source(&e);
            while let Some(cause) = source {
                let text = cause.to_string();
                // Wrapper layers often re-print their inner error verbatim;
                // skip those so each chain segment adds information.
                if text != last {
                    line.push_str(&format!(": {text}"));
                    last = text;
                }
                source = cause.source();
            }
            eprintln!("{line}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Runs the benchmark matrix and writes the report.
fn run_bench_mode(opts: &BenchOptions) -> Result<(), Error> {
    use mempool_suite::bench::{run_bench_supervised, BenchConfig};
    let config = BenchConfig {
        cycles: opts.cycles,
        core_counts: opts.cores.clone(),
        ..BenchConfig::default()
    };
    // SIGINT/SIGTERM stop the sweep after the point in flight; completed
    // measurements are flushed to the report instead of discarded.
    sig::install();
    let interrupt = Some(&sig::INTERRUPTED);
    let (report, interrupted) = run_bench_supervised(&config, interrupt).map_err(Error::Other)?;
    std::fs::write(&opts.out, report.to_json()).map_err(|e| Error::io(&opts.out, e))?;
    println!("bench: {} points -> {}", report.points.len(), opts.out);
    for p in &report.points {
        println!(
            "  {:>5} {:>3} cores: {:>12.0} sim-cycles/s ({:.2e} core-cycles/s)",
            p.topology.to_string(),
            p.cores,
            p.sim_cycles_per_sec,
            p.core_cycles_per_sec
        );
    }
    if interrupted {
        eprintln!(
            "bench interrupted: {} completed point(s) flushed to {}",
            report.points.len(),
            opts.out
        );
        return Err(Error::Interrupted);
    }
    Ok(())
}

/// Runs a synthetic-traffic load sweep with the observability recorder
/// attached and exports the per-point metrics registries (and optionally
/// the last point's Chrome trace).
fn run_campaign_mode(opts: &CampaignOptions) -> Result<(), Error> {
    let mut config = if opts.small {
        ClusterConfig::small(opts.topology)
    } else {
        ClusterConfig::paper(opts.topology)
    };
    if !opts.scramble {
        config.seq_region_bytes = None;
    }
    let obs = if opts.trace_out.is_some() {
        ObsConfig::with_trace(opts.trace_sample)
    } else {
        ObsConfig::histograms()
    };
    println!(
        "campaign: {} load point(s) on {} ({} cores, pattern {}, seed {})",
        opts.loads.len(),
        opts.topology,
        config.num_cores(),
        opts.pattern_label,
        opts.seed
    );
    let mut points: Vec<MeteredPoint> = Vec::with_capacity(opts.loads.len());
    for &load in &opts.loads {
        let metered = run_point_with_metrics(
            config,
            opts.pattern,
            load,
            opts.windows,
            opts.seed,
            obs,
        )?;
        let latency = metered.metrics.histogram("cluster", "latency")?;
        println!(
            "  load {:>6.3}: throughput {:>6.4}, latency mean {:>7.2} (p50 {}, p99 {}), \
             locality {:.2}",
            metered.point.offered_load,
            metered.point.throughput,
            metered.point.avg_latency(),
            latency.p50,
            latency.p99,
            metered.point.locality
        );
        points.push(metered);
    }
    if let Some(out) = &opts.metrics_json {
        let doc = campaign_json(opts, &points);
        std::fs::write(out, doc).map_err(|e| Error::io(out, e))?;
        println!("wrote campaign metrics to {out}");
    }
    if let Some(out) = &opts.trace_out {
        let trace = &points.last().expect("at least one load").timeline;
        std::fs::write(out, trace.to_chrome_json()).map_err(|e| Error::io(out, e))?;
        println!(
            "wrote timeline trace of the last point to {out} ({} spans, {} dropped)",
            trace.spans.len(),
            trace.dropped_spans
        );
    }
    Ok(())
}

/// Runs a supervised fault-injection campaign (`campaign --faults ...`)
/// under the crash-isolated executor.
fn run_fault_campaign_mode(opts: &CampaignOptions) -> Result<(), Error> {
    let spec = opts.faults.expect("caller checked --faults");
    let manifest = opts.manifest.as_deref().expect("parser required --manifest");
    let config = parse_config_spec(&render_config_spec(opts.topology, opts.small, opts.scramble))
        .map_err(Error::Other)?;
    let campaign = mempool_traffic::CampaignConfig {
        load: opts.load,
        pattern: opts.pattern,
        windows: opts.windows,
        spec,
        trials: opts.trials,
        base_seed: opts.seed,
    };
    let exec = ExecutorConfig {
        deadline: opts.deadline_secs.map(Duration::from_secs),
        cycle_budget: opts.cycle_budget,
        retry: RetryPolicy {
            max_attempts: opts.max_attempts,
            backoff_base_ms: opts.backoff_ms,
            ..RetryPolicy::default()
        },
        checkpoint_every: opts.checkpoint_every,
        isolate: opts.isolate,
        config_spec: render_config_spec(opts.topology, opts.small, opts.scramble),
        sanitize: opts.sanitize.then(SanitizerConfig::default),
        ..ExecutorConfig::default()
    };
    println!(
        "fault campaign: {} trial(s) on {} ({} cores), spec [{spec}], seed {}{}",
        opts.trials,
        opts.topology,
        config.num_cores(),
        opts.seed,
        match opts.isolate {
            Some(n) => format!(", {n} isolated worker(s)"),
            None => String::new(),
        }
    );
    sig::install();
    let interrupt = Some(&sig::INTERRUPTED);
    let executor = Executor::new(config, campaign, exec);
    let report = executor.run(std::path::Path::new(manifest), interrupt)?;
    println!(
        "{} ({} resumed, {} new, {} retried attempt(s))",
        report.report.summary(),
        report.resumed_trials,
        report.new_trials,
        report.retries
    );
    for q in &report.quarantined {
        println!("quarantined seed {} after {} attempt(s):", q.seed, q.failures.len());
        for f in &q.failures {
            println!("  attempt {}: {} — {}", f.attempt, f.kind, f.detail);
        }
    }
    if let Some(out) = &opts.json_out {
        std::fs::write(out, report.report.to_json()).map_err(|e| Error::io(out, e))?;
        println!("wrote campaign report to {out}");
    }
    if report.interrupted {
        return Err(Error::Interrupted);
    }
    Ok(())
}

/// Renders the campaign report: sweep aggregates per point plus the full
/// embedded `mempool-metrics-v1` registry of each run.
fn campaign_json(opts: &CampaignOptions, points: &[MeteredPoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"mempool-campaign-metrics-v1\",");
    let _ = writeln!(out, "  \"topology\": \"{}\",", opts.topology);
    let _ = writeln!(out, "  \"pattern\": \"{}\",", opts.pattern_label);
    let _ = writeln!(out, "  \"seed\": {},", opts.seed);
    let _ = writeln!(
        out,
        "  \"windows\": {{ \"warmup\": {}, \"measure\": {}, \"drain\": {} }},",
        opts.windows.warmup, opts.windows.measure, opts.windows.drain
    );
    out.push_str("  \"points\": [\n");
    for (i, m) in points.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"offered_load\": {:.6},", m.point.offered_load);
        let _ = writeln!(out, "      \"throughput\": {:.6},", m.point.throughput);
        let _ = writeln!(out, "      \"latency_mean\": {:.6},", m.point.avg_latency());
        let _ = writeln!(out, "      \"locality\": {:.6},", m.point.locality);
        let _ = writeln!(out, "      \"net_occupancy\": {:.6},", m.point.net_occupancy);
        // The metrics registry renders itself as a complete JSON object;
        // embed it verbatim (indentation differs, validity does not).
        let _ = writeln!(out, "      \"metrics\": {}", m.metrics.to_json().trim_end());
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Operating frequency used to price power timelines — the 500 MHz point
/// of §VI-D, where the paper reports 20.9 mW/tile and 1.55 W per cluster.
const POWER_FREQ_MHZ: f64 = 500.0;

/// Runs one program under the profiler and prints the per-region
/// cycle/stall breakdown plus the hottest PCs; optionally exports the
/// folded-stack profile and the `mempool-power-v1` timeline.
fn run_profile_mode(opts: &ProfileOptions) -> Result<(), Error> {
    use mempool_snitch::profile::{stall_name, PcCounters, REGION_NAMES, STALL_CAUSES};

    let mut config = if opts.small {
        ClusterConfig::small(opts.topology)
    } else {
        ClusterConfig::paper(opts.topology)
    };
    if !opts.scramble {
        config.seq_region_bytes = None;
    }
    let source = std::fs::read_to_string(&opts.path).map_err(|e| Error::io(&opts.path, e))?;
    let program = assemble(&source).map_err(|e| Error::Asm {
        path: opts.path.clone(),
        source: e,
    })?;
    let mut session = SimSession::builder(config)
        .profile(ProfileConfig {
            max_pcs: opts.max_pcs,
            power_window: opts.window,
        })
        .build_snitch()?;
    session.load_program(&program)?;
    let cycles = session.run(opts.max_cycles)?;

    let cluster = session.cluster();
    let cores = cluster.core_stats_total();
    println!(
        "profiled {} on {} ({} cores): {cycles} cycles, {} instructions",
        opts.path,
        opts.topology,
        config.num_cores(),
        cores.instret
    );

    let regions = cluster.region_profile().expect("profiling was enabled");
    let attributed: u64 = regions.iter().map(|r| r.cycles()).sum();
    println!("\nregion breakdown (core-cycles, summed over all cores):");
    println!(
        "  {:<10} {:>14} {:>14} {:>14} {:>7}  top stall",
        "region", "cycles", "retired", "stalled", "share"
    );
    for (slot, r) in regions.iter().enumerate() {
        if r.cycles() == 0 {
            continue;
        }
        let top_stall = STALL_CAUSES
            .iter()
            .zip(&r.stalls)
            .max_by_key(|(_, &n)| n)
            .filter(|(_, &n)| n > 0)
            .map(|(&cause, &n)| format!("{} ({n})", stall_name(cause)))
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "  {:<10} {:>14} {:>14} {:>14} {:>6.1}%  {top_stall}",
            REGION_NAMES[slot],
            r.cycles(),
            r.retired,
            r.stall_cycles(),
            100.0 * r.cycles() as f64 / attributed.max(1) as f64,
        );
    }

    // Hottest PCs: the per-(region, PC) counters summed across all cores.
    let mut by_pc: std::collections::BTreeMap<(u32, u32), PcCounters> =
        std::collections::BTreeMap::new();
    for core in cluster.cores() {
        let profile = core.profile().expect("profiling was enabled");
        for (region, pc, c) in profile.pcs() {
            let agg = by_pc.entry((region, pc)).or_default();
            agg.retired += c.retired;
            for (acc, &s) in agg.stalls.iter_mut().zip(&c.stalls) {
                *acc += s;
            }
        }
    }
    let mut hottest: Vec<_> = by_pc.into_iter().collect();
    hottest.sort_by(|a, b| b.1.cycles().cmp(&a.1.cycles()).then(a.0.cmp(&b.0)));
    if opts.top > 0 && !hottest.is_empty() {
        println!("\nhottest PCs:");
        println!(
            "  {:>10} {:<10} {:>14} {:>14}  top stall",
            "pc", "region", "cycles", "stalled"
        );
        for ((region, pc), c) in hottest.iter().take(opts.top) {
            let top_stall = STALL_CAUSES
                .iter()
                .zip(&c.stalls)
                .max_by_key(|(_, &n)| n)
                .filter(|(_, &n)| n > 0)
                .map(|(&cause, &n)| format!("{} ({n})", stall_name(cause)))
                .unwrap_or_else(|| "-".to_owned());
            println!(
                "  {pc:#010x} {:<10} {:>14} {:>14}  {top_stall}",
                REGION_NAMES[*region as usize],
                c.cycles(),
                c.stall_cycles(),
            );
        }
    }

    if let Some(out) = &opts.out {
        let folded = session.profile_folded().expect("profiling was enabled");
        std::fs::write(out, folded).map_err(|e| Error::io(out, e))?;
        println!("\nwrote folded-stack profile to {out}");
    }
    if let Some(out) = &opts.power_out {
        let windows = session.power_windows().expect("profiling was enabled");
        let doc = mempool_physical::power_timeline_json(
            &windows,
            config.cores_per_tile,
            config.banks_per_tile,
            POWER_FREQ_MHZ,
        );
        std::fs::write(out, doc).map_err(|e| Error::io(out, e))?;
        println!("wrote power timeline to {out} ({} windows)", windows.len());
    }
    Ok(())
}

fn run(opts: &Options) -> Result<(), Error> {
    let mut config = if opts.small {
        ClusterConfig::small(opts.topology)
    } else {
        ClusterConfig::paper(opts.topology)
    };
    if !opts.scramble {
        config.seq_region_bytes = None;
    }
    if opts.describe {
        let session = SimSession::builder(config).build_snitch()?;
        print!("{}", session.cluster().describe());
        return Ok(());
    }
    let source = std::fs::read_to_string(&opts.path).map_err(|e| Error::io(&opts.path, e))?;
    let program = assemble(&source).map_err(|e| Error::Asm {
        path: opts.path.clone(),
        source: e,
    })?;

    if opts.listing {
        print!("{}", program.listing());
        return Ok(());
    }
    if let Some(out) = &opts.emit_bin {
        let bytes: Vec<u8> = program
            .words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        std::fs::write(out, &bytes).map_err(|e| Error::io(out, e))?;
        println!("wrote {} bytes to {out}", bytes.len());
        return Ok(());
    }

    if opts.functional {
        run_functional(opts, &program)?;
        return Ok(());
    }
    if opts.faults.is_some() {
        config.resilience = ResilienceConfig::standard();
    }
    let mut builder = SimSession::builder(config);
    if let Some(spec) = opts.faults {
        if !opts.json {
            println!("fault injection: {spec} (seed {})", opts.seed);
        }
        builder = builder.fault_plan(FaultPlan::new(opts.seed, spec));
    }
    if opts.metrics_json.is_some() || opts.metrics_stream.is_some() || opts.trace_out.is_some() {
        builder = builder.observability(if opts.trace_out.is_some() {
            ObsConfig::with_trace(opts.trace_sample)
        } else {
            ObsConfig::histograms()
        });
    }
    if opts.profile_out.is_some() || opts.power_out.is_some() {
        builder = builder.profile(if opts.power_out.is_some() {
            ProfileConfig::default()
        } else {
            ProfileConfig::attribution_only()
        });
    }
    if opts.checkpoint_every > 0 {
        let path = opts
            .checkpoint_file
            .clone()
            .unwrap_or_else(|| format!("{}.ckpt", opts.path));
        builder = builder.checkpoint_every(opts.checkpoint_every, path);
    }
    if let Some(secs) = opts.max_wall_secs {
        builder = builder.max_wall(Duration::from_secs(secs));
    }
    if opts.sanitize {
        builder = builder.sanitize(SanitizerConfig::default());
    }
    let mut session = builder.build_snitch()?;
    session.load_program(&program)?;
    if let Some(core) = opts.trace_core {
        session
            .cluster_mut()
            .cores_mut()
            .get_mut(core)
            .ok_or_else(|| Error::Other(format!("core {core} out of range")))?
            .enable_trace(32);
    }
    if let Some(from) = &opts.resume {
        let snap = ClusterSnapshot::read_file(std::path::Path::new(from))
            .map_err(|e| Error::Other(format!("{from}: {e}")))?;
        session
            .restore(&snap)
            .map_err(|e| Error::Other(format!("{from}: {e}")))?;
        if !opts.json {
            println!(
                "resumed from {from} at cycle {} (state digest {:#018x})",
                snap.cycle(),
                snap.state_digest()
            );
        }
    }

    let cycles = if let Some(out) = &opts.metrics_stream {
        // Chunked execution mirroring the mempool-serve worker: one
        // partial-metrics JSON line per chunk boundary. The stream is a
        // pure read of recorder state, so cycles and digest match an
        // unstreamed run exactly.
        use std::io::Write as _;
        let mut file = std::fs::File::create(out).map_err(|e| Error::io(out, e))?;
        let every = if opts.checkpoint_every > 0 {
            opts.checkpoint_every
        } else {
            4096
        };
        let mut write_err: Option<std::io::Error> = None;
        let mut lines = 0u64;
        let cycles = session.run_streaming(opts.max_cycles, every, &mut |cluster| {
            if write_err.is_some() {
                return;
            }
            let line = format!(
                "{{\"cycle\":{},\"doc\":\"{}\"}}\n",
                cluster.now(),
                mempool_traffic::json_escape(&cluster.metrics_registry().to_json()),
            );
            if let Err(e) = file.write_all(line.as_bytes()) {
                write_err = Some(e);
            } else {
                lines += 1;
            }
        })?;
        if let Some(e) = write_err {
            return Err(Error::io(out, e));
        }
        if !opts.json {
            println!("streamed {lines} partial-metrics line(s) to {out}");
        }
        cycles
    } else {
        session.run(opts.max_cycles)?
    };

    if opts.sanitize {
        let report = session
            .cluster()
            .sanitizer_report()
            .expect("sanitizer was enabled");
        if !report.is_clean() {
            for v in &report.violations {
                eprintln!("sanitizer: {v}");
            }
            return Err(Error::Other(format!(
                "sanitizer recorded {} violation(s) over {} cycle(s)",
                report.total_violations(),
                report.cycles_checked
            )));
        }
        if !opts.json {
            println!(
                "sanitizer: clean ({} cycles checked, {} completions)",
                report.cycles_checked, report.completions
            );
        }
    }

    if let Some(out) = &opts.metrics_json {
        std::fs::write(out, session.metrics_registry().to_json())
            .map_err(|e| Error::io(out, e))?;
        if !opts.json {
            println!("wrote metrics to {out}");
        }
    }
    if let Some(out) = &opts.trace_out {
        let trace = session.timeline().expect("observability was enabled");
        std::fs::write(out, trace.to_chrome_json()).map_err(|e| Error::io(out, e))?;
        if !opts.json {
            println!(
                "wrote timeline trace to {out} ({} spans, {} dropped)",
                trace.spans.len(),
                trace.dropped_spans
            );
        }
    }
    if let Some(out) = &opts.profile_out {
        let folded = session.profile_folded().expect("profiling was enabled");
        std::fs::write(out, folded).map_err(|e| Error::io(out, e))?;
        if !opts.json {
            println!("wrote folded-stack profile to {out}");
        }
    }
    if let Some(out) = &opts.power_out {
        let windows = session.power_windows().expect("profiling was enabled");
        let doc = mempool_physical::power_timeline_json(
            &windows,
            config.cores_per_tile,
            config.banks_per_tile,
            POWER_FREQ_MHZ,
        );
        std::fs::write(out, doc).map_err(|e| Error::io(out, e))?;
        if !opts.json {
            println!("wrote power timeline to {out} ({} windows)", windows.len());
        }
    }

    let cluster = session.cluster_mut();
    if opts.json {
        print_json(cluster, cycles);
        return Ok(());
    }
    let stats = cluster.stats();
    let cores = cluster.core_stats_total();
    println!(
        "finished in {cycles} cycles on {} ({} cores, scrambling {})",
        opts.topology,
        config.num_cores(),
        if opts.scramble { "on" } else { "off" }
    );
    println!(
        "instructions: {} ({:.3} IPC/core), memory: {} requests, {:.1} % local, \
         latency mean {:.2}",
        cores.instret,
        cores.instret as f64 / (cycles.max(1) as f64 * config.num_cores() as f64),
        stats.requests_issued,
        100.0 * stats.locality(),
        stats.latency.mean()
    );
    let faulted = cluster.cores().iter().filter(|c| c.faulted()).count();
    if faulted > 0 {
        println!("warning: {faulted} core(s) halted on a fault");
    }
    if opts.faults.is_some() {
        println!("fault counters: {}", stats.faults);
        println!(
            "quarantined banks: {}, fault log: {} event(s) ({} dropped)",
            cluster.quarantined_banks(),
            cluster.fault_log().len(),
            cluster.fault_log().dropped()
        );
        for event in cluster.fault_log().events() {
            println!("  {event}");
        }
    }

    if let Some(core) = opts.dump_regs {
        let core_ref = cluster
            .cores()
            .get(core)
            .ok_or_else(|| Error::Other(format!("core {core} out of range")))?;
        println!("\ncore {core} registers (pc={:#010x}):", core_ref.pc());
        for reg in Reg::all() {
            print!("  {:>4}={:08x}", reg.abi_name(), core_ref.reg(reg));
            if (reg.index() + 1) % 4 == 0 {
                println!();
            }
        }
    }
    if let Some(core) = opts.trace_core {
        println!("\ncore {core} retirement trace (last 32):");
        for entry in cluster.cores()[core].trace() {
            println!("  cycle {:>8}  {:08x}:  {}", entry.cycle, entry.pc, entry.instr);
        }
    }
    if let Some((addr, words)) = opts.dump_mem {
        println!("\nL1 at {addr:#010x} ({words} words):");
        let dump = cluster
            .read_words(addr, words)
            .map_err(|e| Error::Other(e.to_string()))?;
        for (i, w) in dump.into_iter().enumerate() {
            if i % 4 == 0 {
                print!("  {:08x}: ", addr as usize + 4 * i);
            }
            print!("{w:08x} ");
            if i % 4 == 3 {
                println!();
            }
        }
        if words % 4 != 0 {
            println!();
        }
    }
    Ok(())
}

/// Machine-readable result record. `state_digest` is the canonical digest
/// over the complete architectural state (see DESIGN.md §9) — two runs of
/// the same program with the same seeds must print the same value.
fn print_json(cluster: &mempool::Cluster<mempool_snitch::SnitchCore>, run_cycles: u64) {
    let stats = cluster.stats();
    let cores = cluster.core_stats_total();
    let f = &stats.faults;
    let faulted = cluster.cores().iter().filter(|c| c.faulted()).count();
    println!("{{");
    println!("  \"cycles\": {},", cluster.now());
    println!("  \"run_cycles\": {run_cycles},");
    println!("  \"instret\": {},", cores.instret);
    println!("  \"state_digest\": \"{:#018x}\",", cluster.state_digest());
    println!("  \"l1_digest\": \"{:#018x}\",", cluster.l1_digest());
    println!("  \"requests_issued\": {},", stats.requests_issued);
    println!("  \"responses_delivered\": {},", stats.responses_delivered);
    println!("  \"latency_mean\": {:.6},", stats.latency.mean());
    println!("  \"faulted_cores\": {faulted},");
    println!("  \"quarantined_banks\": {},", cluster.quarantined_banks());
    println!("  \"faults\": {{");
    println!("    \"injected\": {},", f.total_injected());
    println!("    \"banks_failed\": {},", f.banks_failed);
    println!("    \"link_drops\": {},", f.link_drops);
    println!("    \"link_corruptions\": {},", f.link_corruptions);
    println!("    \"core_lockups\": {},", f.core_lockups);
    println!("    \"request_retries\": {},", f.request_retries);
    println!("    \"requests_abandoned\": {}", f.requests_abandoned);
    println!("  }}");
    println!("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Options, ParseArgsError> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    fn command(list: &[&str]) -> Result<Command, (ParseArgsError, &'static str)> {
        parse_command(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn defaults_and_flags() {
        let o = args(&["prog.s"]).unwrap();
        assert_eq!(o.topology, Topology::TopH);
        assert!(o.scramble && !o.small && !o.functional);
        assert_eq!(o.path, "prog.s");

        let o = args(&[
            "--topology", "top1", "--small", "--no-scramble", "--max-cycles", "123",
            "--dump-regs", "7", "--dump-mem", "0x100:8", "--trace-core", "3",
            "--functional", "p.s",
        ])
        .unwrap();
        assert_eq!(o.topology, Topology::Top1);
        assert!(o.small && !o.scramble && o.functional);
        assert_eq!(o.max_cycles, 123);
        assert_eq!(o.dump_regs, Some(7));
        assert_eq!(o.dump_mem, Some((0x100, 8)));
        assert_eq!(o.trace_core, Some(3));
    }

    #[test]
    fn subcommand_dispatch() {
        let Command::Run(opts) = command(&["run", "--small", "p.s"]).unwrap() else {
            panic!("expected run")
        };
        assert!(opts.small);
        assert_eq!(opts.path, "p.s");
        // There is no flat grammar: the first argument names a subcommand.
        for flat in [&["--small", "p.s"][..], &["p.s"], &[]] {
            assert!(
                matches!(command(flat), Err((ParseArgsError::MissingSubcommand, USAGE))),
                "{flat:?}"
            );
        }

        let Command::Bench(b) = command(&["bench", "--out", "o.json", "--cores", "16"]).unwrap()
        else {
            panic!("expected bench")
        };
        assert_eq!(
            b,
            BenchOptions {
                out: "o.json".to_owned(),
                cores: vec![16],
                cycles: 2_000,
            }
        );
        assert!(matches!(
            command(&["bench", "--out", "o.json", "--cores", "12"]),
            Err((ParseArgsError::InvalidValue { option: "--cores", .. }, _))
        ));
        assert!(matches!(
            command(&["bench", "--out", "o.json", "--cycles", "0"]),
            Err((ParseArgsError::InvalidValue { option: "--cycles", .. }, _))
        ));
        // --out is the only spelling of the output flag.
        assert!(matches!(
            command(&["bench", "--metrics-json", "m.json"]),
            Err((ParseArgsError::UnknownOption(_), BENCH_USAGE))
        ));
        assert!(matches!(
            command(&["bench"]),
            Err((ParseArgsError::MissingOption("--out"), _))
        ));

        let Command::Campaign(c) = command(&[
            "campaign", "--small", "--pattern", "plocal=0.8", "--loads", "0.05,0.1",
            "--measure", "4000", "--metrics-json", "m.json",
        ])
        .unwrap() else {
            panic!("expected campaign")
        };
        assert!(c.small);
        assert_eq!(c.pattern, Pattern::PLocal { p_local: 0.8 });
        assert_eq!(c.loads, vec![0.05, 0.1]);
        assert_eq!(c.windows.measure, 4_000);
        assert_eq!(c.metrics_json.as_deref(), Some("m.json"));

        // Subcommand parse errors carry the matching usage text.
        let (e, usage) = command(&["campaign", "--pattern", "mesh"]).unwrap_err();
        assert!(matches!(e, ParseArgsError::InvalidValue { option: "--pattern", .. }));
        assert!(usage.contains("campaign"));
    }

    #[test]
    fn campaign_rejections() {
        assert!(matches!(
            command(&["campaign", "--loads", "0.0,0.1"]),
            Err((ParseArgsError::InvalidValue { option: "--loads", .. }, _))
        ));
        assert!(matches!(
            command(&["campaign", "--pattern", "plocal=1.5"]),
            Err((ParseArgsError::InvalidValue { option: "--pattern", .. }, _))
        ));
        assert!(matches!(
            command(&["campaign", "--trace-sample", "0"]),
            Err((ParseArgsError::InvalidValue { option: "--trace-sample", .. }, _))
        ));
        assert!(matches!(
            command(&["campaign", "extra.s"]),
            Err((ParseArgsError::UnexpectedArgument(_), _))
        ));
    }

    #[test]
    fn metrics_and_trace_flags() {
        let o = args(&["--metrics-json", "m.json", "--trace-out", "t.json", "p.s"]).unwrap();
        assert_eq!(o.metrics_json.as_deref(), Some("m.json"));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.trace_sample, 64);
        let o = args(&["--trace-out", "t.json", "--trace-sample", "8", "p.s"]).unwrap();
        assert_eq!(o.trace_sample, 8);

        assert!(matches!(
            args(&["--trace-sample", "0", "p.s"]),
            Err(ParseArgsError::InvalidValue { option: "--trace-sample", .. })
        ));
        assert!(matches!(
            args(&["--functional", "--metrics-json", "m.json", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
    }

    #[test]
    fn trace_sample_requires_trace_out() {
        // Regression: a lone --trace-sample used to parse fine and then be
        // silently ignored; it is a typed usage error (exit 2) now.
        assert_eq!(
            args(&["--trace-sample", "8", "p.s"]).unwrap_err(),
            ParseArgsError::Conflict("--trace-sample only applies to --trace-out")
        );
        assert!(matches!(
            command(&["campaign", "--trace-sample", "8"]),
            Err((ParseArgsError::Conflict(_), CAMPAIGN_USAGE))
        ));
        // With --trace-out the interval is accepted as before.
        assert!(args(&["--trace-out", "t.json", "--trace-sample", "8", "p.s"]).is_ok());
        assert!(command(&["campaign", "--trace-out", "t.json", "--trace-sample", "8"]).is_ok());
    }

    #[test]
    fn profile_flags_on_run() {
        let o = args(&["--profile-out", "f.folded", "--power-out", "p.json", "p.s"]).unwrap();
        assert_eq!(o.profile_out.as_deref(), Some("f.folded"));
        assert_eq!(o.power_out.as_deref(), Some("p.json"));

        assert!(matches!(
            args(&["--functional", "--profile-out", "f.folded", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
    }

    #[test]
    fn profile_subcommand() {
        let Command::Profile(p) = command(&[
            "profile", "--small", "--max-pcs", "256", "--window", "512", "--top", "5",
            "--out", "f.folded", "--power-out", "p.json", "prog.s",
        ])
        .unwrap() else {
            panic!("expected profile")
        };
        assert_eq!(
            p,
            ProfileOptions {
                topology: Topology::TopH,
                small: true,
                scramble: true,
                max_cycles: 100_000_000,
                max_pcs: 256,
                window: 512,
                top: 5,
                out: Some("f.folded".to_owned()),
                power_out: Some("p.json".to_owned()),
                path: "prog.s".to_owned(),
            }
        );

        assert!(matches!(
            command(&["profile"]),
            Err((ParseArgsError::MissingProgram, PROFILE_USAGE))
        ));
        assert!(matches!(
            command(&["profile", "--max-pcs", "0", "p.s"]),
            Err((ParseArgsError::InvalidValue { option: "--max-pcs", .. }, _))
        ));
        assert!(matches!(
            command(&["profile", "--window", "0", "--power-out", "p.json", "p.s"]),
            Err((ParseArgsError::Conflict(_), _))
        ));
        assert!(matches!(
            command(&["profile", "--help"]),
            Err((ParseArgsError::Help, PROFILE_USAGE))
        ));
    }

    #[test]
    fn rejections_are_typed() {
        assert_eq!(args(&[]).unwrap_err(), ParseArgsError::MissingProgram);
        assert!(matches!(
            args(&["--topology", "mesh", "p.s"]),
            Err(ParseArgsError::InvalidValue { option: "--topology", .. })
        ));
        assert!(matches!(
            args(&["--dump-mem", "100", "p.s"]),
            Err(ParseArgsError::InvalidValue { option: "--dump-mem", .. })
        ));
        assert!(matches!(
            args(&["--max-cycles", "many", "p.s"]),
            Err(ParseArgsError::InvalidValue { option: "--max-cycles", .. })
        ));
        assert_eq!(
            args(&["--bogus", "p.s"]).unwrap_err(),
            ParseArgsError::UnknownOption("--bogus".to_owned())
        );
        assert!(matches!(
            args(&["--faults", "warp_core=0.5", "p.s"]),
            Err(ParseArgsError::InvalidValue { option: "--faults", .. })
        ));
        assert!(matches!(
            args(&["--seed", "abc", "p.s"]),
            Err(ParseArgsError::InvalidValue { option: "--seed", .. })
        ));
        assert_eq!(
            args(&["--seed"]).unwrap_err(),
            ParseArgsError::MissingValue("--seed")
        );
        assert_eq!(
            args(&["a.s", "b.s"]).unwrap_err(),
            ParseArgsError::UnexpectedArgument("b.s".to_owned())
        );
    }

    #[test]
    fn help_is_not_an_error_case() {
        assert_eq!(args(&["--help"]).unwrap_err(), ParseArgsError::Help);
        assert_eq!(args(&["-h", "p.s"]).unwrap_err(), ParseArgsError::Help);
        // Each subcommand answers --help with its own usage text.
        assert!(matches!(
            command(&["bench", "--help"]),
            Err((ParseArgsError::Help, BENCH_USAGE))
        ));
        assert!(matches!(
            command(&["campaign", "-h"]),
            Err((ParseArgsError::Help, CAMPAIGN_USAGE))
        ));
        assert!(matches!(
            command(&["run", "--help"]),
            Err((ParseArgsError::Help, USAGE))
        ));
        // So does a bare --help, with the top-level text.
        assert!(matches!(command(&["--help"]), Err((ParseArgsError::Help, USAGE))));
        assert!(matches!(command(&["-h"]), Err((ParseArgsError::Help, USAGE))));
    }

    #[test]
    fn checkpoint_flags() {
        let o = args(&[
            "--checkpoint-every", "5000", "--checkpoint-file", "run.ckpt", "p.s",
        ])
        .unwrap();
        assert_eq!(o.checkpoint_every, 5000);
        assert_eq!(o.checkpoint_file.as_deref(), Some("run.ckpt"));

        let o = args(&["--resume", "run.ckpt", "--json", "p.s"]).unwrap();
        assert_eq!(o.resume.as_deref(), Some("run.ckpt"));
        assert!(o.json);

        assert!(matches!(
            args(&["--checkpoint-every", "0", "p.s"]),
            Err(ParseArgsError::InvalidValue { option: "--checkpoint-every", .. })
        ));
    }

    #[test]
    fn functional_conflicts() {
        assert!(matches!(
            args(&["--functional", "--faults", "bank_fail=1", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--checkpoint-every", "100", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--resume", "x.ckpt", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--json", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--json", "--dump-regs", "0", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--metrics-stream", "m.jsonl", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
    }

    #[test]
    fn metrics_stream_flag() {
        let o = args(&["--metrics-stream", "m.jsonl", "p.s"]).unwrap();
        assert_eq!(o.metrics_stream.as_deref(), Some("m.jsonl"));
        // Composes with an explicit chunk interval and a final export.
        let o = args(&[
            "--metrics-stream", "m.jsonl", "--checkpoint-every", "512",
            "--metrics-json", "m.json", "p.s",
        ])
        .unwrap();
        assert_eq!(o.checkpoint_every, 512);
        assert!(o.metrics_json.is_some() && o.metrics_stream.is_some());
    }

    #[test]
    fn fault_flags() {
        let o = args(&["--faults", "bank_fail=2,link_stall=0.01", "--seed", "42", "p.s"]).unwrap();
        let spec = o.faults.expect("spec parsed");
        assert_eq!(spec.bank_fail, 2);
        assert_eq!(spec.link_stall, 0.01);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn hex_and_decimal_addresses() {
        assert_eq!(parse_u32("0x20"), Some(0x20));
        assert_eq!(parse_u32("32"), Some(32));
        assert_eq!(parse_u32("zz"), None);
    }

    #[test]
    fn supervision_flags_on_run() {
        let o = args(&["--max-wall-secs", "30", "--sanitize", "p.s"]).unwrap();
        assert_eq!(o.max_wall_secs, Some(30));
        assert!(o.sanitize);

        assert!(matches!(
            args(&["--max-wall-secs", "0", "p.s"]),
            Err(ParseArgsError::InvalidValue { option: "--max-wall-secs", .. })
        ));
        // Both are cycle-accurate-only features.
        assert!(matches!(
            args(&["--functional", "--max-wall-secs", "5", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--sanitize", "p.s"]),
            Err(ParseArgsError::Conflict(_))
        ));
    }

    #[test]
    fn fault_campaign_flags() {
        let Command::Campaign(c) = command(&[
            "campaign", "--small", "--topology", "top1", "--faults", "bank_fail=1",
            "--manifest", "m.txt", "--trials", "5", "--load", "0.1",
            "--deadline-secs", "30", "--cycle-budget", "200000", "--max-attempts", "4",
            "--backoff-ms", "10", "--checkpoint-every", "128", "--isolate=3",
            "--sanitize", "--json-out", "r.json",
        ])
        .unwrap() else {
            panic!("expected campaign")
        };
        assert_eq!(c.faults.expect("spec parsed").bank_fail, 1);
        assert_eq!(c.manifest.as_deref(), Some("m.txt"));
        assert_eq!(c.trials, 5);
        assert_eq!(c.load, 0.1);
        assert_eq!(c.deadline_secs, Some(30));
        assert_eq!(c.cycle_budget, Some(200_000));
        assert_eq!(c.max_attempts, 4);
        assert_eq!(c.backoff_ms, 10);
        assert_eq!(c.checkpoint_every, 128);
        assert_eq!(c.isolate, Some(3));
        assert!(c.sanitize);
        assert_eq!(c.json_out.as_deref(), Some("r.json"));

        // Bare --isolate means one worker.
        let Command::Campaign(c) =
            command(&["campaign", "--faults", "bank_fail=1", "--manifest", "m", "--isolate"])
                .unwrap()
        else {
            panic!("expected campaign")
        };
        assert_eq!(c.isolate, Some(1));

        // The hidden worker subcommand dispatches.
        assert!(matches!(command(&["worker"]), Ok(Command::Worker)));
    }

    #[test]
    fn fault_campaign_rejections() {
        // The manifest is the campaign's single source of truth.
        assert!(matches!(
            command(&["campaign", "--faults", "bank_fail=1"]),
            Err((ParseArgsError::MissingOption("--manifest"), CAMPAIGN_USAGE))
        ));
        // Executor flags without --faults are typed conflicts, not silently
        // ignored knobs.
        for flags in [
            &["campaign", "--trials", "4"][..],
            &["campaign", "--manifest", "m"][..],
            &["campaign", "--isolate"][..],
            &["campaign", "--json-out", "r.json"][..],
            &["campaign", "--cycle-budget", "100"][..],
        ] {
            assert!(
                matches!(command(flags), Err((ParseArgsError::Conflict(_), _))),
                "{flags:?} must be rejected without --faults"
            );
        }
        // Sweep exports don't mix with the executor.
        assert!(matches!(
            command(&[
                "campaign", "--faults", "bank_fail=1", "--manifest", "m",
                "--metrics-json", "m.json",
            ]),
            Err((ParseArgsError::Conflict(_), _))
        ));
        assert!(matches!(
            command(&["campaign", "--faults", "bank_fail=1", "--manifest", "m", "--isolate=0"]),
            Err((ParseArgsError::InvalidValue { option: "--isolate", .. }, _))
        ));
    }
}
