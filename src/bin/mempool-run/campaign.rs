//! `mempool-run campaign` — a synthetic-traffic load sweep, or (with
//! `--faults`) a supervised fault-injection campaign.

use mempool::json::{self, Layout};
use mempool::{FaultSpec, ObsConfig, SanitizerConfig};
use mempool_suite::cli::{
    invalid, parse_nonzero, parse_value, unexpected, Args, ClusterFlags, UsageError,
};
use mempool_suite::error::Error;
use mempool_traffic::{
    parse_config_spec, run_point_with_metrics, sig, Executor, ExecutorConfig, MeteredPoint,
    Pattern, RetryPolicy, Windows,
};
use std::time::Duration;

/// Without `--faults` this is a synthetic-traffic load sweep with full
/// observability exports; with `--faults` it is a supervised
/// fault-injection campaign run by the crash-isolated executor.
#[derive(Debug, Default, PartialEq)]
pub struct Options {
    pub cluster: ClusterFlags,
    pub pattern: Pattern,
    pub pattern_label: String,
    pub loads: Vec<f64>,
    pub windows: Windows,
    pub seed: u64,
    pub metrics_json: Option<String>,
    pub trace_out: Option<String>,
    pub trace_sample: u64,
    // Fault-campaign (executor) mode; active when `faults` is set.
    pub faults: Option<FaultSpec>,
    pub trials: u32,
    pub manifest: Option<String>,
    pub load: f64,
    pub deadline_secs: Option<u64>,
    pub cycle_budget: Option<u64>,
    pub max_attempts: u32,
    pub backoff_ms: u64,
    pub checkpoint_every: u64,
    pub isolate: Option<usize>,
    pub sanitize: bool,
    pub json_out: Option<String>,
}

pub const USAGE: &str = "usage: mempool-run campaign [OPTIONS]

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
                                     mempool-metrics-v2 registries here
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

/// The options that only mean something to the executor: given without
/// `--faults` they are a usage error, not silently ignored knobs.
const FAULT_ONLY: [&str; 11] = [
    "--manifest", "--trials", "--load", "--deadline-secs", "--cycle-budget", "--max-attempts",
    "--backoff-ms", "--checkpoint-every", "--isolate", "--sanitize", "--json-out",
];

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, UsageError> {
    let mut opts = Options {
        pattern_label: "uniform".to_owned(),
        loads: vec![0.02, 0.05, 0.10, 0.20],
        trace_sample: 64,
        trials: 8,
        load: 0.05,
        max_attempts: 3,
        backoff_ms: 50,
        checkpoint_every: 4_096,
        ..Options::default()
    };
    let mut trace_sample_given = false;
    let mut fault_only_given = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg()? {
        if opts.cluster.accept(&arg, &mut args)? {
            continue;
        }
        // `--isolate=N` is the one option spelled with an inline value.
        if let Some(n) = arg.strip_prefix("--isolate=") {
            opts.isolate = Some(parse_nonzero("--isolate", n, "expected a worker count")?);
            fault_only_given.get_or_insert("--isolate");
            continue;
        }
        if fault_only_given.is_none() {
            fault_only_given = FAULT_ONLY.into_iter().find(|&flag| flag == arg);
        }
        match arg.as_str() {
            "--pattern" => {
                let spec = args.value()?;
                opts.pattern = match spec.as_str() {
                    "uniform" => Pattern::Uniform,
                    other => match other.strip_prefix("plocal=") {
                        Some(p) => {
                            let p_local: f64 =
                                parse_value("--pattern", p, "expected plocal=<probability>")?;
                            if !(0.0..=1.0).contains(&p_local) {
                                return Err(invalid(
                                    "--pattern",
                                    "plocal probability must be in [0, 1]",
                                ));
                            }
                            Pattern::PLocal { p_local }
                        }
                        None => {
                            return Err(invalid("--pattern", format!("unknown pattern `{other}`")))
                        }
                    },
                };
                opts.pattern_label = spec;
            }
            "--loads" => {
                let list = args.value()?;
                let mut loads = Vec::new();
                for part in list.split(',') {
                    let load: f64 =
                        parse_value("--loads", part.trim(), "expected comma-separated loads")?;
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
            "--warmup" => opts.windows.warmup = args.parse("expected a cycle count")?,
            "--measure" => opts.windows.measure = args.nonzero("expected a cycle count")?,
            "--drain" => opts.windows.drain = args.parse("expected a cycle count")?,
            "--seed" => opts.seed = args.parse("expected an integer")?,
            "--metrics-json" => opts.metrics_json = Some(args.value()?),
            "--trace-out" => opts.trace_out = Some(args.value()?),
            "--trace-sample" => {
                opts.trace_sample = args.nonzero("expected a sampling interval")?;
                trace_sample_given = true;
            }
            "--faults" => opts.faults = Some(args.parse_explained()?),
            "--manifest" => opts.manifest = Some(args.value()?),
            "--trials" => opts.trials = args.nonzero("expected a trial count")?,
            "--load" => {
                opts.load = args.parse("expected a load in (0, 1]")?;
                if !(opts.load > 0.0 && opts.load <= 1.0) {
                    return Err(invalid("--load", "load must be in (0, 1]"));
                }
            }
            "--deadline-secs" => opts.deadline_secs = Some(args.nonzero("expected seconds")?),
            "--cycle-budget" => opts.cycle_budget = Some(args.nonzero("expected a cycle count")?),
            "--max-attempts" => opts.max_attempts = args.nonzero("expected an attempt count")?,
            "--backoff-ms" => opts.backoff_ms = args.parse("expected milliseconds")?,
            "--checkpoint-every" => opts.checkpoint_every = args.nonzero("expected a cycle count")?,
            "--isolate" => opts.isolate = Some(1),
            "--sanitize" => opts.sanitize = true,
            "--json-out" => opts.json_out = Some(args.value()?),
            _ => return Err(unexpected(arg)),
        }
    }
    if trace_sample_given && opts.trace_out.is_none() {
        return Err(UsageError::Conflict(
            "--trace-sample only applies to --trace-out",
        ));
    }
    if opts.faults.is_some() {
        if opts.manifest.is_none() {
            return Err(UsageError::MissingOption("--manifest"));
        }
        if opts.metrics_json.is_some() || opts.trace_out.is_some() {
            return Err(UsageError::Conflict(
                "--metrics-json/--trace-out apply to the load sweep; use --json-out with --faults",
            ));
        }
    } else if let Some(option) = fault_only_given {
        return Err(UsageError::Requires {
            option,
            needs: "--faults",
        });
    }
    Ok(opts)
}

/// Runs the sweep, or with `--faults` the supervised campaign.
pub fn run(opts: &Options) -> Result<(), Error> {
    if opts.faults.is_some() {
        run_faults(opts)
    } else {
        run_sweep(opts)
    }
}

/// Runs a synthetic-traffic load sweep with the observability recorder
/// attached and exports the per-point metrics registries (and optionally
/// the last point's Chrome trace).
fn run_sweep(opts: &Options) -> Result<(), Error> {
    let config = opts.cluster.config();
    let obs = if opts.trace_out.is_some() {
        ObsConfig::with_trace(opts.trace_sample)
    } else {
        ObsConfig::histograms()
    };
    println!(
        "campaign: {} load point(s) on {} ({} cores, pattern {}, seed {})",
        opts.loads.len(),
        opts.cluster.topology,
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
fn run_faults(opts: &Options) -> Result<(), Error> {
    let spec = opts.faults.expect("caller checked --faults");
    let manifest = opts.manifest.as_deref().expect("parser required --manifest");
    let config_spec = opts.cluster.spec();
    let config = parse_config_spec(&config_spec).map_err(Error::Other)?;
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
        config_spec,
        sanitize: opts.sanitize.then(SanitizerConfig::default),
        ..ExecutorConfig::default()
    };
    println!(
        "fault campaign: {} trial(s) on {} ({} cores), spec [{spec}], seed {}{}",
        opts.trials,
        opts.cluster.topology,
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
    let report = executor.run(std::path::Path::new(manifest), interrupt, None)?;
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
/// embedded `mempool-metrics-v2` registry of each run.
fn campaign_json(opts: &Options, points: &[MeteredPoint]) -> String {
    let fixed = |x: f64| format!("{x:.6}");
    let windows = opts.windows;
    json::document(|d| {
        d.str("schema", "mempool-campaign-metrics-v1")
            .str("topology", &opts.cluster.topology.to_string())
            .str("pattern", &opts.pattern_label)
            .num("seed", opts.seed)
            .obj("windows", Layout::Padded, |w| {
                w.num("warmup", windows.warmup)
                    .num("measure", windows.measure)
                    .num("drain", windows.drain)
            })
            .arr("points", Layout::Block(4), |out| {
                points.iter().fold(out, |out, m| {
                    out.push_obj(Layout::Block(6), |p| {
                        p.num("offered_load", fixed(m.point.offered_load))
                            .num("throughput", fixed(m.point.throughput))
                            .num("latency_mean", fixed(m.point.avg_latency()))
                            .num("locality", fixed(m.point.locality))
                            .num("net_occupancy", fixed(m.point.net_occupancy))
                            // The registry is a document of its own, embedded
                            // verbatim at its own indentation.
                            .raw("metrics", m.metrics.to_json().trim_end())
                    })
                })
            })
    })
}
