//! `mempool-run run` — assemble a program and execute it on the
//! cycle-accurate cluster (or, with `--functional`, the untimed reference).

use crate::{load_program, write_power_timeline};
use mempool::json::{self, Layout};
use mempool::{
    ClusterSnapshot, FaultPlan, FaultSpec, ObsConfig, ProfileConfig, ResilienceConfig,
    SanitizerConfig, SimSession,
};
use mempool_riscv::Reg;
use mempool_suite::cli::{invalid, parse_value, unexpected, Args, ClusterFlags, UsageError};
use mempool_suite::error::Error;
use std::time::Duration;

#[derive(Debug, Default)]
pub struct Options {
    pub cluster: ClusterFlags,
    pub max_cycles: u64,
    pub dump_regs: Option<usize>,
    pub dump_mem: Option<(u32, usize)>,
    pub trace_core: Option<usize>,
    pub functional: bool,
    pub listing: bool,
    pub emit_bin: Option<String>,
    pub describe: bool,
    pub faults: Option<FaultSpec>,
    pub seed: u64,
    pub checkpoint_every: u64,
    pub checkpoint_file: Option<String>,
    pub resume: Option<String>,
    pub json: bool,
    pub metrics_json: Option<String>,
    pub metrics_stream: Option<String>,
    pub trace_out: Option<String>,
    pub trace_sample: u64,
    pub profile_out: Option<String>,
    pub power_out: Option<String>,
    pub max_wall_secs: Option<u64>,
    pub sanitize: bool,
    pub path: String,
}

/// The top-level usage text, which is also `run`'s.
pub const USAGE: &str = "usage: mempool-run <run|bench|campaign|profile> [OPTIONS]

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
  --metrics-json <file>              export the mempool-metrics-v2 registry
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

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, UsageError> {
    let mut opts = Options {
        max_cycles: 100_000_000,
        trace_sample: 64,
        ..Options::default()
    };
    let mut trace_sample_given = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg()? {
        if opts.cluster.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--max-cycles" => opts.max_cycles = args.parse("expected a cycle count")?,
            "--dump-regs" => opts.dump_regs = Some(args.parse("expected a core index")?),
            "--dump-mem" => {
                let spec = args.value()?;
                let (addr, words) = spec
                    .split_once(':')
                    .ok_or_else(|| invalid("--dump-mem", "expected <addr>:<words>"))?;
                let addr = parse_u32(addr).ok_or_else(|| invalid("--dump-mem", "bad address"))?;
                opts.dump_mem = Some((addr, parse_value("--dump-mem", words, "bad word count")?));
            }
            "--trace-core" => opts.trace_core = Some(args.parse("expected a core index")?),
            "--functional" => opts.functional = true,
            "--listing" => opts.listing = true,
            "--emit-bin" => opts.emit_bin = Some(args.value()?),
            "--describe" => opts.describe = true,
            "--faults" => opts.faults = Some(args.parse_explained()?),
            "--seed" => opts.seed = args.parse("expected an integer")?,
            "--checkpoint-every" => opts.checkpoint_every = args.nonzero("expected a cycle count")?,
            "--checkpoint-file" => opts.checkpoint_file = Some(args.value()?),
            "--resume" => opts.resume = Some(args.value()?),
            "--json" => opts.json = true,
            "--metrics-json" => opts.metrics_json = Some(args.value()?),
            "--metrics-stream" => opts.metrics_stream = Some(args.value()?),
            "--trace-out" => opts.trace_out = Some(args.value()?),
            "--trace-sample" => {
                opts.trace_sample = args.nonzero("expected a sampling interval")?;
                trace_sample_given = true;
            }
            "--profile-out" => opts.profile_out = Some(args.value()?),
            "--power-out" => opts.power_out = Some(args.value()?),
            "--max-wall-secs" => opts.max_wall_secs = Some(args.nonzero("expected seconds")?),
            "--sanitize" => opts.sanitize = true,
            _ if !arg.starts_with('-') && opts.path.is_empty() => opts.path = arg,
            _ => return Err(unexpected(arg)),
        }
    }
    if opts.path.is_empty() && !opts.describe {
        return Err(UsageError::MissingArgument("program path"));
    }
    if trace_sample_given && opts.trace_out.is_none() {
        return Err(UsageError::Conflict(
            "--trace-sample only applies to --trace-out",
        ));
    }
    if opts.functional {
        let checkpointing =
            opts.checkpoint_every > 0 || opts.checkpoint_file.is_some() || opts.resume.is_some();
        let exports = opts.metrics_json.is_some()
            || opts.metrics_stream.is_some()
            || opts.trace_out.is_some();
        let cycle_accurate_only = [
            (opts.faults.is_some(), "--faults requires the cycle-accurate simulator"),
            (checkpointing, "checkpointing requires the cycle-accurate simulator"),
            (opts.json, "--json requires the cycle-accurate simulator"),
            (
                exports,
                "--metrics-json/--metrics-stream/--trace-out require the cycle-accurate simulator",
            ),
            (
                opts.profile_out.is_some() || opts.power_out.is_some(),
                "--profile-out/--power-out require the cycle-accurate simulator",
            ),
            (
                opts.max_wall_secs.is_some() || opts.sanitize,
                "--max-wall-secs/--sanitize require the cycle-accurate simulator",
            ),
        ];
        if let Some((_, what)) = cycle_accurate_only.into_iter().find(|&(given, _)| given) {
            return Err(UsageError::Conflict(what));
        }
    }
    if opts.json && (opts.dump_regs.is_some() || opts.dump_mem.is_some() || opts.trace_core.is_some())
    {
        return Err(UsageError::Conflict(
            "--json cannot be combined with --dump-regs/--dump-mem/--trace-core",
        ));
    }
    Ok(opts)
}

pub fn parse_u32(s: &str) -> Option<u32> {
    if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn run_functional(opts: &Options, program: &mempool_riscv::Program) -> Result<(), String> {
    use mempool::{FunctionalSim, L1Memory};
    let config = opts.cluster.config();
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
        dump_mem(addr, &sim.read_words(addr, words).map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// Prints `--dump-mem`'s hex dump of the words read at `addr`, four to a
/// line.
fn dump_mem(addr: u32, dump: &[u32]) {
    println!("\nL1 at {addr:#010x} ({} words):", dump.len());
    for (i, w) in dump.iter().enumerate() {
        if i % 4 == 0 {
            print!("  {:08x}: ", addr as usize + 4 * i);
        }
        print!("{w:08x} ");
        if i % 4 == 3 {
            println!();
        }
    }
    if !dump.len().is_multiple_of(4) {
        println!();
    }
}

pub fn run(opts: &Options) -> Result<(), Error> {
    let mut config = opts.cluster.config();
    if opts.describe {
        let session = SimSession::builder(config).build_snitch()?;
        print!("{}", session.cluster().describe());
        return Ok(());
    }
    let program = load_program(&opts.path)?;

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
    // Progress notes for a human reader; `--json` keeps stdout to the one
    // result document.
    let say = |note: std::fmt::Arguments| {
        if !opts.json {
            println!("{note}");
        }
    };
    let mut builder = SimSession::builder(config);
    if let Some(spec) = opts.faults {
        say(format_args!("fault injection: {spec} (seed {})", opts.seed));
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
        say(format_args!(
            "resumed from {from} at cycle {} (state digest {:#018x})",
            snap.cycle(),
            snap.state_digest()
        ));
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
            let doc = cluster.metrics_registry().to_json();
            let mut line = json::object(Layout::Compact, |o| {
                o.num("cycle", cluster.now()).str("doc", &doc)
            });
            line.push('\n');
            if let Err(e) = file.write_all(line.as_bytes()) {
                write_err = Some(e);
            } else {
                lines += 1;
            }
        })?;
        if let Some(e) = write_err {
            return Err(Error::io(out, e));
        }
        say(format_args!("streamed {lines} partial-metrics line(s) to {out}"));
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
        say(format_args!(
            "sanitizer: clean ({} cycles checked, {} completions)",
            report.cycles_checked, report.completions
        ));
    }

    if let Some(out) = &opts.metrics_json {
        std::fs::write(out, session.metrics_registry().to_json())
            .map_err(|e| Error::io(out, e))?;
        say(format_args!("wrote metrics to {out}"));
    }
    if let Some(out) = &opts.trace_out {
        let trace = session.timeline().expect("observability was enabled");
        std::fs::write(out, trace.to_chrome_json()).map_err(|e| Error::io(out, e))?;
        say(format_args!(
            "wrote timeline trace to {out} ({} spans, {} dropped)",
            trace.spans.len(),
            trace.dropped_spans
        ));
    }
    if let Some(out) = &opts.profile_out {
        let folded = session.profile_folded().expect("profiling was enabled");
        std::fs::write(out, folded).map_err(|e| Error::io(out, e))?;
        say(format_args!("wrote folded-stack profile to {out}"));
    }
    if let Some(out) = &opts.power_out {
        let windows = write_power_timeline(&session, out)?;
        say(format_args!("wrote power timeline to {out} ({windows} windows)"));
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
        opts.cluster.topology,
        config.num_cores(),
        if opts.cluster.scramble { "on" } else { "off" }
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
        let dump = cluster.read_words(addr, words);
        dump_mem(addr, &dump.map_err(|e| Error::Other(e.to_string()))?);
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
    print!(
        "{}",
        json::document(|d| {
            d.num("cycles", cluster.now())
                .num("run_cycles", run_cycles)
                .num("instret", cores.instret)
                .str("state_digest", &format!("{:#018x}", cluster.state_digest()))
                .str("l1_digest", &format!("{:#018x}", cluster.l1_digest()))
                .num("requests_issued", stats.requests_issued)
                .num("responses_delivered", stats.responses_delivered)
                .num("latency_mean", format_args!("{:.6}", stats.latency.mean()))
                .num("faulted_cores", faulted)
                .num("quarantined_banks", cluster.quarantined_banks())
                .obj("faults", Layout::Block(4), |o| {
                    o.num("injected", f.total_injected())
                        .num("banks_failed", f.banks_failed)
                        .num("link_drops", f.link_drops)
                        .num("link_corruptions", f.link_corruptions)
                        .num("core_lockups", f.core_lockups)
                        .num("request_retries", f.request_retries)
                        .num("requests_abandoned", f.requests_abandoned)
                })
        })
    );
}
