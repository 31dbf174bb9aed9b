//! `mempool-run profile` — one profiled program run: per-region summary
//! on stdout, optional folded-stack / power exports; or, with `--host`,
//! the host time of each phase of the simulated cycle.

use crate::{load_program, write_power_timeline};
use mempool::{HostRow, ProfileConfig, SimSession};
use mempool_snitch::profile::{stall_name, PcCounters, REGION_NAMES, STALL_CAUSES};
use mempool_suite::cli::{unexpected, Args, ClusterFlags, UsageError};
use mempool_suite::error::Error;

#[derive(Debug, Default, PartialEq, Eq)]
pub struct Options {
    pub cluster: ClusterFlags,
    pub max_cycles: u64,
    pub max_pcs: usize,
    pub window: u64,
    pub top: usize,
    pub out: Option<String>,
    pub power_out: Option<String>,
    pub host: bool,
    pub path: String,
}

pub const USAGE: &str = "usage: mempool-run profile [OPTIONS] <program.s>

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
  --host                             time the simulator instead: host µs per
                                     simulated cycle in each phase of the
                                     cycle, with the program profiler off
  --help                             this text

exit status: 0 on success, 1 on runtime errors, 2 on usage errors";

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, UsageError> {
    let mut opts = Options {
        max_cycles: 100_000_000,
        max_pcs: 4096,
        window: 1024,
        top: 10,
        ..Options::default()
    };
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg()? {
        if opts.cluster.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--max-cycles" => opts.max_cycles = args.parse("expected a cycle count")?,
            "--max-pcs" => opts.max_pcs = args.nonzero("expected a PC-table bound")?,
            "--window" => opts.window = args.parse("expected a cycle count")?,
            "--top" => opts.top = args.parse("expected a PC count")?,
            "--out" => opts.out = Some(args.value()?),
            "--power-out" => opts.power_out = Some(args.value()?),
            "--host" => opts.host = true,
            _ if !arg.starts_with('-') && opts.path.is_empty() => opts.path = arg,
            _ => return Err(unexpected(arg)),
        }
    }
    if opts.path.is_empty() {
        return Err(UsageError::MissingArgument("program path"));
    }
    if opts.host && (opts.out.is_some() || opts.power_out.is_some()) {
        return Err(UsageError::Conflict(
            "--host runs without the program profiler; drop --out and --power-out",
        ));
    }
    if opts.power_out.is_some() && opts.window == 0 {
        return Err(UsageError::Conflict(
            "--power-out needs power windows; drop `--window 0`",
        ));
    }
    Ok(opts)
}

/// The dominant stall cause of a stall-counter row, as `name (cycles)`.
fn top_stall(stalls: &[u64]) -> String {
    STALL_CAUSES
        .iter()
        .zip(stalls)
        .max_by_key(|(_, &n)| n)
        .filter(|(_, &n)| n > 0)
        .map(|(&cause, &n)| format!("{} ({n})", stall_name(cause)))
        .unwrap_or_else(|| "-".to_owned())
}

/// Runs one program under the profiler and prints the per-region
/// cycle/stall breakdown plus the hottest PCs; optionally exports the
/// folded-stack profile and the `mempool-power-v1` timeline.
pub fn run(opts: &Options) -> Result<(), Error> {
    if opts.host {
        return run_host(opts);
    }
    let config = opts.cluster.config();
    let program = load_program(&opts.path)?;
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
        opts.cluster.topology,
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
        let top_stall = top_stall(&r.stalls);
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
            let top_stall = top_stall(&c.stalls);
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
        let windows = write_power_timeline(&session, out)?;
        println!("wrote power timeline to {out} ({windows} windows)");
    }
    Ok(())
}

/// Runs one program under the host phase timer alone and prints host µs
/// per simulated cycle for each phase of `Cluster::cycle`, their sum, and
/// the wall time of the run they were measured in.
fn run_host(opts: &Options) -> Result<(), Error> {
    let config = opts.cluster.config();
    let program = load_program(&opts.path)?;
    let mut session = SimSession::builder(config)
        .host_profile(true)
        .build_snitch()?;
    session.load_program(&program)?;
    let started = std::time::Instant::now();
    let cycles = session.run(opts.max_cycles)?;
    let wall = started.elapsed();

    let host = session.host_profile().expect("the host timer was enabled");
    println!(
        "host-profiled {} on {} ({} cores): {cycles} cycles",
        opts.path,
        opts.cluster.topology,
        config.num_cores(),
    );
    println!("\nhost µs per simulated cycle, by phase of the cycle:");
    let mut total = 0.0;
    for row in HostRow::ALL {
        let us = host.us_per_cycle(row);
        total += us;
        println!("  {:<34} {us:>10.3}", row.label());
    }
    println!("  {:<34} {total:>10.3}", "total");
    println!(
        "\nrows measured over {:.3} ms of the run's {:.3} ms wall time",
        host.total().as_secs_f64() * 1e3,
        wall.as_secs_f64() * 1e3,
    );
    Ok(())
}
