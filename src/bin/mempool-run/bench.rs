//! `mempool-run bench` — the simulator benchmark matrix.

use mempool_suite::cli::{invalid, unexpected, Args, UsageError};
use mempool_suite::error::Error;
use mempool_traffic::sig;

#[derive(Debug, PartialEq, Eq)]
pub struct Options {
    pub out: String,
    pub cores: Vec<usize>,
    pub cycles: u64,
}

pub const USAGE: &str = "usage: mempool-run bench --out <file> [OPTIONS]

options:
  --out <file>            write the mempool-bench-v2 report here (required)
  --cores <16|256|all>    bench cluster sizes (default all)
  --cycles <n>            measured cycles per bench point (default 2000)
  --help                  this text

exit status: 0 on success, 1 on runtime errors, 2 on usage errors, 3 when
interrupted (completed points are still flushed to --out)";

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, UsageError> {
    let mut out = None;
    let mut cores = vec![16, 256];
    let mut cycles = 2_000;
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--out" => out = Some(args.value()?),
            "--cores" => {
                cores = match args.value()?.as_str() {
                    "16" => vec![16],
                    "256" => vec![256],
                    "all" => vec![16, 256],
                    other => {
                        let reason = format!("expected 16, 256 or all, got `{other}`");
                        return Err(invalid("--cores", reason));
                    }
                }
            }
            "--cycles" => cycles = args.nonzero("expected a cycle count")?,
            _ => return Err(unexpected(arg)),
        }
    }
    let out = out.ok_or(UsageError::MissingOption("--out"))?;
    Ok(Options { out, cores, cycles })
}

/// Runs the benchmark matrix and writes the report.
pub fn run(opts: &Options) -> Result<(), Error> {
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
