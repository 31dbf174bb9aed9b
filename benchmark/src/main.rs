//! `mempool-benchmark` — this repository's benchmark.
//!
//! ```text
//! mempool-benchmark run --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]]
//!                       [--repeat <n>] [--out <file.json>] [--quick]
//! mempool-benchmark run --list
//! mempool-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` with one workload and neither `--repeat` nor `--out` runs it in
//! this process and ends with the one-line JSON result the acceptance
//! driver reads. Every other `run` is a supervisor: it runs each workload
//! in a child process of its own (so peak memory and warm-up of one
//! workload never leak into the next), `--repeat` times, and writes the
//! result file `compare` consumes. See README.md.

mod compare;
mod env;
mod json;
mod kernel;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod traffic;
mod workload;

use std::process::ExitCode;
use workload::{Outcome, Sizes};

const USAGE: &str = "usage:
  mempool-benchmark run --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]]
                        [--repeat <n>] [--out <file.json>] [--quick]
  mempool-benchmark run --list
  mempool-benchmark compare <a.json> <b.json>";

/// Parsed `run` options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<u32>,
    pub out: Option<String>,
    pub quick: bool,
}

fn parse_run(args: &[String], default_seconds: f64) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: default_seconds,
        trace: false,
        repeat: None,
        out: None,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => run.workload = value("--workload")?,
            "--seed" => {
                run.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: expected a whole number".to_owned())?;
            }
            "--seconds" => {
                run.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds: expected a number in (0, 3600]")?;
            }
            "--repeat" => {
                run.repeat = Some(
                    value("--repeat")?
                        .parse()
                        .ok()
                        .filter(|n| (1..=100).contains(n))
                        .ok_or("--repeat: expected 1..=100")?,
                );
            }
            "--out" => run.out = Some(value("--out")?),
            // `--trace` alone switches the traced run on; the acceptance
            // driver passes `--trace 0` or `--trace 1`.
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => run.quick = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if run.workload != "all" && !spec::is_workload(&run.workload) {
        return Err(format!(
            "--workload: expected `all` or one of {}",
            spec::WORKLOADS.map(|(w, _)| w).join(", ")
        ));
    }
    Ok(run)
}

/// Load threads a workload drives the system with: the 2-worker engine and
/// the two closed-loop clients need two hardware threads to mean anything.
fn load_threads(workload: &str) -> usize {
    match workload {
        "matmul_par2" | "serve_small_jobs" => 2,
        _ => 1,
    }
}

fn run_workload(workload: &str, seed: u64, sizes: Sizes, traced: bool) -> Result<Outcome, String> {
    if load_threads(workload) > env::nproc() {
        return Err(format!(
            "{workload} drives {} load threads but this host has {} hardware thread(s)",
            load_threads(workload),
            env::nproc()
        ));
    }
    match workload {
        "matmul_serial" => kernel::run(kernel::Which::MatmulSerial, seed, sizes, traced),
        "matmul_par2" => kernel::run(kernel::Which::MatmulPar2, seed, sizes, traced),
        "dct_local" => kernel::run(kernel::Which::DctLocal, seed, sizes, traced),
        "traffic_sat" => traffic::run(seed, sizes, traced),
        "serve_small_jobs" => serve::run(seed, sizes, traced),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Prints one finished run: a line per metric, then the one-line JSON
/// object the acceptance driver reads (last line of standard output).
fn emit(workload: &str, traced: bool, out: &Outcome) {
    for why in &out.failures {
        println!("# FAILED {workload}: {why}");
    }
    print!("{}", out.ledger);
    for (name, value) in &out.info {
        println!("{workload} {name} {value} -");
    }
    println!("{workload} ops {} count", out.ops);
    println!("{workload} failed_ops {} count", out.failed);
    let declared: &[spec::MetricSpec] = if traced {
        spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let mut fields = Vec::with_capacity(declared.len());
    for m in declared {
        // A per-layer metric the workload does not exercise reads 0.
        let value = out.get(m.name).unwrap_or(0.0);
        println!("{workload} {} {} {}", m.name, json::num(value), m.unit);
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(m.name),
            json::num(value),
            json::quote(m.unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.ops,
        out.failed,
        fields.join(",")
    );
}

fn list() {
    for (name, _) in spec::WORKLOADS {
        println!("workload {name}");
    }
    for m in spec::END_TO_END {
        println!("end_to_end {} {} {}", m.name, m.unit, m.better.as_str());
    }
    for m in spec::PER_LAYER {
        println!("per_layer {} {} {}", m.name, m.unit, m.better.as_str());
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    // Everything below uses paths relative to the repository root.
    std::env::set_current_dir(env::repo_root())
        .map_err(|e| format!("entering the repository root: {e}"))?;
    if args.iter().any(|a| a == "--list") {
        list();
        return Ok(ExitCode::SUCCESS);
    }
    let declared = spec::load_declared(std::path::Path::new("BENCHMARK.json"))?;
    let run = parse_run(args, declared.run_seconds)?;
    if run.workload == "all" || run.repeat.is_some() || run.out.is_some() {
        return report::supervise(&run);
    }
    let sizes = Sizes {
        seconds: run.seconds,
        quick: run.quick,
    };
    let out = run_workload(&run.workload, run.seed, sizes, run.trace)?;
    emit(&run.workload, run.trace, &out);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::command(&args[1], &args[2]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn trace_takes_an_optional_value() {
        let driver = parse_run(
            &args("--workload dct_local --seed 7 --seconds 10 --trace 0"),
            10.0,
        )
        .unwrap();
        assert!(!driver.trace && driver.seed == 7);
        assert!(
            parse_run(&args("--workload dct_local --trace 1 --seed 2"), 10.0)
                .unwrap()
                .trace
        );
        let bare = parse_run(&args("--workload all --trace --repeat 3"), 10.0).unwrap();
        assert!(bare.trace && bare.repeat == Some(3));
        assert!(parse_run(&args("--workload nope"), 10.0).is_err());
        assert!(parse_run(&args("--workload all --seconds 0"), 10.0).is_err());
    }

    /// `run --list` prints exactly the sets `BENCHMARK.json` declares, and
    /// the `--quick` size runs a workload end to end, emits every declared
    /// metric, and marks its result file not comparable.
    #[test]
    fn quick_run_reports_every_declared_metric() {
        std::env::set_current_dir(env::repo_root()).unwrap();
        let quick = Sizes {
            seconds: 1.0,
            quick: true,
        };
        let out = run_workload("dct_local", 3, quick, false).expect("dct_local runs");
        assert_eq!((out.ops, out.failed), (1, 0), "{:?}", out.failures);
        for m in spec::END_TO_END {
            let v = out
                .get(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(v.is_finite() && v != 0.0, "{} = {v}", m.name);
        }
        assert_eq!(
            out.get("paper_agreement_pct"),
            Some(100.0),
            "dct matches the ideal crossbar"
        );
        let set = report::ResultSet {
            comparable: !quick.quick,
            seed: 3,
            seconds: 1.0,
            repeat: 1,
            traced: false,
            workloads: vec![report::WorkloadRuns::from_outcomes(
                "dct_local",
                &[&out],
                &[],
            )],
        };
        let doc = json::parse(&report::render_result_file(&set)).expect("the result file is JSON");
        let back = report::ResultSet::from_json(&doc).expect("the result file reads back");
        assert_eq!(back, set);
        assert!(!back.comparable, "a quick result is stamped not comparable");
    }
}
