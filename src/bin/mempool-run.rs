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
//!
//! One module per subcommand, each holding its options struct, usage text,
//! parser and mode function; the argument cursor, the cluster flags and the
//! usage-error type they share live in [`mempool_suite::cli`].

#[path = "mempool-run/bench.rs"]
mod bench;
#[path = "mempool-run/campaign.rs"]
mod campaign;
#[path = "mempool-run/profile.rs"]
mod profile;
#[path = "mempool-run/run.rs"]
mod run;

use mempool::SimSession;
use mempool_snitch::SnitchCore;
use mempool_suite::cli::{exit_error, exit_usage, UsageError};
use mempool_suite::error::Error;
use std::process::ExitCode;

/// A parsed command line: which subcommand runs, with its options.
#[derive(Debug)]
enum Command {
    Run(Box<run::Options>),
    Bench(bench::Options),
    Campaign(Box<campaign::Options>),
    Profile(profile::Options),
    /// Hidden: one supervised job, driven over stdin/stdout by a parent
    /// `campaign --isolate` process.
    Worker,
}

/// Splits the command line into a subcommand and its options; an error
/// carries the usage text of the subcommand that rejected it. A bare
/// `--help`/`-h` prints the top-level usage; anything else that does not
/// start with a subcommand name is a usage error.
fn parse_command(mut args: Vec<String>) -> Result<Command, (UsageError, &'static str)> {
    let sub = if args.is_empty() { String::new() } else { args.remove(0) };
    let (parsed, usage) = match sub.as_str() {
        "run" => (run::parse(args).map(|o| Command::Run(Box::new(o))), run::USAGE),
        "bench" => (bench::parse(args).map(Command::Bench), bench::USAGE),
        "campaign" => (
            campaign::parse(args).map(|o| Command::Campaign(Box::new(o))),
            campaign::USAGE,
        ),
        "profile" => (profile::parse(args).map(Command::Profile), profile::USAGE),
        // Hidden: spawned by `campaign --isolate`, not for interactive use.
        "worker" => (Ok(Command::Worker), run::USAGE),
        "--help" | "-h" => (Err(UsageError::Help), run::USAGE),
        _ => (
            Err(UsageError::MissingSubcommand("run, bench, campaign or profile")),
            run::USAGE,
        ),
    };
    parsed.map_err(|e| (e, usage))
}

/// Reads and assembles the program at `path`.
fn load_program(path: &str) -> Result<mempool_riscv::Program, Error> {
    let source = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    mempool_riscv::assemble(&source).map_err(|e| Error::Asm {
        path: path.to_owned(),
        source: e,
    })
}

/// Operating frequency used to price power timelines — the 500 MHz point
/// of §VI-D, where the paper reports 20.9 mW/tile and 1.55 W per cluster.
const POWER_FREQ_MHZ: f64 = 500.0;

/// Writes the profiled session's `mempool-power-v1` timeline to `out`;
/// returns the number of windows in it.
fn write_power_timeline(session: &SimSession<SnitchCore>, out: &str) -> Result<usize, Error> {
    let windows = session.power_windows().expect("profiling was enabled");
    let config = session.cluster().config();
    let doc = mempool_physical::power_timeline_json(
        &windows,
        config.cores_per_tile,
        config.banks_per_tile,
        POWER_FREQ_MHZ,
    );
    std::fs::write(out, doc).map_err(|e| Error::io(out, e))?;
    Ok(windows.len())
}

fn main() -> ExitCode {
    let cmd = match parse_command(std::env::args().skip(1).collect()) {
        Ok(c) => c,
        Err((e, usage)) => return exit_usage(&e, usage),
    };
    let result = match cmd {
        Command::Run(opts) => run::run(&opts),
        Command::Bench(opts) => bench::run(&opts),
        Command::Campaign(opts) => campaign::run(&opts),
        Command::Profile(opts) => profile::run(&opts),
        Command::Worker => return mempool_suite::worker::run(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => exit_error(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool::Topology;
    use mempool_suite::cli::{unparsed_options, ClusterFlags};
    use mempool_traffic::Pattern;

    fn args(list: &[&str]) -> Result<run::Options, UsageError> {
        run::parse(list.iter().map(|s| s.to_string()))
    }

    fn command(list: &[&str]) -> Result<Command, (UsageError, &'static str)> {
        parse_command(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn defaults_and_flags() {
        let o = args(&["prog.s"]).unwrap();
        assert_eq!(o.cluster.topology, Topology::TopH);
        assert!(o.cluster.scramble && !o.cluster.small && !o.functional);
        assert_eq!(o.path, "prog.s");

        let o = args(&[
            "--topology", "top1", "--small", "--no-scramble", "--max-cycles", "123",
            "--dump-regs", "7", "--dump-mem", "0x100:8", "--trace-core", "3",
            "--functional", "p.s",
        ])
        .unwrap();
        assert_eq!(o.cluster.topology, Topology::Top1);
        assert!(o.cluster.small && !o.cluster.scramble && o.functional);
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
        assert!(opts.cluster.small);
        assert_eq!(opts.path, "p.s");
        // There is no flat grammar: the first argument names a subcommand.
        for flat in [&["--small", "p.s"][..], &["p.s"], &[]] {
            assert!(
                matches!(command(flat), Err((UsageError::MissingSubcommand(_), run::USAGE))),
                "{flat:?}"
            );
        }

        let Command::Bench(b) = command(&["bench", "--out", "o.json", "--cores", "16"]).unwrap()
        else {
            panic!("expected bench")
        };
        assert_eq!(
            b,
            bench::Options {
                out: "o.json".to_owned(),
                cores: vec![16],
                cycles: 2_000,
            }
        );
        assert!(matches!(
            command(&["bench", "--out", "o.json", "--cores", "12"]),
            Err((UsageError::InvalidValue { option, .. }, _)) if option == "--cores"
        ));
        assert!(matches!(
            command(&["bench", "--out", "o.json", "--cycles", "0"]),
            Err((UsageError::InvalidValue { option, .. }, _)) if option == "--cycles"
        ));
        // --out is the only spelling of the output flag.
        assert!(matches!(
            command(&["bench", "--metrics-json", "m.json"]),
            Err((UsageError::UnknownOption(_), bench::USAGE))
        ));
        assert!(matches!(
            command(&["bench"]),
            Err((UsageError::MissingOption("--out"), _))
        ));

        let Command::Campaign(c) = command(&[
            "campaign", "--small", "--pattern", "plocal=0.8", "--loads", "0.05,0.1",
            "--measure", "4000", "--metrics-json", "m.json",
        ])
        .unwrap() else {
            panic!("expected campaign")
        };
        assert!(c.cluster.small);
        assert_eq!(c.pattern, Pattern::PLocal { p_local: 0.8 });
        assert_eq!(c.loads, vec![0.05, 0.1]);
        assert_eq!(c.windows.measure, 4_000);
        assert_eq!(c.metrics_json.as_deref(), Some("m.json"));

        // Subcommand parse errors carry the matching usage text.
        let (e, usage) = command(&["campaign", "--pattern", "mesh"]).unwrap_err();
        assert!(matches!(e, UsageError::InvalidValue { option, .. } if option == "--pattern"));
        assert!(usage.contains("campaign"));
    }

    #[test]
    fn campaign_rejections() {
        assert!(matches!(
            command(&["campaign", "--loads", "0.0,0.1"]),
            Err((UsageError::InvalidValue { option, .. }, _)) if option == "--loads"
        ));
        assert!(matches!(
            command(&["campaign", "--pattern", "plocal=1.5"]),
            Err((UsageError::InvalidValue { option, .. }, _)) if option == "--pattern"
        ));
        assert!(matches!(
            command(&["campaign", "--trace-sample", "0"]),
            Err((UsageError::InvalidValue { option, .. }, _)) if option == "--trace-sample"
        ));
        assert!(matches!(
            command(&["campaign", "extra.s"]),
            Err((UsageError::UnexpectedArgument(_), _))
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
            Err(UsageError::InvalidValue { option, .. }) if option == "--trace-sample"
        ));
        assert!(matches!(
            args(&["--functional", "--metrics-json", "m.json", "p.s"]),
            Err(UsageError::Conflict(_))
        ));
    }

    #[test]
    fn trace_sample_requires_trace_out() {
        // Regression: a lone --trace-sample used to parse fine and then be
        // silently ignored; it is a typed usage error (exit 2) now.
        assert_eq!(
            args(&["--trace-sample", "8", "p.s"]).unwrap_err(),
            UsageError::Conflict("--trace-sample only applies to --trace-out")
        );
        assert!(matches!(
            command(&["campaign", "--trace-sample", "8"]),
            Err((UsageError::Conflict(_), campaign::USAGE))
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
            Err(UsageError::Conflict(_))
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
            profile::Options {
                cluster: ClusterFlags {
                    small: true,
                    ..ClusterFlags::default()
                },
                max_cycles: 100_000_000,
                max_pcs: 256,
                window: 512,
                top: 5,
                out: Some("f.folded".to_owned()),
                power_out: Some("p.json".to_owned()),
                host: false,
                path: "prog.s".to_owned(),
            }
        );
        let Command::Profile(p) = command(&["profile", "--host", "prog.s"]).unwrap() else {
            panic!("expected profile")
        };
        assert!(p.host);

        assert!(matches!(
            command(&["profile"]),
            Err((UsageError::MissingArgument("program path"), profile::USAGE))
        ));
        assert!(matches!(
            command(&["profile", "--max-pcs", "0", "p.s"]),
            Err((UsageError::InvalidValue { option, .. }, _)) if option == "--max-pcs"
        ));
        assert!(matches!(
            command(&["profile", "--window", "0", "--power-out", "p.json", "p.s"]),
            Err((UsageError::Conflict(_), _))
        ));
        for export in ["--out", "--power-out"] {
            assert!(matches!(
                command(&["profile", "--host", export, "f", "p.s"]),
                Err((UsageError::Conflict(_), _))
            ));
        }
        assert!(matches!(
            command(&["profile", "--help"]),
            Err((UsageError::Help, profile::USAGE))
        ));
    }

    #[test]
    fn rejections_are_typed() {
        assert_eq!(args(&[]).unwrap_err(), UsageError::MissingArgument("program path"));
        assert!(matches!(
            args(&["--topology", "mesh", "p.s"]),
            Err(UsageError::InvalidValue { option, .. }) if option == "--topology"
        ));
        assert!(matches!(
            args(&["--dump-mem", "100", "p.s"]),
            Err(UsageError::InvalidValue { option, .. }) if option == "--dump-mem"
        ));
        assert!(matches!(
            args(&["--max-cycles", "many", "p.s"]),
            Err(UsageError::InvalidValue { option, .. }) if option == "--max-cycles"
        ));
        assert_eq!(
            args(&["--bogus", "p.s"]).unwrap_err(),
            UsageError::UnknownOption("--bogus".to_owned())
        );
        assert!(matches!(
            args(&["--faults", "warp_core=0.5", "p.s"]),
            Err(UsageError::InvalidValue { option, .. }) if option == "--faults"
        ));
        assert!(matches!(
            args(&["--seed", "abc", "p.s"]),
            Err(UsageError::InvalidValue { option, .. }) if option == "--seed"
        ));
        assert_eq!(
            args(&["--seed"]).unwrap_err(),
            UsageError::MissingValue("--seed".to_owned())
        );
        assert_eq!(
            args(&["a.s", "b.s"]).unwrap_err(),
            UsageError::UnexpectedArgument("b.s".to_owned())
        );
    }

    #[test]
    fn help_is_not_an_error_case() {
        assert_eq!(args(&["--help"]).unwrap_err(), UsageError::Help);
        assert_eq!(args(&["-h", "p.s"]).unwrap_err(), UsageError::Help);
        // Each subcommand answers --help with its own usage text.
        assert!(matches!(
            command(&["bench", "--help"]),
            Err((UsageError::Help, bench::USAGE))
        ));
        assert!(matches!(
            command(&["campaign", "-h"]),
            Err((UsageError::Help, campaign::USAGE))
        ));
        assert!(matches!(
            command(&["run", "--help"]),
            Err((UsageError::Help, run::USAGE))
        ));
        // So does a bare --help, with the top-level text.
        assert!(matches!(command(&["--help"]), Err((UsageError::Help, run::USAGE))));
        assert!(matches!(command(&["-h"]), Err((UsageError::Help, run::USAGE))));
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
            Err(UsageError::InvalidValue { option, .. }) if option == "--checkpoint-every"
        ));
    }

    #[test]
    fn functional_conflicts() {
        assert!(matches!(
            args(&["--functional", "--faults", "bank_fail=1", "p.s"]),
            Err(UsageError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--checkpoint-every", "100", "p.s"]),
            Err(UsageError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--resume", "x.ckpt", "p.s"]),
            Err(UsageError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--json", "p.s"]),
            Err(UsageError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--json", "--dump-regs", "0", "p.s"]),
            Err(UsageError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--metrics-stream", "m.jsonl", "p.s"]),
            Err(UsageError::Conflict(_))
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
        assert_eq!(run::parse_u32("0x20"), Some(0x20));
        assert_eq!(run::parse_u32("32"), Some(32));
        assert_eq!(run::parse_u32("zz"), None);
    }

    #[test]
    fn supervision_flags_on_run() {
        let o = args(&["--max-wall-secs", "30", "--sanitize", "p.s"]).unwrap();
        assert_eq!(o.max_wall_secs, Some(30));
        assert!(o.sanitize);

        assert!(matches!(
            args(&["--max-wall-secs", "0", "p.s"]),
            Err(UsageError::InvalidValue { option, .. }) if option == "--max-wall-secs"
        ));
        // Both are cycle-accurate-only features.
        assert!(matches!(
            args(&["--functional", "--max-wall-secs", "5", "p.s"]),
            Err(UsageError::Conflict(_))
        ));
        assert!(matches!(
            args(&["--functional", "--sanitize", "p.s"]),
            Err(UsageError::Conflict(_))
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
            Err((UsageError::MissingOption("--manifest"), campaign::USAGE))
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
                matches!(command(flags), Err((UsageError::Requires { needs: "--faults", .. }, _))),
                "{flags:?} must be rejected without --faults"
            );
        }
        // Sweep exports don't mix with the executor.
        assert!(matches!(
            command(&[
                "campaign", "--faults", "bank_fail=1", "--manifest", "m",
                "--metrics-json", "m.json",
            ]),
            Err((UsageError::Conflict(_), _))
        ));
        assert!(matches!(
            command(&["campaign", "--faults", "bank_fail=1", "--manifest", "m", "--isolate=0"]),
            Err((UsageError::InvalidValue { option, .. }, _)) if option == "--isolate"
        ));
        // A trial worker holds its document to the daemon's rule, which
        // wants a checkpoint interval: the command line asks for one too.
        assert!(matches!(
            command(&["campaign", "--faults", "bank_fail=1", "--manifest", "m", "--checkpoint-every", "0"]),
            Err((UsageError::InvalidValue { option, .. }, _)) if option == "--checkpoint-every"
        ));
    }

    #[test]
    fn every_option_a_usage_text_names_is_accepted_by_its_parser() {
        assert_eq!(unparsed_options(run::USAGE, run::parse), [""; 0]);
        assert_eq!(unparsed_options(bench::USAGE, bench::parse), [""; 0]);
        assert_eq!(unparsed_options(campaign::USAGE, campaign::parse), [""; 0]);
        assert_eq!(unparsed_options(profile::USAGE, profile::parse), [""; 0]);
    }
}
