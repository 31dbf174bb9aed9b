//! The command-line contract all three binaries share (see
//! `mempool_suite::cli`): `--help` after any (sub)command prints the usage
//! text on stdout and exits 0; an unknown option, an option missing its
//! value and a malformed number exit 2 with the reason and the usage text
//! on stderr; a runtime failure exits 1 with `error: ` and its cause chain.
//! No case here reaches a daemon: every one is decided by the parser, or
//! fails where no daemon is.

#![cfg(unix)]

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const RUN: &str = env!("CARGO_BIN_EXE_mempool-run");
const SERVE: &str = env!("CARGO_BIN_EXE_mempool-serve");
const CLI: &str = env!("CARGO_BIN_EXE_mempool-cli");

/// One (sub)command of one binary.
struct Row {
    bin: &'static str,
    command: &'static [&'static str],
    /// Positionals that must precede the command's options.
    positional: &'static [&'static str],
    /// An option of the command that takes a value, if it has one.
    value_option: Option<&'static str>,
    /// An option of the command that takes a number, if it has one.
    numeric_option: Option<&'static str>,
}

const fn row(
    bin: &'static str,
    command: &'static [&'static str],
    positional: &'static [&'static str],
    value_option: Option<&'static str>,
    numeric_option: Option<&'static str>,
) -> Row {
    Row { bin, command, positional, value_option, numeric_option }
}

const TABLE: [Row; 11] = [
    row(RUN, &["run"], &[], Some("--emit-bin"), Some("--max-cycles")),
    row(RUN, &["bench"], &[], Some("--out"), Some("--cycles")),
    row(RUN, &["campaign"], &[], Some("--manifest"), Some("--seed")),
    row(RUN, &["profile"], &[], Some("--out"), Some("--top")),
    row(SERVE, &[], &[], Some("--state-dir"), Some("--workers")),
    row(CLI, &["submit", "run"], &[], Some("--tenant"), Some("--max-cycles")),
    row(CLI, &["submit", "campaign"], &[], Some("--faults"), Some("--trials")),
    row(CLI, &["submit", "bench"], &[], Some("--tenant"), Some("--cycles")),
    row(CLI, &["wait"], &["0"], Some("--out"), Some("--timeout")),
    row(CLI, &["timeline"], &["0"], Some("--out"), None),
    row(CLI, &["status"], &["0"], None, None),
];

/// Runs `bin args...` to completion. A binary that has not exited after
/// ten seconds took the arguments for a daemon's and is killed.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let start = Instant::now();
    while child.try_wait().expect("wait works").is_none() {
        if start.elapsed() > Duration::from_secs(10) {
            child.kill().expect("kill works");
            child.wait().expect("reaped");
            panic!("{bin} {args:?} kept running instead of rejecting its arguments");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().expect("output is read")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Asserts exit status 2 with `reason` and the usage text on stderr.
fn assert_usage_error(bin: &str, args: &[&str], reason: &str) {
    let out = run(bin, args);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with(&format!("error: {reason}")), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("\nusage: mempool-"), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?}: {}", text(&out.stdout));
}

#[test]
fn help_after_any_command_prints_usage_and_exits_zero() {
    for row in &TABLE {
        for help in ["--help", "-h"] {
            for positional in [&[][..], row.positional] {
                let args = [row.command, positional, &[help]].concat();
                let out = run(row.bin, &args);
                let stdout = text(&out.stdout);
                assert_eq!(out.status.code(), Some(0), "{args:?}: {}", text(&out.stderr));
                assert!(stdout.starts_with("usage: mempool-"), "{args:?}: {stdout}");
                assert!(out.stderr.is_empty(), "{args:?}: {}", text(&out.stderr));
                // A usage text names the metrics schema the binary writes.
                let schemas: Vec<_> = stdout
                    .split_whitespace()
                    .filter(|word| word.starts_with("mempool-metrics-v"))
                    .collect();
                let writes_metrics = matches!(row.command, ["run"] | ["campaign"]);
                assert!(
                    schemas.iter().all(|s| *s == mempool::METRICS_SCHEMA)
                        && (!schemas.is_empty() || !writes_metrics),
                    "{args:?}: {schemas:?}"
                );
            }
        }
    }
}

#[test]
fn malformed_command_lines_exit_two_with_the_usage_text() {
    for row in &TABLE {
        let prefix = [row.command, row.positional].concat();
        let with = |rest: &[&'static str]| [&prefix[..], rest].concat();
        assert_usage_error(row.bin, &with(&["--bogus"]), "unknown option `--bogus`");
        if let Some(option) = row.value_option {
            let reason = format!("{option} expects a value");
            assert_usage_error(row.bin, &with(&[option]), &reason);
        }
        if let Some(option) = row.numeric_option {
            let reason = format!("invalid {option} value: ");
            assert_usage_error(row.bin, &with(&[option, "many"]), &reason);
        }
    }
}

#[test]
fn daemon_options_are_parsed_at_their_own_width() {
    // Each used to be parsed as u64 and cast: 2^32 + 1 attempts ran with a
    // budget of 1, a quota of 2^32 with a quota of 0. The socket and state
    // directory come first so that a daemon which does start stays out of
    // the working directory.
    let dir = std::env::temp_dir().join(format!("mempool-cli-contract-{}", std::process::id()));
    let (socket, state) = (dir.join("s.sock"), dir.join("state"));
    let placed = ["--socket", socket.to_str().unwrap(), "--state-dir", state.to_str().unwrap()];
    for (option, value) in [
        ("--max-attempts", "4294967297"),
        ("--default-quota", "4294967296"),
        ("--quota", "tenant=4294967296"),
    ] {
        let args = [&placed[..], &[option, value]].concat();
        assert_usage_error(SERVE, &args, &format!("invalid {option} value: "));
    }
}

#[test]
fn runtime_failures_exit_one_with_the_error_chain() {
    let dir = std::env::temp_dir().join(format!("mempool-cli-runtime-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // No state directory can be created under a regular file.
    let file = dir.join("file");
    std::fs::write(&file, "").expect("file");
    let (socket, state) = (dir.join("s.sock"), file.join("state"));
    let placed = ["--socket", socket.to_str().unwrap(), "--state-dir", state.to_str().unwrap()];
    let rows: [(&str, &[&str]); 3] = [
        (RUN, &["run", "/nonexistent/prog.s"]),
        (SERVE, &placed),
        (CLI, &["--socket", "/nonexistent", "status", "0"]),
    ];
    for (bin, args) in rows {
        let out = run(bin, args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
        // One line, each cause in it once.
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.matches("(os error").count(), 1, "{bin} {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_daemonless_success_per_binary() {
    let out = run(RUN, &["run", "--describe", "--small", "--topology", "top1"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).starts_with("MemPool cluster: 64 cores in 16 tiles (top1 topology)"));
    assert!(out.stderr.is_empty());
    // Without a daemon the only thing the other two can succeed at is
    // describing themselves.
    for bin in [SERVE, CLI] {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(text(&out.stdout).starts_with("usage: mempool-"), "{bin}");
    }
}

/// A faulted run is a function of its seed: the same program, fault spec
/// and seed print byte-identical reports.
#[test]
fn a_seeded_fault_run_prints_the_same_bytes_twice() {
    let dir = std::env::temp_dir().join(format!("mempool-cli-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let program = dir.join("smoke.s");
    std::fs::write(
        &program,
        "csrr t0, mhartid\nslli t1, t0, 2\nli t2, 0x10000\nadd t1, t1, t2\n\
         sw t0, 0(t1)\nlw t3, 0(t1)\necall\n",
    )
    .expect("program");
    let args = [
        "run",
        "--small",
        "--faults",
        "bank_fail=2,link_stall=0.01",
        "--seed",
        "42",
        program.to_str().expect("UTF-8 path"),
    ];
    let first = run(RUN, &args);
    assert_eq!(first.status.code(), Some(0), "{}", text(&first.stderr));
    let report = text(&first.stdout);
    assert!(
        report.starts_with("fault injection: bank_fail=2,link_stall=0.01 (seed 42)"),
        "{report}"
    );
    let second = run(RUN, &args);
    assert_eq!(second.status.code(), Some(0), "{}", text(&second.stderr));
    assert_eq!(text(&first.stdout), text(&second.stdout));
    std::fs::remove_dir_all(&dir).ok();
}
