//! The determinism audit on the built `mempool-run`: two runs of one faulted
//! command print byte-identical `--json` records carrying a
//! `state_digest`, and a run checkpointed every 100 cycles, then resumed
//! from its checkpoint file, prints the uninterrupted run's record on every
//! field but `run_cycles` (which counts only the resuming invocation's
//! cycles). Every child is killed at a deadline.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const RUN: &str = env!("CARGO_BIN_EXE_mempool-run");

/// Every core waits, then stores its hart id to its own word and loads it
/// back: two scheduled bank failures and a lossy link act on the way.
const PROGRAM: &str = "csrr t0, mhartid\nli t1, 40\ndelay:\naddi t1, t1, -1\nbnez t1, delay\n\
                       slli t2, t0, 2\nli t3, 0x10000\nadd t2, t2, t3\nsw t0, 0(t2)\n\
                       lw t4, 0(t2)\necall\n";

const FAULTED: [&str; 6] =
    ["run", "--small", "--faults", "bank_fail=2,link_drop=0.001", "--seed", "7"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempool-audit-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("audit.s"), PROGRAM).expect("program written");
    dir
}

/// Runs `mempool-run` in `dir` with the faulted command, `extra` options
/// and the program; kills it if it has not exited within a minute.
fn run(dir: &Path, extra: &[&str]) -> String {
    let mut child = Command::new(RUN)
        .current_dir(dir)
        .args(FAULTED)
        .args(extra)
        .arg("audit.s")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mempool-run spawns");
    let start = Instant::now();
    while child.try_wait().expect("wait works").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().expect("kill works");
            child.wait().expect("reaped");
            panic!("mempool-run {extra:?} did not finish within a minute");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let Output { status, stdout, stderr } = child.wait_with_output().expect("output is read");
    assert!(status.success(), "{extra:?}: {}", String::from_utf8_lossy(&stderr));
    String::from_utf8(stdout).expect("UTF-8 stdout")
}

/// The record without its `run_cycles` line.
fn state_fields(record: &str) -> Vec<&str> {
    record.lines().filter(|line| !line.contains("\"run_cycles\"")).collect()
}

#[test]
fn two_runs_print_the_same_record_with_a_state_digest() {
    let dir = scratch("twice");
    let first = run(&dir, &["--json"]);
    assert!(first.contains("\"state_digest\": \"0x"), "{first}");
    assert_eq!(first, run(&dir, &["--json"]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_resumed_run_prints_the_uninterrupted_record() {
    let dir = scratch("resume");
    let full = run(&dir, &["--json"]);
    run(&dir, &["--checkpoint-every", "100", "--checkpoint-file", "audit.ckpt"]);
    assert!(dir.join("audit.ckpt").is_file(), "no checkpoint written");
    let resumed = run(&dir, &["--json", "--resume", "audit.ckpt"]);
    assert_ne!(full, resumed, "the resumed run simulated every cycle again");
    assert_eq!(state_fields(&full), state_fields(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}
