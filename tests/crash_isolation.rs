//! End-to-end crash isolation for `mempool-run campaign --isolate`:
//! SIGKILL-ing a trial worker mid-campaign must cost only a retry — the
//! finished campaign's byte-stable JSON report is identical to an
//! undisturbed run's, at a light load and far past saturation — and
//! SIGTERM-ing the campaign itself must exit with the documented status 3,
//! leaving a manifest that resumes to the identical report.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_mempool-run");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempool-crash-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A load whose checkpoints never hold a backlog.
const LIGHT: [&str; 4] = ["--topology", "top1", "--load", "0.05"];

/// A load far past saturation: every checkpoint after the first few hundred
/// cycles is mostly waiting requests, which a resumed trial keeps as stored
/// entries while it redraws the ones generated after the restore.
const SATURATED: [&str; 4] = ["--topology", "topH", "--load", "0.9"];

/// A small isolated fault campaign of one `shape`: long enough per trial
/// (in a debug build) that the test can reliably signal it mid-flight.
fn campaign(shape: &[&str], manifest: &Path, json: &Path) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(["campaign", "--small"]);
    cmd.args(shape);
    cmd.args([
        "--faults",
        "bank_fail=1,link_drop=0.001",
        "--trials",
        "3",
        "--warmup",
        "100",
        "--measure",
        "2000",
        "--backoff-ms",
        "0",
        "--checkpoint-every",
        "256",
        "--isolate=1",
    ]);
    cmd.arg("--manifest").arg(manifest);
    cmd.arg("--json-out").arg(json);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Finds a live `worker` child of `parent` by walking `/proc`.
fn find_worker(parent: u32) -> Option<u32> {
    for entry in std::fs::read_dir("/proc").ok()? {
        let entry = entry.ok()?;
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // stat: "pid (comm) state ppid ..." — comm may contain spaces.
        let after = match stat.rfind(')') {
            Some(i) => &stat[i + 1..],
            None => continue,
        };
        let ppid: u32 = match after.split_whitespace().nth(1).and_then(|s| s.parse().ok()) {
            Some(p) => p,
            None => continue,
        };
        if ppid != parent {
            continue;
        }
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        if cmdline
            .split(|&b| b == 0)
            .any(|arg| arg == b"worker")
        {
            return Some(pid);
        }
    }
    None
}

fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill").args([sig, &pid.to_string()]).status();
}

fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait works") {
            return status;
        }
        assert!(
            start.elapsed() < deadline,
            "campaign did not finish within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The undisturbed reference report for the campaign of `shape`.
fn baseline(shape: &[&str], dir: &Path) -> String {
    let manifest = dir.join("baseline.manifest");
    let json = dir.join("baseline.json");
    let status = campaign(shape, &manifest, &json)
        .status()
        .expect("campaign spawns");
    assert!(status.success(), "baseline campaign failed: {status}");
    std::fs::read_to_string(&json).expect("baseline report written")
}

/// Runs the campaign of `shape`, SIGKILLs the first trial worker caught
/// once `ready` holds for the campaign's directory, and requires the report
/// of the undisturbed run.
fn sigkill_a_worker(name: &str, shape: &[&str], ready: impl Fn(&Path) -> bool) {
    let dir = scratch(name);
    let reference = baseline(shape, &dir);

    let manifest = dir.join("killed.manifest");
    let json = dir.join("killed.json");
    let mut child = campaign(shape, &manifest, &json).spawn().expect("campaign spawns");

    let hunt_start = Instant::now();
    let mut killed = false;
    while hunt_start.elapsed() < Duration::from_secs(60) {
        if child.try_wait().expect("wait works").is_some() {
            break;
        }
        if let Some(worker) = find_worker(child.id()).filter(|_| ready(&dir)) {
            signal(worker, "-KILL");
            killed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(killed, "never caught a trial worker to kill");

    // The campaign must absorb the kill (one retry, resumed from the
    // trial checkpoint) and still produce the reference report.
    let status = wait_with_deadline(&mut child, Duration::from_secs(300));
    assert!(status.success(), "campaign died with the worker: {status}");
    let report = std::fs::read_to_string(&json).expect("report written");
    assert_eq!(
        report, reference,
        "post-kill report must be byte-identical to the undisturbed run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_worker_retries_to_bit_identical_results() {
    // The first worker caught, checkpoint or not.
    sigkill_a_worker("sigkill", &LIGHT, |_| true);
}

/// Whether the trial in flight of the campaign whose manifest is
/// `<dir>/<manifest>` has written its checkpoint (`<manifest>.ckpt.<seed>`).
fn trial_checkpointed(dir: &Path, manifest: &str) -> bool {
    let prefix = format!("{manifest}.ckpt.");
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_prefix(&prefix)
                .is_some_and(|seed| seed.parse::<u64>().is_ok())
        })
    })
}

#[test]
fn a_worker_sigkilled_mid_backlog_resumes_from_stored_entries_then_redraws() {
    // Only once the trial in flight has written a checkpoint, so that the
    // retry restores a backlog.
    let checkpointed = |dir: &Path| trial_checkpointed(dir, "killed.manifest");
    sigkill_a_worker("sigkill-saturated", &SATURATED, checkpointed);
}

#[test]
fn sigterm_interrupt_exits_3_and_resumes_bit_identically() {
    let dir = scratch("sigterm");
    let reference = baseline(&LIGHT, &dir);

    let manifest = dir.join("interrupted.manifest");
    let json = dir.join("interrupted.json");
    let mut child = campaign(&LIGHT, &manifest, &json).spawn().expect("campaign spawns");

    // Interrupt the campaign once its first trial is genuinely in flight:
    // it has written a checkpoint, so the campaign has that trial and two
    // more to go. A fixed sleep raced an optimised build, which finishes
    // all three trials in about a third of a second.
    let started = Instant::now();
    while !trial_checkpointed(&dir, "interrupted.manifest") {
        assert!(
            child.try_wait().expect("wait works").is_none(),
            "campaign finished before its first trial checkpoint was seen"
        );
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no trial checkpoint within a minute"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    signal(child.id(), "-TERM");
    let status = wait_with_deadline(&mut child, Duration::from_secs(60));
    assert_eq!(
        status.code(),
        Some(3),
        "interrupted campaigns exit with status 3"
    );

    // Re-running the identical command resumes from the manifest and
    // finishes; the final report matches the undisturbed reference.
    let status = campaign(&LIGHT, &manifest, &json)
        .status()
        .expect("resume spawns");
    assert!(status.success(), "resume failed: {status}");
    let report = std::fs::read_to_string(&json).expect("report written");
    assert_eq!(
        report, reference,
        "resumed report must be byte-identical to the undisturbed run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An interrupted bench exits with the documented status 3 and still
/// flushes a parseable partial `mempool-bench-v2` report — the completed
/// points are never discarded.
#[test]
fn bench_sigint_flushes_a_partial_report_and_exits_3() {
    let dir = scratch("bench-int");
    let out = dir.join("bench.json");
    // A matrix slow enough (debug build, 256-core point) that the
    // interrupt reliably lands while points are still outstanding.
    let mut child = Command::new(BIN)
        .args(["bench", "--cores", "all", "--cycles", "50000"])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("bench spawns");

    std::thread::sleep(Duration::from_millis(500));
    assert!(
        child.try_wait().expect("wait works").is_none(),
        "bench finished before it could be interrupted; grow the workload"
    );
    signal(child.id(), "-INT");
    let status = wait_with_deadline(&mut child, Duration::from_secs(300));
    assert_eq!(status.code(), Some(3), "interrupted benches exit with status 3");

    let report = std::fs::read_to_string(&out).expect("partial report flushed");
    assert!(
        report.contains("\"schema\": \"mempool-bench-v2\""),
        "partial report: {report}"
    );
    assert!(report.contains("\"points\""), "partial report: {report}");
    assert!(
        report.trim_end().ends_with('}'),
        "partial report is truncated: {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
