//! End-to-end chaos coverage for the `mempool-serve` daemon: a SIGKILLed
//! worker costs only a retry-from-checkpoint, a SIGTERMed daemon
//! checkpoint-parks every in-flight job and a restart with the same state
//! dir resumes them to byte-identical results, an overloaded queue, a
//! zero-quota tenant and an overlong request line get typed rejections, a
//! client that stops reading or hangs up holds up no one else, and corrupt
//! journal lines are skipped, counted, and surfaced in the health report.

#![cfg(unix)]

use mempool::json::parse_flat_json;
use mempool_serve::{
    BenchSpec, CampaignSpec, ClientError, JobSpec, Request, RunSpec, ServeClient,
    MAX_REQUEST_BYTES,
};
use mempool_traffic::job_files;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_mempool-serve");
const CLI: &str = env!("CARGO_BIN_EXE_mempool-cli");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempool-serve-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn daemon(socket: &Path, state: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.arg("--socket").arg(socket);
    cmd.arg("--state-dir").arg(state);
    cmd.args(extra);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd.spawn().expect("daemon spawns")
}

/// Polls `health` until the daemon answers (it binds the socket during
/// startup).
fn connect(socket: &Path) -> ServeClient {
    let client = ServeClient::connect(socket);
    let start = Instant::now();
    loop {
        if client.health().is_ok() {
            return client;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon did not come up on {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A run job slow enough (debug build) to be caught mid-flight, with
/// checkpoints frequent enough that a retry loses little progress.
fn run_spec() -> JobSpec {
    JobSpec::Run(RunSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        program: "addi t0, zero, 0\nlui t1, 4\nloop:\naddi t0, t0, 1\nbne t0, t1, loop\necall\n"
            .to_owned(),
        max_cycles: 2_000_000,
        checkpoint_every: 1024,
        metrics: false,
    })
}

/// A seeded fault campaign long enough to survive a worker hunt.
fn campaign_spec() -> JobSpec {
    JobSpec::Campaign(CampaignSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        faults: "bank_fail=1,link_drop=0.001".to_owned(),
        trials: 4,
        load: 0.05,
        pattern: "uniform".to_owned(),
        warmup: 200,
        measure: 5000,
        drain: 10_000,
        seed: 1,
        checkpoint_every: 256,
        cycle_budget: None,
    })
}

/// Waits a job to its terminal state and returns the `done` event fields.
fn wait_done(client: &ServeClient, job: u64) -> BTreeMap<String, String> {
    client
        .wait(job, &mut |_| {})
        .unwrap_or_else(|e| panic!("waiting job {job}: {e}"))
}

/// Waits for `child` to exit; past the deadline it is killed and reaped,
/// and the test fails.
fn wait_exit(child: &mut Child, what: &str) -> ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait works") {
            return status;
        }
        if start.elapsed() > Duration::from_secs(120) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not exit in time");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A child process that is killed and reaped when dropped, so a failed
/// assertion leaves none behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `mempool-cli --socket <socket> <args>` to its exit (killed at the
/// deadline) and returns its status and what it wrote to stderr.
fn cli(socket: &Path, args: &[&str]) -> (ExitStatus, String) {
    let stderr = socket.with_extension("stderr");
    let file = std::fs::File::create(&stderr).expect("stderr file");
    let mut child = Command::new(CLI)
        .arg("--socket")
        .arg(socket)
        .args(args)
        .stdout(Stdio::null())
        .stderr(file)
        .spawn()
        .expect("mempool-cli spawns");
    let status = wait_exit(&mut child, &format!("mempool-cli {}", args.join(" ")));
    (status, std::fs::read_to_string(&stderr).expect("stderr reads"))
}

fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill").args([sig, &pid.to_string()]).status();
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
        if cmdline.split(|&b| b == 0).any(|arg| arg == b"worker") {
            return Some(pid);
        }
    }
    None
}

/// [`campaign_spec`] as `mempool-cli submit` arguments.
const CAMPAIGN_ARGS: [&str; 21] = [
    "submit", "campaign", "--small", "--topology", "top1", "--faults",
    "bank_fail=1,link_drop=0.001", "--trials", "4", "--load", "0.05", "--warmup", "200",
    "--measure", "5000", "--drain", "10000", "--seed", "1", "--checkpoint-every", "256",
];

/// The uninterrupted reference: both jobs on a clean daemon, the campaign
/// submitted by `mempool-cli submit --wait --out <dir>/ref-report.json`;
/// returns their terminal result payloads.
fn reference(dir: &Path) -> (String, String) {
    let socket = dir.join("ref.sock");
    let mut child = daemon(&socket, &dir.join("ref-state"), &["--workers", "2"]);
    let client = connect(&socket);
    let out = dir.join("ref-report.json");
    let submit = [&CAMPAIGN_ARGS[..], &["--tenant", "chaos", "--wait", "--out"]].concat();
    let (status, stderr) = cli(&socket, &[&submit[..], &[out.to_str().expect("UTF-8 path")]].concat());
    assert!(status.success(), "reference campaign: {status}, {stderr}");
    let campaign = 0;
    let run = client
        .submit("chaos", 0, None, &run_spec())
        .expect("reference run admitted");
    let campaign_done = wait_done(&client, campaign);
    let run_done = wait_done(&client, run);
    assert_eq!(campaign_done.get("status").unwrap(), "completed");
    assert_eq!(run_done.get("status").unwrap(), "completed");
    client.shutdown().expect("reference drain");
    assert!(wait_exit(&mut child, "reference daemon").success());
    (
        campaign_done.get("result").expect("campaign result").clone(),
        run_done.get("result").expect("run result").clone(),
    )
}

#[test]
fn sigkilled_worker_and_drained_daemon_resume_bit_identically() {
    let dir = scratch("chaos");
    let (ref_campaign, ref_run) = reference(&dir);
    assert!(
        ref_campaign.contains("\"outcome\":\"completed\""),
        "reference campaign payload: {ref_campaign}"
    );
    assert!(
        ref_run.contains("state_digest"),
        "reference run payload: {ref_run}"
    );

    // Chaos pass: same jobs, but the first worker we can catch is
    // SIGKILLed mid-job and the daemon itself is SIGTERMed while both
    // jobs are still in flight.
    let socket = dir.join("chaos.sock");
    let state = dir.join("chaos-state");
    let mut child = daemon(
        &socket,
        &state,
        &["--workers", "2", "--backoff-ms", "0", "--max-attempts", "4"],
    );
    let client = connect(&socket);
    let campaign = client
        .submit("chaos", 0, None, &campaign_spec())
        .expect("chaos campaign admitted");
    let run = client
        .submit("chaos", 0, None, &run_spec())
        .expect("chaos run admitted");

    let hunt = Instant::now();
    let mut killed = false;
    while hunt.elapsed() < Duration::from_secs(30) {
        assert!(
            child.try_wait().expect("wait works").is_none(),
            "daemon died during the worker hunt"
        );
        if let Some(worker) = find_worker(child.id()) {
            signal(worker, "-KILL");
            killed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(killed, "never caught a worker to SIGKILL");

    // Give the daemon a beat to observe the kill and respawn, then drain
    // it mid-flight: SIGTERM parks both jobs.
    std::thread::sleep(Duration::from_millis(150));
    signal(child.id(), "-TERM");
    assert!(
        wait_exit(&mut child, "chaos daemon").success(),
        "drain must exit cleanly"
    );

    // A restarted daemon replays the journal and resumes both jobs from
    // their checkpoints to byte-identical results.
    let mut child = daemon(&socket, &state, &["--workers", "2", "--backoff-ms", "0"]);
    let client = connect(&socket);
    let campaign_done = wait_done(&client, campaign);
    let run_done = wait_done(&client, run);
    assert_eq!(
        campaign_done.get("status").unwrap(),
        "completed",
        "campaign after chaos: {campaign_done:?}"
    );
    assert_eq!(
        run_done.get("status").unwrap(),
        "completed",
        "run after chaos: {run_done:?}"
    );
    assert_eq!(
        campaign_done.get("result").unwrap(),
        &ref_campaign,
        "campaign result must be bit-identical to the uninterrupted reference"
    );
    assert_eq!(
        run_done.get("result").unwrap(),
        &ref_run,
        "run result must be bit-identical to the uninterrupted reference"
    );
    // The command line reads the same report back: `wait --out` after the
    // chaos writes the bytes `submit --wait --out` wrote undisturbed.
    let out = dir.join("chaos-report.json");
    let wait = ["wait", &campaign.to_string(), "--out", out.to_str().expect("UTF-8 path")];
    let (status, stderr) = cli(&socket, &wait);
    assert!(status.success(), "wait --out: {status}, {stderr}");
    let report = std::fs::read(&out).expect("chaos report");
    assert!(report == std::fs::read(dir.join("ref-report.json")).expect("reference report"));
    client.shutdown().expect("final drain");
    assert!(wait_exit(&mut child, "restarted daemon").success());
}

/// The chaos run_spec with the metrics recorder attached, so the final
/// payload embeds a full mempool-metrics-v2 document.
fn metered_run_spec() -> JobSpec {
    let JobSpec::Run(mut spec) = run_spec() else {
        unreachable!()
    };
    spec.metrics = true;
    JobSpec::Run(spec)
}

/// Asserts one watch connection observed gapless, monotonically
/// increasing sequence numbers.
fn assert_gapless(records: &[BTreeMap<String, String>], what: &str) {
    let mut prev: Option<u64> = None;
    for fields in records {
        let seq: u64 = fields
            .get("seq")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{what}: record lacks a seq: {fields:?}"));
        if let Some(prev) = prev {
            assert_eq!(seq, prev + 1, "{what}: seq gap after {prev}");
        }
        prev = Some(seq);
    }
}

/// The no-Heisenberg guarantee: watching a job through worker SIGKILL,
/// daemon SIGTERM, and a restart must still end in a final metrics
/// document and state digest byte-identical to an unwatched,
/// uninterrupted reference — and every watch connection sees gapless
/// sequence numbers.
#[test]
fn watched_chaos_job_is_bit_identical_to_an_unwatched_reference() {
    let dir = scratch("heisenberg");

    // Unwatched, uninterrupted reference.
    let socket = dir.join("ref.sock");
    let mut child = daemon(&socket, &dir.join("ref-state"), &["--workers", "1"]);
    let client = connect(&socket);
    let job = client
        .submit("telem", 0, None, &metered_run_spec())
        .expect("reference admitted");
    let ref_done = wait_done(&client, job);
    assert_eq!(ref_done.get("status").unwrap(), "completed");
    let ref_result = ref_done.get("result").expect("reference result").clone();
    assert!(
        ref_result.contains("state_digest") && ref_result.contains("mempool-metrics-v2"),
        "reference payload: {ref_result}"
    );
    client.shutdown().expect("reference drain");
    assert!(wait_exit(&mut child, "reference daemon").success());

    // Chaos pass: watch the job while its worker is SIGKILLed and the
    // daemon is drained mid-stream.
    let socket = dir.join("chaos.sock");
    let state = dir.join("chaos-state");
    let mut child = daemon(
        &socket,
        &state,
        &["--workers", "1", "--backoff-ms", "0", "--max-attempts", "4"],
    );
    let client = connect(&socket);
    let job = client
        .submit("telem", 0, None, &metered_run_spec())
        .expect("chaos job admitted");

    let first_watch: std::sync::Arc<std::sync::Mutex<Vec<BTreeMap<String, String>>>> =
        std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&first_watch);
    let watch_socket = socket.clone();
    let watcher = std::thread::spawn(move || {
        let client = ServeClient::connect(&watch_socket);
        // The daemon drains mid-stream, so this watch ends in an error —
        // the records gathered up to that point are what we assert on.
        let _ = client.watch(job, &mut |_, fields| {
            sink.lock().unwrap().push(fields.clone());
        });
    });

    let hunt = Instant::now();
    let mut killed = false;
    while hunt.elapsed() < Duration::from_secs(30) {
        assert!(
            child.try_wait().expect("wait works").is_none(),
            "daemon died during the worker hunt"
        );
        if let Some(worker) = find_worker(child.id()) {
            signal(worker, "-KILL");
            killed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(killed, "never caught a worker to SIGKILL");

    std::thread::sleep(Duration::from_millis(200));
    signal(child.id(), "-TERM");
    assert!(
        wait_exit(&mut child, "chaos daemon").success(),
        "drain must exit cleanly"
    );
    watcher.join().expect("watcher thread");
    let first_watch = first_watch.lock().unwrap();
    assert_gapless(&first_watch, "first watch connection");

    // Restart, re-watch to the terminal record.
    let mut child = daemon(&socket, &state, &["--workers", "1", "--backoff-ms", "0"]);
    let client = connect(&socket);
    let mut second_watch: Vec<BTreeMap<String, String>> = Vec::new();
    let done = client
        .watch(job, &mut |_, fields| second_watch.push(fields.clone()))
        .expect("watch after restart reaches the terminal record");
    assert_gapless(&second_watch, "second watch connection");
    assert_eq!(
        done.get("status").map(String::as_str),
        Some("completed"),
        "after chaos: {done:?}"
    );
    assert_eq!(
        done.get("result"),
        Some(&ref_result),
        "watched chaos result must be byte-identical to the unwatched reference"
    );
    client.shutdown().expect("final drain");
    assert!(wait_exit(&mut child, "restarted daemon").success());
}

#[test]
fn overload_and_zero_quota_are_rejected_with_typed_errors() {
    let dir = scratch("overload");
    let socket = dir.join("serve.sock");
    // No worker slots: everything queues, so the depth bound is exact.
    let mut child = Reaped(daemon(
        &socket,
        &dir.join("state"),
        &["--workers", "0", "--queue-depth", "1", "--quota", "blocked=0"],
    ));
    let client = connect(&socket);

    // The command line first: a rejection is a failed command that says
    // what kind of rejection it was.
    let bench = ["submit", "bench", "--cycles", "100", "--warmup", "10", "--cores", "16"];
    let (status, stderr) = cli(&socket, &bench);
    assert!(status.success(), "the first job fits the queue: {status}, {stderr}");
    let (status, stderr) = cli(&socket, &bench);
    assert!(!status.success(), "the second submission must be rejected");
    assert!(stderr.contains("rejected (overloaded)"), "{stderr}");
    match client.submit("tenant-b", 0, None, &bench_spec()) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "overloaded"),
        other => panic!("expected a typed overload rejection, got {other:?}"),
    }
    // The queued job holds the only slot; a zero-quota tenant is refused
    // even when the queue has room again after a cancel.
    let (status, stderr) = cli(&socket, &["cancel", "0"]);
    assert!(status.success(), "cancel the queued job: {status}, {stderr}");
    assert_eq!(client.status(0).expect("status")["status"], "cancelled");
    match client.submit("blocked", 0, None, &bench_spec()) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "quota"),
        other => panic!("expected a typed quota rejection, got {other:?}"),
    }
    // Garbage specs are refused at admission, not left to burn retries.
    let bad = JobSpec::Run(RunSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        program: "not riscv".to_owned(),
        max_cycles: 1000,
        checkpoint_every: 100,
        metrics: false,
    });
    match client.submit("tenant-a", 0, None, &bad) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "invalid"),
        other => panic!("expected a typed validation rejection, got {other:?}"),
    }
    let (status, stderr) = cli(&socket, &["shutdown"]);
    assert!(status.success(), "shutdown: {status}, {stderr}");
    assert!(wait_exit(&mut child.0, "daemon").success());
}

fn bench_spec() -> JobSpec {
    JobSpec::Bench(BenchSpec {
        cycles: 100,
        warmup: 10,
        cores: vec![16],
    })
}

#[test]
fn corrupt_journal_lines_are_skipped_and_surfaced_in_health() {
    let dir = scratch("journal");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");

    // Session one: journal a real queued job, then drain.
    let mut child = daemon(&socket, &state, &["--workers", "0"]);
    let client = connect(&socket);
    let job = client
        .submit("tenant-a", 0, None, &bench_spec())
        .expect("job admitted");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "first daemon").success());

    // Damage the journal: one garbage line, one truncated record.
    let journal = state.join("jobs.journal");
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    bytes.extend_from_slice(b"!!! not a journal line\njob 99 {\"kind\":\"run\"");
    std::fs::write(&journal, &bytes).expect("journal writable");

    // Session two: the damage is skipped and surfaced, the intact job
    // survives and is still actionable.
    let mut child = daemon(&socket, &state, &["--workers", "0"]);
    let client = connect(&socket);
    let health = client.health().expect("health");
    assert_eq!(
        health.get("journal_skipped").map(String::as_str),
        Some("2"),
        "health: {health:?}"
    );
    assert_eq!(health.get("queued").map(String::as_str), Some("1"));
    let status = client.status(job).expect("job survived the damage");
    assert_eq!(status.get("status").map(String::as_str), Some("queued"));
    client.cancel(job).expect("cancel");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "second daemon").success());
}

/// A campaign whose trials cannot fit their sim-cycle budget.
fn over_budget_campaign() -> CampaignSpec {
    CampaignSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        faults: "bank_fail=1".to_owned(),
        trials: 2,
        load: 0.05,
        pattern: "uniform".to_owned(),
        warmup: 100,
        measure: 400,
        drain: 10_000,
        seed: 1,
        checkpoint_every: 256,
        cycle_budget: Some(300),
    }
}

/// A daemon `campaign` job runs on the same executor as `mempool-run
/// campaign`: a trial that overruns its cycle budget is retried, then
/// quarantined, and the job completes with the report the command writes.
/// (The daemon used to fail the whole job on the first overrun.)
#[test]
fn a_campaign_job_over_its_cycle_budget_completes_as_mempool_run_campaign_does() {
    let dir = scratch("budget");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);
    let spec = JobSpec::Campaign(over_budget_campaign());
    let job = client.submit("budget", 0, None, &spec).expect("campaign admitted");
    let done = wait_done(&client, job);
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
    assert_eq!(done.get("status").map(String::as_str), Some("completed"), "{done:?}");
    let result = mempool::json::Fields::parse(&done["result"]).expect("flat result");
    let report = result.str("report").expect("a campaign report");
    let doc = mempool::json::parse(report).expect("report parses");
    assert_eq!(doc["quarantined"].as_u64(), Some(2), "{report}");

    let json_out = dir.join("report.json");
    let status = Command::new(env!("CARGO_BIN_EXE_mempool-run"))
        .args(["campaign", "--small", "--topology", "top1", "--faults", "bank_fail=1"])
        .args(["--trials", "2", "--load", "0.05", "--warmup", "100", "--measure", "400"])
        .args(["--drain", "10000", "--seed", "1", "--checkpoint-every", "256"])
        .args(["--cycle-budget", "300", "--manifest"])
        .arg(dir.join("campaign.manifest"))
        .arg("--json-out")
        .arg(&json_out)
        .stdout(Stdio::null())
        .status()
        .expect("mempool-run runs");
    assert!(status.success());
    assert_eq!(std::fs::read_to_string(&json_out).expect("report written"), report);
}

/// A finished campaign job, completed or cancelled mid-trial, leaves none
/// of its files in the state directory — staging files included.
#[test]
fn finished_campaign_jobs_leave_no_files_in_the_state_directory() {
    let dir = scratch("cleanup");
    let (socket, state) = (dir.join("serve.sock"), dir.join("state"));
    let mut child = daemon(&socket, &state, &["--workers", "2"]);
    let client = connect(&socket);
    let quick = JobSpec::Campaign(CampaignSpec {
        trials: 1,
        cycle_budget: None,
        ..over_budget_campaign()
    });
    let completed = client.submit("cleanup", 0, None, &quick).expect("admitted");
    let cancelled = client.submit("cleanup", 0, None, &campaign_spec()).expect("admitted");

    // Cancel mid-trial, once the manifest and the trial checkpoint exist.
    let (trial, manifest) = job_files(&state.join(format!("job-{cancelled}.ckpt")));
    let start = Instant::now();
    while !(manifest.exists() && trial.exists()) {
        assert!(start.elapsed() < Duration::from_secs(60), "no trial checkpoint appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.cancel(cancelled).expect("cancel");
    assert_eq!(wait_done(&client, completed)["status"], "completed");
    assert_eq!(wait_done(&client, cancelled)["status"], "cancelled");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
    let left: Vec<_> = std::fs::read_dir(&state)
        .expect("state directory")
        .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("job-"))
        .collect();
    assert!(left.is_empty(), "{left:?}");
}

/// CPU time `pid` has used, user and system, in clock ticks (1/100 s).
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("proc stat");
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..].split_whitespace().collect();
    // `utime` and `stime`, fields 14 and 15 of the line.
    fields[11..13].iter().map(|f| f.parse::<u64>().expect("ticks")).sum()
}

/// A job that is done at once.
fn quick_spec() -> JobSpec {
    JobSpec::Run(RunSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        program: "ecall\n".to_owned(),
        max_cycles: 1000,
        checkpoint_every: 128,
        metrics: false,
    })
}

/// One thread serves every connection, so it must keep what a thread per
/// connection gave for free: a client that stops reading holds up only its
/// own queue, and nothing spins on a socket whose client hung up (a `wait`
/// mid-job, a `tail` once idle).
#[cfg(target_os = "linux")]
#[test]
fn a_stalled_subscriber_and_a_vanished_one_hold_up_no_one() {
    let dir = scratch("stalled");
    let socket = dir.join("serve.sock");
    let mut child = Reaped(daemon(&socket, &dir.join("state"), &["--workers", "2"]));
    let client = connect(&socket);
    // ≈ 50 partial records of ≈ 70 KB each, all queued for a `watch` that
    // never reads.
    let chatty = client.submit("chatty", 0, None, &metered_run_spec()).expect("admitted");
    let mut stalled = UnixStream::connect(&socket).expect("connect");
    writeln!(stalled, "{}", Request::Watch { job: chatty }.to_json()).expect("watch");
    // A `wait` that hangs up once acknowledged.
    let vanished = UnixStream::connect(&socket).expect("connect");
    writeln!(&vanished, "{}", Request::Wait { job: chatty }.to_json()).expect("wait");
    let mut ack = String::new();
    BufReader::new(&vanished).read_line(&mut ack).expect("ack");
    assert!(ack.starts_with(&format!("{{\"ok\":true,\"job\":{chatty},")), "{ack}");
    drop(vanished);

    let deadline = Some(Instant::now() + Duration::from_secs(30));
    let quick = client.submit("other", 0, None, &quick_spec()).expect("admitted");
    let done = client.wait_until(quick, deadline, &mut |_| {}).expect("another tenant is served");
    assert_eq!(done["status"], "completed");
    let done = client.wait_until(chatty, deadline, &mut |_| {}).expect("the chatty job ends");
    assert_eq!(done["status"], "completed", "{done:?}");

    // A `tail` that hangs up once acknowledged, with no record left to
    // send it: only the hang-up itself can end its subscription.
    let vanished = UnixStream::connect(&socket).expect("connect");
    writeln!(&vanished, "{}", Request::Tail.to_json()).expect("tail");
    let mut ack = String::new();
    BufReader::new(&vanished).read_line(&mut ack).expect("ack");
    assert!(ack.starts_with("{\"ok\":true,\"tailing\":true"), "{ack}");
    drop(vanished);

    // Idle, with bytes still queued for the stalled client.
    std::thread::sleep(Duration::from_millis(100));
    let before = cpu_ticks(child.0.id());
    std::thread::sleep(Duration::from_secs(1));
    let idle = cpu_ticks(child.0.id()) - before;
    assert!(idle < 20, "the idle daemon used {idle} ticks of CPU in one second");

    // The stalled client, reading at last, gets its whole stream.
    let mut records = 0;
    for line in BufReader::new(stalled).lines().skip(1) {
        let line = line.expect("record");
        records += 1;
        if line.ends_with(",\"final\":true}") {
            break;
        }
    }
    assert!(records > 40, "{records} records");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child.0, "daemon").success());
}

/// A request line longer than `MAX_REQUEST_BYTES` is refused once its
/// first `MAX_REQUEST_BYTES` are read, line break or not: a typed
/// `invalid` answer, counted, and its connection closed. The daemon goes
/// on serving.
#[test]
fn an_overlong_request_line_is_refused_and_closes_its_connection() {
    let dir = scratch("overlong");
    let socket = dir.join("serve.sock");
    let mut child = Reaped(daemon(&socket, &dir.join("state"), &["--workers", "0"]));
    let client = connect(&socket);
    let line = vec![b' '; 2 * MAX_REQUEST_BYTES];
    for newline in [false, true] {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        let deadline = Some(Duration::from_secs(30));
        stream.set_read_timeout(deadline).expect("read timeout");
        stream.set_write_timeout(deadline).expect("write timeout");
        // The daemon stops reading and closes past the limit, so the rest
        // of the line may not go through.
        let _ = stream.write_all(&line).and_then(|()| match newline {
            true => stream.write_all(b"\n"),
            false => Ok(()),
        });
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("an answer");
        let fields = parse_flat_json(reply.trim()).expect("answer parses");
        assert_eq!(fields["error"], "invalid", "{reply}");
        let mut more = String::new();
        assert!(matches!(reader.read_line(&mut more), Ok(0) | Err(_)), "still open: {more}");
        assert!(client.health().is_ok(), "the daemon serves on");
    }
    let metrics = client.serve_metrics().expect("metrics");
    assert!(metrics.contains("\"rejections\": {\"invalid\": 2}"), "{metrics}");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child.0, "daemon").success());
}
