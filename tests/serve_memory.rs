//! The journal as `mempool-serve`'s result store, seen from outside the
//! daemon process: a finished job's result is read back from `jobs.journal`
//! byte for byte — also by a daemon that did not run the job — and serving
//! jobs does not grow the daemon.

#![cfg(unix)]

use mempool_serve::{JobSpec, Request, RunSpec, ServeClient};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_mempool-serve");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempool-results-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A running daemon; killed and reaped on drop, so a failed assertion
/// leaves no process behind.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, workers: &str) -> Daemon {
        let socket = dir.join("serve.sock");
        let child = Command::new(SERVE_BIN)
            .arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(dir.join("state"))
            .args(["--workers", workers])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let daemon = Daemon { child, socket };
        let started = Instant::now();
        while daemon.client().health().is_err() {
            assert!(started.elapsed() < Duration::from_secs(30), "daemon did not come up");
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(&self.socket)
    }

    /// Sends one request and returns the reply lines, unparsed, up to and
    /// including the first that `last` accepts.
    fn raw(&self, request: &Request, last: impl Fn(&str) -> bool) -> Vec<String> {
        let mut stream = UnixStream::connect(&self.socket).expect("connect");
        writeln!(stream, "{}", request.to_json()).expect("send");
        let mut lines = Vec::new();
        for line in BufReader::new(stream).lines() {
            let line = line.expect("reply line");
            let done = last(&line);
            lines.push(line);
            if done {
                return lines;
            }
        }
        panic!("connection closed before the awaited line: {lines:?}");
    }

    /// A subscription's lines through its job's terminal record.
    fn subscribe(&self, request: &Request) -> Vec<String> {
        self.raw(request, |l| l.ends_with(",\"final\":true}"))
    }

    fn drain(mut self) {
        self.client().shutdown().expect("shutdown");
        let started = Instant::now();
        while self.child.try_wait().expect("try_wait").is_none() {
            assert!(started.elapsed() < Duration::from_secs(60), "daemon did not drain");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn metered(program: &str, checkpoint_every: u64) -> JobSpec {
    JobSpec::Run(RunSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        program: program.to_owned(),
        max_cycles: 2_000_000,
        checkpoint_every,
        metrics: true,
    })
}

/// Everything of a terminal line from its `status` field on: the part that
/// does not depend on the job's id or on how many records preceded it.
fn report(line: &str) -> &str {
    &line[line.find("\"status\":").expect("line reports a status")..]
}

/// The raw `result` token of a reply line or a terminal record.
fn result_token(line: &str) -> &str {
    let line = line.strip_suffix(",\"final\":true}").unwrap_or(line);
    let at = line.find("\"result\":\"").expect("line carries a result") + "\"result\":".len();
    let end = line.rfind('"').expect("closing quote");
    &line[at..=end]
}

#[test]
fn late_replies_are_the_live_bytes_before_and_after_a_restart() {
    let dir = scratch("late");
    let daemon = Daemon::start(&dir, "1");
    let client = daemon.client();
    // Long enough that the subscriptions below are in place well before it
    // ends; the document it ends with is ≈ 80 KB of escaped JSON.
    let spec = metered(
        "addi t0, zero, 0\nlui t1, 4\nloop:\naddi t0, t0, 1\nbne t0, t1, loop\necall\n",
        1024,
    );

    // Job `seen` ends in front of a `wait` and a `watch` subscriber; so
    // does its twin `next`, queued behind it on the one worker slot while
    // both of its subscriptions open; the third, `unseen`, ends in front of
    // nobody.
    let seen = client.submit("t", 0, None, &spec).expect("submit");
    let next = client.submit("t", 0, None, &spec).expect("submit twin");
    let unseen = client.submit("t", 0, None, &spec).expect("submit unseen twin");
    let [seen_wait, seen_watch, next_wait, next_watch] = std::thread::scope(|scope| {
        let daemon = &daemon;
        [
            Request::Wait { job: seen },
            Request::Watch { job: seen },
            Request::Wait { job: next },
            Request::Watch { job: next },
        ]
        .map(|request| scope.spawn(move || daemon.subscribe(&request)))
        .map(|subscription| subscription.join().expect("subscription"))
    });
    // One stream, one framing: a `wait` is the `watch` without its
    // `partial` records.
    assert_eq!(seen_wait.last(), seen_watch.last());
    let live = seen_wait.last().unwrap().clone();
    assert!(live.len() > 50_000, "a metered result is a large document");
    let queued = format!("{{\"ok\":true,\"job\":{next},\"status\":\"queued\"}}");
    assert_eq!(next_wait[0], queued, "the twin was still queued");
    assert_eq!(next_watch[0], queued, "the twin was still queued");
    let partial = |l: &&String| l.contains(",\"kind\":\"partial\",");
    assert!(next_watch.iter().filter(partial).count() >= 2, "{} lines", next_watch.len());
    let unpartial: Vec<&String> = next_watch.iter().filter(|l| !partial(l)).collect();
    assert_eq!(next_wait.iter().collect::<Vec<_>>(), unpartial);
    let started = Instant::now();
    while client.health().expect("health")["completed"] != "3" {
        assert!(started.elapsed() < Duration::from_secs(120), "twin never finished");
        std::thread::sleep(Duration::from_millis(20));
    }

    let check = |daemon: &Daemon, when: &str| {
        for job in [seen, next, unseen] {
            let ack = format!("{{\"ok\":true,\"job\":{job},\"status\":\"completed\"}}");
            for request in [Request::Wait { job }, Request::Watch { job }] {
                let lines = daemon.subscribe(&request);
                assert_eq!(lines.len(), 2, "job {job}, {when}: {lines:?}");
                assert_eq!(lines[0], ack, "job {job}, {when}");
                assert_eq!(report(&lines[1]), report(&live), "job {job}, {when}");
            }
            let status = daemon.raw(&Request::Status { job }, |_| true).remove(0);
            assert!(status.starts_with("{\"ok\":true,"), "job {job}, {when}: {status}");
            assert_eq!(result_token(&status), result_token(&live), "job {job}, {when}");
        }
    };
    check(&daemon, "same daemon");
    // Every job keeps the exact terminal record its subscribers got: the
    // same one, whoever watched it, apart from its id.
    for job in [seen, next, unseen] {
        let twin = live.replace(&format!("\"job\":{seen}"), &format!("\"job\":{job}"));
        assert_eq!(daemon.subscribe(&Request::Wait { job })[1], twin, "job {job}");
    }

    daemon.drain();
    let daemon = Daemon::start(&dir, "1");
    check(&daemon, "restarted daemon");
    daemon.drain();
    std::fs::remove_dir_all(&dir).ok();
}

/// The `field` line of `/proc/<pid>/status`, as a number.
#[cfg(target_os = "linux")]
fn proc_status(pid: u32, field: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} line"));
    line.split_whitespace().nth(1).unwrap().parse().expect("a number")
}

/// A finished job keeps a small fixed record, its typed events and an
/// index entry: ≈ 0.3–0.4 kB of `VmHWM` per job here. Its result stays in
/// the journal (it used to cost ≈ 82 kB per job). The daemon runs one
/// thread, which the test checks while it serves: threads that came and
/// went with each job left per-thread malloc arenas behind, ≈ 0.6–0.7 kB
/// per job. The warm-up lets the heap of the first jobs reach its working
/// size.
#[cfg(target_os = "linux")]
#[test]
fn serving_jobs_does_not_grow_the_daemon() {
    const WARM_UP: u64 = 200;
    const JOBS: u64 = 2000;
    const BOUND_KB_PER_JOB: f64 = 0.6;

    let dir = scratch("memory");
    let daemon = Daemon::start(&dir, "2");
    let pid = daemon.child.id();
    let spec = metered("ecall\n", 128);
    let serving = AtomicBool::new(false);
    // A closed loop per worker slot, every job waited for: the live path
    // (document escaped and sent) and the journal both see each result.
    // Meanwhile the daemon's thread count is sampled.
    let serve = |jobs: u64| {
        std::thread::scope(|scope| {
            serving.store(true, Ordering::Relaxed);
            let threads = scope.spawn(|| {
                let mut most = 0;
                while serving.load(Ordering::Relaxed) {
                    most = most.max(proc_status(pid, "Threads:"));
                    std::thread::sleep(Duration::from_millis(5));
                }
                most
            });
            let loops = ["t0", "t1"].map(|tenant| {
                let (client, spec) = (daemon.client(), &spec);
                scope.spawn(move || {
                    for _ in 0..jobs / 2 {
                        let id = client.submit(tenant, 0, None, spec).expect("submit");
                        let done = client.wait(id, &mut |_| {}).expect("wait");
                        assert_eq!(done["status"], "completed");
                        assert!(done["result"].len() > 50_000, "metered document");
                    }
                })
            });
            let ended = loops.map(|closed_loop| closed_loop.join());
            serving.store(false, Ordering::Relaxed);
            for ended in ended {
                ended.expect("closed loop");
            }
            assert_eq!(threads.join().expect("sampler"), 1, "the daemon runs one thread");
        });
    };
    serve(WARM_UP);
    let warm = proc_status(pid, "VmHWM:");
    serve(JOBS);
    let grown = proc_status(pid, "VmHWM:") - warm;
    let per_job = grown as f64 / JOBS as f64;
    println!("VmHWM {warm} kB after {WARM_UP} jobs, +{grown} kB after {JOBS} more: {per_job:.2} kB/job");
    assert!(
        per_job < BOUND_KB_PER_JOB,
        "daemon grew {per_job:.1} kB per job served ({warm} kB -> +{grown} kB over {JOBS} jobs)"
    );
    // The results are all still there.
    let first = daemon.client().status(0).expect("status");
    assert!(first["result"].len() > 50_000);
    daemon.drain();
    std::fs::remove_dir_all(&dir).ok();
}
