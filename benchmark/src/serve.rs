//! `serve_small_jobs`: a closed loop of two clients against a real
//! `mempool-serve` daemon process.
//!
//! Closed loop because that is what callers of the service do — each
//! `wait`s for its job before sending the next — and because admission is
//! bounded: two tenants (`t0`, `t1`), one job in flight each, two worker
//! slots. A slower service therefore receives less load; the number to
//! watch is latency at this fixed concurrency, not a saturation rate.

use crate::env;
use crate::json::{self, Value};
use crate::probes::{self, Probes};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    attribute, ratio, report_job_latency, report_trace, run_probes, Outcome, SimCounts, Sizes,
};
use mempool::{ObsConfig, SimError, SimSession};
use mempool_serve::{JobSpec, Request, RunSpec, ServeClient};
use mempool_traffic::{parse_config_spec, parse_flat_json};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant, SystemTime};

/// The 64-core TopH cluster every job runs on.
pub const JOB_CONFIG_SPEC: &str = "topology=topH,small=true,scramble=true";
const CLIENTS: usize = 2;
const CHECKPOINT_EVERY: u64 = 256;
const MAX_CYCLES: u64 = 100_000;
/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// One job per client takes about this long on the reference box.
const NOMINAL_JOB_SECONDS: f64 = 0.02;
const QUICK_JOBS_PER_CLIENT: u64 = 25;

/// The job: every core chases 24 dependent loads through the interleaved
/// region (one request in flight per core, so latencies sit near the
/// paper's zero-load 1/3/5-cycle contract), folds them into a checksum
/// seeded from the run's seed, and stores it. The addresses depend on the
/// hart only, so simulated time is the same for every seed; the seed
/// changes the immediates, hence the register state and the digest.
pub fn job_program(seed: u64) -> String {
    let salt = 1 + (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as u32; // 20 bits
    format!(
        "csrr t0, mhartid\n\
         li   a0, {salt}\n\
         li   a2, 1103515245\n\
         li   a3, 12345\n\
         li   a4, 0x10000\n\
         li   a5, 0x1fffc\n\
         li   t4, 24\n\
         addi t3, t0, 1\n\
         mul  t3, t3, a2\n\
         loop:\n\
         mul  t3, t3, a2\n\
         add  t3, t3, a3\n\
         srli t5, t3, 11\n\
         and  t5, t5, a5\n\
         add  t5, t5, a4\n\
         lw   t6, 0(t5)\n\
         add  a0, a0, t6\n\
         add  a0, a0, t3\n\
         addi t4, t4, -1\n\
         bnez t4, loop\n\
         slli t5, t0, 2\n\
         add  t5, t5, a4\n\
         sw   a0, 0(t5)\n\
         fence\n\
         ecall\n"
    )
}

fn job_spec(seed: u64, metrics: bool) -> JobSpec {
    JobSpec::Run(RunSpec {
        config_spec: JOB_CONFIG_SPEC.to_owned(),
        program: job_program(seed),
        max_cycles: MAX_CYCLES,
        checkpoint_every: CHECKPOINT_EVERY,
        metrics,
    })
}

// ---------------------------------------------------------------------------
// The daemon binary.
// ---------------------------------------------------------------------------

fn newest_mtime(dir: &Path, newest: &mut SystemTime) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            newest_mtime(&path, newest);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            if let Ok(m) = entry.metadata().and_then(|m| m.modified()) {
                *newest = (*newest).max(m);
            }
        }
    }
}

/// Path of `mempool-serve`, built from the root workspace when it is
/// missing or older than the sources it is made of. Checked before any
/// timing starts, so a stale daemon is never what gets measured.
///
/// # Errors
///
/// One line naming what is missing, when the root workspace does not build.
pub fn ensure_serve_binary() -> Result<PathBuf, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("mempool-serve");
    let mut newest = SystemTime::UNIX_EPOCH;
    for tree in ["src", "crates", "Cargo.toml", "Cargo.lock"] {
        let path = Path::new(tree);
        if path.is_dir() {
            newest_mtime(path, &mut newest);
        } else if let Ok(m) = path.metadata().and_then(|m| m.modified()) {
            newest = newest.max(m);
        }
    }
    let fresh = bin
        .metadata()
        .and_then(|m| m.modified())
        .is_ok_and(|built| built >= newest);
    if !fresh {
        eprintln!(
            "benchmark: building {} from the root workspace",
            bin.display()
        );
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--bin", "mempool-serve"])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo to build mempool-serve: {e}"))?;
        if !status.success() || !bin.exists() {
            return Err(format!(
                "{} is missing or older than the sources and `cargo build --release --bin mempool-serve` failed",
                bin.display()
            ));
        }
    }
    Ok(bin)
}

// ---------------------------------------------------------------------------
// One daemon process.
// ---------------------------------------------------------------------------

/// A running `mempool-serve`. Dropping it kills and reaps the process, so
/// no exit path of the benchmark leaves a daemon behind.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon on a fresh state directory under `dir` and waits
    /// until it answers `health`. Returns it with the start-to-healthy time.
    fn start(bin: &Path, dir: &Path, tag: &str) -> Result<(Daemon, Duration), String> {
        let socket = dir.join(format!("{tag}.sock"));
        let state = dir.join(format!("{tag}.state"));
        let log =
            std::fs::File::create(dir.join(format!("{tag}.log"))).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(&state)
            .args(["--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, socket };
        let client = daemon.client();
        loop {
            if client.health().is_ok() {
                return Ok((daemon, started.elapsed()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("mempool-serve exited during start-up: {status}"));
            }
            if started.elapsed() > Duration::from_secs(20) {
                return Err("mempool-serve did not become healthy within 20 s".to_owned());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(&self.socket)
    }

    fn peak_rss_mb(&self) -> f64 {
        env::peak_rss_mb(self.child.id()).unwrap_or(0.0)
    }

    /// Drains the daemon and returns whether it exited with status 0.
    fn stop(mut self) -> Result<bool, String> {
        self.client()
            .shutdown()
            .map_err(|e| format!("shutdown request: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => return Ok(status.success()),
                None if Instant::now() > deadline => {
                    return Err("mempool-serve did not exit within 20 s of shutdown".to_owned())
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// The in-process twin: the useful work inside a job.
// ---------------------------------------------------------------------------

struct Twin {
    cycles: u64,
    digest: String,
    counts: SimCounts,
    /// Median wall time of the simulation alone (build, load, run).
    sim_ms: f64,
}

/// Runs the job's program exactly as the worker does — same configuration
/// spec, recorder on, 256-cycle chunks — minus the process, the checkpoint
/// files and the pipes.
fn run_twin(seed: u64, metrics: bool) -> Result<Twin, String> {
    let run_once = || -> Result<(u64, String, SimCounts, f64), String> {
        let started = Instant::now();
        let config = parse_config_spec(JOB_CONFIG_SPEC)?;
        let program = mempool_riscv::assemble(&job_program(seed)).map_err(|e| e.to_string())?;
        let mut builder = SimSession::builder(config);
        if metrics {
            builder = builder.observability(ObsConfig::histograms());
        }
        let mut session = builder.build_snitch().map_err(|e| e.to_string())?;
        session.load_program(&program).map_err(|e| e.to_string())?;
        loop {
            match session.cluster_mut().run(black_box(CHECKPOINT_EVERY)) {
                Ok(_) => break,
                Err(SimError::Timeout(_)) if session.now() < MAX_CYCLES => {}
                Err(e) => return Err(format!("the job program does not finish: {e}")),
            }
        }
        let sim_ms = started.elapsed().as_secs_f64() * 1e3;
        let cluster = session.cluster();
        let counts = SimCounts::of(cluster, Some(cluster.core_stats_total()));
        Ok((
            session.now(),
            format!("{:#018x}", session.state_digest()),
            counts,
            sim_ms,
        ))
    };
    let (cycles, digest, counts, first_ms) = run_once()?;
    let mut times = vec![first_ms];
    for _ in 0..4 {
        times.push(run_once()?.3);
    }
    Ok(Twin {
        cycles,
        digest,
        counts,
        sim_ms: stats::median(&times),
    })
}

// ---------------------------------------------------------------------------
// The closed loop.
// ---------------------------------------------------------------------------

/// What the daemon's own timeline says about one job, in milliseconds.
#[derive(Default, Clone, Copy)]
struct DaemonView {
    queued_at: f64,
    queued: f64,
    running_at: f64,
    running: f64,
    first_heartbeat: Option<f64>,
}

fn parse_timeline(doc: &str) -> Option<DaemonView> {
    let doc = json::parse(doc).ok()?;
    let mut view = DaemonView::default();
    for event in doc.get("traceEvents")?.as_arr()? {
        let name = event.get("name").and_then(Value::as_str)?;
        let ts = event.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
        let dur = event.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
        match (name, event.get("ph").and_then(Value::as_str)?) {
            ("queued", "X") => (view.queued_at, view.queued) = (ts, view.queued + dur),
            ("running", "X") => (view.running_at, view.running) = (ts, view.running + dur),
            ("heartbeat", "i") if view.first_heartbeat.is_none() => {
                view.first_heartbeat = Some(ts - view.running_at);
            }
            _ => {}
        }
    }
    Some(view)
}

/// A connection to the daemon that stays open across `timeline` requests
/// (the protocol answers every request line of a connection in order).
struct TimelineLink {
    reader: BufReader<UnixStream>,
}

impl TimelineLink {
    fn open(socket: &Path) -> Option<TimelineLink> {
        let reader = BufReader::new(UnixStream::connect(socket).ok()?);
        Some(TimelineLink { reader })
    }

    fn fetch(&mut self, job: u64) -> Option<String> {
        let request = Request::Timeline { job }.to_json();
        self.reader
            .get_mut()
            .write_all(format!("{request}\n").as_bytes())
            .ok()?;
        let mut line = String::new();
        self.reader.read_line(&mut line).ok()?;
        parse_flat_json(line.trim())?.remove("timeline")
    }
}

struct JobSample {
    latency_ms: f64,
    /// Cycles, state digest and metrics-document bytes, or why the job
    /// failed.
    result: Result<(u64, String, usize), String>,
    daemon: Option<DaemonView>,
}

/// One client: `jobs` times submit and wait. A traced client then, once
/// every client has left the loop (so the extra requests load no job that
/// is still being timed), fetches each job's timeline from the daemon and
/// hangs the daemon's own `queued` and `running` intervals under the
/// job's wait span. Returns the samples, when the loop ended, and how long
/// each timeline fetch took.
fn client_loop(
    socket: &Path,
    index: usize,
    spec: &JobSpec,
    jobs: u64,
    tracer: &mut Tracer,
    loops_done: &Barrier,
) -> (Vec<JobSample>, Instant, Vec<f64>) {
    let client = ServeClient::connect(socket);
    let tenant = format!("t{index}");
    let op_base = (index as u64 * jobs) as u32;
    let mut samples = Vec::with_capacity(jobs as usize);
    let mut spans = Vec::with_capacity(jobs as usize);
    for j in 0..jobs {
        let op = op_base + j as u32;
        let root = tracer.begin("job", "benchmark", op);
        let started = Instant::now();
        let submit_span = tracer.begin("serve.client.submit", "serve", op);
        let submitted = client.submit(&tenant, 0, None, spec);
        tracer.end(submit_span);
        let mut waited = None;
        // Latency ends when `wait` returns, before the 74 KB result is
        // parsed for checking.
        let mut returned = None;
        let result = submitted
            .map_err(|e| format!("submit: {e}"))
            .and_then(|id| {
                let wait_span = tracer.begin("serve.client.wait", "serve", op);
                let done = client.wait(id, &mut |_| {});
                tracer.end(wait_span);
                returned = Some(Instant::now());
                waited = Some((id, submit_span, wait_span));
                parse_done(&done.map_err(|e| format!("wait: {e}"))?)
            });
        let sample = JobSample {
            latency_ms: (returned.unwrap_or_else(Instant::now) - started).as_secs_f64() * 1e3,
            result,
            daemon: None,
        };
        tracer.end(root);
        samples.push(sample);
        spans.push(waited);
    }
    let loop_ended = Instant::now();
    loops_done.wait();

    let mut timeline_ms = Vec::new();
    if tracer.enabled() {
        // One kept-open connection: the daemon polls for new connections
        // only when its event loop wakes (every 20 ms when idle), which a
        // fresh `ServeClient` request per timeline would pay a thousand
        // times over.
        let mut link = TimelineLink::open(socket);
        for (sample, waited) in samples.iter_mut().zip(spans) {
            let Some((id, submit_span, wait_span)) = waited else {
                continue;
            };
            let t = Instant::now();
            let doc = link.as_mut().and_then(|l| l.fetch(id));
            timeline_ms.push(t.elapsed().as_secs_f64() * 1e3);
            sample.daemon = doc.as_deref().and_then(parse_timeline);
            if let (Some(view), Some(t0)) = (sample.daemon, tracer.start_of(submit_span)) {
                // The daemon first sees the job inside the submit call, so
                // its clock (whole milliseconds) is anchored at the submit
                // span's start.
                let at = |ms: f64| t0 + (ms * 1e6) as u64;
                tracer.add_child(
                    wait_span,
                    "serve.daemon.queued",
                    "serve",
                    at(view.queued_at),
                    at(view.queued_at + view.queued),
                );
                tracer.add_child(
                    wait_span,
                    "serve.daemon.running",
                    "serve",
                    at(view.running_at),
                    at(view.running_at + view.running),
                );
            }
        }
    }
    (samples, loop_ended, timeline_ms)
}

/// Cycles, state digest and metrics-document size out of a `done` event.
fn parse_done(fields: &BTreeMap<String, String>) -> Result<(u64, String, usize), String> {
    let status = fields.get("status").map_or("", String::as_str);
    if status != "completed" {
        return Err(format!("job ended `{status}`"));
    }
    let result = fields
        .get("result")
        .and_then(|r| parse_flat_json(r))
        .ok_or("done event carries no parsable result")?;
    let cycles = result
        .get("cycles")
        .and_then(|c| c.parse().ok())
        .ok_or("result lacks cycles")?;
    let digest = result
        .get("state_digest")
        .cloned()
        .ok_or("result lacks a state digest")?;
    Ok((cycles, digest, result.get("metrics").map_or(0, String::len)))
}

/// The daemon's own counters, read from its `mempool-serve-metrics-v1`
/// document.
#[derive(Default)]
struct DaemonCounters {
    jobs_completed: f64,
    workers_spawned: f64,
    journal_appends: f64,
    stream_records: f64,
    retries: f64,
}

fn daemon_counters(client: &ServeClient) -> Result<DaemonCounters, String> {
    let doc = client
        .serve_metrics()
        .map_err(|e| format!("metrics request: {e}"))?;
    let doc = json::parse(&doc)?;
    let counters = doc
        .get("counters")
        .ok_or("metrics document lacks counters")?;
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metrics document lacks counter `{name}`"))
    };
    Ok(DaemonCounters {
        jobs_completed: counter("jobs_completed")?,
        workers_spawned: counter("workers_spawned")?,
        journal_appends: counter("journal_appends")?,
        stream_records: counter("stream_records")?,
        retries: doc.get("retries").and_then(Value::as_obj).map_or(0.0, |m| {
            m.iter()
                .filter_map(|(_, v)| v.as_f64())
                .fold(0.0, |a, b| a + b)
        }),
    })
}

struct Pass {
    samples: Vec<JobSample>,
    loop_wall_s: f64,
    start_s: f64,
    daemon_rss_mb: f64,
    counters: DaemonCounters,
    clean_exit: bool,
    tracer: Tracer,
    timeline_ms: Vec<f64>,
}

/// One daemon lifetime: start, closed loop of `CLIENTS` × `jobs`, counters,
/// drain.
fn pass(
    bin: &Path,
    dir: &Path,
    tag: &str,
    spec: &JobSpec,
    jobs: u64,
    traced: bool,
) -> Result<Pass, String> {
    let (daemon, start) = Daemon::start(bin, dir, tag)?;
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|t| Tracer::new(traced, origin, t as u32, jobs as usize * 5 + 8))
        .collect();
    let loops_done = Barrier::new(CLIENTS);
    let loop_started = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(t, tracer)| {
                let (loops_done, socket) = (&loops_done, daemon.socket.as_path());
                scope.spawn(move || client_loop(socket, t, spec, jobs, tracer, loops_done))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let counters = daemon_counters(&daemon.client())?;
    let daemon_rss_mb = daemon.peak_rss_mb();
    let clean_exit = daemon.stop()?;
    let mut tracer = tracers.remove(0);
    for other in tracers {
        tracer.absorb(other);
    }
    let mut pass = Pass {
        samples: Vec::new(),
        loop_wall_s: 0.0,
        start_s: start.as_secs_f64(),
        daemon_rss_mb,
        counters,
        clean_exit,
        tracer,
        timeline_ms: Vec::new(),
    };
    for (samples, loop_ended, timeline_ms) in per_client {
        pass.samples.extend(samples);
        pass.loop_wall_s = pass
            .loop_wall_s
            .max((loop_ended - loop_started).as_secs_f64());
        pass.timeline_ms.extend(timeline_ms);
    }
    Ok(pass)
}

/// Counts failed operations of a pass into `out`: a job that did not
/// complete, disagrees with its siblings' twin, or a daemon whose own
/// counters show hidden retries or an unclean exit.
fn check_pass(out: &mut Outcome, pass: &Pass, twin: &Twin, label: &str) {
    out.ops += pass.samples.len() as u64;
    for (i, sample) in pass.samples.iter().enumerate() {
        match &sample.result {
            Err(why) => out.fail(format!("{label} job {i}: {why}")),
            Ok((cycles, digest, _)) if *cycles != twin.cycles || *digest != twin.digest => out.fail(format!(
                "{label} job {i}: cycles {cycles} digest {digest}, in-process run of the same program gives {} {}",
                twin.cycles, twin.digest
            )),
            Ok(_) => {}
        }
    }
    let jobs = pass.samples.len() as f64;
    let c = &pass.counters;
    for (what, have, want) in [
        ("jobs_completed", c.jobs_completed, jobs),
        ("workers_spawned", c.workers_spawned, jobs),
        ("journal_appends", c.journal_appends, 3.0 * jobs),
        ("retries", c.retries, 0.0),
    ] {
        if have != want {
            out.fail(format!(
                "{label}: daemon counter {what} = {have}, expected {want}"
            ));
        }
    }
    if !pass.clean_exit {
        out.fail(format!(
            "{label}: mempool-serve exited with a non-zero status"
        ));
    }
}

fn latencies(pass: &Pass) -> Vec<f64> {
    pass.samples.iter().map(|s| s.latency_ms).collect()
}

/// Runs the workload. Untraced: the end-to-end metrics. Traced: an
/// untraced pass for reference, the same pass with spans, a with/without
/// metrics-document pair, and the probes.
///
/// # Errors
///
/// The daemon cannot be built, started or talked to at all — a broken
/// bench, as opposed to failed operations, which are counted.
pub fn run(seed: u64, sizes: Sizes, traced: bool) -> Result<Outcome, String> {
    let bin = ensure_serve_binary()?;
    let dir = env::fresh_work_dir("serve")?;
    let jobs = sizes.ops(NOMINAL_JOB_SECONDS, QUICK_JOBS_PER_CLIENT);
    let mut out = Outcome::default();

    let mut starts = Vec::new();
    for i in 0..SETUP_REPS - 1 {
        let (daemon, start) = Daemon::start(&bin, &dir, &format!("setup{i}"))?;
        starts.push(start.as_secs_f64());
        if !daemon.stop()? {
            out.fail("set-up: mempool-serve exited with a non-zero status".to_owned());
        }
    }

    let spec = job_spec(seed, true);
    let twin = run_twin(seed, true)?;
    out.info.push(("state_digest", twin.digest.clone()));
    let plain = pass(&bin, &dir, "plain", &spec, jobs, false)?;
    check_pass(&mut out, &plain, &twin, "untraced");
    starts.push(plain.start_s);

    if !traced {
        let counts = &twin.counts;
        let total_jobs = plain.samples.len() as f64;
        let instret = counts.core.as_ref().map_or(0, |c| c.instret) as f64;
        let s = &counts.stats;
        out.set("setup_s", stats::median(&starts));
        out.set(
            "sim_cycles_per_sec",
            total_jobs * twin.cycles as f64 / plain.loop_wall_s,
        );
        out.set("sim_mips", total_jobs * instret / (plain.loop_wall_s * 1e6));
        out.set("peak_rss_mb", plain.daemon_rss_mb);
        out.set("sim_cycles", twin.cycles as f64);
        out.set("sim_ipc", ratio(instret, counts.core_cycles()));
        out.set(
            "sim_throughput_req_per_core_cycle",
            ratio(s.responses_delivered as f64, counts.core_cycles()),
        );
        out.set("sim_avg_latency_cycles", s.latency.mean());
        out.set("paper_agreement_pct", 100.0 - zero_load_err_pct(counts));
        report_job_latency(&mut out, &latencies(&plain), plain.loop_wall_s);
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(out);
    }

    let spans = pass(&bin, &dir, "traced", &spec, jobs, true)?;
    check_pass(&mut out, &spans, &twin, "traced");
    let probes = run_probes(&mut out, seed, "serve-probes")?;

    // What the 70 KB document costs a job: the same loop with and without
    // `metrics`, a fifth of the size each.
    let doc_jobs = (jobs / 5).max(10);
    let with_doc = pass(&bin, &dir, "doc", &spec, doc_jobs, false)?;
    check_pass(&mut out, &with_doc, &twin, "with-document");
    let bare_twin = run_twin(seed, false)?;
    let without_doc = pass(&bin, &dir, "nodoc", &job_spec(seed, false), doc_jobs, false)?;
    check_pass(&mut out, &without_doc, &bare_twin, "without-document");

    report_layers(&mut out, seed, &plain, &spans, &twin, &probes);
    out.set(
        "serve.metrics_doc_cost_ms",
        stats::median(&latencies(&with_doc)) - stats::median(&latencies(&without_doc)),
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Gap, in percent, between the mean round-trip latency of the job's
/// requests and the paper's zero-load contract (1 cycle in the tile, 3 in
/// the local group, 5 beyond) applied to the job's own locality mix —
/// EXPERIMENTS.md tracks the same row for the 256-core cluster.
fn zero_load_err_pct(counts: &SimCounts) -> f64 {
    let s = &counts.stats;
    let group = s.group_local_requests as f64;
    let far = s.remote_requests.saturating_sub(s.group_local_requests) as f64;
    let total = s.local_requests as f64 + group + far;
    let contract = ratio(s.local_requests as f64 + 3.0 * group + 5.0 * far, total);
    100.0 * ratio((s.latency.mean() - contract).abs(), contract)
}

fn report_layers(
    out: &mut Outcome,
    seed: u64,
    plain: &Pass,
    spans: &Pass,
    twin: &Twin,
    probes: &Probes,
) {
    twin.counts.report(out);
    let tracer = &spans.tracer;
    let p50 = |name: &str| stats::median(&tracer.durations_ms(name));
    out.set("serve.client.submit_ms.p50", p50("serve.client.submit"));
    out.set("serve.client.wait_ms.p50", p50("serve.client.wait"));
    out.set(
        "serve.client.timeline_ms.p50",
        stats::median(&spans.timeline_ms),
    );

    let views: Vec<(f64, DaemonView)> = spans
        .samples
        .iter()
        .filter_map(|s| Some((s.latency_ms, s.daemon?)))
        .collect();
    let med = |f: &dyn Fn(&(f64, DaemonView)) -> f64| {
        stats::median(&views.iter().map(f).collect::<Vec<_>>())
    };
    out.set("serve.daemon.queue_ms.p50", med(&|(_, v)| v.queued));
    out.set("serve.daemon.run_ms.p50", med(&|(_, v)| v.running));
    out.set(
        "serve.daemon.overhead_ms.p50",
        med(&|(l, v)| l - v.queued - v.running),
    );
    let beats: Vec<f64> = views
        .iter()
        .filter_map(|(_, v)| v.first_heartbeat)
        .collect();
    out.set("serve.daemon.first_heartbeat_ms.p50", stats::median(&beats));

    let lat = latencies(plain);
    let p50_latency = stats::median(&lat);
    let tail = stats::tail_percentile(lat.len());
    out.set("serve.job_latency_ms.tail", stats::percentile(&lat, tail));
    out.set("serve.job_latency_tail_pctile", tail);
    out.set("serve.worker.sim_ms", twin.sim_ms);
    out.set("serve.overhead_ratio", ratio(p50_latency, twin.sim_ms));
    out.set(
        "serve.doc_bytes",
        plain
            .samples
            .iter()
            .find_map(|s| s.result.as_ref().ok().map(|r| r.2))
            .unwrap_or(0) as f64,
    );
    out.set("serve.daemon_start_ms", plain.start_s * 1e3);
    let c = &plain.counters;
    out.set("serve.jobs_completed", c.jobs_completed);
    out.set("serve.workers_spawned", c.workers_spawned);
    out.set("serve.journal_appends", c.journal_appends);
    out.set("serve.stream_records", c.stream_records);
    out.set("serve.retries", c.retries);
    out.set("paper.err_pct", zero_load_err_pct(&twin.counts));

    // Host-time attribution inside the useful work: the twin's simulation
    // time against the probe estimates. Everything around it is service
    // overhead, which the spans and the daemon's timeline split.
    let sim_ns = twin.sim_ms * 1e6;
    out.set("core.cycle_ns", ratio(sim_ns, twin.cycles as f64));
    let iss_ns = probes::get(probes, "snitch.step_ns") * twin.counts.core_cycles();
    attribute(out, probes, &twin.counts, sim_ns, iss_ns);
    report_trace(
        out,
        "serve_small_jobs",
        seed,
        tracer,
        plain.loop_wall_s,
        spans.loop_wall_s,
    );
}
