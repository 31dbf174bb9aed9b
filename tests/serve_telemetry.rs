//! End-to-end coverage for the mempool-serve telemetry plane: the
//! `mempool-job-stream-v1` watch/tail streams (schema-valid, gapless,
//! final record byte-identical to the unwatched result), partial snapshots
//! rendered only while a `watch` or `tail` takes them, the
//! `mempool-serve-metrics-v2` self-metrics document, per-job Chrome
//! trace timelines, and the `mempool-cli wait --timeout` exit contract.
//!
//! `mempool_cli_watches_a_long_metered_job_on_a_small_daemon` leaves its
//! watch stream, the self-metrics document and the watched job's timeline
//! in `target/tmp/serve-telemetry/`, which CI uploads.

#![cfg(unix)]

use mempool::json;
use mempool_serve::{BenchSpec, ClientError, JobSpec, RunSpec, ServeClient};
use mempool_traffic::{worker_job, WorkerLine};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_mempool-serve");
const CLI_BIN: &str = env!("CARGO_BIN_EXE_mempool-cli");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempool-telem-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn daemon(socket: &Path, state: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(SERVE_BIN);
    cmd.arg("--socket").arg(socket);
    cmd.arg("--state-dir").arg(state);
    cmd.args(extra);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd.spawn().expect("daemon spawns")
}

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

fn wait_exit(child: &mut Child, what: &str) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait works") {
            return status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "{what} did not exit in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A run job with the metrics recorder attached and checkpoints frequent
/// enough that heartbeat/partial records stream while it executes.
fn metered_run_spec() -> JobSpec {
    metered_loop(4, 1024)
}

/// A metered job counting to `lui_count << 12` (about three cycles per
/// count), checkpointing every `checkpoint_every` cycles.
fn metered_loop(lui_count: u32, checkpoint_every: u64) -> JobSpec {
    JobSpec::Run(RunSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        program: format!(
            "addi t0, zero, 0\nlui t1, {lui_count}\n\
             loop:\naddi t0, t0, 1\nbne t0, t1, loop\necall\n"
        ),
        max_cycles: 2_000_000,
        checkpoint_every,
        metrics: true,
    })
}

/// Where the long CLI test leaves the documents CI uploads.
fn artifacts() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-telemetry");
    std::fs::create_dir_all(&dir).expect("artifact dir");
    dir
}

/// Peak resident set of `pid` in KiB (`VmHWM` never decreases).
fn vm_hwm_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace().nth(1).unwrap().parse().expect("VmHWM in kB")
}

/// Polls `status` until the job is running and a heartbeat has come in.
fn wait_for_heartbeat(client: &ServeClient, job: u64) {
    let started = Instant::now();
    loop {
        let status = client.status(job).expect("status");
        if status.contains_key("cycle") {
            assert_eq!(status["status"], "running", "{status:?}");
            return;
        }
        assert!(started.elapsed() < Duration::from_secs(60), "no heartbeat: {status:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The partial records of a stream, as whether each carries its snapshot;
/// each one that does must be a `mempool-metrics-v2` registry. A partial
/// taker's stream turns from markers to documents once, and stays there.
fn partial_documents(records: &[Fields]) -> Vec<bool> {
    let partials: Vec<bool> = records
        .iter()
        .filter(|f| f.get("kind").map(String::as_str) == Some("partial"))
        .map(|f| match f.get("metrics") {
            Some(doc) => {
                let doc = json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
                assert_eq!(doc["schema"].as_str(), Some("mempool-metrics-v2"));
                true
            }
            None => false,
        })
        .collect();
    let first = partials.iter().position(|&doc| doc).unwrap_or(partials.len());
    assert!(
        partials[first..].iter().all(|&doc| doc),
        "a marker after a document: {partials:?}"
    );
    partials
}

/// Asserts consecutive `seq` numbers across `records`.
fn assert_gapless(records: &[Fields]) {
    for pair in records.windows(2) {
        let seq = |f: &Fields| f["seq"].parse::<u64>().expect("numeric seq");
        assert_eq!(seq(&pair[1]), seq(&pair[0]) + 1, "seq gap: {pair:?}");
    }
}

fn bench_spec() -> JobSpec {
    JobSpec::Bench(BenchSpec {
        cycles: 100,
        warmup: 10,
        cores: vec![16],
    })
}

type Fields = BTreeMap<String, String>;

/// Asserts one stream record carries the v1 schema envelope for `job`.
fn assert_envelope(fields: &Fields, job: u64, raw: &str) {
    assert_eq!(
        fields.get("stream").map(String::as_str),
        Some("mempool-job-stream-v1"),
        "record lacks the schema tag: {raw}"
    );
    assert_eq!(
        fields.get("job").map(String::as_str),
        Some(job.to_string().as_str()),
        "record for the wrong job: {raw}"
    );
    let kind = fields.get("kind").map(String::as_str).unwrap_or("");
    assert!(
        matches!(
            kind,
            "state" | "heartbeat" | "partial" | "attempt-failed" | "retry-backoff" | "done"
        ),
        "unknown record kind `{kind}`: {raw}"
    );
    assert!(
        fields.get("seq").is_some_and(|s| s.parse::<u64>().is_ok()),
        "record lacks a numeric seq: {raw}"
    );
    assert!(
        fields
            .get("attempt")
            .is_some_and(|s| s.parse::<u32>().is_ok()),
        "record lacks a numeric attempt: {raw}"
    );
    assert!(
        matches!(fields.get("final").map(String::as_str), Some("true" | "false")),
        "record lacks a final marker: {raw}"
    );
}

#[test]
fn watch_streams_gapless_schema_valid_records_and_matches_unwatched_result() {
    let dir = scratch("watch");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);

    // The unwatched reference: an identical job, completed before the
    // watched one is submitted (one worker slot serializes them).
    let reference = client
        .submit("telem", 0, None, &metered_run_spec())
        .expect("reference job admitted");
    let ref_done = client.wait(reference, &mut |_| {}).expect("reference job");
    assert_eq!(ref_done.get("status").map(String::as_str), Some("completed"));
    let ref_result = ref_done.get("result").expect("reference result").clone();

    // The watched pass: subscribe immediately after submit and collect
    // every record through the terminal one.
    let watched = client
        .submit("telem", 0, None, &metered_run_spec())
        .expect("watched job admitted");
    let mut records: Vec<(String, Fields)> = Vec::new();
    let done = client
        .watch(watched, &mut |raw, fields| {
            records.push((raw.to_owned(), fields.clone()));
        })
        .expect("watch reaches the terminal record");

    assert!(
        records.len() >= 3,
        "expected heartbeat/partial + done, got {records:?}"
    );
    let mut prev_seq: Option<u64> = None;
    let mut kinds = std::collections::BTreeSet::new();
    for (raw, fields) in &records {
        assert_envelope(fields, watched, raw);
        let seq: u64 = fields.get("seq").unwrap().parse().unwrap();
        if let Some(prev) = prev_seq {
            assert_eq!(seq, prev + 1, "seq gap after {prev}: {raw}");
        }
        prev_seq = Some(seq);
        kinds.insert(fields.get("kind").unwrap().clone());
    }
    assert!(kinds.contains("done"), "no terminal record: {kinds:?}");
    assert!(
        kinds.contains("partial"),
        "no mid-job partial-metrics records: {kinds:?}"
    );

    // Partial records relay the worker's mempool-metrics-v2 snapshot from
    // the first checkpoint after the daemon told it someone watches; the
    // watch subscribed once the job was already running, so checkpoints
    // before that may arrive as records without one.
    for (raw, partial) in records.iter().filter(|(_, f)| f["kind"] == "partial") {
        assert!(
            partial.get("cycle").is_some_and(|c| c.parse::<u64>().is_ok()),
            "partial lacks a cycle: {raw}"
        );
    }
    let fields: Vec<Fields> = records.iter().map(|(_, f)| f.clone()).collect();
    assert!(
        partial_documents(&fields).contains(&true),
        "no partial carried its document: {fields:?}"
    );

    // The terminal record is final, completed, and its result payload is
    // byte-identical to the unwatched reference job's.
    let (final_raw, final_fields) = records.last().unwrap();
    assert_eq!(final_fields.get("final").map(String::as_str), Some("true"));
    assert_eq!(final_fields.get("kind").map(String::as_str), Some("done"));
    assert_eq!(done.get("status").map(String::as_str), Some("completed"));
    assert_eq!(
        done.get("result"),
        Some(&ref_result),
        "watched result must be byte-identical to the unwatched reference"
    );

    // Read as JSON documents, not only as flat fields: each record is one
    // object with typed members, the stream ends `final: true`, and every
    // partial carries a `mempool-metrics-v2` registry.
    for (raw, _) in &records {
        let rec = json::parse(raw).unwrap_or_else(|e| panic!("{e}: {raw}"));
        assert_eq!(
            rec["stream"].as_str(),
            Some("mempool-job-stream-v1"),
            "{raw}"
        );
        assert_eq!(rec["job"].as_u64(), Some(watched), "{raw}");
        assert!(
            rec["seq"].as_u64().is_some() && rec["attempt"].as_u64().is_some(),
            "{raw}"
        );
        assert_eq!(
            rec["final"].as_bool(),
            Some(rec["kind"].as_str() == Some("done")),
            "{raw}"
        );
        if let Some(doc) = rec["metrics"].as_str() {
            assert_eq!(rec["kind"].as_str(), Some("partial"), "{raw}");
            let doc = json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
            assert_eq!(doc["schema"].as_str(), Some("mempool-metrics-v2"));
            assert!(doc["scopes"].as_array().is_some_and(|s| !s.is_empty()));
        }
    }
    let result = json::parse(&ref_result).expect("the result is one JSON object");
    assert_eq!(result["outcome"].as_str(), Some("completed"));
    let metrics = json::parse(result["metrics"].as_str().expect("a metrics document"));
    assert_eq!(
        metrics.expect("JSON")["schema"].as_str(),
        Some("mempool-metrics-v2")
    );
    // Watching must not perturb results: the final metrics document and the
    // state digest are the unwatched twin's.
    let watched_result = json::parse(&done["result"]).expect("the result is one JSON object");
    for field in ["metrics", "state_digest"] {
        assert_eq!(watched_result[field], result[field], "{field}");
    }

    // A late watcher on the finished job replays the exact terminal
    // record bytes.
    let mut late: Vec<String> = Vec::new();
    let late_done = client
        .watch(watched, &mut |raw, _| late.push(raw.to_owned()))
        .expect("late watch");
    assert_eq!(late, vec![final_raw.clone()], "late watch replays the final record");
    assert_eq!(late_done.get("result"), Some(&ref_result));

    // So does one on the job nobody watched, every time it is asked for.
    // Looking does not change the numbering: apart from the job id, that
    // record is the watched job's, byte for byte, and both timelines hold
    // the same number of events.
    let mut unwatched: Vec<(String, Fields)> = Vec::new();
    for _ in 0..2 {
        client
            .watch(reference, &mut |raw, fields| {
                unwatched.push((raw.to_owned(), fields.clone()));
            })
            .expect("late watch of the unwatched job");
    }
    assert_eq!(unwatched.len(), 2, "one terminal record per late watch");
    assert_eq!(unwatched[0].0, unwatched[1].0);
    assert_envelope(&unwatched[0].1, reference, &unwatched[0].0);
    let twin = final_raw.replace(&format!("\"job\":{watched}"), &format!("\"job\":{reference}"));
    assert_eq!(unwatched[0].0, twin);
    let events = |job| client.timeline(job).expect("timeline").matches("\"ph\":").count();
    assert_eq!(events(reference), events(watched));

    // Watching a job that never existed is a typed rejection.
    match client.watch(9999, &mut |_, _| {}) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "unknown-job"),
        other => panic!("expected unknown-job, got {other:?}"),
    }

    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
}

#[test]
fn serve_metrics_and_timeline_documents_are_schema_tagged() {
    let dir = scratch("metrics");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);

    let job = client
        .submit("acme", 0, None, &bench_spec())
        .expect("job admitted");
    let done = client.wait(job, &mut |_| {}).expect("job finishes");
    assert_eq!(done.get("status").map(String::as_str), Some("completed"));

    let metrics = client.serve_metrics().expect("self-metrics document");
    assert!(
        metrics.starts_with("{\n  \"schema\": \"mempool-serve-metrics-v2\",\n"),
        "metrics document: {metrics}"
    );
    for needle in [
        "\"jobs_admitted\": 1",
        "\"jobs_completed\": 1",
        "\"workers_spawned\": 1",
        "\"journal_appends\":",
        "\"rejections\"",
        "\"retries\"",
        "\"queue_wait_ms\"",
        "\"tenants\"",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in {metrics}");
    }
    // A served job spawns a worker process and fsyncs the journal, so it
    // takes milliseconds; a histogram in whole seconds would read 0.
    let latency_sum: u64 = metrics
        .split_once("\"job_latency_ms\": {\"count\": 1, \"sum\": ")
        .and_then(|(_, rest)| rest.split(',').next())
        .and_then(|sum| sum.parse().ok())
        .unwrap_or_else(|| panic!("no one-sample job_latency_ms histogram in {metrics}"));
    assert!(latency_sum > 0, "job latency recorded as 0 ms: {metrics}");
    // The document is byte-stable between reads when nothing changed.
    assert_eq!(metrics, client.serve_metrics().expect("second read"));
    let doc = json::parse(&metrics).expect("the self-metrics document is JSON");
    assert_eq!(doc["schema"].as_str(), Some("mempool-serve-metrics-v2"));
    let counter = |name: &str| doc["counters"][name].as_u64();
    assert_eq!(
        (counter("jobs_admitted"), counter("jobs_completed")),
        (Some(1), Some(1))
    );
    let latency = &doc["histograms"]["job_latency_ms"];
    assert_eq!(latency["count"].as_u64(), Some(1));
    assert!(
        latency["sum"].as_u64().is_some_and(|sum| sum > 0),
        "{latency:?}"
    );
    assert_eq!(
        doc["tenants"].as_array().map(<[_]>::len),
        Some(0),
        "nothing in flight"
    );

    let timeline = client.timeline(job).expect("timeline document");
    assert!(
        timeline.contains("\"mempool-job-timeline-v1\""),
        "timeline: {timeline}"
    );
    assert!(timeline.starts_with("{\"traceEvents\":["), "timeline: {timeline}");
    for needle in ["process_name", "\"queued\"", "\"running\"", "\"completed\""] {
        assert!(timeline.contains(needle), "missing {needle} in {timeline}");
    }
    let doc = json::parse(&timeline).expect("the timeline is JSON");
    assert_eq!(
        doc["otherData"]["schema"].as_str(),
        Some("mempool-job-timeline-v1")
    );
    assert_eq!(doc["otherData"]["job"].as_u64(), Some(job));
    let events = doc["traceEvents"].as_array().expect("an event array");
    let states: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .filter_map(|e| e["name"].as_str())
        .collect();
    assert_eq!(
        states,
        ["queued", "running", "completed"],
        "one span per state"
    );
    match client.timeline(9999) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "unknown-job"),
        other => panic!("expected unknown-job, got {other:?}"),
    }

    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
}

#[test]
fn tail_relays_every_jobs_records_until_the_daemon_drains() {
    let dir = scratch("tail");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);

    let records: Arc<Mutex<Vec<Fields>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&records);
    let tail_socket = socket.clone();
    let tailer = std::thread::spawn(move || {
        let client = ServeClient::connect(&tail_socket);
        client.tail(&mut |_, fields| sink.lock().unwrap().push(fields.clone()))
    });
    // Let the subscription land before the job generates records.
    std::thread::sleep(Duration::from_millis(300));

    let job = client
        .submit("acme", 0, None, &bench_spec())
        .expect("job admitted");
    let done = client.wait(job, &mut |_| {}).expect("job finishes");
    assert_eq!(done.get("status").map(String::as_str), Some("completed"));

    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
    tailer
        .join()
        .expect("tailer thread")
        .expect("tail ends cleanly on drain");

    let records = records.lock().unwrap();
    let job_id = job.to_string();
    let mine: Vec<&Fields> = records
        .iter()
        .filter(|f| f.get("job") == Some(&job_id))
        .collect();
    assert!(
        mine.iter()
            .any(|f| f.get("kind").map(String::as_str) == Some("done")),
        "tail never saw the job's terminal record: {records:?}"
    );
    assert!(
        mine.iter()
            .all(|f| f.get("stream").map(String::as_str) == Some("mempool-job-stream-v1")),
        "tail relayed an unschema'd record: {records:?}"
    );
}

#[test]
fn cli_wait_timeout_exits_two_while_the_job_keeps_running() {
    let dir = scratch("timeout");
    let socket = dir.join("serve.sock");
    // No worker slots: the job queues forever, so the timeout always wins.
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "0"]);
    let client = connect(&socket);
    let job = client
        .submit("acme", 0, None, &bench_spec())
        .expect("job admitted");

    let started = Instant::now();
    let output = Command::new(CLI_BIN)
        .arg("--socket")
        .arg(&socket)
        .args(["wait", &job.to_string(), "--timeout", "1"])
        .output()
        .expect("cli runs");
    assert_eq!(
        output.status.code(),
        Some(2),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("timed out"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        started.elapsed() >= Duration::from_secs(1),
        "timeout fired early"
    );
    // The job is untouched: still queued, still cancellable.
    let status = client.status(job).expect("status");
    assert_eq!(status.get("status").map(String::as_str), Some("queued"));
    client.cancel(job).expect("cancel");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
}

/// Runs the built `mempool-serve worker` on `spec`'s job document, then
/// `more` on its stdin, which closes after; returns its stdout lines.
fn run_worker(dir: &Path, spec: &JobSpec, more: &str) -> Vec<String> {
    let ckpt = dir.join("job.ckpt");
    let job = worker_job(|o| o.num("job", 0).num("attempt", 1), &ckpt, |o| spec.write_fields(o));
    let mut child = Command::new(SERVE_BIN)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("worker spawns");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(format!("{job}\n{more}").as_bytes()).expect("job document");
    drop(stdin);
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.expect("a line")).collect();
    assert!(wait_exit(&mut child, "worker").success(), "{lines:?}");
    lines
}

/// A metered worker renders no snapshot until its stdin says `watch`: it
/// prints the doc-less marker at every checkpoint instead, and its result
/// is the same bytes either way.
#[test]
fn a_metered_worker_renders_snapshots_only_after_a_watch_line() {
    let dir = scratch("worker");
    let spec = metered_loop(1, 1024);
    let unwatched = run_worker(&dir, &spec, "");
    let watched = run_worker(&dir, &spec, "watch\n");

    let metrics = |lines: &[String]| -> Vec<(u64, Option<String>)> {
        lines
            .iter()
            .filter_map(|line| match WorkerLine::parse(line.clone()) {
                Some(WorkerLine::Metrics { key: "cycle", at, doc }) => Some((at, doc)),
                Some(WorkerLine::Metrics { .. }) => panic!("a run counts cycles: {line}"),
                _ => None,
            })
            .collect()
    };
    let (bare, rendered) = (metrics(&unwatched), metrics(&watched));
    assert!(bare.len() >= 10, "one line per checkpoint: {}", bare.len());
    for (at, doc) in &bare {
        assert_eq!(*doc, None, "unwatched, cycle {at}");
    }
    // The same checkpoints, now with their documents.
    let at = |lines: &[(u64, Option<String>)]| lines.iter().map(|l| l.0).collect::<Vec<_>>();
    assert_eq!(at(&bare), at(&rendered));
    let docs: Vec<bool> = rendered.iter().map(|(_, doc)| doc.is_some()).collect();
    let first = docs.iter().position(|&d| d).expect("a watched worker renders snapshots");
    assert!(docs[first..].iter().all(|&d| d), "{docs:?}");
    let doc = json::parse(rendered[first].1.as_deref().unwrap()).expect("a JSON document");
    assert_eq!(doc["schema"].as_str(), Some("mempool-metrics-v2"));

    let result = |lines: &[String]| {
        let results: Vec<&String> = lines.iter().filter(|l| l.starts_with("result ")).collect();
        assert_eq!(results.len(), 1, "{lines:?}");
        results[0].clone()
    };
    assert_eq!(result(&unwatched), result(&watched));
    assert!(result(&watched).contains("mempool-metrics-v2"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A `watch` opened on a running job turns its worker's snapshots on: its
/// stream stays gapless and carries documents from the worker's next
/// checkpoint on.
#[test]
fn a_watch_subscribing_mid_job_gets_documents_from_the_next_checkpoint_on() {
    let dir = scratch("mid-watch");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);
    let job = client
        .submit("telem", 0, None, &metered_loop(4, 1024))
        .expect("job admitted");
    wait_for_heartbeat(&client, job);

    let mut records: Vec<Fields> = Vec::new();
    let done = client
        .watch(job, &mut |_, fields| records.push(fields.clone()))
        .expect("watch reaches the terminal record");
    assert_eq!(done["status"], "completed");
    assert_gapless(&records);
    let docs = partial_documents(&records);
    assert!(docs.contains(&true), "no document after subscribing: {docs:?}");

    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
}

/// A `tail` attached while a job runs takes its partials too: the worker
/// is told at once, so the tail sees documents for a job it never
/// subscribed to by name.
#[test]
fn a_tail_attached_mid_job_turns_partials_on_for_running_workers() {
    let dir = scratch("mid-tail");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);
    let job = client
        .submit("telem", 0, None, &metered_loop(4, 1024))
        .expect("job admitted");
    wait_for_heartbeat(&client, job);

    let records: Arc<Mutex<Vec<Fields>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&records);
    let tail_socket = socket.clone();
    let tailer = std::thread::spawn(move || {
        let client = ServeClient::connect(&tail_socket);
        client.tail(&mut |_, fields| sink.lock().unwrap().push(fields.clone()))
    });
    let done = client.wait(job, &mut |_| {}).expect("job finishes");
    assert_eq!(done["status"], "completed");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
    tailer.join().expect("tailer thread").expect("tail ends on drain");

    let records = records.lock().unwrap();
    assert_gapless(&records);
    let docs = partial_documents(&records);
    assert!(docs.contains(&true), "the tail never got a document: {docs:?}");
}

/// Runs the built `mempool-cli` on `socket` and returns its stdout; it must
/// exit 0.
fn cli(socket: &Path, args: &[&str]) -> String {
    let output = Command::new(CLI_BIN)
        .arg("--socket")
        .arg(socket)
        .args(args)
        .output()
        .expect("cli runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    assert!(
        output.status.success(),
        "mempool-cli {args:?}: {}\nstdout: {stdout}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The `mempool-cli` subcommands a user watches a job with, end to end on
/// a ≈ 786 000-cycle metered job checkpointing every 1024 cycles: a watch
/// stream of ≈ 1 500 records, half of them carrying a ≈ 74 KB snapshot,
/// must leave the daemon's peak resident set under 16 MiB, and the watched
/// job's final document and digest must be its unwatched twin's. Twenty
/// times the simulated work of the other tests, so it runs in release
/// builds only (CI's telemetry step).
#[test]
#[cfg_attr(debug_assertions, ignore = "a 786k-cycle job; run with --release")]
fn mempool_cli_watches_a_long_metered_job_on_a_small_daemon() {
    let dir = scratch("cli-long");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    connect(&socket);
    let JobSpec::Run(spec) = metered_loop(64, 1024) else { unreachable!() };
    let program = dir.join("telem.s");
    std::fs::write(&program, &spec.program).expect("program");
    let out = artifacts();
    let path = |p: &Path| p.to_str().expect("UTF-8 path").to_owned();
    let (unwatched_doc, watched_doc) = (dir.join("unwatched.json"), dir.join("watched.json"));
    let submit = |more: &[&str]| {
        let mut args = vec!["submit", "run", "--small", "--max-cycles", "4000000"];
        args.extend(["--checkpoint-every", "1024", "--metrics"]);
        let program = path(&program);
        args.push(&program);
        args.extend(more);
        cli(&socket, &args)
    };

    // The unwatched reference job (id 0), then its watched twin (id 1).
    let unwatched = submit(&["--wait", "--out", &path(&unwatched_doc)]);
    assert!(submit(&[]).starts_with("job 1 submitted"));
    let stream = cli(&socket, &["watch", "1"]);
    std::fs::write(out.join("stream.jsonl"), &stream).expect("stream.jsonl");
    let watched = cli(&socket, &["wait", "1", "--out", &path(&watched_doc)]);
    assert!(cli(&socket, &["status", "1"]).contains("completed"));
    let serve_metrics = cli(&socket, &["health", "--metrics"]);
    std::fs::write(out.join("serve-metrics.json"), &serve_metrics).expect("serve-metrics.json");
    let timeline = out.join("job-timeline.json");
    cli(&socket, &["timeline", "1", "--out", &path(&timeline)]);

    // Results live in the journal, not in the daemon: two ≈ 80 KB
    // documents, the watch stream and the late reads above leave its peak
    // resident set where an idle daemon's is (≈ 5 MB).
    let hwm = vm_hwm_kb(child.id());
    println!("daemon VmHWM: {hwm} kB");
    assert!(hwm <= 16 * 1024, "daemon peak RSS {hwm} kB exceeds 16384 kB");
    cli(&socket, &["shutdown"]);
    assert!(wait_exit(&mut child, "daemon").success());

    // Watching must not perturb results.
    let doc = |p: &Path| std::fs::read(p).expect("a written document");
    assert!(doc(&unwatched_doc) == doc(&watched_doc), "final metrics documents differ");
    let digest = |text: &str| {
        let line = text.lines().find(|l| l.starts_with("state_digest: "));
        line.expect("a state_digest line").to_owned()
    };
    assert_eq!(digest(&unwatched), digest(&watched));

    // What was written is what the schemas say.
    let records: Vec<Fields> = stream
        .lines()
        .map(|raw| {
            let fields = json::parse_flat_json(raw).unwrap_or_else(|| panic!("not JSON: {raw}"));
            assert_envelope(&fields, 1, raw);
            fields
        })
        .collect();
    assert_gapless(&records);
    assert!(records.len() >= 1_400, "a ≈ 1 500-record stream: {}", records.len());
    let docs = partial_documents(&records);
    assert!(docs.iter().filter(|&&d| d).count() >= 700, "{docs:?}");
    let serve_metrics = json::parse(&serve_metrics).expect("self-metrics JSON");
    assert_eq!(serve_metrics["schema"].as_str(), Some("mempool-serve-metrics-v2"));
    let timeline = std::fs::read_to_string(&timeline).expect("the written timeline");
    let timeline = json::parse(&timeline).expect("timeline JSON");
    assert_eq!(timeline["otherData"]["schema"].as_str(), Some("mempool-job-timeline-v1"));
    assert_eq!(timeline["otherData"]["job"].as_u64(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}
