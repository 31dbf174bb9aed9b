//! The `mempool-job-v1` JSON-lines protocol: requests, job specs, the one
//! `{"ok":...}` response line each request gets, and the [`STREAM_SCHEMA`]
//! records that follow it on a subscription (`wait`, `watch`, `tail`).
//!
//! Every message is one flat JSON object per line (string / number / bool /
//! null values only), written and read with the suite's one codec,
//! [`mempool::json`], so the daemon, its workers, and external clients all
//! speak byte-for-byte the same dialect. Its reader is strict: a line with
//! trailing garbage or a nested value is malformed, and every field is read
//! as its type. Nested documents (a metrics registry, a campaign report)
//! travel as escaped string fields.

use mempool::json::{self, Fields, Layout, Obj};
use mempool_traffic::parse_config_spec;
use std::fmt;

/// A `campaign` job: a resumable fault-injection campaign (manifest plus
/// trial checkpoints), executed trial by trial in the worker.
pub use mempool_traffic::CampaignSpec;

/// Protocol tag clients should expect in the health document.
pub const PROTOCOL_VERSION: &str = "mempool-job-v1";

/// The longest request line the daemon reads, line break excluded. A
/// longer one is answered with the typed `invalid` error, and its
/// connection is closed.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Schema tag of the per-job telemetry stream relayed by the `wait`,
/// `watch` and `tail` verbs: JSON-lines, one [`stream_record`] per line,
/// monotonic per-job sequence numbers, terminated (per job) by a
/// `final: true` record whose `result` field is byte-identical to the
/// end-of-job document.
pub const STREAM_SCHEMA: &str = "mempool-job-stream-v1";

/// Schema tag of the daemon self-metrics document returned by the
/// `metrics` verb (see `ServeMetrics`). Its job-latency and queue-wait
/// histograms are in milliseconds.
pub const SERVE_METRICS_SCHEMA: &str = "mempool-serve-metrics-v2";

/// Schema tag embedded in the `otherData` of the per-job Chrome
/// `trace_event` timeline returned by the `timeline` verb.
pub const TIMELINE_SCHEMA: &str = "mempool-job-timeline-v1";

/// A `run` job: one assembled program executed to completion on a chosen
/// cluster configuration, checkpoint-parked at chunk boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Opaque cluster-config spec (see [`mempool_traffic::parse_config_spec`]).
    pub config_spec: String,
    /// RISC-V assembly source of the program to run.
    pub program: String,
    /// Absolute cycle budget: the program must halt within this many
    /// cycles from reset (resume-safe — the count survives parking).
    pub max_cycles: u64,
    /// Checkpoint/park granularity in cycles (also the heartbeat cadence).
    pub checkpoint_every: u64,
    /// Attach the observability recorder and return the
    /// `mempool-metrics-v2` document with the result.
    pub metrics: bool,
}

/// A `bench` job: the simulator-throughput matrix, one point per
/// (topology, size).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSpec {
    /// Measured cycles per point.
    pub cycles: u64,
    /// Warm-up cycles before the timed window.
    pub warmup: u64,
    /// Cluster sizes to measure (subset of {16, 64, 256} cores).
    pub cores: Vec<usize>,
}

/// One submitted job's payload, by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Execute one program (see [`RunSpec`]).
    Run(RunSpec),
    /// Execute a fault campaign (see [`CampaignSpec`]).
    Campaign(CampaignSpec),
    /// Execute the bench matrix (see [`BenchSpec`]).
    Bench(BenchSpec),
}

fn parse_usize_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad list entry `{p}`"))
        })
        .collect()
}

fn render_usize_list(list: &[usize]) -> String {
    list.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

impl JobSpec {
    /// The job kind's wire word (`run` / `campaign` / `bench`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Run(_) => "run",
            JobSpec::Campaign(_) => "campaign",
            JobSpec::Bench(_) => "bench",
        }
    }

    /// Validates the spec without running anything: config specs parse,
    /// the program assembles, pattern and fault specs parse, and every
    /// numeric knob is in range. Admission-time validation keeps
    /// deterministic garbage out of the retry machinery.
    ///
    /// # Errors
    ///
    /// A description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            JobSpec::Run(spec) => {
                parse_config_spec(&spec.config_spec)?;
                mempool_riscv::assemble(&spec.program)
                    .map_err(|e| format!("program does not assemble: {e}"))?;
                if spec.max_cycles == 0 {
                    return Err("max_cycles must be nonzero".to_owned());
                }
                if spec.checkpoint_every == 0 {
                    return Err("checkpoint_every must be nonzero".to_owned());
                }
                Ok(())
            }
            JobSpec::Campaign(spec) => spec.campaign().map(drop),
            JobSpec::Bench(spec) => {
                if spec.cycles == 0 {
                    return Err("cycles must be nonzero".to_owned());
                }
                if spec.cores.is_empty() {
                    return Err("cores list must be nonempty".to_owned());
                }
                for &c in &spec.cores {
                    if !matches!(c, 16 | 64 | 256) {
                        return Err(format!("unsupported bench size: {c} cores (16/64/256)"));
                    }
                }
                Ok(())
            }
        }
    }

    /// Writes the spec's fields, `kind` first: the part of a submit
    /// request, a journal `job` line and a worker's job document that
    /// describes the job.
    pub fn write_fields<'a>(&self, o: Obj<'a>) -> Obj<'a> {
        match self {
            JobSpec::Run(spec) => o
                .str("kind", "run")
                .str("config_spec", &spec.config_spec)
                .str("program", &spec.program)
                .num("max_cycles", spec.max_cycles)
                .num("checkpoint_every", spec.checkpoint_every)
                .bool("metrics", spec.metrics),
            JobSpec::Campaign(spec) => spec.write_fields(o),
            JobSpec::Bench(spec) => o
                .str("kind", "bench")
                .num("cycles", spec.cycles)
                .num("warmup", spec.warmup)
                .str("cores", &render_usize_list(&spec.cores)),
        }
    }

    /// Reads a spec back from a line's fields.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_fields(fields: &Fields) -> Result<JobSpec, String> {
        match fields.str("kind")? {
            "run" => Ok(JobSpec::Run(RunSpec {
                config_spec: fields.str("config_spec")?.to_owned(),
                program: fields.str("program")?.to_owned(),
                max_cycles: fields.int("max_cycles")?,
                checkpoint_every: fields.int("checkpoint_every")?,
                metrics: fields.bool("metrics")?,
            })),
            "campaign" => CampaignSpec::from_fields(fields).map(JobSpec::Campaign),
            "bench" => Ok(JobSpec::Bench(BenchSpec {
                cycles: fields.int("cycles")?,
                warmup: fields.int("warmup")?,
                cores: parse_usize_list(fields.str("cores")?)?,
            })),
            other => Err(format!("unknown job kind `{other}`")),
        }
    }
}

/// What a submission carries besides its spec: tenant, priority, deadline.
pub(crate) type Submission = (String, u8, Option<u64>, JobSpec);

/// Writes the header every accepted job carries — in a submit request
/// after its `op`, and as the journal's `job` line — followed by the spec's
/// fields. [`read_submission`] reads both back.
pub(crate) fn write_submission<'a>(
    o: Obj<'a>,
    tenant: &str,
    priority: u8,
    deadline_secs: Option<u64>,
    spec: &JobSpec,
) -> Obj<'a> {
    spec.write_fields(
        o.str("tenant", tenant)
            .num("priority", priority)
            .opt_num("deadline_secs", deadline_secs),
    )
}

/// Reads [`write_submission`]'s fields. A missing priority is 0, a missing
/// or `null` deadline is none.
pub(crate) fn read_submission(fields: &Fields) -> Result<Submission, String> {
    let tenant = fields.str("tenant")?;
    if tenant.is_empty() {
        return Err("tenant must be nonempty".to_owned());
    }
    let priority = fields.opt_int("priority")?.unwrap_or(0);
    let deadline_secs = fields.opt_int("deadline_secs")?;
    Ok((
        tenant.to_owned(),
        priority,
        deadline_secs,
        JobSpec::from_fields(fields)?,
    ))
}

/// A job's lifecycle state, as reported by `status` and journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobStatus {
    /// Admitted and waiting for a worker slot (includes backoff waits
    /// between retry attempts).
    Queued,
    /// A worker process is executing the job.
    Running,
    /// Checkpoint-parked by a drain; a restarted daemon resumes it.
    Parked,
    /// Finished with a result payload.
    Completed,
    /// Gave up after the retry policy was exhausted.
    Failed,
    /// Cancelled by a client.
    Cancelled,
}

impl JobStatus {
    /// Every status with its wire word, in declaration order (`Display`
    /// indexes it by discriminant).
    pub const WORDS: [(JobStatus, &'static str); 6] = [
        (JobStatus::Queued, "queued"),
        (JobStatus::Running, "running"),
        (JobStatus::Parked, "parked"),
        (JobStatus::Completed, "completed"),
        (JobStatus::Failed, "failed"),
        (JobStatus::Cancelled, "cancelled"),
    ];

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
        )
    }

    /// Parses the wire word.
    pub fn parse(s: &str) -> Option<JobStatus> {
        JobStatus::WORDS
            .iter()
            .find(|(_, word)| *word == s)
            .map(|&(status, _)| status)
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(JobStatus::WORDS[*self as usize].1)
    }
}

/// One client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for execution.
    Submit {
        /// Tenant the job is charged to.
        tenant: String,
        /// Priority class (higher dispatches first).
        priority: u8,
        /// Per-attempt wall-clock deadline in seconds (`None` = daemon
        /// default).
        deadline_secs: Option<u64>,
        /// The job payload.
        spec: JobSpec,
    },
    /// Query one job's state.
    Status {
        /// Job id.
        job: u64,
    },
    /// Query daemon health (queue depths, journal recovery counters).
    Health,
    /// Cancel a queued or running job.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// [`Request::Watch`] without the `partial` records. Both are answered
    /// by `{"ok":true,"job":N,"status":...}`, then the records follow.
    Wait {
        /// Job id.
        job: u64,
    },
    /// Subscribe to a job's telemetry stream ([`STREAM_SCHEMA`]): state
    /// transitions, heartbeats, partial metrics documents, retry events,
    /// and a terminal `final: true` record.
    Watch {
        /// Job id.
        job: u64,
    },
    /// Subscribe to the telemetry streams of *all* jobs until the
    /// connection closes.
    Tail,
    /// Fetch the daemon self-metrics document ([`SERVE_METRICS_SCHEMA`]).
    Metrics,
    /// Fetch one job's Chrome `trace_event` timeline
    /// ([`TIMELINE_SCHEMA`]).
    Timeline {
        /// Job id.
        job: u64,
    },
    /// Ask the daemon to drain: park in-flight jobs and exit.
    Shutdown,
}

impl Request {
    /// Renders the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let (op, job) = match *self {
            Request::Submit { .. } => ("submit", None),
            Request::Status { job } => ("status", Some(job)),
            Request::Health => ("health", None),
            Request::Cancel { job } => ("cancel", Some(job)),
            Request::Wait { job } => ("wait", Some(job)),
            Request::Watch { job } => ("watch", Some(job)),
            Request::Tail => ("tail", None),
            Request::Metrics => ("metrics", None),
            Request::Timeline { job } => ("timeline", Some(job)),
            Request::Shutdown => ("shutdown", None),
        };
        json::object(Layout::Compact, |o| {
            let o = match job {
                Some(job) => o.str("op", op).num("job", job),
                None => o.str("op", op),
            };
            match self {
                Request::Submit {
                    tenant,
                    priority,
                    deadline_secs,
                    spec,
                } => write_submission(o, tenant, *priority, *deadline_secs, spec),
                _ => o,
            }
        })
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// `malformed request JSON` for a line that is not one flat JSON
    /// object, else a description of the first missing or mistyped field.
    pub fn from_json(line: &str) -> Result<Request, String> {
        let fields = Fields::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
        let job = || fields.int("job");
        Ok(match fields.str("op")? {
            "submit" => {
                let (tenant, priority, deadline_secs, spec) = read_submission(&fields)?;
                Request::Submit {
                    tenant,
                    priority,
                    deadline_secs,
                    spec,
                }
            }
            "status" => Request::Status { job: job()? },
            "health" => Request::Health,
            "cancel" => Request::Cancel { job: job()? },
            "wait" => Request::Wait { job: job()? },
            "watch" => Request::Watch { job: job()? },
            "tail" => Request::Tail,
            "metrics" => Request::Metrics,
            "timeline" => Request::Timeline { job: job()? },
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown op `{other}`")),
        })
    }
}

/// Builds an `{"ok":true,...}` response line; `fields` writes the members
/// after `ok`.
pub fn resp_ok(fields: impl FnOnce(Obj) -> Obj) -> String {
    json::object(Layout::Compact, |o| fields(o.bool("ok", true)))
}

/// Builds a typed `{"ok":false,"error":...}` rejection line. `kind` is the
/// machine-readable class (`overloaded`, `quota`, `invalid`, `unknown-job`,
/// `draining`, `result-unavailable`); `detail` is human-readable.
pub fn resp_err(kind: &str, detail: &str) -> String {
    json::object(Layout::Compact, |o| {
        o.bool("ok", false).str("error", kind).str("detail", detail)
    })
}

/// Builds one [`STREAM_SCHEMA`] record line. `seq` is the job's monotonic
/// record counter (the daemon advances it for every record whether or not
/// anyone is subscribed, so observation never changes the numbering);
/// `attempt` is the worker attempt the record belongs to; `kind` is the
/// record class (`state`, `heartbeat`, `partial`, `attempt-failed`,
/// `retry-backoff`, `done`); `extra` writes the record's own fields;
/// `is_final` marks the terminal record, whose `result` field carries the
/// end-of-job document byte-identical to what `status` reports.
pub fn stream_record(
    job: u64,
    seq: u64,
    attempt: u32,
    kind: &str,
    is_final: bool,
    extra: impl FnOnce(Obj) -> Obj,
) -> String {
    json::object(Layout::Compact, |o| {
        let o = o
            .str("stream", STREAM_SCHEMA)
            .num("job", job)
            .num("seq", seq);
        extra(o.num("attempt", attempt).str("kind", kind)).bool("final", is_final)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_spec() -> JobSpec {
        JobSpec::Run(RunSpec {
            config_spec: "topology=top1,small=true,scramble=false".to_owned(),
            program: "csrr a0, mhartid\necall\n".to_owned(),
            max_cycles: 10_000,
            checkpoint_every: 512,
            metrics: true,
        })
    }

    #[test]
    fn submit_round_trips_for_every_kind() {
        let specs = [
            run_spec(),
            JobSpec::Campaign(CampaignSpec {
                config_spec: "topology=topH,small=true,scramble=true".to_owned(),
                faults: "bank_fail=1,link_drop=0.001".to_owned(),
                trials: 3,
                load: 0.05,
                pattern: "uniform".to_owned(),
                warmup: 100,
                measure: 400,
                drain: 10_000,
                seed: 7,
                checkpoint_every: 256,
                cycle_budget: Some(1_000_000),
            }),
            JobSpec::Bench(BenchSpec {
                cycles: 300,
                warmup: 50,
                cores: vec![16, 64],
            }),
        ];
        for spec in specs {
            let req = Request::Submit {
                tenant: "team-a".to_owned(),
                priority: 3,
                deadline_secs: Some(60),
                spec: spec.clone(),
            };
            let round = Request::from_json(&req.to_json()).expect("round trip");
            assert_eq!(round, req, "{}", req.to_json());
        }
    }

    /// A daemon restarted on this build replays journals written by the
    /// previous one, whose bench lines still carry a `workers` list: the
    /// flat reader ignores the unknown key.
    #[test]
    fn bench_lines_with_the_retired_workers_key_still_parse() {
        let old = "{\"kind\":\"bench\",\"cycles\":300,\"warmup\":50,\
                   \"cores\":\"16,64\",\"workers\":\"2\"}";
        let fields = Fields::parse(old).expect("flat JSON");
        let spec = JobSpec::from_fields(&fields).expect("old journal line parses");
        assert_eq!(
            spec,
            JobSpec::Bench(BenchSpec {
                cycles: 300,
                warmup: 50,
                cores: vec![16, 64],
            })
        );
        let rendered = json::object(Layout::Compact, |o| spec.write_fields(o));
        assert!(!rendered.contains("workers"));
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Status { job: 17 },
            Request::Health,
            Request::Cancel { job: 0 },
            Request::Wait { job: 99 },
            Request::Watch { job: 4 },
            Request::Tail,
            Request::Metrics,
            Request::Timeline { job: 12 },
            Request::Shutdown,
        ] {
            assert_eq!(Request::from_json(&req.to_json()), Ok(req));
        }
        assert!(Request::from_json("garbage").is_err());
        assert!(Request::from_json("{\"op\":\"nope\"}").is_err());
        assert!(Request::from_json("{\"op\":\"status\"}").is_err(), "job required");
    }

    #[test]
    fn validation_rejects_deterministic_garbage() {
        assert!(run_spec().validate().is_ok());
        let JobSpec::Run(mut bad) = run_spec() else {
            unreachable!()
        };
        bad.program = "not a riscv instruction".to_owned();
        assert!(JobSpec::Run(bad.clone()).validate().is_err());
        bad.program = "ecall\n".to_owned();
        bad.config_spec = "topology=weird".to_owned();
        assert!(JobSpec::Run(bad).validate().is_err());
        let bench = JobSpec::Bench(BenchSpec {
            cycles: 100,
            warmup: 0,
            cores: vec![12],
        });
        assert!(bench.validate().is_err(), "12 cores unsupported");
    }

    #[test]
    fn stream_records_are_flat_json_with_stable_field_order() {
        let rec = stream_record(7, 3, 2, "partial", false, |o| {
            o.num("cycle", 2048).str("metrics", "{\"a\":1}")
        });
        let fields = json::parse_flat_json(&rec).expect("stream record is flat JSON");
        assert_eq!(fields.get("stream").map(String::as_str), Some(STREAM_SCHEMA));
        assert_eq!(fields.get("job").map(String::as_str), Some("7"));
        assert_eq!(fields.get("seq").map(String::as_str), Some("3"));
        assert_eq!(fields.get("attempt").map(String::as_str), Some("2"));
        assert_eq!(fields.get("kind").map(String::as_str), Some("partial"));
        assert_eq!(fields.get("final").map(String::as_str), Some("false"));
        assert_eq!(fields.get("metrics").map(String::as_str), Some("{\"a\":1}"));
        // Field order is part of the byte-stability contract.
        assert!(rec.starts_with(
            "{\"stream\":\"mempool-job-stream-v1\",\"job\":7,\"seq\":3,\"attempt\":2,\"kind\":\"partial\""
        ));
        assert!(rec.ends_with(",\"final\":false}"));

        let done = stream_record(7, 9, 2, "done", true, |o| o.str("result", "{}"));
        assert_eq!(Fields::parse(&done).expect("flat").bool("final"), Ok(true));
    }

    /// A line is one flat object and nothing else: what follows it, or a
    /// value nested in it, makes it malformed rather than half-read.
    #[test]
    fn requests_with_trailing_garbage_or_nested_values_are_malformed() {
        for line in [
            "{\"op\":\"shutdown\" xyz}",
            "{\"op\":\"shutdown\"} {\"op\":\"health\"}",
            "{\"op\":\"health\",\"x\":{\"y\":1},\"z\":2}",
            "{\"op\":\"status\",\"job\":[1]}",
        ] {
            let err = Request::from_json(line).expect_err(line);
            assert!(err.starts_with("malformed request JSON"), "{line}: {err}");
        }
    }

    /// Python's default `json.dumps`: spaced separators, non-ASCII as
    /// `\u` surrogate pairs, a form feed as `\f`.
    #[test]
    fn python_json_dumps_submissions_parse() {
        let line = "{\"op\": \"submit\", \"tenant\": \"t\\ud83d\\ude00\", \"priority\": 0, \
                    \"deadline_secs\": null, \"kind\": \"run\", \
                    \"config_spec\": \"topology=top1,small=true,scramble=false\", \
                    \"program\": \"# page\\fbreak\\ncsrr a0, mhartid\\necall\\n\", \
                    \"max_cycles\": 10000, \"checkpoint_every\": 512, \"metrics\": true}";
        let Ok(Request::Submit {
            tenant,
            spec: JobSpec::Run(run),
            ..
        }) = Request::from_json(line)
        else {
            panic!("{:?}", Request::from_json(line));
        };
        assert_eq!(tenant, "t😀");
        assert_eq!(run.program, "# page\u{c}break\ncsrr a0, mhartid\necall\n");
        assert_eq!(run.max_cycles, 10_000);
    }

    /// Every field is read as its type: a count past `u32` is not one
    /// trial, and a boolean is `true` or `false`, not any other token.
    #[test]
    fn numbers_and_booleans_are_read_as_their_types() {
        let submit = Request::Submit {
            tenant: "a".to_owned(),
            priority: 1,
            deadline_secs: None,
            spec: run_spec(),
        }
        .to_json();
        for (from, to) in [
            ("\"metrics\":true", "\"metrics\":\"yes\""),
            ("\"metrics\":true", "\"metrics\":\"true\""),
            ("\"metrics\":true", "\"metrics\":1"),
            ("\"priority\":1", "\"priority\":256"),
            ("\"max_cycles\":10000", "\"max_cycles\":-1"),
            ("\"max_cycles\":10000", "\"max_cycles\":1e4"),
        ] {
            assert!(submit.contains(from), "{submit}");
            let line = submit.replace(from, to);
            assert!(Request::from_json(&line).is_err(), "{line}");
        }
        let campaign = Request::Submit {
            tenant: "a".to_owned(),
            priority: 1,
            deadline_secs: Some(5),
            spec: JobSpec::Campaign(CampaignSpec {
                config_spec: "topology=top1,small=true,scramble=true".to_owned(),
                faults: "bank_fail=1".to_owned(),
                trials: 4,
                load: 0.05,
                pattern: "uniform".to_owned(),
                warmup: 100,
                measure: 400,
                drain: 10_000,
                seed: 7,
                checkpoint_every: 256,
                cycle_budget: None,
            }),
        }
        .to_json();
        let overflow = campaign.replace("\"trials\":4,", "\"trials\":4294967297,");
        assert_ne!(overflow, campaign);
        assert_eq!(
            Request::from_json(&overflow),
            Err("field `trials` is not a u32".to_owned())
        );
    }

    #[test]
    fn status_words_round_trip() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Parked,
            JobStatus::Completed,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ] {
            assert_eq!(JobStatus::parse(&s.to_string()), Some(s));
            assert_eq!(
                s.is_terminal(),
                matches!(
                    s,
                    JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
                )
            );
        }
        assert_eq!(JobStatus::parse("nope"), None);
    }
}
