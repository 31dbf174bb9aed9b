//! The `mempool-job-v1` JSON-lines protocol: requests, job specs, the one
//! `{"ok":...}` response line each request gets, and the [`STREAM_SCHEMA`]
//! records that follow it on a subscription (`wait`, `watch`, `tail`).
//!
//! Every message is one flat JSON object per line (string / number / bool /
//! null values only), encoded and decoded with the shared codec in
//! [`mempool_traffic`] (`json_escape` / `parse_flat_json`) so the daemon,
//! its workers, and external clients all speak byte-for-byte the same
//! dialect. Nested documents (a metrics registry, a campaign report) travel
//! as escaped string fields.

use mempool_traffic::{json_escape, parse_config_spec, parse_flat_json, Pattern};
use std::collections::BTreeMap;
use std::fmt;

/// A `campaign` job: a resumable fault-injection campaign (manifest plus
/// trial checkpoints), executed trial by trial in the worker.
pub use mempool_traffic::CampaignSpec;

/// Protocol tag clients should expect in the health document.
pub const PROTOCOL_VERSION: &str = "mempool-job-v1";

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
    /// `mempool-metrics-v1` document with the result.
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
            JobSpec::Campaign(spec) => {
                parse_config_spec(&spec.config_spec)?;
                spec.faults
                    .parse::<mempool::FaultSpec>()
                    .map_err(|e| format!("bad fault spec `{}`: {e}", spec.faults))?;
                Pattern::parse_spec(&spec.pattern)
                    .ok_or_else(|| format!("bad pattern spec `{}`", spec.pattern))?;
                if spec.trials == 0 {
                    return Err("trials must be nonzero".to_owned());
                }
                if spec.measure == 0 {
                    return Err("measure window must be nonzero".to_owned());
                }
                if !(spec.load > 0.0 && spec.load <= 1.0) {
                    return Err(format!("load {} out of (0, 1]", spec.load));
                }
                if spec.checkpoint_every == 0 {
                    return Err("checkpoint_every must be nonzero".to_owned());
                }
                Ok(())
            }
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

    /// Renders the spec as JSON body fields (no surrounding braces), the
    /// form embedded in submit requests, journal lines, and worker jobs.
    pub fn to_json_body(&self) -> String {
        match self {
            JobSpec::Run(spec) => format!(
                "\"kind\":\"run\",\"config_spec\":\"{}\",\"program\":\"{}\",\
                 \"max_cycles\":{},\"checkpoint_every\":{},\"metrics\":{}",
                json_escape(&spec.config_spec),
                json_escape(&spec.program),
                spec.max_cycles,
                spec.checkpoint_every,
                spec.metrics,
            ),
            JobSpec::Campaign(spec) => spec.to_json_body(),
            JobSpec::Bench(spec) => format!(
                "\"kind\":\"bench\",\"cycles\":{},\"warmup\":{},\"cores\":\"{}\"",
                spec.cycles,
                spec.warmup,
                render_usize_list(&spec.cores),
            ),
        }
    }

    /// Reconstructs a spec from parsed flat-JSON fields.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn from_fields(fields: &BTreeMap<String, String>) -> Result<JobSpec, String> {
        let get = |k: &str| {
            fields
                .get(k)
                .ok_or_else(|| format!("missing job field `{k}`"))
        };
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("non-numeric job field `{k}`"))
        };
        match get("kind")?.as_str() {
            "run" => Ok(JobSpec::Run(RunSpec {
                config_spec: get("config_spec")?.clone(),
                program: get("program")?.clone(),
                max_cycles: num("max_cycles")?,
                checkpoint_every: num("checkpoint_every")?,
                metrics: get("metrics")? == "true",
            })),
            "campaign" => CampaignSpec::from_fields(fields).map(JobSpec::Campaign),
            "bench" => Ok(JobSpec::Bench(BenchSpec {
                cycles: num("cycles")?,
                warmup: num("warmup")?,
                cores: parse_usize_list(get("cores")?)?,
            })),
            other => Err(format!("unknown job kind `{other}`")),
        }
    }
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
    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
        )
    }

    /// Parses the wire word.
    pub fn parse(s: &str) -> Option<JobStatus> {
        Some(match s {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "parked" => JobStatus::Parked,
            "completed" => JobStatus::Completed,
            "failed" => JobStatus::Failed,
            "cancelled" => JobStatus::Cancelled,
            _ => return None,
        })
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Parked => "parked",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        })
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
        match self {
            Request::Submit {
                tenant,
                priority,
                deadline_secs,
                spec,
            } => format!(
                "{{\"op\":\"submit\",\"tenant\":\"{}\",\"priority\":{},\
                 \"deadline_secs\":{},{}}}",
                json_escape(tenant),
                priority,
                deadline_secs.map_or_else(|| "null".to_owned(), |d| d.to_string()),
                spec.to_json_body(),
            ),
            Request::Status { job } => format!("{{\"op\":\"status\",\"job\":{job}}}"),
            Request::Health => "{\"op\":\"health\"}".to_owned(),
            Request::Cancel { job } => format!("{{\"op\":\"cancel\",\"job\":{job}}}"),
            Request::Wait { job } => format!("{{\"op\":\"wait\",\"job\":{job}}}"),
            Request::Watch { job } => format!("{{\"op\":\"watch\",\"job\":{job}}}"),
            Request::Tail => "{\"op\":\"tail\"}".to_owned(),
            Request::Metrics => "{\"op\":\"metrics\"}".to_owned(),
            Request::Timeline { job } => format!("{{\"op\":\"timeline\",\"job\":{job}}}"),
            Request::Shutdown => "{\"op\":\"shutdown\"}".to_owned(),
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing field.
    pub fn from_json(line: &str) -> Result<Request, String> {
        let fields = parse_flat_json(line).ok_or_else(|| "malformed request JSON".to_owned())?;
        let job = |fields: &BTreeMap<String, String>| -> Result<u64, String> {
            fields
                .get("job")
                .ok_or_else(|| "missing request field `job`".to_owned())?
                .parse()
                .map_err(|_| "non-numeric request field `job`".to_owned())
        };
        match fields
            .get("op")
            .ok_or_else(|| "missing request field `op`".to_owned())?
            .as_str()
        {
            "submit" => {
                let tenant = fields
                    .get("tenant")
                    .ok_or_else(|| "missing request field `tenant`".to_owned())?
                    .clone();
                if tenant.is_empty() {
                    return Err("tenant must be nonempty".to_owned());
                }
                let priority = fields
                    .get("priority")
                    .map_or(Ok(0), |p| {
                        p.parse()
                            .map_err(|_| "non-numeric request field `priority`".to_owned())
                    })?;
                let deadline_secs = match fields.get("deadline_secs").map(String::as_str) {
                    None | Some("null") => None,
                    Some(v) => Some(
                        v.parse()
                            .map_err(|_| "non-numeric request field `deadline_secs`".to_owned())?,
                    ),
                };
                Ok(Request::Submit {
                    tenant,
                    priority,
                    deadline_secs,
                    spec: JobSpec::from_fields(&fields)?,
                })
            }
            "status" => Ok(Request::Status { job: job(&fields)? }),
            "health" => Ok(Request::Health),
            "cancel" => Ok(Request::Cancel { job: job(&fields)? }),
            "wait" => Ok(Request::Wait { job: job(&fields)? }),
            "watch" => Ok(Request::Watch { job: job(&fields)? }),
            "tail" => Ok(Request::Tail),
            "metrics" => Ok(Request::Metrics),
            "timeline" => Ok(Request::Timeline { job: job(&fields)? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Appends `,"key":value` per field; a value may be a 100 KB document, so it
/// is written in place rather than through a temporary.
fn push_fields(out: &mut String, extra: &[(&str, String)]) {
    use fmt::Write;
    for (k, v) in extra {
        let _ = write!(out, ",\"{k}\":{v}");
    }
}

/// Builds an `{"ok":true,...}` response line from extra fields (values
/// must already be valid JSON tokens — quote and escape strings first).
pub fn resp_ok(extra: &[(&str, String)]) -> String {
    let mut out = String::from("{\"ok\":true");
    push_fields(&mut out, extra);
    out.push('}');
    out
}

/// Builds a typed `{"ok":false,"error":...}` rejection line. `kind` is the
/// machine-readable class (`overloaded`, `quota`, `invalid`, `unknown-job`,
/// `draining`, `result-unavailable`); `detail` is human-readable.
pub fn resp_err(kind: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
        json_escape(kind),
        json_escape(detail)
    )
}

/// Quotes and escapes a string into a JSON string token (for
/// [`resp_ok`] / [`stream_record`] values).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Builds one [`STREAM_SCHEMA`] record line. `seq` is the job's monotonic
/// record counter (the daemon advances it for every record whether or not
/// anyone is subscribed, so observation never changes the numbering);
/// `attempt` is the worker attempt the record belongs to; `kind` is the
/// record class (`state`, `heartbeat`, `partial`, `attempt-failed`,
/// `retry-backoff`, `done`); `is_final` marks the terminal record, whose
/// `result` extra carries the end-of-job document byte-identical to what
/// `status` reports. Extra values must already be valid JSON tokens.
pub fn stream_record(
    job: u64,
    seq: u64,
    attempt: u32,
    kind: &str,
    is_final: bool,
    extra: &[(&str, String)],
) -> String {
    let mut out = format!(
        "{{\"stream\":\"{STREAM_SCHEMA}\",\"job\":{job},\"seq\":{seq},\
         \"attempt\":{attempt},\"kind\":\"{}\"",
        json_escape(kind)
    );
    push_fields(&mut out, extra);
    out.push_str(&format!(",\"final\":{is_final}}}"));
    out
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
        let fields = parse_flat_json(old).expect("flat JSON");
        let spec = JobSpec::from_fields(&fields).expect("old journal line parses");
        assert_eq!(
            spec,
            JobSpec::Bench(BenchSpec {
                cycles: 300,
                warmup: 50,
                cores: vec![16, 64],
            })
        );
        assert!(!spec.to_json_body().contains("workers"));
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
        let rec = stream_record(
            7,
            3,
            2,
            "partial",
            false,
            &[("cycle", "2048".to_owned()), ("metrics", json_str("{\"a\":1}"))],
        );
        let fields = parse_flat_json(&rec).expect("stream record is flat JSON");
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

        let done = stream_record(7, 9, 2, "done", true, &[("result", json_str("{}"))]);
        assert_eq!(
            parse_flat_json(&done)
                .expect("flat")
                .get("final")
                .map(String::as_str),
            Some("true")
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
