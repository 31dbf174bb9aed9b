//! Daemon self-metrics: the `mempool-serve-metrics-v2` registry.
//!
//! The simulator got its observability discipline in the core `Obs`
//! recorder; this module applies the same discipline to the service layer
//! itself. [`ServeMetrics`] accumulates monotonic counters at every
//! admission, rejection, retry, worker lifecycle edge, and journal event,
//! plus job-latency histograms reusing the core's fixed-bucket
//! [`LatencyStats`] type. The export is integer-only and emitted in a
//! deterministic field order, so two daemons that processed the same event
//! sequence render byte-identical documents — the same byte-stability
//! contract `mempool-metrics-v2` pins for simulation metrics.
//!
//! Point-in-time gauges (queue depth, per-tenant in-flight/quota) are not
//! stored here: the supervisor reads them from the [`Scheduler`] at export
//! time and passes them in as [`ServeGauges`], keeping this registry free
//! of any state that could drift from the scheduler's own accounting.
//!
//! [`Scheduler`]: crate::sched::Scheduler

use crate::protocol::{JobStatus, SERVE_METRICS_SCHEMA};
use mempool::json::{self, Layout};
use mempool::{HistogramSnapshot, LatencyStats};
use mempool_traffic::FailureKind;
use std::collections::BTreeMap;

/// The retry-class word a [`FailureKind`] is counted under (the kind minus
/// its payload: `signal(9)` and `signal(11)` both count as `signal`).
pub fn failure_class(kind: &FailureKind) -> &'static str {
    match kind {
        FailureKind::Panic => "panic",
        FailureKind::Signal(_) => "signal",
        FailureKind::Timeout => "timeout",
        FailureKind::Oom => "oom",
        FailureKind::Exit(_) => "exit",
        FailureKind::Sanitizer => "sanitizer",
    }
}

/// Point-in-time gauges sampled from the scheduler at export time.
#[derive(Debug, Clone, Default)]
pub struct ServeGauges {
    /// Jobs waiting for a worker slot.
    pub queue_depth: usize,
    /// Worker processes currently running.
    pub active_workers: usize,
    /// Configured worker-slot count.
    pub worker_slots: usize,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Journal lines appended since startup (sourced from the
    /// [`Journal`](crate::journal::Journal), which owns the count).
    pub journal_appends: u64,
    /// Per-tenant `(name, in_flight, quota)` utilization, in scheduler
    /// (sorted) order.
    pub tenants: Vec<(String, u32, u32)>,
}

/// A monotonic counter of the registry, in document order; it renders
/// under its name in [`Counter::NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// An admitted submission.
    JobsAdmitted,
    /// A job re-admitted from journal replay at startup.
    JobsReplayed,
    /// A job that completed.
    JobsCompleted,
    /// A job that failed for good.
    JobsFailed,
    /// A job a client cancelled.
    JobsCancelled,
    /// A job whose retry budget ran out.
    GiveUps,
    /// A spawned worker process.
    WorkersSpawned,
    /// A worker that exited with a completed result.
    WorkersCompleted,
    /// A worker that checkpoint-parked (drain or chunk boundary).
    WorkersParked,
    /// A worker attempt that failed.
    WorkersFailed,
    /// A worker killed for blowing its wall-clock deadline.
    DeadlineKills,
    /// A telemetry stream record (sequence-number advance).
    StreamRecords,
    /// A mid-job partial metrics snapshot relayed from a worker.
    PartialSnapshots,
    /// A journal line startup recovery skipped.
    JournalReplaySkipped,
}

impl Counter {
    /// The document name of each counter, indexed by it.
    pub const NAMES: [&'static str; 14] = [
        "jobs_admitted",
        "jobs_replayed",
        "jobs_completed",
        "jobs_failed",
        "jobs_cancelled",
        "give_ups",
        "workers_spawned",
        "workers_completed",
        "workers_parked",
        "workers_failed",
        "deadline_kills",
        "stream_records",
        "partial_snapshots",
        "journal_replay_skipped",
    ];
}

/// Monotonic self-metrics counters and histograms for one daemon process.
///
/// In-memory only: a restarted daemon starts from zero (journal replay
/// counts surface under `jobs_replayed` / `journal_replay_skipped`).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    counters: [u64; Counter::NAMES.len()],
    rejections: BTreeMap<&'static str, u64>,
    retries: BTreeMap<&'static str, u64>,
    job_latency_ms: LatencyStats,
    queue_wait_ms: LatencyStats,
}

impl ServeMetrics {
    /// An all-zero registry.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Counts one `counter` event.
    pub fn count(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Counts `n` `counter` events at once.
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter as usize] += n;
    }

    /// Counts a typed admission rejection (`overloaded`, `quota`,
    /// `invalid`, `draining`).
    pub fn rejection(&mut self, kind: &str) {
        // Typed kinds are a closed set; fold anything unexpected into one
        // bucket rather than growing the map unboundedly on garbage.
        let kind = match kind {
            "overloaded" => "overloaded",
            "quota" => "quota",
            "invalid" => "invalid",
            "draining" => "draining",
            "unknown-job" => "unknown-job",
            _ => "other",
        };
        *self.rejections.entry(kind).or_insert(0) += 1;
    }

    /// Counts a retry (re-queue after a failed attempt) by failure class.
    pub fn retry(&mut self, kind: &FailureKind) {
        *self.retries.entry(failure_class(kind)).or_insert(0) += 1;
    }

    /// Counts a job reaching a terminal state, with its submit-to-terminal
    /// wall latency in milliseconds.
    pub fn job_terminal(&mut self, status: JobStatus, latency_ms: u64) {
        let counter = match status {
            JobStatus::Completed => Counter::JobsCompleted,
            JobStatus::Failed => Counter::JobsFailed,
            JobStatus::Cancelled => Counter::JobsCancelled,
            _ => return,
        };
        self.count(counter);
        self.job_latency_ms.record(latency_ms);
    }

    /// Records a job's submit-to-first-dispatch queue wait in milliseconds.
    pub fn queue_wait(&mut self, wait_ms: u64) {
        self.queue_wait_ms.record(wait_ms);
    }

    /// Renders the `mempool-serve-metrics-v2` document: integer-only,
    /// deterministic field order, byte-stable for a given event history
    /// and gauge snapshot. Its histograms are rendered as
    /// `mempool-metrics-v2`'s are.
    pub fn to_json(&self, gauges: &ServeGauges) -> String {
        json::document(|d| {
            d.str("schema", SERVE_METRICS_SCHEMA)
                .num("worker_slots", gauges.worker_slots)
                .num("active_workers", gauges.active_workers)
                .num("queue_depth", gauges.queue_depth)
                .bool("draining", gauges.draining)
                .obj("counters", Layout::Inline, |o| {
                    Counter::NAMES
                        .iter()
                        .zip(self.counters)
                        .fold(o, |o, (&name, n)| {
                            // The journal owns its append count, rendered here.
                            let journal = name == "journal_replay_skipped";
                            let o = if journal {
                                o.num("journal_appends", gauges.journal_appends)
                            } else {
                                o
                            };
                            o.num(name, n)
                        })
                })
                .obj("rejections", Layout::Inline, |o| {
                    self.rejections.iter().fold(o, |o, (k, v)| o.num(k, v))
                })
                .obj("retries", Layout::Inline, |o| {
                    self.retries.iter().fold(o, |o, (k, v)| o.num(k, v))
                })
                .arr("tenants", Layout::Inline, |tenants| {
                    gauges
                        .tenants
                        .iter()
                        .fold(tenants, |tenants, (tenant, in_flight, quota)| {
                            tenants.push_obj(Layout::Inline, |t| {
                                t.str("tenant", tenant)
                                    .num("in_flight", in_flight)
                                    .num("quota", quota)
                            })
                        })
                })
                .obj("histograms", Layout::Inline, |h| {
                    let h = HistogramSnapshot::from(&self.job_latency_ms)
                        .write_json(h, "job_latency_ms");
                    HistogramSnapshot::from(&self.queue_wait_ms).write_json(h, "queue_wait_ms")
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeMetrics {
        let mut m = ServeMetrics::new();
        m.count(Counter::JobsAdmitted);
        m.count(Counter::JobsAdmitted);
        m.rejection("overloaded");
        m.rejection("quota");
        m.rejection("quota");
        m.rejection("not-a-kind");
        m.retry(&FailureKind::Signal(9));
        m.retry(&FailureKind::Signal(11));
        m.retry(&FailureKind::Exit(1));
        m.count(Counter::WorkersSpawned);
        m.count(Counter::WorkersParked);
        m.count(Counter::DeadlineKills);
        m.queue_wait(0);
        m.job_terminal(JobStatus::Completed, 3);
        m.job_terminal(JobStatus::Failed, 70);
        m.job_terminal(JobStatus::Queued, 1); // non-terminal: ignored
        m.count(Counter::StreamRecords);
        m.count(Counter::PartialSnapshots);
        m.add(Counter::JournalReplaySkipped, 2);
        m
    }

    fn gauges() -> ServeGauges {
        ServeGauges {
            queue_depth: 4,
            active_workers: 1,
            worker_slots: 2,
            draining: false,
            journal_appends: 5,
            tenants: vec![("a".to_owned(), 1, 2), ("b".to_owned(), 0, 4)],
        }
    }

    #[test]
    fn export_is_byte_stable_and_carries_every_section() {
        let doc = sample().to_json(&gauges());
        assert_eq!(doc, sample().to_json(&gauges()), "same history, same bytes");
        assert!(doc.starts_with("{\n  \"schema\": \"mempool-serve-metrics-v2\",\n"));
        assert!(doc.contains("\"queue_depth\": 4"));
        assert!(doc.contains("\"jobs_admitted\": 2"));
        assert!(doc.contains(
            "\"rejections\": {\"other\": 1, \"overloaded\": 1, \"quota\": 2}"
        ));
        assert!(doc.contains("\"retries\": {\"exit\": 1, \"signal\": 2}"));
        assert!(doc.contains(
            "{\"tenant\": \"a\", \"in_flight\": 1, \"quota\": 2}, \
             {\"tenant\": \"b\", \"in_flight\": 0, \"quota\": 4}"
        ));
        // Two terminal jobs recorded; the 70 ms outlier lands in the tail
        // bucket and p99 saturates to max like every LatencyStats export.
        assert!(doc.contains("\"job_latency_ms\": {\"count\": 2, \"sum\": 73,"));
        assert!(doc.contains("\"queue_wait_ms\": {\"count\": 1,"));
        assert!(doc.ends_with("}\n}\n"));
    }

    #[test]
    fn failure_classes_strip_payloads() {
        assert_eq!(failure_class(&FailureKind::Signal(9)), "signal");
        assert_eq!(failure_class(&FailureKind::Signal(15)), "signal");
        assert_eq!(failure_class(&FailureKind::Exit(7)), "exit");
        assert_eq!(failure_class(&FailureKind::Panic), "panic");
        assert_eq!(failure_class(&FailureKind::Timeout), "timeout");
        assert_eq!(failure_class(&FailureKind::Oom), "oom");
        assert_eq!(failure_class(&FailureKind::Sanitizer), "sanitizer");
    }
}
