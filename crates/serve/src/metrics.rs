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

use crate::protocol::SERVE_METRICS_SCHEMA;
use mempool::{HistogramSnapshot, LatencyStats};
use mempool_traffic::FailureKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

/// Monotonic self-metrics counters and histograms for one daemon process.
///
/// In-memory only: a restarted daemon starts from zero (journal replay
/// counts surface under `jobs_replayed` / `journal_replay_skipped`).
#[derive(Debug)]
pub struct ServeMetrics {
    jobs_admitted: u64,
    jobs_replayed: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    jobs_cancelled: u64,
    give_ups: u64,
    workers_spawned: u64,
    workers_completed: u64,
    workers_parked: u64,
    workers_failed: u64,
    deadline_kills: u64,
    stream_records: u64,
    partial_snapshots: u64,
    journal_replay_skipped: u64,
    rejections: BTreeMap<&'static str, u64>,
    retries: BTreeMap<&'static str, u64>,
    job_latency_ms: LatencyStats,
    queue_wait_ms: LatencyStats,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// An all-zero registry.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            jobs_admitted: 0,
            jobs_replayed: 0,
            jobs_completed: 0,
            jobs_failed: 0,
            jobs_cancelled: 0,
            give_ups: 0,
            workers_spawned: 0,
            workers_completed: 0,
            workers_parked: 0,
            workers_failed: 0,
            deadline_kills: 0,
            stream_records: 0,
            partial_snapshots: 0,
            journal_replay_skipped: 0,
            rejections: BTreeMap::new(),
            retries: BTreeMap::new(),
            job_latency_ms: LatencyStats::new(),
            queue_wait_ms: LatencyStats::new(),
        }
    }

    /// Counts an admitted submission.
    pub fn job_admitted(&mut self) {
        self.jobs_admitted += 1;
    }

    /// Counts a job re-admitted from journal replay at startup.
    pub fn job_replayed(&mut self) {
        self.jobs_replayed += 1;
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

    /// Counts a retry-budget exhaustion (job gives up and fails).
    pub fn give_up(&mut self) {
        self.give_ups += 1;
    }

    /// Counts a spawned worker process.
    pub fn worker_spawned(&mut self) {
        self.workers_spawned += 1;
    }

    /// Counts a worker that exited with a completed result.
    pub fn worker_completed(&mut self) {
        self.workers_completed += 1;
    }

    /// Counts a worker that checkpoint-parked (drain or chunk boundary).
    pub fn worker_parked(&mut self) {
        self.workers_parked += 1;
    }

    /// Counts a worker attempt that failed (any [`FailureKind`]).
    pub fn worker_failed(&mut self) {
        self.workers_failed += 1;
    }

    /// Counts a worker killed for blowing its wall-clock deadline.
    pub fn deadline_kill(&mut self) {
        self.deadline_kills += 1;
    }

    /// Counts a job reaching a terminal state, with its submit-to-terminal
    /// wall latency in milliseconds.
    pub fn job_terminal(&mut self, status: crate::protocol::JobStatus, latency_ms: u64) {
        match status {
            crate::protocol::JobStatus::Completed => self.jobs_completed += 1,
            crate::protocol::JobStatus::Failed => self.jobs_failed += 1,
            crate::protocol::JobStatus::Cancelled => self.jobs_cancelled += 1,
            _ => return,
        }
        self.job_latency_ms.record(latency_ms);
    }

    /// Records a job's submit-to-first-dispatch queue wait in milliseconds.
    pub fn queue_wait(&mut self, wait_ms: u64) {
        self.queue_wait_ms.record(wait_ms);
    }

    /// Counts one telemetry stream record (sequence-number advance).
    pub fn stream_record(&mut self) {
        self.stream_records += 1;
    }

    /// Counts one mid-job partial metrics snapshot relayed from a worker.
    pub fn partial_snapshot(&mut self) {
        self.partial_snapshots += 1;
    }

    /// Seeds the replay-skip counter from startup journal recovery.
    pub fn journal_replay_skipped(&mut self, skipped: u64) {
        self.journal_replay_skipped = skipped;
    }

    /// Renders the `mempool-serve-metrics-v2` document: integer-only,
    /// deterministic field order, byte-stable for a given event history
    /// and gauge snapshot.
    pub fn to_json(&self, gauges: &ServeGauges) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SERVE_METRICS_SCHEMA}\",");
        let _ = writeln!(out, "  \"worker_slots\": {},", gauges.worker_slots);
        let _ = writeln!(out, "  \"active_workers\": {},", gauges.active_workers);
        let _ = writeln!(out, "  \"queue_depth\": {},", gauges.queue_depth);
        let _ = writeln!(out, "  \"draining\": {},", gauges.draining);
        out.push_str("  \"counters\": {");
        let counters: [(&str, u64); 15] = [
            ("jobs_admitted", self.jobs_admitted),
            ("jobs_replayed", self.jobs_replayed),
            ("jobs_completed", self.jobs_completed),
            ("jobs_failed", self.jobs_failed),
            ("jobs_cancelled", self.jobs_cancelled),
            ("give_ups", self.give_ups),
            ("workers_spawned", self.workers_spawned),
            ("workers_completed", self.workers_completed),
            ("workers_parked", self.workers_parked),
            ("workers_failed", self.workers_failed),
            ("deadline_kills", self.deadline_kills),
            ("stream_records", self.stream_records),
            ("partial_snapshots", self.partial_snapshots),
            ("journal_appends", gauges.journal_appends),
            ("journal_replay_skipped", self.journal_replay_skipped),
        ];
        for (i, (name, value)) in counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {value}");
        }
        out.push_str("},\n");
        render_map(&mut out, "rejections", &self.rejections);
        render_map(&mut out, "retries", &self.retries);
        out.push_str("  \"tenants\": [");
        for (i, (tenant, in_flight, quota)) in gauges.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"tenant\": \"{}\", \"in_flight\": {in_flight}, \"quota\": {quota}}}",
                mempool_traffic::json_escape(tenant)
            );
        }
        out.push_str("],\n");
        out.push_str("  \"histograms\": {");
        render_histogram(
            &mut out,
            "job_latency_ms",
            &HistogramSnapshot::from(&self.job_latency_ms),
        );
        out.push_str(", ");
        render_histogram(
            &mut out,
            "queue_wait_ms",
            &HistogramSnapshot::from(&self.queue_wait_ms),
        );
        out.push_str("}\n}\n");
        out
    }
}

fn render_map(out: &mut String, name: &str, map: &BTreeMap<&'static str, u64>) {
    let _ = write!(out, "  \"{name}\": {{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {v}");
    }
    out.push_str("},\n");
}

// Mirrors the histogram rendering of `mempool-metrics-v2` (count, sum,
// min, max, p50/p90/p99, 64 exact buckets + tail), so tooling that parses
// one schema's histograms parses the other's unchanged.
fn render_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "\"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
        h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
    );
    for (k, b) in h.buckets.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobStatus;

    fn sample() -> ServeMetrics {
        let mut m = ServeMetrics::new();
        m.job_admitted();
        m.job_admitted();
        m.rejection("overloaded");
        m.rejection("quota");
        m.rejection("quota");
        m.rejection("not-a-kind");
        m.retry(&FailureKind::Signal(9));
        m.retry(&FailureKind::Signal(11));
        m.retry(&FailureKind::Exit(1));
        m.worker_spawned();
        m.worker_parked();
        m.deadline_kill();
        m.queue_wait(0);
        m.job_terminal(JobStatus::Completed, 3);
        m.job_terminal(JobStatus::Failed, 70);
        m.job_terminal(JobStatus::Queued, 1); // non-terminal: ignored
        m.stream_record();
        m.partial_snapshot();
        m.journal_replay_skipped(2);
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
