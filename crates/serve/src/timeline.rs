//! Per-job event timelines: the supervisor-side record that merges journal
//! state transitions, worker heartbeats, partial-metrics snapshots, and
//! retry/backoff events into one ordered history per job, exported as
//! Chrome `trace_event` JSON (load it in `chrome://tracing` or Perfetto).
//!
//! The export is the core's one Chrome envelope
//! ([`mempool::obs::chrome_trace`]) — metadata records naming the
//! process/thread, `"X"` duration spans, an `otherData` block carrying the
//! schema tag and drop counter — so the tooling path that already consumes
//! `mempool-trace-v1` consumes job timelines unchanged. Each job is one
//! Chrome "process" (`pid` = job id); lifecycle states render as duration
//! spans and everything else as instant events.
//!
//! Timelines are in-memory observability, not journaled state: a restarted
//! daemon starts a job's timeline fresh (opening with a `replayed` event),
//! and a bounded buffer drops the oldest-to-newest overflow rather than
//! growing without limit on a very chatty job.

use crate::protocol::TIMELINE_SCHEMA;
use mempool::json::Layout;
use mempool::obs::{chrome_metadata, chrome_trace};

/// Upper bound on recorded events per job; past it, new events are counted
/// in `dropped_events` instead of stored.
pub const MAX_EVENTS: usize = 4096;

/// One job's ordered event history (times are milliseconds since the
/// daemon first saw the job).
#[derive(Debug, Clone)]
pub struct JobTimeline {
    job: u64,
    tenant: String,
    events: Vec<(u64, String, String)>,
    dropped: u64,
}

impl JobTimeline {
    /// An empty timeline for `job`, owned by `tenant`.
    pub fn new(job: u64, tenant: &str) -> JobTimeline {
        JobTimeline {
            job,
            tenant: tenant.to_owned(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Appends an event. `kind` is the event class (`state` events carry
    /// the status word in `detail` and render as duration spans; every
    /// other kind renders as an instant event). Events past [`MAX_EVENTS`]
    /// are dropped and counted.
    pub fn push(&mut self, at_ms: u64, kind: &str, detail: &str) {
        if self.events.len() >= MAX_EVENTS {
            self.dropped += 1;
            return;
        }
        self.events
            .push((at_ms, kind.to_owned(), detail.to_owned()));
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events dropped to the buffer bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the Chrome `trace_event` document. Deterministic given the
    /// recorded events: byte-identical histories export byte-identical
    /// documents.
    pub fn to_chrome_json(&self) -> String {
        let last_ts = self.events.last().map_or(0, |(ts, _, _)| *ts);
        let process = format!("job{} ({})", self.job, self.tenant);
        chrome_trace(
            TIMELINE_SCHEMA,
            |events| {
                let events = chrome_metadata(events, "process_name", self.job, 0, &process);
                let events = chrome_metadata(events, "thread_name", self.job, 0, "supervisor");
                self.events
                    .iter()
                    .enumerate()
                    .fold(events, |events, (i, (ts, kind, detail))| {
                        events.push_obj(Layout::Compact, |e| {
                            if kind != "state" {
                                return e
                                    .str("name", kind)
                                    .str("ph", "i")
                                    .num("ts", ts)
                                    .num("pid", self.job)
                                    .num("tid", 0)
                                    .str("s", "p")
                                    .obj("args", Layout::Compact, |a| a.str("detail", detail));
                            }
                            // A state span runs until the next state transition
                            // (or the last recorded event for the current state).
                            let end = self.events[i + 1..]
                                .iter()
                                .find(|(_, k, _)| k == "state")
                                .map_or(last_ts, |(t, _, _)| *t);
                            e.str("name", detail)
                                .str("ph", "X")
                                .num("ts", ts)
                                .num("dur", end.saturating_sub(*ts))
                                .num("pid", self.job)
                                .num("tid", 0)
                                .obj("args", Layout::Compact, |a| a)
                        })
                    })
            },
            |other| {
                other
                    .num("job", self.job)
                    .str("tenant", &self.tenant)
                    .num("dropped_events", self.dropped)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobTimeline {
        let mut t = JobTimeline::new(7, "team-a");
        t.push(0, "state", "queued");
        t.push(5, "state", "running");
        t.push(20, "heartbeat", "cycle 2048");
        t.push(21, "partial", "cycle 2048");
        t.push(40, "attempt-failed", "signal(9)");
        t.push(41, "retry-backoff", "250ms");
        t.push(300, "state", "completed");
        t
    }

    #[test]
    fn chrome_export_has_spans_instants_and_schema_tag() {
        let json = sample().to_chrome_json();
        // queued span runs 0..5, running span 5..300.
        assert!(json.contains("\"name\":\"queued\",\"ph\":\"X\",\"ts\":0,\"dur\":5"));
        assert!(json.contains("\"name\":\"running\",\"ph\":\"X\",\"ts\":5,\"dur\":295"));
        // terminal state span has zero duration (nothing follows it).
        assert!(json.contains("\"name\":\"completed\",\"ph\":\"X\",\"ts\":300,\"dur\":0"));
        assert!(json.contains("\"name\":\"heartbeat\",\"ph\":\"i\",\"ts\":20"));
        assert!(json.contains("\"detail\":\"signal(9)\""));
        assert_eq!(json, sample().to_chrome_json(), "byte-stable");
        let doc = mempool::json::parse(&json).expect("the timeline is JSON");
        let other = &doc["otherData"];
        assert_eq!(other["schema"].as_str(), Some("mempool-job-timeline-v1"));
        assert_eq!(
            (other["job"].as_u64(), other["tenant"].as_str()),
            (Some(7), Some("team-a"))
        );
        let events = doc["traceEvents"].as_array().expect("an event array");
        assert_eq!(events[0]["args"]["name"].as_str(), Some("job7 (team-a)"));
        assert_eq!(
            events.len(),
            2 + 7,
            "two metadata records, then one per event"
        );
        let spans = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .count();
        assert_eq!(spans, 3, "one span per state");
        assert_eq!(events[6]["args"]["detail"].as_str(), Some("signal(9)"));
    }

    #[test]
    fn buffer_bound_drops_and_counts() {
        let mut t = JobTimeline::new(1, "t");
        for i in 0..(MAX_EVENTS as u64 + 10) {
            t.push(i, "heartbeat", "");
        }
        assert_eq!(t.len(), MAX_EVENTS);
        assert_eq!(t.dropped(), 10);
        assert!(t
            .to_chrome_json()
            .contains(&format!("\"dropped_events\":{}", 10)));
    }
}
