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
//! Events are stored typed ([`Event`], 24 bytes with their timestamp, no
//! heap string); the `detail` words are rendered at export. A finished job
//! keeps its timeline for the daemon's life, so this is most of what it
//! costs.
//!
//! Timelines are in-memory observability, not journaled state: a restarted
//! daemon starts a job's timeline fresh (opening with a `replayed` event).
//! State transitions are always recorded — retries bound them — so a
//! timeline always ends the way its job did; instant events past
//! [`MAX_EVENTS`] are counted instead of stored, so a very chatty job does
//! not grow without limit.

use crate::protocol::{JobStatus, TIMELINE_SCHEMA};
use mempool::json::Layout;
use mempool::obs::{chrome_metadata, chrome_trace};
use mempool_traffic::FailureKind;
use std::fmt;
use std::sync::Arc;

/// Upper bound on recorded instant events per job; past it, new instants
/// are counted in `dropped_events` instead of stored. State transitions do
/// not count against it and are never dropped.
pub const MAX_EVENTS: usize = 4096;

/// What a partial snapshot's progress counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Simulated cycles (a `run` job).
    Cycle,
    /// Finished trials (a `campaign` job).
    Trials,
}

impl Progress {
    /// The field name a worker's `metrics` line and a `partial` record use.
    pub(crate) fn word(self) -> &'static str {
        match self {
            Progress::Cycle => "cycle",
            Progress::Trials => "trials",
        }
    }
}

/// One timeline event. `Display` renders its export detail: the status
/// word of a state (the span's name), and the `detail` argument of an
/// instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A lifecycle transition; it renders as a duration span running to the
    /// next one.
    State(JobStatus),
    /// The state a restarted daemon found the job in.
    Replayed(JobStatus),
    /// A worker heartbeat at this simulated cycle.
    Heartbeat(u64),
    /// A partial metrics snapshot (or its marker) at this progress.
    Partial(Progress, u64),
    /// A worker attempt ended in this failure.
    AttemptFailed(FailureKind),
    /// The retry waits this many milliseconds.
    RetryBackoff(u64),
}

impl Event {
    /// The event class: `state`, or the name an instant exports under
    /// (which is also its stream record's `kind`).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Event::State(_) => "state",
            Event::Replayed(_) => "replayed",
            Event::Heartbeat(_) => "heartbeat",
            Event::Partial(..) => "partial",
            Event::AttemptFailed(_) => "attempt-failed",
            Event::RetryBackoff(_) => "retry-backoff",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::State(status) | Event::Replayed(status) => write!(f, "{status}"),
            Event::Heartbeat(cycle) => write!(f, "cycle {cycle}"),
            Event::Partial(progress, at) => write!(f, "{} {at}", progress.word()),
            Event::AttemptFailed(kind) => write!(f, "{kind}"),
            Event::RetryBackoff(ms) => write!(f, "{ms}ms"),
        }
    }
}

/// One job's ordered event history (times are milliseconds since the
/// daemon first saw the job).
#[derive(Debug, Clone)]
pub struct JobTimeline {
    job: u64,
    tenant: Arc<str>,
    events: Vec<(u64, Event)>,
    /// Instant events stored, against [`MAX_EVENTS`].
    instants: u32,
    dropped: u32,
}

impl JobTimeline {
    /// An empty timeline for `job`, owned by `tenant` (an `Arc<str>` the
    /// caller shares between a tenant's jobs, or any string).
    pub fn new(job: u64, tenant: impl Into<Arc<str>>) -> JobTimeline {
        JobTimeline {
            job,
            tenant: tenant.into(),
            events: Vec::new(),
            instants: 0,
            dropped: 0,
        }
    }

    /// Appends an event. A state transition is always stored; an instant
    /// past [`MAX_EVENTS`] others is dropped and counted.
    pub fn push(&mut self, at_ms: u64, event: Event) {
        if !matches!(event, Event::State(_)) {
            if self.instants as usize >= MAX_EVENTS {
                self.dropped = self.dropped.saturating_add(1);
                return;
            }
            self.instants += 1;
        }
        self.events.push((at_ms, event));
    }

    /// Moves the events of a complete timeline into an allocation of
    /// their exact size. A fresh one, not `Vec::shrink_to_fit`: shrinking
    /// in place would leave each finished job's slice where its buffer grew
    /// and split a free fragment off it, while a new one comes from the
    /// allocator's free lists and the whole buffer goes back for the next
    /// job. A daemon's peak resident set after 3 000 jobs is ≈ 0.5 MB lower.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.events = self.events.to_vec();
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of instant events dropped to the buffer bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.into()
    }

    /// Renders the Chrome `trace_event` document. Deterministic given the
    /// recorded events: byte-identical histories export byte-identical
    /// documents.
    pub fn to_chrome_json(&self) -> String {
        let last_ts = self.events.last().map_or(0, |&(ts, _)| ts);
        let process = format!("job{} ({})", self.job, self.tenant);
        chrome_trace(
            TIMELINE_SCHEMA,
            |events| {
                let events = chrome_metadata(events, "process_name", self.job, 0, &process);
                let events = chrome_metadata(events, "thread_name", self.job, 0, "supervisor");
                self.events
                    .iter()
                    .enumerate()
                    .fold(events, |events, (i, (ts, event))| {
                        let detail = event.to_string();
                        events.push_obj(Layout::Compact, |e| {
                            if !matches!(event, Event::State(_)) {
                                return e
                                    .str("name", event.name())
                                    .str("ph", "i")
                                    .num("ts", ts)
                                    .num("pid", self.job)
                                    .num("tid", 0)
                                    .str("s", "p")
                                    .obj("args", Layout::Compact, |a| a.str("detail", &detail));
                            }
                            // A state span runs until the next state transition
                            // (or the last recorded event for the current state).
                            let end = self.events[i + 1..]
                                .iter()
                                .find(|(_, e)| matches!(e, Event::State(_)))
                                .map_or(last_ts, |&(t, _)| t);
                            e.str("name", &detail)
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
    use JobStatus::*;

    fn sample() -> JobTimeline {
        let mut t = JobTimeline::new(7, "team-a");
        t.push(0, Event::State(Queued));
        t.push(5, Event::State(Running));
        t.push(20, Event::Heartbeat(2048));
        t.push(21, Event::Partial(Progress::Cycle, 2048));
        t.push(40, Event::AttemptFailed(FailureKind::Signal(9)));
        t.push(41, Event::RetryBackoff(250));
        t.push(300, Event::State(Completed));
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

    /// Every event kind the daemon records: a replayed job, partial
    /// snapshots of a run and of a campaign, one failed attempt per
    /// failure kind, and a backoff.
    fn every_kind() -> JobTimeline {
        let mut t = JobTimeline::new(12, "team \"b\"");
        t.push(0, Event::Replayed(Queued));
        t.push(3, Event::State(Running));
        t.push(9, Event::Heartbeat(512));
        t.push(10, Event::Partial(Progress::Cycle, 512));
        t.push(11, Event::Partial(Progress::Trials, 2));
        let failures = [
            FailureKind::Panic,
            FailureKind::Signal(11),
            FailureKind::Timeout,
            FailureKind::Oom,
            FailureKind::Exit(-1),
            FailureKind::Sanitizer,
        ];
        for (i, failure) in (12..).zip(failures) {
            t.push(i, Event::AttemptFailed(failure));
        }
        t.push(18, Event::RetryBackoff(0));
        t.push(19, Event::State(Queued));
        t.push(25, Event::State(Running));
        t.push(31, Event::State(Failed));
        t
    }

    /// What a restarted daemon records: a parked job resumed to the end,
    /// and a job that had finished before the restart.
    fn restarted() -> [JobTimeline; 2] {
        let mut resumed = JobTimeline::new(3, "t0");
        resumed.push(0, Event::Replayed(Parked));
        resumed.push(2, Event::State(Running));
        resumed.push(8, Event::Heartbeat(256));
        resumed.push(8, Event::Partial(Progress::Cycle, 256));
        resumed.push(14, Event::State(Completed));
        let mut finished = JobTimeline::new(2, "t1");
        finished.push(0, Event::Replayed(Completed));
        [resumed, finished]
    }

    /// The exported bytes of fixed histories, pinned: a change to how
    /// events are stored must not change what they render to.
    #[test]
    fn exports_are_pinned() {
        let [resumed, finished] = restarted();
        for (what, timeline, pin) in [
            ("sample", sample(), 0xe10c41bd3f1f73b7),
            ("every kind", every_kind(), 0xd3bc3f02cf4226f1),
            ("resumed", resumed, 0xb5e895f65a12750d),
            ("finished before the restart", finished, 0x94283703fa26b8f1),
        ] {
            let json = timeline.to_chrome_json();
            let hash = mempool::snapshot::fnv64(json.as_bytes());
            assert_eq!(hash, pin, "{what}: {hash:#018x}\n{json}");
        }
    }

    /// Events are what a finished job keeps for good: no heap string each,
    /// 24 bytes with the timestamp.
    #[test]
    fn an_event_is_24_bytes() {
        assert!(std::mem::size_of::<(u64, Event)>() <= 24);
    }

    /// Only instants count against the bound: the job's ending is kept
    /// however many heartbeats came before it.
    #[test]
    fn buffer_bound_drops_and_counts() {
        let mut t = JobTimeline::new(1, "t");
        t.push(0, Event::State(Running));
        for i in 0..(MAX_EVENTS as u64 + 10) {
            t.push(i, Event::Heartbeat(i));
        }
        t.push(5000, Event::State(Completed));
        assert_eq!(t.len(), MAX_EVENTS + 2);
        assert_eq!(t.dropped(), 10);
        let json = t.to_chrome_json();
        assert!(json.contains(&format!("\"dropped_events\":{}", 10)));
        assert!(
            json.contains("\"name\":\"running\",\"ph\":\"X\",\"ts\":0,\"dur\":5000"),
            "the running span ends where the job did"
        );
        assert!(json.contains("\"name\":\"completed\",\"ph\":\"X\",\"ts\":5000,\"dur\":0"));
    }
}
