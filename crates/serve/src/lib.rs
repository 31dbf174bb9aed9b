//! # mempool-serve
//!
//! The simulation service behind the `mempool-serve` daemon: a persistent
//! process that accepts run/bench/campaign jobs over a local socket
//! (JSON-lines protocol `mempool-job-v1`), multiplexes them across a
//! supervised fleet of crash-isolated worker processes, and streams
//! progress and result documents back incrementally.
//!
//! Robustness is the design center, composed from pieces the suite already
//! trusts:
//!
//! - **Admission control** ([`Scheduler`]): a bounded queue with per-tenant
//!   quotas and priority classes. Overload is a typed
//!   [`Rejection::Overloaded`], never unbounded growth.
//! - **Supervision** ([`daemon`]): worker crash/panic/OOM classification
//!   ([`mempool_traffic::classify_exit`]), seeded exponential backoff and
//!   retry-from-last-checkpoint ([`mempool_traffic::RetryPolicy`]), and
//!   per-job wall-clock deadlines.
//! - **Graceful drain**: `SIGTERM` checkpoint-parks every in-flight job
//!   (workers write a final snapshot and exit with status 3); a restarted
//!   daemon replays its [`journal`] and resumes each job bit-identically,
//!   the same snapshot-determinism contract the checkpoint tests pin.
//!
//! The scheduler and journal are pure and portable (unit-tested directly);
//! the daemon and client are Unix-only (local socket + signals).

#![warn(missing_docs)]

pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod sched;
pub mod timeline;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod daemon;

pub use journal::{Journal, JournalReplay, ReplayedJob};
pub use metrics::{ServeGauges, ServeMetrics};
pub use protocol::{
    BenchSpec, CampaignSpec, JobSpec, JobStatus, Request, RunSpec, MAX_REQUEST_BYTES,
    PROTOCOL_VERSION, SERVE_METRICS_SCHEMA, STREAM_SCHEMA, TIMELINE_SCHEMA,
};
pub use sched::{Rejection, Scheduler, SchedulerConfig};
pub use timeline::JobTimeline;

#[cfg(unix)]
pub use client::{ClientError, ServeClient};
#[cfg(unix)]
pub use daemon::{run_daemon, DaemonConfig, DaemonSummary};
