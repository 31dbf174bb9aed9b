//! # mempool-traffic
//!
//! Synthetic traffic generation and the network-analysis experiments of the
//! MemPool paper (§V-A, §V-B): Poisson injectors with uniform or
//! locality-biased destinations, plugged into the cycle-accurate cluster in
//! place of the Snitch cores, plus the load-sweep harness that regenerates
//! Fig. 5 (topology comparison) and Fig. 6 (hybrid addressing scheme).
//!
//! # Examples
//!
//! Measure one point of the Fig. 5 sweep on a reduced cluster:
//!
//! ```
//! use mempool::{ClusterConfig, Topology};
//! use mempool_traffic::{run_point, Pattern, Windows};
//!
//! let windows = Windows { warmup: 200, measure: 1_000, drain: 10_000 };
//! let config = ClusterConfig::small(Topology::TopH);
//! let point = run_point(config, Pattern::Uniform, 0.05, windows, 42)?;
//! assert!(point.throughput > 0.03); // well below saturation: all delivered
//! assert!(point.avg_latency() >= 1.0);
//! # Ok::<(), mempool::ValidateConfigError>(())
//! ```

#![warn(missing_docs)]

mod campaign;
mod exec;
mod experiment;
mod gen;
mod supervise;

pub use campaign::{
    format_trial_line, run_trial_supervised, trial_cluster, CampaignConfig, CampaignError,
    CampaignReport, Trial, TrialCheckpoint, TrialOutcome, TrialPhase, TrialStop, TrialSupervision,
};
pub use exec::{
    job_files, trial_checkpoint, CampaignSpec, Executor, ExecutorConfig, ExecutorReport, Progress,
    QuarantinedTrial,
};
/// The JSON codec, re-exported under the names this crate gave it before
/// it moved to `mempool::json`.
pub use mempool::json::{escape as json_escape, parse_flat_json};
pub use supervise::{
    build_config, classify_exit, parse_config_spec, render_config_spec, sig, worker_job,
    FailureKind, Fleet, Outcome, RetryPolicy, Tick, TrialFailure, Verdict, WorkerLine,
};
pub use experiment::{
    md1_latency, run_point, run_point_with_metrics, run_sweep, saturation_throughput,
    traffic_cluster, MeteredPoint, SweepPoint, SweepPointError, SweepReport, Windows,
};
pub use gen::{AddressSpace, GenStats, Pattern, Permutation, TrafficGen};
