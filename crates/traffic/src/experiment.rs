//! Load-sweep experiments: the methodology behind Fig. 5 and Fig. 6.

use crate::{AddressSpace, Pattern, TrafficGen};
use mempool::{Cluster, ClusterConfig, LatencyStats, ValidateConfigError};

/// Timing windows of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// Warm-up cycles before measurement starts.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Cycle cap for the drain phase after generation stops.
    pub drain: u64,
}

impl Default for Windows {
    fn default() -> Self {
        Windows {
            warmup: 1_000,
            measure: 8_000,
            drain: 50_000,
        }
    }
}

/// One point of a load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered load λ (requests/core/cycle).
    pub offered_load: f64,
    /// Delivered throughput (responses/core/cycle) over the measurement
    /// window.
    pub throughput: f64,
    /// Round-trip latency distribution (generation → response) of requests
    /// generated in the measurement window.
    pub latency: LatencyStats,
    /// Fraction of issued requests that stayed in the local tile.
    pub locality: f64,
    /// Mean fraction of occupied global-interconnect registers per cycle
    /// (buffer-occupancy congestion metric).
    pub net_occupancy: f64,
}

impl SweepPoint {
    /// Mean round-trip latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        self.latency.mean()
    }
}

/// The cluster of §V-A: every core of `config` replaced by a Poisson
/// generator of `load` requests per cycle towards `pattern`, 64 requests
/// outstanding each, the generators' streams derived from `seed`.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn traffic_cluster(
    config: ClusterConfig,
    pattern: Pattern,
    load: f64,
    seed: u64,
) -> Result<Cluster<TrafficGen>, ValidateConfigError> {
    let l1_bytes = config.address_map()?.size_bytes() as u32;
    let scrambler = config.scrambler()?;
    Cluster::new(config, |loc| {
        let space = AddressSpace {
            l1_bytes,
            seq_base: scrambler.map_or(0, |s| s.seq_base(loc.tile as u32)),
            seq_bytes: scrambler.map_or(0, |s| s.seq_bytes_per_tile()),
            seq_total: scrambler.map_or(0, |s| s.seq_region_bytes() as u32),
            tile: loc.tile as u32,
            num_tiles: config.num_tiles as u32,
            banks_per_tile: config.banks_per_tile as u32,
        };
        let seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(loc.core as u64);
        TrafficGen::new(load, pattern, space, 64, seed)
    })
}

/// Runs one (topology, pattern, load) experiment on `config` and returns
/// its sweep point.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn run_point(
    config: ClusterConfig,
    pattern: Pattern,
    load: f64,
    windows: Windows,
    seed: u64,
) -> Result<SweepPoint, ValidateConfigError> {
    run_point_inner(config, pattern, load, windows, seed, None).map(|(point, _)| point)
}

/// A [`SweepPoint`] together with the observability artifacts captured
/// during its run: the full per-scope metrics registry and the sampled
/// timeline (empty unless the [`ObsConfig`](mempool::ObsConfig) enabled
/// trace sampling).
#[derive(Debug, Clone)]
pub struct MeteredPoint {
    /// The aggregate sweep measurements.
    pub point: SweepPoint,
    /// Per-scope counters and latency histograms after the drain phase.
    pub metrics: mempool::MetricsRegistry,
    /// Sampled request spans (Chrome-trace exportable).
    pub timeline: mempool::TimelineTrace,
}

/// [`run_point`] with the cluster's observability recorder attached:
/// additionally returns the full [`MetricsRegistry`](mempool::MetricsRegistry)
/// snapshot taken after the drain phase and the sampled timeline, so
/// sweeps can export per-scope latency histograms, NoC activity counters
/// and Chrome traces alongside the aggregate sweep point.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn run_point_with_metrics(
    config: ClusterConfig,
    pattern: Pattern,
    load: f64,
    windows: Windows,
    seed: u64,
    obs: mempool::ObsConfig,
) -> Result<MeteredPoint, ValidateConfigError> {
    run_point_inner(config, pattern, load, windows, seed, Some(obs)).map(|(point, extras)| {
        let (metrics, timeline) = extras.expect("observability was enabled");
        MeteredPoint { point, metrics, timeline }
    })
}

fn run_point_inner(
    config: ClusterConfig,
    pattern: Pattern,
    load: f64,
    windows: Windows,
    seed: u64,
    obs: Option<mempool::ObsConfig>,
) -> Result<
    (
        SweepPoint,
        Option<(mempool::MetricsRegistry, mempool::TimelineTrace)>,
    ),
    ValidateConfigError,
> {
    let mut cluster = traffic_cluster(config, pattern, load, seed)?;
    if let Some(obs) = obs {
        cluster.enable_observability(obs);
    }

    cluster.step_cycles(windows.warmup);
    for gen in cluster.cores_mut() {
        gen.start_measuring();
    }
    let delivered_before = cluster.stats().responses_delivered;
    cluster.step_cycles(windows.measure);
    let delivered = cluster.stats().responses_delivered - delivered_before;

    // Drain so every measured request completes and contributes latency.
    for gen in cluster.cores_mut() {
        gen.stop();
    }
    let _ = cluster.run(windows.drain);

    let mut latency = LatencyStats::new();
    for gen in cluster.cores() {
        latency.merge(&gen.stats().latency);
    }
    let num_cores = cluster.config().num_cores();
    let point = SweepPoint {
        offered_load: load,
        throughput: delivered as f64 / (windows.measure as f64 * num_cores as f64),
        latency,
        locality: cluster.stats().locality(),
        net_occupancy: cluster.stats().net_occupancy(),
    };
    let extras = cluster.observability_enabled().then(|| {
        let timeline = cluster.timeline().expect("recorder is enabled");
        (cluster.metrics_registry(), timeline)
    });
    Ok((point, extras))
}

/// Why one sweep point produced no [`SweepPoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum SweepPointError {
    /// The cluster configuration failed validation.
    Config(ValidateConfigError),
    /// The worker evaluating this point panicked; carries the panic
    /// message. The other points are unaffected.
    Panicked(String),
}

impl std::fmt::Display for SweepPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepPointError::Config(e) => write!(f, "invalid configuration: {e}"),
            SweepPointError::Panicked(msg) => write!(f, "sweep worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for SweepPointError {}

/// The outcome of [`run_sweep`]: one slot per requested load, in input
/// order. A panicking or failing point occupies its slot as a typed error
/// instead of unwinding the whole sweep, so the surviving points remain
/// usable.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// `(offered_load, outcome)` per requested load, in input order.
    pub points: Vec<(f64, Result<SweepPoint, SweepPointError>)>,
}

impl SweepReport {
    /// The successful points, in load order.
    pub fn successes(&self) -> Vec<&SweepPoint> {
        self.points
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .collect()
    }

    /// The loads that produced no point, with the reason for each.
    pub fn failures(&self) -> Vec<(f64, &SweepPointError)> {
        self.points
            .iter()
            .filter_map(|(load, r)| r.as_ref().err().map(|e| (*load, e)))
            .collect()
    }

    /// Unwraps a fully-successful sweep into its points (load order).
    ///
    /// # Errors
    ///
    /// The first failing load and its error, when any point failed.
    pub fn into_complete(self) -> Result<Vec<SweepPoint>, (f64, SweepPointError)> {
        self.points
            .into_iter()
            .map(|(load, r)| r.map_err(|e| (load, e)))
            .collect()
    }
}

/// Runs a full load sweep (one [`run_point`] per load), spreading the
/// points over worker threads — each point is an independent cluster.
///
/// A point that panics (or fails validation) fills its slot in the
/// returned [`SweepReport`] with a typed [`SweepPointError`]; the
/// remaining points still run to completion and are returned.
pub fn run_sweep(
    config: ClusterConfig,
    pattern: Pattern,
    loads: &[f64],
    windows: Windows,
    seed: u64,
) -> SweepReport {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(loads.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<Result<SweepPoint, SweepPointError>>> =
        (0..loads.len()).map(|_| None).collect();
    let slots = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&load) = loads.get(i) else { break };
                // The catch_unwind boundary keeps one bad point from
                // killing the worker (and poisoning the slot mutex for
                // everyone else). `run_point` takes everything by value
                // or shared reference, so no observable state survives an
                // unwind torn — AssertUnwindSafe is sound.
                let point = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_point(config, pattern, load, windows, seed)
                }))
                .map_err(|payload| SweepPointError::Panicked(panic_message(&*payload)))
                .and_then(|r| r.map_err(SweepPointError::Config));
                // Lock despite poison: a slot write is a plain assignment,
                // so a poisoned mutex only means some *other* slot is
                // still `None`, which its own error entry reports.
                let mut guard = match slots.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                guard[i] = Some(point);
            });
        }
    });
    SweepReport {
        points: loads
            .iter()
            .zip(results)
            .map(|(&load, slot)| {
                let outcome = slot.unwrap_or_else(|| {
                    Err(SweepPointError::Panicked(
                        "worker exited without reporting".to_string(),
                    ))
                });
                (load, outcome)
            })
            .collect(),
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Mean waiting-plus-service time of an M/D/1 queue with unit service time
/// at utilization `rho` — the analytical model of a single SPM bank under
/// Poisson traffic (service = the bank's one access per cycle).
///
/// Used to cross-validate the simulator: on the ideal (routing-free)
/// topology, the measured round-trip latency must approach
/// `md1_latency(rho)` at low-to-moderate loads.
///
/// # Panics
///
/// Panics unless `0 <= rho < 1`.
pub fn md1_latency(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "utilization must be in [0, 1)");
    1.0 + rho / (2.0 * (1.0 - rho))
}

/// Estimates the saturation throughput: the delivered rate at an offered
/// load far beyond any feasible acceptance rate.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn saturation_throughput(
    config: ClusterConfig,
    pattern: Pattern,
    windows: Windows,
    seed: u64,
) -> Result<f64, ValidateConfigError> {
    Ok(run_point(config, pattern, 1.0, windows, seed)?.throughput)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool::Topology;

    fn quick_windows() -> Windows {
        Windows {
            warmup: 50,
            measure: 200,
            drain: 5_000,
        }
    }

    #[test]
    fn a_panicking_point_yields_partial_results() {
        // A negative load trips `TrafficGen::new`'s rate assertion inside
        // the worker — formerly this poisoned the slot mutex and unwound
        // the whole sweep through `expect("every index filled")`.
        let loads = [0.02, -1.0, 0.05];
        let report = run_sweep(
            ClusterConfig::small(Topology::Ideal),
            Pattern::Uniform,
            &loads,
            quick_windows(),
            7,
        );
        assert_eq!(report.points.len(), loads.len());
        let successes = report.successes();
        assert_eq!(successes.len(), 2);
        assert_eq!(successes[0].offered_load, 0.02);
        assert_eq!(successes[1].offered_load, 0.05);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        let (load, err) = failures[0];
        assert_eq!(load, -1.0);
        match err {
            SweepPointError::Panicked(msg) => {
                assert!(msg.contains("rate must be non-negative"), "{msg}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The aligned slots keep load order; `into_complete` names the
        // failing load.
        let (bad_load, _) = report.into_complete().expect_err("one point failed");
        assert_eq!(bad_load, -1.0);
    }

    #[test]
    fn an_invalid_config_is_a_typed_error_per_point() {
        let mut config = ClusterConfig::small(Topology::Top4);
        config.num_tiles = 3; // not a power of two: validation fails
        let report = run_sweep(config, Pattern::Uniform, &[0.1], quick_windows(), 7);
        assert!(report.successes().is_empty());
        assert!(matches!(
            report.points[0].1,
            Err(SweepPointError::Config(_))
        ));
    }

    #[test]
    fn a_clean_sweep_is_complete_and_ordered() {
        let loads = [0.01, 0.04];
        let report = run_sweep(
            ClusterConfig::small(Topology::Ideal),
            Pattern::Uniform,
            &loads,
            quick_windows(),
            7,
        );
        assert!(report.failures().is_empty());
        let points = report.into_complete().expect("no failures");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].offered_load, 0.01);
        assert_eq!(points[1].offered_load, 0.04);
    }
}
