//! The simulator benchmark harness behind `mempool-run bench`.
//!
//! Measures *simulator throughput* — how many simulated cluster cycles
//! (and core·cycles) one wall-clock second buys — on the ideal/Top4/TopH
//! topologies at 16 and 256 cores, and records each point's final
//! `state_digest`. The digests are machine-independent: CI's bench-regress
//! job holds them equal to `BENCH_baseline.json`, and
//! `tests/pinned_digests.rs` pins the cycle itself. The resulting
//! `BENCH_*.json` gives every future PR a perf trajectory to move; see
//! DESIGN.md §10 for the schema.

use mempool::json::{self, Layout};
use mempool::{Cluster, ClusterConfig, Topology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Schema tag stamped into every report.
pub const BENCH_SCHEMA: &str = "mempool-bench-v2";

/// The workload: every core hammers its own 16-word slice of the
/// interleaved region forever — steady mixed local/remote traffic with no
/// halt, so a measurement window of any length is representative.
fn workload() -> mempool_riscv::Program {
    mempool_riscv::assemble(
        "csrr t0, mhartid\n\
         li   t2, 0x10000\n\
         slli t3, t0, 6\n\
         add  t3, t3, t2\n\
         forever:\n\
         mv   t6, t3\n\
         li   t4, 16\n\
         loop:\n\
         sw   t0, 0(t6)\n\
         lw   t5, 0(t6)\n\
         add  t0, t0, t5\n\
         addi t6, t6, 4\n\
         addi t4, t4, -1\n\
         bnez t4, loop\n\
         csrr t0, mhartid\n\
         j    forever\n",
    )
    .expect("benchmark workload assembles")
}

/// Benchmark run parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Measured cycles per point.
    pub cycles: u64,
    /// Warm-up cycles before the timed window (fills the I-caches and the
    /// network).
    pub warmup: u64,
    /// Cluster sizes to measure (subset of {16, 64, 256} cores).
    pub core_counts: Vec<usize>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            cycles: 2_000,
            warmup: 200,
            core_counts: vec![16, 256],
        }
    }
}

/// One measured (topology, size) point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Interconnect topology.
    pub topology: Topology,
    /// Total cores of the measured cluster.
    pub cores: usize,
    /// Measured simulated cycles.
    pub cycles: u64,
    /// Wall-clock seconds for the measured window.
    pub wall_seconds: f64,
    /// Simulated cluster cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
    /// Simulated core·cycles per wall-clock second.
    pub core_cycles_per_sec: f64,
    /// `state_digest` at the end of the window (warm-up + measured
    /// cycles): a pure function of (topology, cores, cycle counts).
    pub state_digest: u64,
}

/// A full benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Every measured point.
    pub points: Vec<BenchPoint>,
}

impl BenchReport {
    /// Renders the report as the `BENCH_*.json` document (schema in
    /// DESIGN.md §10).
    pub fn to_json(&self) -> String {
        json::document(|d| {
            d.str("schema", BENCH_SCHEMA)
                .arr("points", Layout::Block(4), |points| {
                    self.points.iter().fold(points, |points, p| {
                        points.push_obj(Layout::Inline, |o| {
                            o.str("topology", &p.topology.to_string())
                                .num("cores", p.cores)
                                .num("cycles", p.cycles)
                                .num("wall_seconds", format_args!("{:.6}", p.wall_seconds))
                                .num(
                                    "sim_cycles_per_sec",
                                    format_args!("{:.1}", p.sim_cycles_per_sec),
                                )
                                .num(
                                    "core_cycles_per_sec",
                                    format_args!("{:.1}", p.core_cycles_per_sec),
                                )
                                .str("state_digest", &format!("{:#018x}", p.state_digest))
                        })
                    })
                })
        })
    }
}

/// The cluster configuration of one benchmark size: 16 cores is the
/// 4-tile small cluster (the CI smoke size), 64 the paper's small
/// configuration, 256 the full paper cluster.
///
/// # Errors
///
/// An unsupported core count.
pub fn bench_cluster_config(topology: Topology, cores: usize) -> Result<ClusterConfig, String> {
    match cores {
        16 => {
            // Keep the small cluster's 16-tile fabric (TopH needs 4 tiles
            // per group for its inter-group butterflies) and thin each
            // tile to one core.
            let mut config = ClusterConfig::small(topology);
            config.cores_per_tile = 1;
            Ok(config)
        }
        64 => Ok(ClusterConfig::small(topology)),
        256 => Ok(ClusterConfig::paper(topology)),
        other => Err(format!("unsupported bench size: {other} cores (16/64/256)")),
    }
}

fn measure_point(
    config: &BenchConfig,
    topology: Topology,
    cores: usize,
) -> Result<BenchPoint, String> {
    let mut cluster =
        Cluster::snitch(bench_cluster_config(topology, cores)?).map_err(|e| e.to_string())?;
    cluster
        .load_program(&workload())
        .map_err(|e| e.to_string())?;
    cluster.step_cycles(config.warmup);
    let start = Instant::now();
    cluster.step_cycles(config.cycles);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    Ok(BenchPoint {
        topology,
        cores,
        cycles: config.cycles,
        wall_seconds: wall,
        sim_cycles_per_sec: config.cycles as f64 / wall,
        core_cycles_per_sec: (config.cycles * cores as u64) as f64 / wall,
        state_digest: cluster.state_digest(),
    })
}

/// Runs the full benchmark matrix: `core_counts` × {ideal, Top4, TopH}.
///
/// # Errors
///
/// Configuration errors (unsupported size) only; measurement itself is
/// infallible.
pub fn run_bench(config: &BenchConfig) -> Result<BenchReport, String> {
    run_bench_supervised(config, None).map(|(report, _)| report)
}

/// [`run_bench`] with an interrupt flag checked between points: when the
/// flag is raised (SIGINT/SIGTERM), the sweep stops after the point in
/// flight and returns the partial report plus `true` — measurements
/// already taken are never lost to an interrupt.
///
/// # Errors
///
/// Configuration errors (unsupported size) only.
pub fn run_bench_supervised(
    config: &BenchConfig,
    interrupt: Option<&AtomicBool>,
) -> Result<(BenchReport, bool), String> {
    let mut report = BenchReport { points: Vec::new() };
    for &cores in &config.core_counts {
        for topology in [Topology::Ideal, Topology::Top4, Topology::TopH] {
            if interrupt.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                return Ok((report, true));
            }
            report.points.push(measure_point(config, topology, cores)?);
        }
    }
    Ok((report, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_consistent() {
        let config = BenchConfig {
            cycles: 300,
            warmup: 50,
            core_counts: vec![16],
        };
        let report = run_bench(&config).expect("bench runs");
        assert_eq!(report.points.len(), 3); // one per topology
        for p in &report.points {
            assert!(p.wall_seconds > 0.0);
            assert!(p.sim_cycles_per_sec > 0.0);
            assert_eq!(
                p.core_cycles_per_sec,
                p.sim_cycles_per_sec * p.cores as f64
            );
        }
        let doc = json::parse(&report.to_json()).expect("the report is JSON");
        assert_eq!(doc["schema"].as_str(), Some("mempool-bench-v2"));
        let points = doc["points"].as_array().expect("a point array");
        assert_eq!(points.len(), report.points.len());
        for (p, point) in points.iter().zip(&report.points) {
            assert_eq!(
                p["topology"].as_str(),
                Some(point.topology.to_string().as_str())
            );
            assert_eq!(p["cores"].as_u64(), Some(16));
            let digest = format!("{:#018x}", point.state_digest);
            assert_eq!(p["state_digest"].as_str(), Some(digest.as_str()));
        }
    }

    #[test]
    fn raised_interrupt_returns_the_partial_report() {
        let config = BenchConfig {
            cycles: 200,
            warmup: 50,
            core_counts: vec![16],
        };
        // An already-raised interrupt stops before the first point; the
        // report comes back (empty here) instead of being discarded.
        let flag = AtomicBool::new(true);
        let (partial, interrupted) =
            run_bench_supervised(&config, Some(&flag)).expect("supervised");
        assert!(interrupted);
        assert!(partial.points.is_empty());
    }

    #[test]
    fn unsupported_size_is_a_typed_error() {
        let err = bench_cluster_config(Topology::TopH, 12).expect_err("12 cores unsupported");
        assert!(err.contains("12"), "{err}");
    }
}
