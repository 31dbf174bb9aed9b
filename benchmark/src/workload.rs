//! What every workload shares: how work is sized from `--seconds`, the
//! outcome a run reports, and the counts read off a finished cluster.

use crate::probes::{self, Probes};
use crate::trace::{self, Tracer};
use crate::{env, stats};
use mempool::{Cluster, ClusterConfig, ClusterStats, Core};
use mempool_snitch::CoreStats;
use mempool_traffic::{AddressSpace, Pattern, TrafficGen};
use std::time::Instant;

/// How much work a run does. The operation count is a fixed function of
/// `--seconds` (never of how fast the host happens to be), so the same
/// flags always simulate the same cycles and the simulated-time metrics
/// repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub seconds: f64,
    /// The 1-rep / 50-job size that exists for the package's own test;
    /// results carry `"comparable": false`.
    pub quick: bool,
}

impl Sizes {
    /// Operations that fill `seconds` when one takes `nominal_op_seconds`
    /// on the reference box (2 cores); at least one.
    pub fn ops(&self, nominal_op_seconds: f64, quick_ops: u64) -> u64 {
        if self.quick {
            quick_ops
        } else {
            ((self.seconds / nominal_op_seconds).round() as u64).max(1)
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reps, windows or jobs).
    pub ops: u64,
    pub failed: u64,
    /// Why operations failed, for the human-readable report.
    pub failures: Vec<String>,
    /// The end-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts that are not metrics (digests), printed for cross-checks.
    pub info: Vec<(&'static str, String)>,
    /// The traced run's cost ledger, already rendered.
    pub ledger: String,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::metric(name).is_some(),
            "`{name}` is not declared"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Counts read off a cluster after a timed region, through its public
/// accessors only.
#[derive(Debug, Clone)]
pub struct SimCounts {
    pub cores: u64,
    pub stats: ClusterStats,
    pub icache_hits: u64,
    pub icache_misses: u64,
    /// Accepted pushes into every global-interconnect register stage.
    pub link_pushes: u64,
    /// Grants of the tile request and response crossbars.
    pub tile_fabric_grants: u64,
    /// Per-core counters summed (Snitch clusters only).
    pub core: Option<CoreStats>,
}

impl SimCounts {
    pub fn of<C: Core>(cluster: &Cluster<C>, core: Option<CoreStats>) -> SimCounts {
        let reg = cluster.metrics_registry();
        let icache = cluster.icache_stats();
        SimCounts {
            cores: cluster.config().num_cores() as u64,
            stats: cluster.stats().clone(),
            icache_hits: icache.hits,
            icache_misses: icache.misses,
            link_pushes: reg.sum_counter("cluster/link", "pushes"),
            tile_fabric_grants: reg.sum_counter("cluster/tile", "req_fabric_grants")
                + reg.sum_counter("cluster/tile", "resp_fabric_grants"),
            core,
        }
    }

    pub fn core_cycles(&self) -> f64 {
        (self.stats.cycles * self.cores) as f64
    }

    /// Reports the deterministic per-layer counts.
    pub fn report(&self, out: &mut Outcome) {
        let s = &self.stats;
        if let Some(c) = &self.core {
            out.set("snitch.instret", c.instret as f64);
            out.set("snitch.stall_port", c.stall_port as f64);
            out.set("snitch.stall_scoreboard", c.stall_scoreboard as f64);
            out.set("snitch.stall_fetch", c.stall_fetch as f64);
            out.set("snitch.stall_lsu_full", c.stall_lsu_full as f64);
            out.set("snitch.stall_exec", c.stall_exec as f64);
            out.set("snitch.stall_fence", c.stall_fence as f64);
            out.set("snitch.halted_cycles", c.halted_cycles as f64);
        }
        let fetches = self.icache_hits + self.icache_misses;
        out.set("mem.bank_accesses", s.bank_accesses as f64);
        out.set(
            "mem.icache_hit_ratio",
            ratio(self.icache_hits as f64, fetches as f64),
        );
        out.set("mem.icache_refills", s.icache_refills as f64);
        out.set("noc.link_pushes", self.link_pushes as f64);
        out.set("noc.net_occupancy", s.net_occupancy());
        out.set("noc.requests_local", s.local_requests as f64);
        out.set("noc.requests_group_local", s.group_local_requests as f64);
        out.set(
            "noc.requests_remote",
            s.remote_requests.saturating_sub(s.group_local_requests) as f64,
        );
    }
}

/// `a / b`, or 0 when the base is 0 (every ratio is reported with a base
/// that the workload makes non-zero; this only guards the arithmetic).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The three job-level end-to-end metrics every workload reports. A tail
/// is quoted only where the sample supports it: p90 needs at least ten
/// operations beyond it (n >= 100, the served jobs); with the handful of
/// reps or windows of a simulator workload the highest supportable
/// percentile is the 50th, and `job_latency_p90_ms` reads (nearest rank)
/// the middle rep rather than naming the run's one slow rep.
pub fn report_job_latency(out: &mut Outcome, latencies_ms: &[f64], loop_wall_s: f64) {
    let tail = stats::tail_percentile(latencies_ms.len()).min(90.0);
    out.set(
        "jobs_per_sec",
        ratio(latencies_ms.len() as f64, loop_wall_s),
    );
    out.set("job_latency_p50_ms", stats::median(latencies_ms));
    out.set("job_latency_p90_ms", stats::percentile(latencies_ms, tail));
}

/// Shares of a timed region the isolated probes can explain: each probe's
/// cost times the layer's deterministic operation count. `core_model_ns`
/// is the estimate for whatever sits in the cores' place (ISS steps or
/// traffic-generator steps). What is left over — the cycle engine's own
/// bookkeeping, cache misses the warm probes never see, allocation — is
/// `core.unattributed_pct`: the number a later in-`Cluster` phase timer has
/// to split.
pub fn attribute(
    out: &mut Outcome,
    probes: &Probes,
    counts: &SimCounts,
    wall_ns: f64,
    core_model_ns: f64,
) {
    let probe = |name: &str| probes::get(probes, name);
    let s = &counts.stats;
    let mem_ns = probe("mem.bank_access_ns") * s.bank_accesses as f64
        + probe("mem.icache_probe_ns") * (counts.icache_hits + counts.icache_misses) as f64
        + probe("mem.addr_decode_ns") * s.requests_issued as f64;
    let arbitrated = (counts.link_pushes + counts.tile_fabric_grants) as f64;
    let noc_ns = probe("noc.resolve_ns_per_offer") * arbitrated
        + probe("noc.elastic_roundtrip_ns") * counts.link_pushes as f64;
    let share = |ns: f64| 100.0 * ratio(ns, wall_ns);
    if counts.core.is_some() {
        out.set("snitch.share_pct", share(core_model_ns));
    }
    out.set("mem.share_pct", share(mem_ns));
    out.set("noc.share_pct", share(noc_ns));
    out.set(
        "core.unattributed_pct",
        100.0 - share(core_model_ns + mem_ns + noc_ns),
    );
}

/// Runs the isolated probes in a scratch directory of their own, reports
/// every probe value and how long the probes took, and returns them for the
/// attribution arithmetic.
///
/// # Errors
///
/// See [`probes::run_all`].
pub fn run_probes(out: &mut Outcome, seed: u64, tag: &str) -> Result<Probes, String> {
    let dir = env::fresh_work_dir(tag)?;
    let started = Instant::now();
    let probes = probes::run_all(seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let probes = probes?;
    out.set("trace.probes_ms", started.elapsed().as_secs_f64() * 1e3);
    for (name, value) in &probes {
        out.set(name, *value);
    }
    Ok(probes)
}

/// Reports the tracer's own numbers, renders the ledger, and writes the
/// spans out, once, as a Chrome `trace_event` file. The two walls are the
/// same timed region without and with spans.
pub fn report_trace(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    untraced_s: f64,
    traced_s: f64,
) {
    let spans = tracer.spans();
    let root_ns = trace::root_total_ns(spans);
    let self_ns: u64 = trace::ledger(spans).iter().map(|r| r.self_ns).sum();
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(traced_s - untraced_s, untraced_s),
    );
    out.set("trace.spans", spans.len() as f64);
    out.set("trace.dropped_spans", tracer.dropped() as f64);
    out.set("trace.root_ms", root_ns as f64 / 1e6);
    out.set(
        "trace.ledger_sum_pct",
        100.0 * ratio(self_ns as f64, root_ns as f64),
    );
    out.ledger = trace::render_ledger(workload, spans);

    let path =
        std::path::Path::new(env::WORK_DIR).join(format!("trace-{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(env::WORK_DIR).and_then(|()| {
        std::fs::write(&path, trace::chrome_json(workload, spans, tracer.dropped()))
    });
    match written {
        Ok(()) => out
            .ledger
            .push_str(&format!("# spans written to {}\n", path.display())),
        Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
    }
}

/// The peak resident set of this process, in MB.
pub fn own_peak_rss_mb() -> f64 {
    env::peak_rss_mb(std::process::id()).unwrap_or(0.0)
}

/// A cluster whose cores are the Poisson traffic generators of Fig. 5
/// (`mempool_traffic::run_point` builds the same thing privately).
pub fn traffic_cluster(
    config: ClusterConfig,
    load: f64,
    seed: u64,
) -> Result<Cluster<TrafficGen>, String> {
    let map = config.address_map().map_err(|e| e.to_string())?;
    let scrambler = config.scrambler().map_err(|e| e.to_string())?;
    Cluster::new(config, |loc| {
        let (seq_base, seq_bytes, seq_total) = scrambler.map_or((0, 0, 0), |s| {
            (
                s.seq_base(loc.tile as u32),
                s.seq_bytes_per_tile(),
                s.seq_region_bytes() as u32,
            )
        });
        TrafficGen::new(
            load,
            Pattern::Uniform,
            AddressSpace {
                l1_bytes: map.size_bytes() as u32,
                seq_base,
                seq_bytes,
                seq_total,
                tile: loc.tile as u32,
                num_tiles: config.num_tiles as u32,
                banks_per_tile: config.banks_per_tile as u32,
            },
            64,
            seed.wrapping_mul(0x9e37_79b9).wrapping_add(loc.core as u64),
        )
    })
    .map_err(|e| e.to_string())
}
