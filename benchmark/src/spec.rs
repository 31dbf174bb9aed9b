//! The benchmark's declared surface: workload and metric names, units and
//! directions. `BENCHMARK.json` at the repository root declares the same
//! sets (a test keeps the two equal); the regress bounds live only there.

use crate::json::{self, Value};
use std::path::Path;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated-time metric: a function of the simulated machine and the
    /// seed only, so two runs of one commit and seed must agree bit for bit
    /// and `compare` treats any difference as a change of the model.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The five workloads and why each was chosen (one line; README.md has the
/// full paragraph).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "matmul_serial",
        "Fig. 7 matmul n=128 on 256-core TopH, serial engine: 98% remote accesses, every layer busy; the reference no engine change may slow",
    ),
    (
        "matmul_par2",
        "the same matmul through set_workers(2): the core layer used the other way; fork-join cost shows here only; digests must equal the serial run",
    ),
    (
        "dct_local",
        "Fig. 7 dct: 100% tile-local, IPC 0.87; ISS, I-cache, tile crossbar and banks do all the work, so a long-haul noc change must show no change",
    ),
    (
        "traffic_sat",
        "Fig. 5 uniform traffic at load 0.5, past TopH saturation: no ISS at all, every register stage and arbiter full; an ISS change must show no change",
    ),
    (
        "serve_small_jobs",
        "closed loop of 2 clients submitting ~500-cycle 64-core jobs to mempool-serve: service overhead (spawn, fsync, socket, checkpoint, 70 KB document) decides it",
    ),
];

/// The end-to-end metrics. Every workload reports every one of them; what
/// each means on each workload is tabulated in README.md.
pub const END_TO_END: [MetricSpec; 12] = [
    host("setup_s", "s", Lower),
    host("sim_cycles_per_sec", "cycles/s", Higher),
    host("sim_mips", "MIPS", Higher),
    host("peak_rss_mb", "MB", Lower),
    exact("sim_cycles", "cycles", Lower),
    exact("sim_ipc", "instr/cycle", Higher),
    exact(
        "sim_throughput_req_per_core_cycle",
        "req/core/cycle",
        Higher,
    ),
    exact("sim_avg_latency_cycles", "cycles", Lower),
    exact("paper_agreement_pct", "%", Higher),
    host("jobs_per_sec", "1/s", Higher),
    host("job_latency_p50_ms", "ms", Lower),
    host("job_latency_p90_ms", "ms", Lower),
];

/// The per-layer metrics of the traced run, layer by layer. Probes (a
/// public function of one layer timed in isolation) are reported by every
/// workload; counts and span statistics are reported by the workloads that
/// exercise the layer and read 0 elsewhere.
pub const PER_LAYER: &[MetricSpec] = &[
    // riscv
    host("riscv.assemble_ms", "ms", Lower),
    host("riscv.decode_ns_per_instr", "ns", Lower),
    // snitch
    host("snitch.step_ns", "ns", Lower),
    host("snitch.share_pct", "%", Lower),
    exact("snitch.instret", "count", Lower),
    exact("snitch.stall_port", "count", Lower),
    exact("snitch.stall_scoreboard", "count", Lower),
    exact("snitch.stall_fetch", "count", Lower),
    exact("snitch.stall_lsu_full", "count", Lower),
    exact("snitch.stall_exec", "count", Lower),
    exact("snitch.stall_fence", "count", Lower),
    exact("snitch.halted_cycles", "count", Lower),
    // mem
    host("mem.bank_access_ns", "ns", Lower),
    host("mem.addr_decode_ns", "ns", Lower),
    host("mem.icache_probe_ns", "ns", Lower),
    host("mem.share_pct", "%", Lower),
    exact("mem.bank_accesses", "count", Lower),
    exact("mem.icache_hit_ratio", "ratio", Higher),
    exact("mem.icache_refills", "count", Lower),
    // noc
    host("noc.crossbar16_resolve_ns", "ns", Lower),
    host("noc.butterfly16_resolve_ns", "ns", Lower),
    host("noc.butterfly64_resolve_ns", "ns", Lower),
    host("noc.resolve_ns_per_offer", "ns", Lower),
    exact("noc.grant_ratio", "ratio", Higher),
    host("noc.elastic_roundtrip_ns", "ns", Lower),
    host("noc.ring_advance_ns", "ns", Lower),
    host("noc.share_pct", "%", Lower),
    exact("noc.link_pushes", "count", Lower),
    exact("noc.net_occupancy", "ratio", Lower),
    exact("noc.requests_local", "count", Higher),
    exact("noc.requests_group_local", "count", Higher),
    exact("noc.requests_remote", "count", Lower),
    // core (the cycle engine)
    host("core.cycle_ns", "ns", Lower),
    host("core.cycle_ns_idle", "ns", Lower),
    host("core.cycle_ns_idle_par2", "ns", Lower),
    host("core.forkjoin_ns_per_cycle", "ns", Lower),
    host("core.par2_speedup", "ratio", Higher),
    host("core.build_ms", "ms", Lower),
    host("core.reset_ms", "ms", Lower),
    host("core.run_chunk_ms.p50", "ms", Lower),
    host("core.run_chunk_ms.p90", "ms", Lower),
    host("core.unattributed_pct", "%", Lower),
    // core.snapshot
    exact("core.snapshot.bytes", "bytes", Lower),
    host("core.snapshot.encode_mib_s", "MiB/s", Higher),
    host("core.snapshot.decode_mib_s", "MiB/s", Higher),
    host("core.snapshot.restore_ms", "ms", Lower),
    host("core.snapshot.digest_ms", "ms", Lower),
    host("core.snapshot.park_ms", "ms", Lower),
    host("core.snapshot.unpark_ms", "ms", Lower),
    // core.obs / core.profile / core.sanitize
    host("core.obs.overhead_pct", "%", Lower),
    host("core.profile.overhead_pct", "%", Lower),
    host("core.sanitize.overhead_pct", "%", Lower),
    host("core.obs.render_ms", "ms", Lower),
    exact("core.obs.doc_bytes", "bytes", Lower),
    // kernels
    host("kernels.build_program_ms", "ms", Lower),
    host("kernels.init_ms", "ms", Lower),
    host("kernels.check_ms", "ms", Lower),
    // traffic
    host("traffic.gen_step_ns", "ns", Lower),
    host("traffic.flat_json_parse_ns", "ns", Lower),
    host("traffic.json_escape_mib_s", "MiB/s", Higher),
    // serve
    host("serve.protocol.parse_us", "us", Lower),
    host("serve.protocol.render_us", "us", Lower),
    host("serve.sched.op_ns", "ns", Lower),
    host("serve.journal.append_ms.p50", "ms", Lower),
    host("serve.journal.append_ms.p90", "ms", Lower),
    host("serve.journal.replay_ms_per_kline", "ms", Lower),
    host("serve.client.submit_ms.p50", "ms", Lower),
    host("serve.client.wait_ms.p50", "ms", Lower),
    host("serve.client.timeline_ms.p50", "ms", Lower),
    host("serve.daemon.queue_ms.p50", "ms", Lower),
    host("serve.daemon.run_ms.p50", "ms", Lower),
    host("serve.daemon.first_heartbeat_ms.p50", "ms", Lower),
    host("serve.daemon.overhead_ms.p50", "ms", Lower),
    host("serve.worker.sim_ms", "ms", Lower),
    host("serve.overhead_ratio", "ratio", Lower),
    host("serve.metrics_doc_cost_ms", "ms", Lower),
    exact("serve.doc_bytes", "bytes", Lower),
    host("serve.job_latency_ms.tail", "ms", Lower),
    exact("serve.job_latency_tail_pctile", "%", Higher),
    host("serve.daemon_start_ms", "ms", Lower),
    exact("serve.jobs_completed", "count", Higher),
    exact("serve.workers_spawned", "count", Lower),
    exact("serve.journal_appends", "count", Lower),
    exact("serve.stream_records", "count", Lower),
    exact("serve.retries", "count", Lower),
    // accuracy against the paper, before the never-zero transform
    exact("paper.err_pct", "%", Lower),
    exact("paper.reference_cycles", "cycles", Lower),
    // the tracer itself
    host("trace.overhead_pct", "%", Lower),
    exact("trace.spans", "count", Lower),
    exact("trace.dropped_spans", "count", Lower),
    host("trace.root_ms", "ms", Lower),
    host("trace.ledger_sum_pct", "%", Higher),
    host("trace.probes_ms", "ms", Lower),
];

/// Looks a per-layer or end-to-end metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// A name as the benchmark contract allows it: starts with a letter or a
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this benchmark reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

impl Declared {
    /// The regress bound of an end-to-end metric.
    pub fn bound(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().find(|m| m.name == name)?.bound
    }
}

/// Reads `BENCHMARK.json`.
///
/// # Errors
///
/// The file is missing, not JSON, or lacks a declared key.
pub fn load_declared(path: &Path) -> Result<Declared, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: no `{key}` list", path.display()))
    };
    let text_of = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{}: an entry lacks `{key}`", path.display()))
    };
    let metrics = |key: &str| -> Result<Vec<DeclaredMetric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(DeclaredMetric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better: text_of(m, "better")?,
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{}: no `run_seconds`", path.display()))?,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|(w, _)| *w)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "`{name}` is not a valid name");
            assert!(seen.insert(name), "`{name}` is declared twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{m:?}"
            );
        }
        for (w, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{w}: why is one line of <= 200"
            );
        }
        assert!(
            !valid_name("")
                && !valid_name("_x")
                && !valid_name("a b")
                && !valid_name(&"a".repeat(65))
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_these_sets() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let declared = load_declared(&root.join("BENCHMARK.json")).expect("BENCHMARK.json reads");
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        assert_eq!(declared.workloads, names);
        for (have, want) in [
            (&declared.end_to_end, &END_TO_END[..]),
            (&declared.per_layer, PER_LAYER),
        ] {
            assert_eq!(have.len(), want.len());
            for (h, w) in have.iter().zip(want) {
                assert_eq!(
                    (h.name.as_str(), h.unit.as_str(), h.better.as_str()),
                    (w.name, w.unit, w.better.as_str())
                );
            }
        }
        for m in &declared.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(declared.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1.0..=60.0).contains(&declared.run_seconds));
    }
}
