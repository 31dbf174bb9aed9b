//! `traffic_sat`: the Fig. 5 method past saturation. 256 Poisson traffic
//! generators replace the cores, destinations uniform over all banks,
//! offered load 0.5 request/core/cycle — above the ≈0.38 TopH can deliver,
//! so every register stage and arbiter of the interconnect is full and no
//! instruction is ever simulated.

use crate::probes::{self, Probes};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    attribute, own_peak_rss_mb, ratio, report_job_latency, report_trace, run_probes,
    traffic_cluster, Outcome, SimCounts, Sizes,
};
use mempool::{ClusterConfig, LatencyStats, Topology};
use std::hint::black_box;
use std::time::Instant;

const LOAD: f64 = 0.5;
const WARMUP_CYCLES: u64 = 2_000;
const WINDOW_CYCLES: u64 = 10_000;
/// One window takes about this long on the reference box.
const NOMINAL_WINDOW_SECONDS: f64 = 1.75;
/// The paper's TopH saturation throughput (Fig. 5a), request/core/cycle.
const PAPER_SATURATION: f64 = 0.38;
/// Cluster constructions per run; their median enters `setup_s`.
const SETUP_REPS: usize = 5;

struct Pass {
    construct_s: Vec<f64>,
    warmup_s: f64,
    window_s: Vec<f64>,
    /// Responses delivered in the timed windows.
    delivered: u64,
    /// Requests the generators injected in the timed windows.
    injected: u64,
    latency: LatencyStats,
    counts: SimCounts,
    tracer: Tracer,
}

fn pass(seed: u64, windows: u64, traced: bool) -> Result<Pass, String> {
    let config = ClusterConfig::paper(Topology::TopH);
    let mut tracer = Tracer::new(traced, Instant::now(), 0, windows as usize * 2 + 8);
    let mut construct_s = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        let t = Instant::now();
        drop(traffic_cluster(config, LOAD, seed)?);
        construct_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let mut cluster = tracer.scope("core.build", "core", 0, |_| {
        traffic_cluster(config, LOAD, seed)
    })?;
    construct_s.push(t.elapsed().as_secs_f64());

    let t = Instant::now();
    tracer.scope("core.warmup", "core", 0, |_| {
        cluster.step_cycles(black_box(WARMUP_CYCLES))
    });
    let warmup_s = t.elapsed().as_secs_f64();
    for gen in cluster.cores_mut() {
        gen.start_measuring();
    }
    let injected_before: u64 = cluster.cores().iter().map(|g| g.stats().injected).sum();
    let delivered_before = cluster.stats().responses_delivered;

    let mut window_s = Vec::new();
    for w in 0..windows {
        let t = Instant::now();
        tracer.scope("window", "benchmark", w as u32 + 1, |tr| {
            tr.scope("core.run_chunk", "core", w as u32 + 1, |_| {
                cluster.step_cycles(black_box(WINDOW_CYCLES))
            });
        });
        window_s.push(t.elapsed().as_secs_f64());
    }

    let mut latency = LatencyStats::new();
    for gen in cluster.cores() {
        latency.merge(&gen.stats().latency);
    }
    Ok(Pass {
        construct_s,
        warmup_s,
        window_s,
        delivered: cluster.stats().responses_delivered - delivered_before,
        injected: cluster
            .cores()
            .iter()
            .map(|g| g.stats().injected)
            .sum::<u64>()
            - injected_before,
        latency,
        counts: SimCounts::of(&cluster, None),
        tracer,
    })
}

/// Windows in which the network delivered nothing are the only way this
/// workload can fail: the simulator has no golden output for synthetic
/// traffic, but saturated TopH must keep delivering.
fn check(out: &mut Outcome, p: &Pass, label: &str) {
    out.ops += p.window_s.len() as u64;
    let core_cycles = (p.window_s.len() as u64 * WINDOW_CYCLES * p.counts.cores) as f64;
    let throughput = ratio(p.delivered as f64, core_cycles);
    if !(0.2..=LOAD).contains(&throughput) {
        out.fail(format!(
            "{label}: delivered {throughput:.4} request/core/cycle, outside (0.2, offered {LOAD}]"
        ));
    }
    if p.counts.stats.memory_faults != 0 {
        out.fail(format!(
            "{label}: {} requests fell outside L1",
            p.counts.stats.memory_faults
        ));
    }
}

fn paper_err_pct(throughput: f64) -> f64 {
    100.0 * (throughput - PAPER_SATURATION).abs() / PAPER_SATURATION
}

/// Runs the workload; see [`crate::serve::run`] for the two modes.
///
/// # Errors
///
/// The paper configuration is rejected by the simulator.
pub fn run(seed: u64, sizes: Sizes, traced: bool) -> Result<Outcome, String> {
    let windows = sizes.ops(NOMINAL_WINDOW_SECONDS, 1);
    let mut out = Outcome::default();
    let plain = pass(seed, windows, false)?;
    check(&mut out, &plain, "untraced");

    let timed_cycles = windows * WINDOW_CYCLES;
    let core_cycles = (timed_cycles * plain.counts.cores) as f64;
    let throughput = ratio(plain.delivered as f64, core_cycles);
    let timed_s: f64 = plain.window_s.iter().sum();
    if !traced {
        let rates: Vec<f64> = plain
            .window_s
            .iter()
            .map(|s| WINDOW_CYCLES as f64 / s)
            .collect();
        let ops_rates: Vec<f64> = plain
            .window_s
            .iter()
            .map(|s| plain.injected as f64 / windows as f64 / (s * 1e6))
            .collect();
        out.set(
            "setup_s",
            stats::median(&plain.construct_s) + plain.warmup_s,
        );
        out.set("sim_cycles_per_sec", stats::median(&rates));
        out.set("sim_mips", stats::median(&ops_rates));
        out.set("peak_rss_mb", own_peak_rss_mb());
        out.set("sim_cycles", WINDOW_CYCLES as f64);
        out.set("sim_ipc", ratio(plain.injected as f64, core_cycles));
        out.set("sim_throughput_req_per_core_cycle", throughput);
        out.set("sim_avg_latency_cycles", plain.latency.mean());
        out.set("paper_agreement_pct", 100.0 - paper_err_pct(throughput));
        let ms: Vec<f64> = plain.window_s.iter().map(|s| s * 1e3).collect();
        report_job_latency(&mut out, &ms, timed_s);
        return Ok(out);
    }

    let spans = pass(seed, windows, true)?;
    check(&mut out, &spans, "traced");
    if spans.delivered != plain.delivered || spans.latency != plain.latency {
        out.fail("traced and untraced passes of one seed simulated different traffic".to_owned());
    }
    let probes = run_probes(&mut out, seed, "traffic")?;

    report_layers(&mut out, &plain, &probes, timed_s, timed_cycles);
    out.set("paper.err_pct", paper_err_pct(throughput));
    out.set("paper.reference_cycles", 0.0);
    let traced_s: f64 = spans.window_s.iter().sum();
    report_trace(
        &mut out,
        "traffic_sat",
        seed,
        &spans.tracer,
        timed_s,
        traced_s,
    );
    Ok(out)
}

fn report_layers(
    out: &mut Outcome,
    plain: &Pass,
    probes: &Probes,
    timed_s: f64,
    timed_cycles: u64,
) {
    plain.counts.report(out);
    out.set("core.cycle_ns", ratio(timed_s * 1e9, timed_cycles as f64));
    let chunk_ms: Vec<f64> = plain.window_s.iter().map(|s| s * 1e3).collect();
    out.set("core.run_chunk_ms.p50", stats::median(&chunk_ms));
    out.set("core.run_chunk_ms.p90", stats::percentile(&chunk_ms, 90.0));
    // Counts cover warm-up plus windows; so does the wall they are set
    // against.
    let wall_ns = (timed_s + plain.warmup_s) * 1e9;
    let generator_steps = plain.counts.core_cycles();
    attribute(
        out,
        probes,
        &plain.counts,
        wall_ns,
        probes::get(probes, "traffic.gen_step_ns") * generator_steps,
    );
}
