//! The three Fig. 7 kernel workloads: `matmul_serial`, `matmul_par2` and
//! `dct_local`. Every rep builds a fresh 256-core TopH cluster and runs the
//! kernel from reset to completion, so the I-caches start empty — what a
//! user who runs one kernel pays.

use crate::probes::{self, Probes};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    attribute, own_peak_rss_mb, ratio, report_job_latency, report_trace, run_probes, Outcome,
    SimCounts, Sizes,
};
use mempool::{
    Cluster, ClusterConfig, ObsConfig, ProfileConfig, SanitizerConfig, SimError, Topology,
};
use mempool_kernels::{build_program, Dct, Geometry, Kernel, Matmul};
use mempool_snitch::SnitchCore;
use std::hint::black_box;
use std::time::Instant;

/// Simulated cycles per `core.run_chunk` span (the chunk a served job
/// checkpoints at is 256; 4096 keeps the span count of a 86 k-cycle run
/// near twenty).
///
/// Passed to the simulator through `black_box`, as every cycle count in
/// this benchmark is: a user's budget is a run-time value, and with a
/// literal the compiler specialises `Cluster::run` and the cycle body it
/// inlines for that one constant — measured here as a 25 % change of
/// `dct_local`'s rate that no user would ever see.
const CHUNK_CYCLES: u64 = 4_096;
const CYCLE_BUDGET: u64 = 200_000_000;
/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Observer on/off pairs of the overhead table (dct_local's traced run).
const OBSERVER_PAIRS: usize = 3;

/// Which kernel workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    MatmulSerial,
    MatmulPar2,
    DctLocal,
}

impl Which {
    fn name(self) -> &'static str {
        match self {
            Which::MatmulSerial => "matmul_serial",
            Which::MatmulPar2 => "matmul_par2",
            Which::DctLocal => "dct_local",
        }
    }

    fn workers(self) -> usize {
        if self == Which::MatmulPar2 {
            2
        } else {
            0
        }
    }

    /// Seconds one rep takes on the reference box.
    fn nominal_rep_seconds(self) -> f64 {
        match self {
            Which::MatmulSerial | Which::MatmulPar2 => 9.0,
            Which::DctLocal => 0.7,
        }
    }

    /// The paper's Fig. 7 figure for TopH with scrambling, as performance
    /// relative to the ideal crossbar: matmul stays within 20 % (≥ 0.8),
    /// dct matches it (1.0).
    fn paper_err_pct(self, toph_cycles: u64, ideal_cycles: u64) -> f64 {
        let relative = ratio(ideal_cycles as f64, toph_cycles as f64);
        match self {
            Which::MatmulSerial | Which::MatmulPar2 => 100.0 * (0.8 - relative).max(0.0) / 0.8,
            Which::DctLocal => 100.0 * (1.0 - relative).abs(),
        }
    }
}

fn kernel_for(which: Which, config: &ClusterConfig) -> Result<Box<dyn Kernel>, String> {
    let geometry = Geometry::from_config(config, 4096);
    Ok(match which {
        Which::MatmulSerial | Which::MatmulPar2 => {
            Box::new(Matmul::new(geometry, 128).map_err(|e| e.to_string())?)
        }
        Which::DctLocal => Box::new(Dct::new(geometry).map_err(|e| e.to_string())?),
    })
}

/// Observers a rep may switch on (the overhead table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observer {
    None,
    Obs,
    Profile,
    Sanitize,
}

/// What one rep runs: the kernel on a configuration, an engine, an
/// observer, an input seed.
#[derive(Clone, Copy)]
struct RepSpec<'a> {
    kernel: &'a dyn Kernel,
    config: ClusterConfig,
    workers: usize,
    observer: Observer,
    seed: u64,
}

/// Everything before the first timed cycle.
fn set_up(spec: RepSpec, tracer: &mut Tracer, op: u32) -> Result<Cluster<SnitchCore>, String> {
    let RepSpec {
        kernel,
        config,
        workers,
        observer,
        seed,
    } = spec;
    let program = tracer
        .scope("kernels.build_program", "kernels", op, |_| {
            build_program(kernel, &config)
        })
        .map_err(|e| e.to_string())?;
    let mut cluster = tracer.scope("core.build", "core", op, |_| -> Result<_, String> {
        let mut cluster = Cluster::snitch(config).map_err(|e| e.to_string())?;
        cluster.set_workers(workers);
        match observer {
            Observer::None => {}
            Observer::Obs => cluster.enable_observability(ObsConfig::histograms()),
            Observer::Profile => cluster.enable_profiling(ProfileConfig::default()),
            Observer::Sanitize => cluster.enable_sanitizer(SanitizerConfig::default()),
        }
        cluster.load_program(&program).map_err(|e| e.to_string())?;
        Ok(cluster)
    })?;
    tracer.scope("kernels.init", "kernels", op, |_| {
        kernel.init(&mut cluster, seed)
    });
    Ok(cluster)
}

struct Rep {
    setup_s: f64,
    run_s: f64,
    total_s: f64,
    cycles: u64,
    digest: u64,
    counts: SimCounts,
    /// Golden-model mismatch or a run that did not complete.
    error: Option<String>,
}

/// One rep: set up, run to completion in chunks, check against the golden
/// model, digest.
fn rep(spec: RepSpec, tracer: &mut Tracer, op: u32) -> Result<Rep, String> {
    let RepSpec { kernel, seed, .. } = spec;
    let root = tracer.begin("rep", "benchmark", op);
    let started = Instant::now();
    let mut cluster = set_up(spec, tracer, op)?;
    let setup_s = started.elapsed().as_secs_f64();

    let run_started = Instant::now();
    let run_span = tracer.begin("core.run", "core", op);
    let mut error = None;
    loop {
        let chunk = tracer.begin("core.run_chunk", "core", op);
        let step = cluster.run(black_box(CHUNK_CYCLES));
        tracer.end(chunk);
        match step {
            Ok(_) => break,
            Err(SimError::Timeout(_)) if cluster.now() < CYCLE_BUDGET => {}
            Err(e) => {
                error = Some(format!("run stopped: {e}"));
                break;
            }
        }
    }
    tracer.end(run_span);
    let run_s = run_started.elapsed().as_secs_f64();

    let checked = tracer.scope("kernels.check", "kernels", op, |_| {
        kernel.check(&cluster, seed)
    });
    if let (None, Err(e)) = (&error, checked) {
        error = Some(format!("golden model mismatch: {e}"));
    }
    if let (None, Some(report)) = (&error, cluster.sanitizer_report()) {
        if !report.violations.is_empty() {
            error = Some(format!(
                "sanitizer reported {} violation(s)",
                report.violations.len()
            ));
        }
    }
    let digest = tracer.scope("core.snapshot.digest", "core.snapshot", op, |_| {
        cluster.state_digest()
    });
    let total_s = started.elapsed().as_secs_f64();
    tracer.end(root);
    Ok(Rep {
        setup_s,
        run_s,
        total_s,
        cycles: cluster.now(),
        digest,
        counts: SimCounts::of(&cluster, Some(cluster.core_stats_total())),
        error,
    })
}

struct Pass {
    reps: Vec<Rep>,
    setups_s: Vec<f64>,
    loop_wall_s: f64,
    tracer: Tracer,
}

fn pass(spec: RepSpec, reps: u64, traced: bool) -> Result<Pass, String> {
    let chunks = 200_000 / CHUNK_CYCLES as usize;
    let mut tracer = Tracer::new(traced, Instant::now(), 0, reps as usize * (chunks + 8));
    let loop_started = Instant::now();
    let mut done = Vec::new();
    for r in 0..reps {
        done.push(rep(spec, &mut tracer, r as u32)?);
    }
    let loop_wall_s = loop_started.elapsed().as_secs_f64();
    let mut setups_s: Vec<f64> = done.iter().map(|r| r.setup_s).collect();
    while setups_s.len() < SETUP_REPS {
        let t = Instant::now();
        drop(set_up(spec, &mut Tracer::off(), 0)?);
        setups_s.push(t.elapsed().as_secs_f64());
    }
    Ok(Pass {
        reps: done,
        setups_s,
        loop_wall_s,
        tracer,
    })
}

/// Counts the pass's failed reps into `out`: a rep fails on a golden
/// mismatch or when it disagrees with the reference run of the same seed.
fn check(out: &mut Outcome, pass: &Pass, reference: &Rep, label: &str) {
    out.ops += pass.reps.len() as u64;
    for (i, r) in pass.reps.iter().enumerate() {
        if let Some(e) = &r.error {
            out.fail(format!("{label} rep {i}: {e}"));
        } else if (r.cycles, r.digest) != (reference.cycles, reference.digest) {
            out.fail(format!(
                "{label} rep {i}: cycles {} digest {:#018x}, the serial run of this seed gives {} {:#018x}",
                r.cycles, r.digest, reference.cycles, reference.digest
            ));
        }
    }
}

/// Runs the workload; see [`crate::serve::run`] for the two modes.
///
/// # Errors
///
/// The simulator rejects the paper configuration or the kernel.
pub fn run(which: Which, seed: u64, sizes: Sizes, traced: bool) -> Result<Outcome, String> {
    let config = ClusterConfig::paper(Topology::TopH);
    let kernel = kernel_for(which, &config)?;
    let spec = RepSpec {
        kernel: kernel.as_ref(),
        config,
        workers: which.workers(),
        observer: Observer::None,
        seed,
    };
    let reps = sizes.ops(which.nominal_rep_seconds(), 1);
    let mut out = Outcome::default();
    let untimed = &mut Tracer::off();

    let plain = pass(spec, reps, false)?;
    // The reference every rep must equal: for the 2-worker engine an
    // untimed serial run of the same seed, otherwise the first rep.
    let serial_reference = match which {
        Which::MatmulPar2 => Some(rep(RepSpec { workers: 0, ..spec }, untimed, 0)?),
        _ => None,
    };
    let reference = serial_reference.as_ref().unwrap_or(&plain.reps[0]);
    check(&mut out, &plain, reference, "untraced");
    if let Some(e) = serial_reference.as_ref().and_then(|r| r.error.as_ref()) {
        out.fail(format!("serial reference run: {e}"));
    }
    out.info
        .push(("state_digest", format!("{:#018x}", plain.reps[0].digest)));

    // One untimed run on the ideal crossbar: the paper's baseline.
    let ideal_spec = RepSpec {
        config: ClusterConfig::paper(Topology::Ideal),
        workers: 0,
        ..spec
    };
    let ideal = rep(ideal_spec, untimed, 0)?;
    if let Some(e) = &ideal.error {
        out.fail(format!("ideal-crossbar reference run: {e}"));
    }
    let err_pct = which.paper_err_pct(reference.cycles, ideal.cycles);

    let first = &plain.reps[0];
    let rates: Vec<f64> = plain
        .reps
        .iter()
        .map(|r| r.cycles as f64 / r.run_s)
        .collect();
    if !traced {
        let counts = &first.counts;
        let instret = counts.core.as_ref().map_or(0, |c| c.instret) as f64;
        let rate = stats::median(&rates);
        out.set("setup_s", stats::median(&plain.setups_s));
        out.set("sim_cycles_per_sec", rate);
        out.set("sim_mips", rate * instret / first.cycles as f64 / 1e6);
        out.set("peak_rss_mb", own_peak_rss_mb());
        out.set("sim_cycles", first.cycles as f64);
        out.set("sim_ipc", ratio(instret, counts.core_cycles()));
        out.set(
            "sim_throughput_req_per_core_cycle",
            ratio(
                counts.stats.responses_delivered as f64,
                counts.core_cycles(),
            ),
        );
        out.set("sim_avg_latency_cycles", counts.stats.latency.mean());
        out.set("paper_agreement_pct", 100.0 - err_pct);
        let ms: Vec<f64> = plain.reps.iter().map(|r| r.total_s * 1e3).collect();
        report_job_latency(&mut out, &ms, plain.loop_wall_s);
        return Ok(out);
    }

    let spans = pass(spec, reps, true)?;
    check(&mut out, &spans, reference, "traced");
    let probes = run_probes(&mut out, seed, which.name())?;
    report_layers(&mut out, &plain, &spans.tracer, &probes);
    out.set("paper.err_pct", err_pct);
    out.set("paper.reference_cycles", ideal.cycles as f64);
    if let Some(serial) = &serial_reference {
        let serial_rate = serial.cycles as f64 / serial.run_s;
        out.set(
            "core.par2_speedup",
            ratio(stats::median(&rates), serial_rate),
        );
    }
    if which == Which::DctLocal {
        observer_overheads(&mut out, spec, first)?;
    }
    let run_s = |p: &Pass| p.reps.iter().map(|r| r.run_s).sum::<f64>();
    report_trace(
        &mut out,
        which.name(),
        seed,
        &spans.tracer,
        run_s(&plain),
        run_s(&spans),
    );
    Ok(out)
}

fn report_layers(out: &mut Outcome, plain: &Pass, tracer: &Tracer, probes: &Probes) {
    let first = &plain.reps[0];
    first.counts.report(out);
    let run_s: f64 = plain.reps.iter().map(|r| r.run_s).sum();
    let cycles: u64 = plain.reps.iter().map(|r| r.cycles).sum();
    out.set("core.cycle_ns", ratio(run_s * 1e9, cycles as f64));
    let chunk_ms = tracer.durations_ms("core.run_chunk");
    out.set("core.run_chunk_ms.p50", stats::median(&chunk_ms));
    out.set("core.run_chunk_ms.p90", stats::percentile(&chunk_ms, 90.0));
    let p50 = |name: &str| stats::median(&tracer.durations_ms(name));
    out.set("kernels.build_program_ms", p50("kernels.build_program"));
    out.set("kernels.init_ms", p50("kernels.init"));
    out.set("kernels.check_ms", p50("kernels.check"));
    let per_rep_ns = run_s * 1e9 / plain.reps.len() as f64;
    let iss_ns = probes::get(probes, "snitch.step_ns") * first.counts.core_cycles();
    attribute(out, probes, &first.counts, per_rep_ns, iss_ns);
}

/// The observer-overhead table: one rep with the observer on against one
/// with it off, alternating which goes first, on the same seed. The
/// observers must not change simulated time; a pair that disagrees fails.
fn observer_overheads(out: &mut Outcome, spec: RepSpec, reference: &Rep) -> Result<(), String> {
    let untimed = &mut Tracer::off();
    for (metric, observer) in [
        ("core.obs.overhead_pct", Observer::Obs),
        ("core.profile.overhead_pct", Observer::Profile),
        ("core.sanitize.overhead_pct", Observer::Sanitize),
    ] {
        let mut overheads = Vec::new();
        for pair in 0..OBSERVER_PAIRS {
            let order = if pair % 2 == 0 {
                [Observer::None, observer]
            } else {
                [observer, Observer::None]
            };
            let mut run_s = [0.0; 2];
            for which in order {
                let r = rep(
                    RepSpec {
                        observer: which,
                        ..spec
                    },
                    untimed,
                    0,
                )?;
                out.ops += 1;
                if let Some(e) = &r.error {
                    out.fail(format!("{metric} rep: {e}"));
                } else if r.cycles != reference.cycles {
                    out.fail(format!(
                        "{metric}: the observer changed simulated time ({} cycles, {} without)",
                        r.cycles, reference.cycles
                    ));
                }
                run_s[usize::from(which != Observer::None)] = r.run_s;
            }
            overheads.push(100.0 * (run_s[1] - run_s[0]) / run_s[0]);
        }
        out.set(metric, stats::median(&overheads));
    }
    Ok(())
}
