//! Determinism contract of the observability layer: the metrics registry
//! must be bit-identical across checkpoint/restore, in memory and through
//! a snapshot file; and no observer, alone or with others, changes what
//! the simulation computes.

use mempool::{
    ClusterConfig, ClusterSnapshot, FaultPlan, HostRow, ObsConfig, ProfileConfig, ResilienceConfig,
    SanitizerConfig, SimError, SimSession, Topology,
};

const TOPOLOGIES: [Topology; 3] = [Topology::Ideal, Topology::Top4, Topology::TopH];

/// An all-cores program with real memory contention: every core
/// atomically bumps a shared counter, then reads a striped word.
fn program() -> mempool_riscv::Program {
    mempool_riscv::assemble(
        "csrr t0, mhartid\n\
         li a0, 0x8000\n\
         li a1, 1\n\
         amoadd.w a2, a1, (a0)\n\
         slli t1, t0, 2\n\
         li t2, 0x10000\n\
         add t1, t1, t2\n\
         sw t0, 0(t1)\n\
         lw t3, 0(t1)\n\
         fence\n\
         ecall\n",
    )
    .expect("valid program")
}

fn observed_run(topo: Topology) -> (u64, String, String) {
    let mut session = SimSession::builder(ClusterConfig::small(topo))
        .observability(ObsConfig::with_trace(8))
        .build_snitch()
        .expect("valid config");
    session.load_program(&program()).expect("loads");
    session.run(100_000).expect("finishes");
    let trace = session.timeline().expect("tracing enabled");
    (
        session.cluster().state_digest(),
        session.metrics_registry().to_json(),
        trace.to_chrome_json(),
    )
}

#[test]
fn metrics_survive_mid_run_checkpoint_restore() {
    for topo in TOPOLOGIES {
        // Uninterrupted reference run.
        let (_, reference, _) = observed_run(topo);

        // Interrupted run: stop mid-flight, snapshot, restore into a fresh
        // session (which has observability *disabled* — the snapshot is
        // authoritative), and finish there.
        let mut first = SimSession::builder(ClusterConfig::small(topo))
            .observability(ObsConfig::with_trace(8))
            .build_snitch()
            .expect("valid config");
        first.load_program(&program()).expect("loads");
        match first.run(40) {
            Err(e) => assert!(
                matches!(
                    e,
                    mempool::Error::Sim(SimError::Timeout(_))
                ),
                "{topo}: expected a mid-run timeout, got {e}"
            ),
            Ok(_) => panic!("{topo}: program finished before the checkpoint point"),
        }
        let snap = first.snapshot();

        let mut resumed = SimSession::builder(ClusterConfig::small(topo))
            .build_snitch()
            .expect("valid config");
        resumed.load_program(&program()).expect("loads");
        resumed.restore(&snap).expect("snapshot restores");
        assert!(
            resumed.cluster().observability_enabled(),
            "{topo}: restore must revive the recorder"
        );
        resumed.run(100_000).expect("finishes");
        assert_eq!(
            resumed.metrics_registry().to_json(),
            reference,
            "{topo}: metrics after checkpoint/restore diverged from the \
             uninterrupted run"
        );
    }
}

#[test]
fn snapshot_roundtrip_preserves_metrics_bytes() {
    // Serialize through the on-disk format, not just in-memory state.
    let dir = std::env::temp_dir().join(format!(
        "mempool-obs-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("obs.ckpt");

    let mut session = SimSession::builder(ClusterConfig::small(Topology::TopH))
        .observability(ObsConfig::with_trace(4))
        .build_snitch()
        .expect("valid config");
    session.load_program(&program()).expect("loads");
    session.run(100_000).expect("finishes");
    session.snapshot().write_file(&path).expect("writes");

    let snap = ClusterSnapshot::read_file(&path).expect("reads back");
    let mut restored = SimSession::builder(ClusterConfig::small(Topology::TopH))
        .build_snitch()
        .expect("valid config");
    restored.load_program(&program()).expect("loads");
    restored.restore(&snap).expect("restores");
    assert_eq!(
        restored.metrics_registry().to_json(),
        session.metrics_registry().to_json()
    );
    let (a, b) = (
        restored.timeline().expect("restored trace"),
        session.timeline().expect("original trace"),
    );
    assert_eq!(a, b, "timeline must survive the file roundtrip");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chrome_trace_is_well_formed() {
    let mut session = SimSession::builder(ClusterConfig::small(Topology::TopH))
        .observability(ObsConfig::with_trace(4))
        .build_snitch()
        .expect("valid config");
    session.load_program(&program()).expect("loads");
    session.run(100_000).expect("finishes");
    let trace = session.timeline().expect("tracing enabled");
    assert!(!trace.spans.is_empty(), "no spans sampled");

    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    // The generator emits no braces or brackets inside strings, so
    // balanced delimiters are a real structural check here.
    let count = |c: char| json.chars().filter(|&x| x == c).count();
    assert_eq!(count('{'), count('}'), "unbalanced braces");
    assert_eq!(count('['), count(']'), "unbalanced brackets");
    // One complete ("X") event per retained span.
    assert_eq!(json.matches("\"ph\":\"X\"").count(), trace.spans.len());
    // Metadata names every process (tile) that appears.
    assert!(json.contains("\"process_name\""));
    assert!(json.contains("\"thread_name\""));
}

/// The four opt-in observers, as bits of a subset. Metrics and the profiler
/// become digest-covered state once attached (their own components, and
/// the profiler's tables inside every core image); the sanitizer and the
/// host timer are never digested.
const METRICS: u8 = 1;
const PROFILER: u8 = 2;
const SANITIZER: u8 = 4;
const HOST_TIMER: u8 = 8;

/// What a run computed, plus its state digests.
struct Observed {
    cycles: u64,
    l1: u64,
    /// Per core: pc, halted, the 32 registers.
    cores: Vec<(u32, bool, Vec<u32>)>,
    digest: u64,
    components: Vec<(String, u64)>,
}

/// A faulted run of every core marking regions, filling its own slice and
/// reading it back (loads and stores only, so dropped-link retries are
/// idempotent), on `topology` under the observers of `subset`.
fn observed_with(topology: Topology, subset: u8) -> Observed {
    let program = mempool_riscv::assemble(
        "li   t1, 1\n\
         csrw mregion, t1\n\
         csrr t0, mhartid\n\
         li   t2, 0x10000\n\
         slli t3, t0, 6\n\
         add  t3, t3, t2\n\
         li   t4, 16\n\
         loop:\n\
         sw   t0, 0(t3)\n\
         lw   t5, 0(t3)\n\
         addi t3, t3, 4\n\
         addi t4, t4, -1\n\
         bnez t4, loop\n\
         li   t1, 3\n\
         csrw mregion, t1\n\
         fence\n\
         ecall\n",
    )
    .expect("valid program");
    let mut config = ClusterConfig::small(topology);
    config.resilience = ResilienceConfig {
        request_timeout: 256,
        max_retries: 8,
        watchdog_cycles: 8192,
    };
    let mut builder = SimSession::builder(config)
        .fault_plan(FaultPlan::new(
            9,
            "link_drop=0.01".parse().expect("valid spec"),
        ))
        .host_profile(subset & HOST_TIMER != 0);
    if subset & METRICS != 0 {
        builder = builder.observability(ObsConfig::histograms());
    }
    if subset & PROFILER != 0 {
        builder = builder.profile(ProfileConfig::default());
    }
    if subset & SANITIZER != 0 {
        builder = builder.sanitize(SanitizerConfig::default());
    }
    let mut session = builder.build_snitch().expect("valid config");
    session.load_program(&program).expect("loads");
    let cycles = session.run(400_000).expect("retries recover");
    let cluster = session.cluster();

    if let Some(report) = cluster.sanitizer_report() {
        assert!(report.is_clean(), "{:?}", report.violations);
    }
    let host_scope = session.metrics_registry().counter("host", "cycles").ok();
    match session.host_profile() {
        Some(host) => {
            assert_eq!(host.cycles(), session.now(), "one timed row set per cycle");
            assert!(host.row(HostRow::CorePhase) > std::time::Duration::ZERO);
            assert_eq!(host_scope, Some(host.cycles()));
        }
        None => assert_eq!(host_scope, None, "the host scope appears only while timed"),
    }
    Observed {
        cycles,
        l1: cluster.l1_digest(),
        cores: cluster
            .cores()
            .iter()
            .map(|core| {
                let regs = (0..32)
                    .map(|i| core.reg(mempool_riscv::Reg::new(i).expect("in range")))
                    .collect();
                (core.pc(), core.halted(), regs)
            })
            .collect(),
        digest: cluster.state_digest(),
        components: cluster.component_digests(),
    }
}

/// Every subset of {metrics, profiler, sanitizer, host timer} computes what
/// the unobserved run computes: the same cycles, memory and registers, and
/// the same digest for every component that is not an observer's own
/// state. The digest-excluded observers leave the whole digest unchanged.
#[test]
fn observers_do_not_perturb_the_simulation() {
    for topology in [Topology::Top1, Topology::TopH] {
        let plain = observed_with(topology, 0);
        for subset in 1..16u8 {
            let run = observed_with(topology, subset);
            let ctx = format!("{topology} with observer subset {subset:#06b}");
            assert_eq!(run.cycles, plain.cycles, "{ctx}: timing changed");
            assert_eq!(run.l1, plain.l1, "{ctx}: memory changed");
            assert_eq!(run.cores, plain.cores, "{ctx}: core results changed");
            assert_eq!(run.components.len(), plain.components.len());
            for ((name, d), (plain_name, plain_d)) in run.components.iter().zip(&plain.components) {
                assert_eq!(name, plain_name);
                let observer_state = name == "obs"
                    || name == "profile"
                    || (subset & PROFILER != 0 && name.starts_with("core"));
                if !observer_state {
                    assert_eq!(d, plain_d, "{ctx}: the `{name}` component changed");
                }
            }
            if subset & (METRICS | PROFILER) == 0 {
                assert_eq!(run.digest, plain.digest, "{ctx}: the state digest changed");
            }
        }
    }
}
