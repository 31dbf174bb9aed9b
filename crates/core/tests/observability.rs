//! Determinism contract of the observability layer: the metrics registry
//! must be bit-identical across checkpoint/restore, in memory and through
//! a snapshot file.

use mempool::{
    ClusterConfig, ClusterSnapshot, ObsConfig, SimError, SimSession, Topology,
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
