//! Checkpoint/restore contract tests: restoring a mid-run snapshot and
//! continuing is cycle-for-cycle bit-identical to never snapshotting — with
//! and without an active fault plan — the canonical state digest is stable
//! across identical runs, serialized snapshots survive the disk roundtrip
//! (and corruption is detected), and the divergence bisector localizes the
//! first cycle at which a faulted run departs from a clean one.

use mempool::{
    bisect_divergence, Cluster, ClusterConfig, ClusterSnapshot, FaultPlan, FaultSpec,
    ResilienceConfig, SanitizerConfig, SnapshotError, Topology,
};
use mempool_riscv::assemble;

/// Every core, after a short delay, fills its own 16-word slice of
/// `0x10000..` with its hart ID and reads it back — loads and stores only,
/// so injected-fault retries are idempotent.
fn store_load_program() -> mempool_riscv::Program {
    assemble(
        "csrr t0, mhartid\n\
         li   t1, 60\n\
         delay:\n\
         addi t1, t1, -1\n\
         bnez t1, delay\n\
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
         ecall\n",
    )
    .expect("test program assembles")
}

fn resilient(topology: Topology) -> ClusterConfig {
    let mut config = ClusterConfig::small(topology);
    config.resilience = ResilienceConfig::standard();
    config
}

fn snitch_cluster(
    config: ClusterConfig,
    plan: Option<FaultPlan>,
) -> Cluster<mempool_snitch::SnitchCore> {
    let mut cluster = Cluster::snitch(config).expect("valid config");
    cluster.load_program(&store_load_program()).expect("program loads");
    cluster.install_fault_plan(plan);
    cluster
}

/// The core invariant: snapshot at `mid`, restore into a *fresh* cluster,
/// continue — final digest, L1 contents, and full `ClusterStats` must be
/// bit-identical to the uninterrupted run — and the restored cluster
/// re-encodes to the snapshot's own bytes.
fn assert_roundtrip(config: ClusterConfig, plan: Option<FaultSpec>, mid: u64, total: u64) {
    let plan_of = |spec: &Option<FaultSpec>| spec.map(|s| FaultPlan::new(5, s));

    let mut uninterrupted = snitch_cluster(config, plan_of(&plan));
    uninterrupted.step_cycles(total);

    let mut original = snitch_cluster(config, plan_of(&plan));
    original.step_cycles(mid);
    let snap = original.snapshot();
    assert_eq!(snap.cycle(), mid);
    assert_eq!(snap.state_digest(), original.state_digest());
    original.step_cycles(total - mid);

    // The fresh cluster gets no fault plan of its own: the snapshot must
    // carry the plan (and the scheduled-failure cursor) across. Its
    // sanitizer is re-synced by the restore, never snapshotted: decoding
    // and re-encoding give back the very bytes.
    let mut restored = snitch_cluster(config, None);
    restored.enable_sanitizer(SanitizerConfig::default());
    restored.restore(&snap).expect("snapshot restores");
    assert_eq!(restored.now(), mid);
    assert_eq!(restored.state_digest(), snap.state_digest());
    assert!(restored.snapshot().as_bytes() == snap.as_bytes(), "re-encoding moved the image");
    restored.step_cycles(total - mid);

    assert_eq!(original.state_digest(), uninterrupted.state_digest());
    assert_eq!(restored.state_digest(), uninterrupted.state_digest());
    assert_eq!(restored.l1_digest(), uninterrupted.l1_digest());
    assert_eq!(restored.stats(), uninterrupted.stats());
    assert_eq!(restored.now(), uninterrupted.now());
}

#[test]
fn roundtrip_is_bit_identical_fault_free() {
    for topology in [Topology::Ideal, Topology::Top1, Topology::TopH] {
        assert_roundtrip(ClusterConfig::small(topology), None, 700, 2_000);
    }
}

#[test]
fn roundtrip_is_bit_identical_under_active_fault_plan() {
    let spec: FaultSpec = "bank_fail=2,bank_stall=0.01,link_stall=0.01,link_drop=0.002,\
                           link_corrupt=0.002,core_lockup=0.001,spurious_retire=0.001"
        .parse()
        .expect("valid spec");
    for topology in [Topology::Top1, Topology::TopH] {
        let config = resilient(topology);
        // Snapshot cycles straddle the scheduled bank failures and the
        // retry machinery's busiest window.
        for mid in [150, 900, 2_500] {
            assert_roundtrip(config, Some(spec), mid, 4_000);
        }
        // Sanity: the plan demonstrably injected something in this window.
        let mut cluster = snitch_cluster(config, Some(FaultPlan::new(5, spec)));
        cluster.step_cycles(4_000);
        assert!(cluster.stats().faults.total_injected() > 0);
    }
}

/// Property-style sweep: random specs and random snapshot points, all
/// seeded, never diverge and never panic.
#[test]
fn roundtrip_property_sweep() {
    let specs: [FaultSpec; 3] = [
        "bank_fail=1".parse().expect("valid spec"),
        "link_drop=0.005,link_corrupt=0.003".parse().expect("valid spec"),
        "bank_stall=0.05,core_lockup=0.002".parse().expect("valid spec"),
    ];
    for (i, spec) in specs.into_iter().enumerate() {
        let mid = 300 + 617 * i as u64; // arbitrary, spec-dependent
        assert_roundtrip(resilient(Topology::TopH), Some(spec), mid, 2_400);
    }
}

#[test]
fn state_digest_is_stable_across_identical_runs() {
    let run = || {
        let mut cluster = snitch_cluster(ClusterConfig::small(Topology::TopH), None);
        let mut digests = Vec::new();
        for _ in 0..8 {
            cluster.step_cycles(250);
            digests.push(cluster.state_digest());
        }
        digests
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical runs must digest identically at every probe");
    // And the digest actually evolves with the machine state.
    assert!(a.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn snapshot_bytes_roundtrip_and_detect_corruption() {
    let mut cluster = snitch_cluster(ClusterConfig::small(Topology::Top1), None);
    cluster.step_cycles(500);
    let snap = cluster.snapshot();

    let parsed = ClusterSnapshot::from_bytes(snap.as_bytes()).expect("roundtrips");
    assert_eq!(parsed, snap);

    // Flip one byte in the state section: digest check must catch it.
    let mut corrupt = snap.as_bytes().to_vec();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    assert_eq!(
        ClusterSnapshot::from_bytes(&corrupt),
        Err(SnapshotError::DigestMismatch)
    );

    // A foreign file is rejected by magic, a short one by length.
    assert_eq!(
        ClusterSnapshot::from_bytes(&[0x55u8; 64]),
        Err(SnapshotError::BadMagic)
    );
    assert_eq!(
        ClusterSnapshot::from_bytes(&snap.as_bytes()[..20]),
        Err(SnapshotError::Truncated)
    );
}

#[test]
fn snapshot_file_roundtrip() {
    let mut cluster = snitch_cluster(ClusterConfig::small(Topology::TopH), None);
    cluster.step_cycles(300);
    let snap = cluster.snapshot();
    let path = std::env::temp_dir().join(format!(
        "mempool-snapshot-test-{}.ckpt",
        std::process::id()
    ));
    snap.write_file(&path).expect("snapshot writes");
    let loaded = ClusterSnapshot::read_file(&path).expect("snapshot reads back");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, snap);
}

#[test]
fn restore_rejects_mismatched_config_and_image() {
    let mut cluster = snitch_cluster(ClusterConfig::small(Topology::TopH), None);
    cluster.step_cycles(100);
    let snap = cluster.snapshot();

    let mut other_topology = snitch_cluster(ClusterConfig::small(Topology::Top1), None);
    assert_eq!(
        other_topology.restore(&snap),
        Err(SnapshotError::ConfigMismatch)
    );

    let mut other_program = Cluster::snitch(ClusterConfig::small(Topology::TopH))
        .expect("valid config");
    other_program
        .load_program(&assemble("ecall\n").expect("assembles"))
        .expect("program loads");
    assert_eq!(
        other_program.restore(&snap),
        Err(SnapshotError::ImageMismatch)
    );
}

/// The bisector pinpoints the first cycle a faulted run departs from a
/// clean one: the first scheduled bank failure. The fault-plan *parameters*
/// are excluded from the digest by design, so the two runs agree bitwise up
/// to that cycle.
#[test]
fn bisector_localizes_first_injected_fault() {
    let config = resilient(Topology::TopH);
    let spec: FaultSpec = "bank_fail=2".parse().expect("valid spec");
    let plan = FaultPlan::new(9, spec);
    let first_failure = plan
        .bank_failures(config.num_tiles as u32, config.banks_per_tile as u32)
        .iter()
        .map(|f| f.cycle)
        .min()
        .expect("plan schedules failures");

    let mut clean = snitch_cluster(config, None);
    let mut faulted = snitch_cluster(config, Some(plan));
    let report = bisect_divergence(&mut clean, &mut faulted, first_failure + 1_000, 256)
        .expect("runs must diverge at the injected failure");

    // `Cluster::cycle` advances `now` and then applies scheduled faults, so
    // the first post-step digest exposing the failure is at exactly its
    // scheduled cycle.
    assert_eq!(report.cycle, first_failure);
    assert!(!report.components.is_empty());
    let names: Vec<&str> = report.components.iter().map(|c| c.component.as_str()).collect();
    assert!(
        names.iter().any(|n| *n == "quarantine" || *n == "fault-log" || n.starts_with("tile")),
        "diff must name the faulted structure, got {names:?}"
    );
    // Both clusters are left parked at the divergent cycle.
    assert_eq!(clean.now(), report.cycle);
    assert_eq!(faulted.now(), report.cycle);
    // The report renders.
    assert!(format!("{report}").contains("first divergence at cycle"));
}

/// Identical runs never "diverge".
#[test]
fn bisector_reports_none_for_identical_runs() {
    let config = ClusterConfig::small(Topology::Top1);
    let mut a = snitch_cluster(config, None);
    let mut b = snitch_cluster(config, None);
    assert_eq!(bisect_divergence(&mut a, &mut b, 1_500, 128), None);
    assert_eq!(a.now(), 1_500);
    assert_eq!(a.state_digest(), b.state_digest());
}
