//! Determinism and accounting contracts of the program-level profiler:
//! the folded-stack export, the power-window series, and the per-core
//! cycle attribution must be bit-identical across checkpoint/restore, and
//! every core cycle must be accounted for.

use mempool::{
    ClusterConfig, ClusterSnapshot, ProfileConfig, SimError, SimSession, Topology,
};

const TOPOLOGIES: [Topology; 3] = [Topology::Ideal, Topology::Top4, Topology::TopH];

/// An all-cores program with contention, region markers, and every stall
/// source the profiler attributes: an AMO on a shared counter, striped
/// stores/loads, and a fence with traffic in flight.
fn program() -> mempool_riscv::Program {
    mempool_riscv::assemble(
        "li t1, 0\n\
         csrw mregion, t1\n\
         csrr t0, mhartid\n\
         li a0, 0x8000\n\
         li a1, 1\n\
         li t1, 1\n\
         csrw mregion, t1\n\
         amoadd.w a2, a1, (a0)\n\
         slli t1, t0, 2\n\
         li t2, 0x10000\n\
         add t1, t1, t2\n\
         sw t0, 0(t1)\n\
         lw t3, 0(t1)\n\
         slli t4, t0, 2\n\
         add t4, t4, t2\n\
         li t1, 3\n\
         csrw mregion, t1\n\
         sw t3, 0x100(t4)\n\
         fence\n\
         ecall\n",
    )
    .expect("valid program")
}

fn profiled_run(topo: Topology) -> (u64, String, String, String) {
    let mut session = SimSession::builder(ClusterConfig::small(topo))
        .profile(ProfileConfig::with_power_window(64))
        .build_snitch()
        .expect("valid config");
    session.load_program(&program()).expect("loads");
    session.run(100_000).expect("finishes");
    let windows = session.power_windows().expect("profiling enabled");
    (
        session.cluster().state_digest(),
        session.profile_folded().expect("profiling enabled"),
        format!("{windows:?}"),
        session.metrics_registry().to_json(),
    )
}

#[test]
fn profile_survives_mid_run_checkpoint_restore() {
    for topo in TOPOLOGIES {
        let (_, folded, windows, metrics) = profiled_run(topo);
        assert!(!folded.is_empty(), "{topo}: empty folded export");

        // Interrupted run: stop mid-flight, snapshot, restore into a fresh
        // session built *without* profiling (the snapshot is authoritative),
        // and finish there.
        let mut first = SimSession::builder(ClusterConfig::small(topo))
            .profile(ProfileConfig::with_power_window(64))
            .build_snitch()
            .expect("valid config");
        first.load_program(&program()).expect("loads");
        match first.run(40) {
            Err(e) => assert!(
                matches!(e, mempool::Error::Sim(SimError::Timeout(_))),
                "{topo}: expected a mid-run timeout, got {e}"
            ),
            Ok(_) => panic!("{topo}: program finished before the checkpoint point"),
        }
        assert!(
            first
                .cluster()
                .component_digests()
                .iter()
                .any(|(name, _)| name == "profile"),
            "{topo}: the component digests must cover `profile`"
        );
        let snap = first.snapshot();

        let mut resumed = SimSession::builder(ClusterConfig::small(topo))
            .build_snitch()
            .expect("valid config");
        resumed.load_program(&program()).expect("loads");
        resumed.restore(&snap).expect("snapshot restores");
        assert!(
            resumed.cluster().profiling_enabled(),
            "{topo}: restore must revive the profiler"
        );
        resumed.run(100_000).expect("finishes");
        let w = resumed.power_windows().expect("profiling enabled");
        assert_eq!(
            resumed.profile_folded().expect("profiling enabled"),
            folded,
            "{topo}: folded stacks after checkpoint/restore diverged"
        );
        assert_eq!(format!("{w:?}"), windows, "{topo}: power windows diverged");
        assert_eq!(
            resumed.metrics_registry().to_json(),
            metrics,
            "{topo}: metrics diverged"
        );
    }
}

#[test]
fn profile_roundtrips_through_the_snapshot_file() {
    let dir = std::env::temp_dir().join(format!(
        "mempool-profile-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("profile.ckpt");

    let mut session = SimSession::builder(ClusterConfig::small(Topology::TopH))
        .profile(ProfileConfig::with_power_window(64))
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
        restored.profile_folded().expect("profiling enabled"),
        session.profile_folded().expect("profiling enabled"),
        "folded stacks must survive the file roundtrip"
    );
    assert_eq!(
        format!("{:?}", restored.power_windows()),
        format!("{:?}", session.power_windows()),
        "power windows must survive the file roundtrip"
    );
    assert_eq!(restored.cluster().state_digest(), session.cluster().state_digest());

    std::fs::remove_dir_all(&dir).ok();
}

/// Every cycle of every core is accounted for:
/// `cycles == instret + total_stalls() + halted_cycles`, per core, on
/// all topologies (fault-free runs).
#[test]
fn every_core_cycle_is_attributed() {
    for topo in TOPOLOGIES {
        let mut session = SimSession::builder(ClusterConfig::small(topo))
            .profile(ProfileConfig::attribution_only())
            .build_snitch()
            .expect("valid config");
        session.load_program(&program()).expect("loads");
        session.run(100_000).expect("finishes");
        for (i, core) in session.cluster().cores().iter().enumerate() {
            let s = core.stats();
            assert_eq!(
                s.cycles,
                s.instret + s.total_stalls() + s.halted_cycles,
                "{topo}: core {i} has unattributed cycles \
                 ({} cycles, {} retired, {} stalled, {} halted)",
                s.cycles,
                s.instret,
                s.total_stalls(),
                s.halted_cycles
            );
            // The profile's region totals must agree with the same
            // stat counters (retired + per-cause stalls).
            let total = core.profile().expect("profiling enabled").total();
            assert_eq!(total.retired, s.instret, "{topo}: core {i} retired");
            assert_eq!(
                total.stall_cycles(),
                s.total_stalls(),
                "{topo}: core {i} stall attribution"
            );
        }
    }
}

/// Profiling changes no architectural state: the digest of a profiled run
/// equals the digest of an unprofiled one... except that the profile is
/// itself digested state once enabled — so compare the shared components.
#[test]
fn profiling_does_not_perturb_the_simulation() {
    let mut plain = SimSession::builder(ClusterConfig::small(Topology::TopH))
        .build_snitch()
        .expect("valid config");
    plain.load_program(&program()).expect("loads");
    let plain_cycles = plain.run(100_000).expect("finishes");

    let mut profiled = SimSession::builder(ClusterConfig::small(Topology::TopH))
        .profile(ProfileConfig::default())
        .build_snitch()
        .expect("valid config");
    profiled.load_program(&program()).expect("loads");
    let profiled_cycles = profiled.run(100_000).expect("finishes");

    assert_eq!(plain_cycles, profiled_cycles, "profiling changed the timing");
    assert_eq!(
        plain.cluster().l1_digest(),
        profiled.cluster().l1_digest(),
        "profiling changed memory contents"
    );
    // All state components except `profile` (and the per-core state
    // images, which embed the profile tables) must be byte-identical.
    let a = plain.cluster().component_digests();
    let b = profiled.cluster().component_digests();
    assert_eq!(a.len(), b.len());
    for ((name_a, da), (name_b, db)) in a.iter().zip(b.iter()) {
        assert_eq!(name_a, name_b);
        if name_a == "profile" || name_a.starts_with("core") {
            continue;
        }
        assert_eq!(da, db, "profiling perturbed the `{name_a}` component");
    }
}
