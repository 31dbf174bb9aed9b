//! Pinned `state_digest`s: every topology × {fault-free, seeded fault plan
//! with quarantine and retries} × {16, 64 cores} × {synthetic traffic, a
//! small matmul}, stepped 2 000 cycles.
//!
//! The constants below were recorded on the commit *before* the cycle's
//! hot data structures (elastic registers, fabric arbitration, the issue
//! path) were replaced (a46ebd0) and must never move under a host-side
//! optimisation. If a change to the *model* moves them on purpose,
//! re-record from the table the failing assertion prints.

use mempool::{Cluster, ClusterConfig, Core, FaultPlan, FaultSpec, ResilienceConfig, Topology};
use mempool_kernels::{build_program, Geometry, Kernel, Matmul};
use mempool_traffic::{AddressSpace, Pattern, TrafficGen};

const CYCLES: u64 = 2_000;
const FAULTS: &str = "bank_fail=2,bank_stall=0.01,link_stall=0.01,link_drop=0.002,\
                      link_corrupt=0.002,core_lockup=0.001,spurious_retire=0.001";

/// `(workload/topology/cores/faults, digest after CYCLES)`.
const PINNED: &[(&str, u64)] = &[
    ("traffic/ideal/16/clean", 0xbadac2e1e18498b2),
    ("traffic/ideal/16/faults", 0xf38f5bf2ed8699b2),
    ("traffic/ideal/64/clean", 0x9e61e298c5300115),
    ("traffic/ideal/64/faults", 0x7bfbad63b420cb85),
    ("traffic/top1/16/clean", 0x315b85faf66ddf99),
    ("traffic/top1/16/faults", 0xe80c68065d7a492e),
    ("traffic/top1/64/clean", 0x9279ddb910eec930),
    ("traffic/top1/64/faults", 0x3158da57c4dd695b),
    ("traffic/top4/16/clean", 0xd01c741fcb26f379),
    ("traffic/top4/16/faults", 0x78c690c7cd51eef2),
    ("traffic/top4/64/clean", 0x76d1cd32889b9174),
    ("traffic/top4/64/faults", 0xba238e7df13e9037),
    ("traffic/topH/16/clean", 0x48a7d4eeb732ce56),
    ("traffic/topH/16/faults", 0xb979ab1fdac6a1f2),
    ("traffic/topH/64/clean", 0xfb858f43abf15e1c),
    ("traffic/topH/64/faults", 0x1e3c5527e7253825),
    ("matmul/ideal/16/clean", 0x4372d1dbac7169a6),
    ("matmul/ideal/16/faults", 0x37065f0c198474fe),
    ("matmul/ideal/64/clean", 0xce0dc6f5ed2e3d38),
    ("matmul/ideal/64/faults", 0xc5b5810a61fa8399),
    ("matmul/top1/16/clean", 0x084eae97b9dcf0b3),
    ("matmul/top1/16/faults", 0x34e16a6ca2a764e1),
    ("matmul/top1/64/clean", 0x889d204d79ffdd41),
    ("matmul/top1/64/faults", 0xfc89d04a9331f898),
    ("matmul/top4/16/clean", 0x9500ac1dd15f8a58),
    ("matmul/top4/16/faults", 0x28004f268411d021),
    ("matmul/top4/64/clean", 0x882a61921b3d3ce0),
    ("matmul/top4/64/faults", 0x76cf3b3644763b01),
    ("matmul/topH/16/clean", 0xf77c2abe35710f76),
    ("matmul/topH/16/faults", 0xc1084eeed3e787f7),
    ("matmul/topH/64/clean", 0x62711069dcc290f9),
    ("matmul/topH/64/faults", 0xdedb7b1a2a64b27d),
];

fn config(topology: Topology, cores: usize, faulted: bool) -> ClusterConfig {
    let mut config = ClusterConfig::small(topology);
    if cores == 16 {
        // The bench matrix's 16-core shape: all 16 tiles, one core each.
        config.cores_per_tile = 1;
    }
    if faulted {
        // A timeout short enough for dropped requests to be retried (and
        // for slow ones to be retried spuriously) inside the window.
        config.resilience = ResilienceConfig {
            request_timeout: 256,
            ..ResilienceConfig::standard()
        };
    }
    config
}

fn traffic_cluster(config: ClusterConfig) -> Cluster<TrafficGen> {
    let map = config.address_map().expect("valid map");
    let scrambler = config
        .scrambler()
        .expect("valid scrambler")
        .expect("hybrid map");
    Cluster::new(config, |loc| {
        let space = AddressSpace {
            l1_bytes: map.size_bytes() as u32,
            seq_base: scrambler.seq_base(loc.tile as u32),
            seq_bytes: scrambler.seq_bytes_per_tile(),
            seq_total: scrambler.seq_region_bytes() as u32,
            tile: loc.tile as u32,
            num_tiles: config.num_tiles as u32,
            banks_per_tile: config.banks_per_tile as u32,
        };
        TrafficGen::new(0.3, Pattern::Uniform, space, 8, 0x5eed ^ loc.core as u64)
    })
    .expect("valid config")
}

fn matmul_cluster(config: ClusterConfig) -> Cluster<mempool_snitch::SnitchCore> {
    let kernel = Matmul::new(Geometry::from_config(&config, 4096), 32).expect("fits");
    let mut cluster = Cluster::snitch(config).expect("valid config");
    cluster
        .load_program(&build_program(&kernel, &config).expect("builds"))
        .expect("decodes");
    kernel.init(&mut cluster, 7);
    cluster
}

fn digest_after<C: Core + mempool::Walk>(mut cluster: Cluster<C>, faulted: bool) -> u64 {
    if faulted {
        let spec: FaultSpec = FAULTS.parse().expect("valid spec");
        cluster.install_fault_plan(Some(FaultPlan::new(11, spec)));
    }
    cluster.step_cycles(CYCLES);
    if faulted {
        // The ideal crossbar has no link to drop a packet on.
        let lossy = cluster.config().topology != Topology::Ideal;
        assert!(cluster.quarantined_banks() > 0, "plan quarantined nothing");
        assert!(
            !lossy || cluster.stats().faults.request_retries > 0,
            "plan forced no retry"
        );
    }
    cluster.state_digest()
}

#[test]
fn digests_match_the_values_recorded_before_the_rewrite() {
    let mut actual = Vec::new();
    for workload in ["traffic", "matmul"] {
        for topology in Topology::all() {
            for cores in [16, 64] {
                for faulted in [false, true] {
                    let config = config(topology, cores, faulted);
                    let digest = match workload {
                        "traffic" => digest_after(traffic_cluster(config), faulted),
                        _ => digest_after(matmul_cluster(config), faulted),
                    };
                    let name = format!(
                        "{workload}/{topology}/{cores}/{}",
                        if faulted { "faults" } else { "clean" }
                    );
                    actual.push((name, digest));
                }
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    assert!(
        actual == pinned,
        "state digests moved; the run produced:\n{table}"
    );
}

/// `(topology/faults, digest after CYCLES)` of a 16-tile traffic cluster
/// with three cores per tile, recorded before the routing stages read
/// core → tile, core → lane and tile → group from tables. A tile width that
/// is not a power of two is where a shift or a mask in place of a division
/// would go wrong.
const PINNED_THREE_LANES: &[(&str, u64)] = &[
    ("ideal/clean", 0x7bd80d3b6c88d86b),
    ("ideal/faults", 0xc9d4b690f0ec4adc),
    ("top1/clean", 0xbf57623432ab1762),
    ("top1/faults", 0x3c0dd9461188a39e),
    ("top4/clean", 0x6b45b6a25d6d34c8),
    ("top4/faults", 0x5f6951891b590d75),
    ("topH/clean", 0x8a548631a2d8e697),
    ("topH/faults", 0x35de79f562ef6c0d),
];

#[test]
fn three_lane_tiles_match_the_values_recorded_before_the_tables() {
    let mut actual = Vec::new();
    for topology in Topology::all() {
        for faulted in [false, true] {
            let mut config = config(topology, 64, faulted);
            config.cores_per_tile = 3;
            let digest = digest_after(traffic_cluster(config), faulted);
            let name = format!("{topology}/{}", if faulted { "faults" } else { "clean" });
            actual.push((name, digest));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED_THREE_LANES
        .iter()
        .map(|&(n, d)| (n.to_owned(), d))
        .collect();
    assert!(
        actual == pinned,
        "state digests moved; the run produced:\n{table}"
    );
}

/// `(image, fnv64 of the whole checkpoint image)`: the header, the input
/// section (fault-plan parameters and scheduled bank failures) and the state
/// section, pinned byte for byte rather than against an encoder of the
/// same code.
const PINNED_IMAGES: &[(&str, u64)] = &[
    ("snitch/top1/mid-run", 0xc5473dad281fe343),
    ("traffic/topH/faults", 0xc2752cca39835199),
    ("session/topH/obs+profile", 0x74a6f220cc2ba7fe),
];

/// Every core stores over its own slice of interleaved L1 and loads it
/// back, so banks fill while requests are in flight.
fn store_load_program() -> mempool_riscv::Program {
    mempool_riscv::assemble(
        "csrr t0, mhartid
         li   t2, 0x10000
         slli t3, t0, 7
         add  t3, t3, t2
         li   t4, 32
         loop: sw t3, 0(t3)
         lw   t5, 0(t3)
         addi t3, t3, 4
         addi t4, t4, -1
         bnez t4, loop
         ecall",
    )
    .expect("assembles")
}

fn image_digest(snap: &mempool::ClusterSnapshot) -> u64 {
    mempool::snapshot::fnv64(snap.as_bytes())
}

#[test]
fn whole_images_match_the_values_recorded_before_the_walk() {
    let mut snitch = Cluster::snitch(ClusterConfig::small(Topology::Top1)).expect("valid");
    snitch.load_program(&store_load_program()).expect("decodes");
    snitch.step_cycles(150);
    assert!(!snitch.cores().iter().all(Core::done));

    let mut traffic = traffic_cluster(config(Topology::TopH, 64, true));
    let spec: FaultSpec = FAULTS.parse().expect("valid spec");
    traffic.install_fault_plan(Some(FaultPlan::new(11, spec)));
    traffic.step_cycles(1_500);
    assert!(traffic.quarantined_banks() > 0 && traffic.stats().faults.request_retries > 0);

    let mut session = mempool::SimSession::builder(ClusterConfig::small(Topology::TopH))
        .observability(mempool::ObsConfig { trace_sample_every: 4, trace_capacity: 512 })
        .profile(mempool::ProfileConfig { max_pcs: 64, power_window: 64 })
        .build_snitch()
        .expect("builds");
    session.load_program(&store_load_program()).expect("decodes");
    session.cluster_mut().step_cycles(200);

    let actual = [
        ("snitch/top1/mid-run", image_digest(&snitch.snapshot())),
        ("traffic/topH/faults", image_digest(&traffic.snapshot())),
        ("session/topH/obs+profile", image_digest(&session.snapshot())),
    ];
    let table: String = actual
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    assert!(actual == PINNED_IMAGES, "checkpoint images moved; the run produced:\n{table}");
}
