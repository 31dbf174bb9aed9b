//! The latency contract and basic correctness must hold at every legal
//! cluster scale, not just the paper's 64 tiles — TopH generalizes to any
//! 4-group arrangement with a power-of-radix group size.

use mempool::{Cluster, ClusterConfig, Topology};
use mempool_riscv::assemble;

fn config_with_tiles(topology: Topology, num_tiles: usize) -> ClusterConfig {
    ClusterConfig {
        num_tiles,
        ..ClusterConfig::paper(topology)
    }
}

/// One remote load from hart 0; returns the measured latency.
fn probe(config: ClusterConfig, addr: u32) -> u64 {
    let mut config = config;
    config.seq_region_bytes = None;
    let source = format!(
        "csrr t0, mhartid\nbnez t0, out\nli t1, {addr:#x}\nlw a0, (t1)\nfence\nout: ecall\n"
    );
    let program = assemble(&source).unwrap();
    let mut cluster = Cluster::snitch(config).unwrap();
    cluster.load_program(&program).unwrap();
    cluster.run(100_000).unwrap();
    cluster.stats().latency.max().expect("one sample")
}

#[test]
fn toph_contract_holds_at_16_and_256_tiles() {
    for tiles in [16usize, 256] {
        let cfg = config_with_tiles(Topology::TopH, tiles);
        cfg.validate().unwrap();
        let tpg = cfg.tiles_per_group() as u32;
        let addr_of_tile = |t: u32| t << 6; // row 0, bank 0 of tile t
        assert_eq!(probe(cfg, addr_of_tile(0)), 1, "{tiles} tiles: local");
        assert_eq!(probe(cfg, addr_of_tile(1)), 3, "{tiles} tiles: in-group");
        assert_eq!(probe(cfg, addr_of_tile(tpg)), 5, "{tiles} tiles: cross-group");
        assert_eq!(
            probe(cfg, addr_of_tile(3 * tpg)),
            5,
            "{tiles} tiles: diagonal group"
        );
    }
}

/// Top1 and Top4 share their butterfly stages: at 16 tiles the 2-layer
/// butterfly gets the mid register in each direction (5 cycles); at 4 tiles
/// the single-layer network has none, leaving the tile's master request
/// and response registers around the bank (3 cycles).
#[test]
fn top1_contract_scales_with_butterfly_depth() {
    for topology in [Topology::Top1, Topology::Top4] {
        for (tiles, cycles) in [(4, 3), (16, 5)] {
            assert_eq!(
                probe(config_with_tiles(topology, tiles), 1 << 6),
                cycles,
                "{topology} at {tiles} tiles"
            );
        }
    }
}

#[test]
fn amo_reduction_works_at_1024_cores() {
    let cfg = config_with_tiles(Topology::TopH, 256);
    let source = "li t0, 0x100000\ncsrr t1, mhartid\namoadd.w zero, t1, (t0)\nfence\necall\n";
    let program = assemble(source).unwrap();
    let mut cluster = Cluster::snitch(cfg).unwrap();
    cluster.load_program(&program).unwrap();
    cluster.run(5_000_000).unwrap();
    let n = cfg.num_cores() as u64;
    assert_eq!(
        cluster.read_word(0x100000).map(u64::from),
        Some(n * (n - 1) / 2)
    );
}

#[test]
fn odd_cores_per_tile_configurations_run() {
    // 8 cores per tile (Top4 gets 8 ports) — geometry beyond the paper.
    let mut cfg = ClusterConfig::small(Topology::Top4);
    cfg.cores_per_tile = 8;
    cfg.validate().unwrap();
    let program = assemble("csrr a0, mhartid\necall\n").unwrap();
    let mut cluster = Cluster::snitch(cfg).unwrap();
    cluster.load_program(&program).unwrap();
    cluster.run(100_000).unwrap();
    assert_eq!(
        cluster.cores()[127].reg(mempool_riscv::Reg::A0),
        127,
        "128-core cluster with 8 lanes per tile"
    );
}
