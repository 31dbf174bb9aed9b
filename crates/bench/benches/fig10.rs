//! Regenerates **Fig. 10** and the §VI-D power analysis: the energy
//! breakdown per instruction and the tile/cluster power while running
//! `matmul` at 500 MHz in typical conditions.
//!
//! Paper reference points: local load 8.4 pJ (4.5 pJ interconnect), remote
//! load 16.9 pJ (13.0 pJ interconnect, 2.9× the local interconnect
//! energy); tile 20.9 mW — I-cache 39.5 %, cores 26.6 %, SPM 12.6 %,
//! tile interconnects < 10 % — cluster 1.55 W with 86 % inside tiles.

use mempool::{ClusterConfig, Topology};
use mempool_bench::banner;
use mempool_kernels::{run_kernel, Geometry, Matmul};
use mempool_physical::{energy, instruction_energy_table, tile_power_mw, Activity};

fn main() {
    banner("Fig. 10", "energy per instruction and matmul power analysis");

    println!("\n--- Fig. 10: energy per instruction [pJ] ---");
    println!(
        "{:<14} {:>10} {:>14} {:>12}",
        "instruction", "total", "interconnect", "rest"
    );
    for e in instruction_energy_table() {
        println!(
            "{:<14} {:>10.1} {:>14.1} {:>12.1}",
            e.name,
            e.total_pj,
            e.interconnect_pj,
            e.total_pj - e.interconnect_pj
        );
    }
    println!("paper: add 3.7, mul ~8, local load 8.4 (4.5 net), remote load 16.9 (13.0 net)");

    // §VI-D: power while running matmul on TopH at 500 MHz.
    let cfg = ClusterConfig::paper(Topology::TopH);
    let geom = Geometry::from_config(&cfg, 4096);
    let kernel = Matmul::new(geom, 64).expect("valid kernel");
    let run = run_kernel(&kernel, cfg, 2021, 200_000_000).expect("matmul runs");
    let activity = Activity::from_run(
        &run.stats,
        &run.core_totals,
        &run.icache,
        cfg.num_tiles,
        cfg.num_cores(),
        cfg.banks_per_tile,
    );
    let freq = 500.0;
    let breakdown = energy(&activity);
    let tile_mw = tile_power_mw(&activity, freq);
    let cluster_w = mempool_physical::cluster_power_w(&activity, freq);

    println!("\n--- SVI-D: power running matmul at {freq} MHz (TT/0.80V/25C) ---");
    println!("simulated activity: {} cycles, {} instructions, {} memory accesses",
        activity.cycles, activity.instructions, activity.memory_ops);
    println!(
        "tile power: {tile_mw:.1} mW  [paper: 20.9 mW]"
    );
    let tiles = breakdown.tiles_pj();
    println!(
        "  icache  {:>5.1} %  [paper: 39.5 %]",
        100.0 * breakdown.icache_pj / tiles
    );
    println!(
        "  cores   {:>5.1} %  [paper: 26.6 %]",
        100.0 * breakdown.cores_pj / tiles
    );
    println!(
        "  spm     {:>5.1} %  [paper: 12.6 %]",
        100.0 * breakdown.spm_pj / tiles
    );
    println!(
        "  tilenet {:>5.1} %  [paper: < 10 %]",
        100.0 * breakdown.tile_net_pj / tiles
    );
    println!("cluster power: {cluster_w:.2} W  [paper: 1.55 W]");
    println!(
        "tile share of cluster energy: {:.0} %  [paper: 86 %]",
        100.0 * breakdown.tile_fraction()
    );
}
