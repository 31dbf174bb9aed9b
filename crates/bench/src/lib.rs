//! # mempool-bench
//!
//! The benchmark harness of the MemPool reproduction: one bench target per
//! figure/table of the paper, each printing the same rows/series the paper
//! reports on the full 256-core system.
//!
//! | target | regenerates |
//! |---|---|
//! | `fig5` | Fig. 5a/5b — throughput & latency vs load, Top1/Top4/TopH |
//! | `fig6` | Fig. 6a/6b — TopH with the hybrid addressing scheme, p_local sweep |
//! | `fig7` | Fig. 7 — matmul/2dconv/dct on all topologies ± scrambling, normalized to the ideal baseline |
//! | `fig9` | Fig. 8/9 — wiring-density floorplans and the Top4 infeasibility verdict |
//! | `fig10` | Fig. 10 — energy per instruction; §VI-D power numbers |
//! | `table_physical` | §VI-B/§VI-C — area, timing, feasibility per topology |
//! | `ablations` | design-choice sweeps: outstanding loads, sequential-region size, I-cache size, barrier style, scaling |
//!
//! `fig5`/`fig6`/`fig7` additionally write SVG plots to `target/figures/`.
//! Run everything with `cargo bench -p mempool-bench`. The paper's claims
//! themselves are asserted by the member crates' tests under `cargo test`.

pub mod plot;

use mempool::{ClusterConfig, Topology};

/// Prints a header naming the experiment and the configuration scale.
pub fn banner(figure: &str, what: &str) {
    let cfg = ClusterConfig::paper(Topology::TopH);
    println!();
    println!("================================================================");
    println!("{figure}: {what}");
    println!(
        "configuration: {} cores ({} tiles x {} cores), {} KiB L1",
        cfg.num_cores(),
        cfg.num_tiles,
        cfg.cores_per_tile,
        cfg.num_banks() as u32 * cfg.rows_per_bank * 4 / 1024,
    );
    println!("================================================================");
}

/// Prints a row of right-aligned cells under a fixed-width layout.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float cell.
pub fn f(v: f64) -> String {
    format!("{v:.3}")
}
