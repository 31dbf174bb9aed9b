//! Regenerates **Fig. 7** of the paper: runtime of the three
//! signal-processing benchmarks on every topology, with (`Top◆S`) and
//! without (`Top◆`) the scrambling logic, normalized to the ideal
//! full-crossbar baseline with the matching scrambling setting.
//!
//! Paper reference points: TopH generally beats Top4 and both beat Top1
//! (by ~3× in the extreme cases); TopH stays within 20 % of the baseline
//! on matmul; dct with scrambling matches the baseline on every topology,
//! and suffers badly without it (stacks spread over all tiles).

use mempool::{ClusterConfig, Topology};
use mempool_bench::banner;
use mempool_bench::plot::{save_figure, BarChart, Series};
use mempool_kernels::{run_kernel, Conv2d, Dct, Geometry, Kernel, Matmul};

const SEED: u64 = 2021;
const BUDGET: u64 = 200_000_000;

fn with_scrambling(mut cfg: ClusterConfig, on: bool) -> ClusterConfig {
    if !on {
        cfg.seq_region_bytes = None;
    }
    cfg
}

fn main() {
    banner(
        "Fig. 7",
        "benchmark runtimes relative to the ideal-crossbar baseline",
    );
    let geom = Geometry::from_config(&ClusterConfig::paper(Topology::TopH), 4096);
    let matmul = Matmul::new(geom, 64).expect("valid kernel");
    let conv = Conv2d::auto(geom).expect("valid kernel");
    let dct = Dct::new(geom).expect("valid kernel");
    let kernels: [&dyn Kernel; 3] = [&matmul, &conv, &dct];

    println!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "kernel", "scramble", "ideal", "top1", "top4", "topH"
    );
    let mut groups: Vec<String> = Vec::new();
    // rel[t][g]: performance of topology t (top1/top4/topH) in group g.
    let mut rel = [Vec::new(), Vec::new(), Vec::new()];
    for kernel in kernels {
        for scrambled in [true, false] {
            let mut cycles = Vec::new();
            for topo in [Topology::Ideal, Topology::Top1, Topology::Top4, Topology::TopH] {
                let cfg = with_scrambling(ClusterConfig::paper(topo), scrambled);
                let run = run_kernel(kernel, cfg, SEED, BUDGET)
                    .unwrap_or_else(|e| panic!("{} on {topo}: {e}", kernel.name()));
                cycles.push(run.cycles);
            }
            let baseline = cycles[0] as f64;
            println!(
                "{:<8} {:>10} {:>12} {:>12} {:>12} {:>12}",
                kernel.name(),
                if scrambled { "on" } else { "off" },
                format!("{} cyc", cycles[0]),
                fmt_rel(cycles[1], baseline),
                fmt_rel(cycles[2], baseline),
                fmt_rel(cycles[3], baseline),
            );
            let g = groups.len() as f64;
            groups.push(format!(
                "{}{}",
                kernel.name(),
                if scrambled { "(S)" } else { "" }
            ));
            for (t, v) in rel.iter_mut().enumerate() {
                v.push((g, baseline / cycles[t + 1] as f64));
            }
        }
    }
    let chart = BarChart {
        title: "Fig. 7: performance relative to the ideal baseline".into(),
        y_label: "relative performance (1.0 = baseline)".into(),
        groups,
        series: ["top1", "top4", "topH"]
            .iter()
            .zip(rel)
            .map(|(name, points)| Series {
                name: (*name).into(),
                points,
            })
            .collect(),
    };
    match save_figure("fig7", &chart.to_svg()) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write fig7: {e}"),
    }

    println!("\nrelative numbers are performance vs the ideal baseline of the same");
    println!("scrambling setting (1.00 = matches the baseline; paper Fig. 7).");
    println!("paper reference: matmul TopH >= 0.8x baseline; dct (scrambled) ~1.0x on");
    println!("all topologies; Top1 up to ~3x slower than TopH on remote-heavy kernels.");
}

fn fmt_rel(cycles: u64, baseline: f64) -> String {
    format!("{:.2}x", baseline / cycles as f64)
}
