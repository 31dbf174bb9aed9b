//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. **Outstanding loads per core** — the Snitch feature the paper
//!    highlights for hiding SPM latency (§III-B), swept on remote-heavy
//!    matmul.
//! 2. **Sequential-region size** — how much private memory the hybrid
//!    addressing scheme needs before dct stops paying remote-stack
//!    penalties (§IV).
//! 3. **I-cache size** — the tile's largest area consumer (§VI-B) vs its
//!    performance contribution.

use mempool::{Cluster, ClusterConfig, Topology};
use mempool_bench::banner;
use mempool_kernels::{
    emit_barrier_with_backoff, emit_epilogue, emit_prologue, emit_tree_barrier_with_backoff,
    run_kernel, Dct, Geometry, Matmul,
};

const SEED: u64 = 2021;
const BUDGET: u64 = 200_000_000;

/// Cycles for `rounds` back-to-back barriers on `config`.
fn barrier_cycles(config: ClusterConfig, rounds: usize, tree: bool, backoff: u32) -> u64 {
    let geom = Geometry::from_config(&config, 4096);
    let (callee, body, init) = if tree {
        (
            emit_tree_barrier_with_backoff(&geom, backoff),
            "\tjal  ra, __tree_barrier\n",
            "\tjal  ra, __tree_barrier_init\n",
        )
    } else {
        (
            emit_barrier_with_backoff(&geom, backoff),
            "\tjal  ra, __barrier\n",
            "",
        )
    };
    let source = format!(
        "{prologue}{init}{calls}{epilogue}{callee}",
        prologue = emit_prologue(&geom),
        calls = body.repeat(rounds),
        epilogue = emit_epilogue(),
    );
    let program = mempool_riscv::assemble(&source).expect("assembles");
    let mut cluster = Cluster::snitch(config).expect("valid");
    cluster.load_program(&program).expect("decodes");
    cluster.run(BUDGET).expect("finishes")
}

fn main() {
    banner("Ablations", "design-choice sweeps on the cycle-accurate model");

    // 1. Outstanding loads on matmul (TopH).
    println!("\n--- outstanding loads per core (matmul, TopH) ---");
    println!("{:>12} {:>12} {:>10}", "outstanding", "cycles", "speedup");
    let base_cfg = ClusterConfig::paper(Topology::TopH);
    let geom = Geometry::from_config(&base_cfg, 4096);
    let matmul = Matmul::new(geom, 64).expect("valid kernel");
    let mut first = None;
    for outstanding in [1usize, 2, 4, 8, 16] {
        let mut cfg = base_cfg;
        cfg.core.outstanding = outstanding;
        let run = run_kernel(&matmul, cfg, SEED, BUDGET).expect("matmul runs");
        let baseline = *first.get_or_insert(run.cycles);
        println!(
            "{outstanding:>12} {:>12} {:>9.2}x",
            run.cycles,
            baseline as f64 / run.cycles as f64
        );
    }
    println!("(the paper's Snitch supports a configurable number of outstanding loads");
    println!(" precisely to hide the 1-5 cycle SPM latency; expect diminishing returns)");

    // 2. Sequential-region size on dct (TopH, scrambling on).
    println!("\n--- sequential-region size (dct, TopH) ---");
    println!("{:>12} {:>12} {:>10}", "seq bytes", "cycles", "locality");
    for seq in [1024u32, 2048, 4096, 8192] {
        let mut cfg = base_cfg;
        cfg.seq_region_bytes = Some(seq);
        let geom = Geometry::from_config(&cfg, seq);
        let Ok(dct) = Dct::new(geom) else {
            println!("{seq:>12} {:>12} {:>10}", "too small", "-");
            continue;
        };
        match run_kernel(&dct, cfg, SEED, BUDGET) {
            Ok(run) => println!(
                "{seq:>12} {:>12} {:>9.2}",
                run.cycles,
                run.stats.locality()
            ),
            Err(e) => println!("{seq:>12} {e:>12}", e = format!("{e}")),
        }
    }
    println!("(dct needs room for per-core blocks + stack; once everything fits the");
    println!(" region, all accesses are local and cycles stop improving)");

    // 3. I-cache size on matmul (TopH).
    println!("\n--- icache size (matmul, TopH) ---");
    println!("{:>12} {:>12} {:>10}", "icache B", "cycles", "hit rate");
    for size in [512u32, 1024, 2048, 4096] {
        let mut cfg = base_cfg;
        cfg.icache.size_bytes = size;
        let run = run_kernel(&matmul, cfg, SEED, BUDGET).expect("matmul runs");
        println!(
            "{size:>12} {:>12} {:>9.3}",
            run.cycles,
            run.icache.hit_rate()
        );
    }
    println!("(the kernels' hot loops fit a few lines; the 2 KiB paper I-cache is sized");
    println!(" for real applications, and is the tile's largest area consumer at 23.6 %)");

    // 4. Barrier style: one central AMO counter vs the two-level tree.
    println!("\n--- barrier style (8 back-to-back barriers, TopH) ---");
    println!("{:>12} {:>12} {:>14}", "style", "cycles", "cycles/barrier");
    let rounds = 8;
    for (name, tree, backoff) in [
        ("central", false, 0u32),
        ("central+bk", false, 16),
        ("two-level", true, 0),
        ("tree+bk", true, 16),
    ] {
        let cycles = barrier_cycles(base_cfg, rounds, tree, backoff);
        println!(
            "{name:>12} {cycles:>12} {:>14.0}",
            cycles as f64 / rounds as f64
        );
    }
    println!("(arrival aggregation alone loses to the naive central barrier: the");
    println!(" release-flag *spin* traffic is the real hot-spot, and polling backoff");
    println!(" is what recovers it — a known result the simulator reproduces)");

    // 5. Cluster scaling: the same matmul work per core, growing the
    //    TopH cluster (the direction MemPool's follow-up work takes).
    println!("\n--- cluster scaling (matmul, TopH, constant n) ---");
    println!("{:>8} {:>8} {:>12} {:>12}", "tiles", "cores", "cycles", "vs 16-tile");
    let mut baseline = None;
    for tiles in [16usize, 64, 256] {
        let mut cfg = ClusterConfig::paper(Topology::TopH);
        cfg.num_tiles = tiles;
        let geom = Geometry::from_config(&cfg, 4096);
        let kernel = Matmul::new(geom, 64).expect("valid kernel");
        let run = run_kernel(&kernel, cfg, SEED, BUDGET).expect("matmul runs");
        let base = *baseline.get_or_insert(run.cycles);
        println!(
            "{tiles:>8} {:>8} {:>12} {:>11.2}x",
            cfg.num_cores(),
            run.cycles,
            base as f64 / run.cycles as f64
        );
    }
    println!("(strong scaling of a fixed 64x64 matmul: more cores shrink the per-core");
    println!(" share until synchronization-free work runs out)");

    // 6. Traffic patterns: uniform vs adversarial permutations vs hotspot.
    println!("\n--- traffic patterns: saturation throughput [req/core/cycle] ---");
    use mempool_traffic::{run_point, Pattern, Permutation, Windows};
    let windows = Windows {
        warmup: 500,
        measure: 4_000,
        drain: 100_000,
    };
    let patterns: [(&str, Pattern); 5] = [
        ("uniform", Pattern::Uniform),
        ("tornado", Pattern::Permutation(Permutation::Tornado)),
        ("bit-compl", Pattern::Permutation(Permutation::BitComplement)),
        ("transpose", Pattern::Permutation(Permutation::TileTranspose)),
        (
            "hotspot",
            Pattern::HotSpot {
                base: 0x10000,
                bytes: 64,
            },
        ),
    ];
    println!("{:>12} {:>10} {:>10} {:>10}", "pattern", "top1", "top4", "topH");
    for (name, pattern) in patterns {
        let sat = |topo| {
            run_point(ClusterConfig::paper(topo), pattern, 1.0, windows, 31)
                .expect("runs")
                .throughput
        };
        println!(
            "{name:>12} {:>10.3} {:>10.3} {:>10.3}",
            sat(Topology::Top1),
            sat(Topology::Top4),
            sat(Topology::TopH)
        );
    }
    println!("(permutations concentrate paths inside the butterflies; the hotspot");
    println!(" serializes at one tile's 16 banks regardless of topology)");
}
