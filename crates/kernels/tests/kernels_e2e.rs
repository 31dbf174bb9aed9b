//! End-to-end kernel runs on the reduced (64-core) cluster: every kernel
//! must produce bit-exact golden results on every topology, with and
//! without the hybrid addressing scrambler, and the cycle counts must show
//! the paper's qualitative ordering.

use mempool::{ClusterConfig, Topology};
use mempool_kernels::{run_kernel, Conv2d, Dct, Geometry, Matmul};

const SEED: u64 = 2021;
const BUDGET: u64 = 30_000_000;

fn config(topology: Topology, scrambled: bool) -> ClusterConfig {
    let mut c = ClusterConfig::small(topology);
    if !scrambled {
        c.seq_region_bytes = None;
    }
    c
}

fn geom() -> Geometry {
    Geometry::from_config(&ClusterConfig::small(Topology::TopH), 4096)
}

#[test]
fn matmul_correct_on_all_topologies() {
    let kernel = Matmul::new(geom(), 32).unwrap();
    for topo in Topology::all() {
        for scrambled in [true, false] {
            let run = run_kernel(&kernel, config(topo, scrambled), SEED, BUDGET)
                .unwrap_or_else(|e| panic!("{topo} scrambled={scrambled}: {e}"));
            assert!(run.cycles > 0);
        }
    }
}

#[test]
fn conv2d_correct_on_all_topologies() {
    let kernel = Conv2d::auto(geom()).unwrap();
    for topo in Topology::all() {
        for scrambled in [true, false] {
            run_kernel(&kernel, config(topo, scrambled), SEED, BUDGET)
                .unwrap_or_else(|e| panic!("{topo} scrambled={scrambled}: {e}"));
        }
    }
}

#[test]
fn dct_correct_on_all_topologies() {
    let kernel = Dct::new(geom()).unwrap();
    for topo in Topology::all() {
        for scrambled in [true, false] {
            run_kernel(&kernel, config(topo, scrambled), SEED, BUDGET)
                .unwrap_or_else(|e| panic!("{topo} scrambled={scrambled}: {e}"));
        }
    }
}

#[test]
fn dct_scrambling_keeps_accesses_local() {
    let kernel = Dct::new(geom()).unwrap();
    let on = run_kernel(&kernel, config(Topology::TopH, true), SEED, BUDGET).unwrap();
    let off = run_kernel(&kernel, config(Topology::TopH, false), SEED, BUDGET).unwrap();
    // With scrambling, essentially all data accesses are local.
    assert!(
        on.stats.locality() > 0.95,
        "scrambled locality {}",
        on.stats.locality()
    );
    assert!(
        off.stats.locality() < 0.2,
        "unscrambled locality {}",
        off.stats.locality()
    );
    // The paper: without scrambling the stacks spread over all tiles,
    // giving a significant performance penalty.
    assert!(
        off.cycles as f64 > 1.5 * on.cycles as f64,
        "no dct penalty without scrambling: {} vs {}",
        off.cycles,
        on.cycles
    );
}

#[test]
fn matmul_ideal_is_fastest_top1_slowest() {
    // Fig. 7, matmul column: baseline ≥ TopH ≥ Top4 ≥ Top1 (in performance,
    // i.e. reversed in cycles).
    let kernel = Matmul::new(geom(), 32).unwrap();
    let cycles = |topo| {
        run_kernel(&kernel, config(topo, true), SEED, BUDGET)
            .unwrap()
            .cycles
    };
    let ideal = cycles(Topology::Ideal);
    let top1 = cycles(Topology::Top1);
    let top4 = cycles(Topology::Top4);
    let toph = cycles(Topology::TopH);
    assert!(ideal <= toph, "ideal {ideal} vs topH {toph}");
    assert!(toph <= top4 * 11 / 10, "topH {toph} vs top4 {top4}");
    assert!(top4 < top1, "top4 {top4} vs top1 {top1}");
    // "outperform Top1 by a factor of three in the extreme cases" — allow
    // a loose lower bound here (reduced cluster; the 256-core `fig7` run
    // shows the full gap).
    assert!(
        top1 as f64 > 1.6 * toph as f64,
        "top1 {top1} not clearly behind topH {toph}"
    );
    assert!(
        (toph as f64) < 1.45 * ideal as f64,
        "topH {toph} strays from the ideal baseline {ideal}"
    );
}

#[test]
fn dct_scrambled_matches_baseline() {
    // Fig. 7: "With dct, we match the baseline since we only do local
    // accesses" — all topologies with scrambling perform equally well.
    let kernel = Dct::new(geom()).unwrap();
    let cycles = |topo| {
        run_kernel(&kernel, config(topo, true), SEED, BUDGET)
            .unwrap()
            .cycles
    };
    let ideal = cycles(Topology::Ideal);
    let toph = cycles(Topology::TopH);
    let top1 = cycles(Topology::Top1);
    assert!(
        (toph as f64) < 1.10 * ideal as f64,
        "topH dct {toph} vs ideal {ideal}"
    );
    assert!(
        (top1 as f64) < 1.10 * ideal as f64,
        "top1 dct {top1} vs ideal {ideal}"
    );
}

#[test]
fn axpy_and_dotprod_correct_everywhere() {
    use mempool_kernels::{Axpy, DotProduct};
    let axpy = Axpy::new(geom(), 4096, -3).unwrap();
    let dot = DotProduct::new(geom(), 4096).unwrap();
    for topo in [Topology::TopH, Topology::Top1, Topology::Ideal] {
        run_kernel(&axpy, config(topo, true), SEED, BUDGET)
            .unwrap_or_else(|e| panic!("axpy on {topo}: {e}"));
        run_kernel(&dot, config(topo, true), SEED, BUDGET)
            .unwrap_or_else(|e| panic!("dotprod on {topo}: {e}"));
    }
}

#[test]
fn stream_kernel_constructors_validate() {
    use mempool_kernels::{Axpy, DotProduct};
    assert!(Axpy::new(geom(), 0, 1).is_err());
    assert!(Axpy::new(geom(), 63, 1).is_err()); // not a multiple of 64 cores
    assert!(Axpy::new(geom(), 1 << 22, 1).is_err()); // too big
    assert!(DotProduct::new(geom(), 4096).is_ok());
}

#[test]
fn histogram_correct_and_hot_variant_slower() {
    use mempool_kernels::Histogram;
    let uniform = Histogram::new(geom(), 8192).unwrap();
    let hot = Histogram::hot(geom(), 8192, 7).unwrap();
    let u = run_kernel(&uniform, config(Topology::TopH, true), SEED, BUDGET).unwrap();
    let h = run_kernel(&hot, config(Topology::TopH, true), SEED, BUDGET).unwrap();
    // A single hot bin serializes at one bank: it must be clearly slower
    // than uniformly distributed bins.
    assert!(
        h.cycles > 2 * u.cycles,
        "hot-bin contention not visible: {} vs {}",
        h.cycles,
        u.cycles
    );
}

#[test]
fn transpose_correct_on_all_topologies() {
    use mempool_kernels::Transpose;
    let kernel = Transpose::new(geom(), 64).unwrap();
    for topo in Topology::all() {
        run_kernel(&kernel, config(topo, true), SEED, BUDGET)
            .unwrap_or_else(|e| panic!("transpose on {topo}: {e}"));
    }
}

#[test]
fn every_kernel_also_passes_on_the_functional_simulator() {
    use mempool_kernels::{run_kernel_functional, Axpy, DotProduct, Histogram, Transpose};
    let g = geom();
    let kernels: Vec<Box<dyn mempool_kernels::Kernel>> = vec![
        Box::new(Matmul::new(g, 32).unwrap()),
        Box::new(Conv2d::auto(g).unwrap()),
        Box::new(Dct::new(g).unwrap()),
        Box::new(Axpy::new(g, 4096, 5).unwrap()),
        Box::new(DotProduct::new(g, 4096).unwrap()),
        Box::new(Histogram::new(g, 8192).unwrap()),
        Box::new(Transpose::new(g, 64).unwrap()),
    ];
    for kernel in &kernels {
        run_kernel_functional(kernel.as_ref(), config(Topology::TopH, true), SEED, 10_000_000)
            .unwrap_or_else(|e| panic!("functional {}: {e}", kernel.name()));
    }
}

#[test]
fn timed_and_functional_backends_agree_bit_for_bit() {
    // Run matmul on both backends and compare the whole output matrix
    // (the golden checks already pass on both; this pins cross-backend
    // equality of the result region explicitly).
    use mempool::L1Memory;
    let g = geom();
    let kernel = Matmul::new(g, 32).unwrap();
    let cfg = config(Topology::TopH, true);

    let program = mempool_riscv::assemble(&mempool_kernels::Kernel::source(&kernel)).unwrap();
    let mut cluster = mempool::Cluster::snitch(cfg).unwrap();
    cluster.load_program(&program).unwrap();
    mempool_kernels::Kernel::init(&kernel, &mut cluster, SEED);
    cluster.run(BUDGET).unwrap();

    let mut func = mempool::FunctionalSim::new(cfg).unwrap();
    func.load_program(&program).unwrap();
    mempool_kernels::Kernel::init(&kernel, &mut func, SEED);
    func.run(10_000_000).unwrap();

    let base = g.data_base() + 2 * 32 * 32 * 4; // the C matrix
    assert_eq!(
        cluster.read_words(base, 32 * 32),
        func.read_words(base, 32 * 32)
    );
}

#[test]
fn fft_correct_on_cluster_and_functional_backends() {
    use mempool_kernels::{run_kernel_functional, Fft};
    let kernel = Fft::new(geom(), 512).unwrap();
    // Functional backend first (fast); then the cycle-accurate cluster on
    // two topologies — log2(512) = 9 barriers plus strided butterflies.
    run_kernel_functional(&kernel, config(Topology::TopH, true), SEED, 50_000_000)
        .unwrap_or_else(|e| panic!("functional fft: {e}"));
    for topo in [Topology::TopH, Topology::Ideal] {
        run_kernel(&kernel, config(topo, true), SEED, BUDGET)
            .unwrap_or_else(|e| panic!("fft on {topo}: {e}"));
    }
}
