//! Signal processing on MemPool: run the paper's three benchmark kernels
//! (§V-C) on a chosen topology, verify every result against golden models,
//! and print a per-kernel profile.
//!
//! Run with: `cargo run --release --example signal_processing [top1|top4|topH|ideal]`

use mempool::{ClusterConfig, Topology};
use mempool_kernels::{run_kernel, Conv2d, Dct, Fft, Geometry, Kernel, Matmul};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = match std::env::args().nth(1) {
        None => Topology::TopH,
        Some(name) => name.parse().unwrap_or_else(|e| {
            eprintln!("{e} (use top1|top4|topH|ideal)");
            std::process::exit(1);
        }),
    };
    let config = ClusterConfig::paper(topology);
    let geom = Geometry::from_config(&config, 4096);

    let matmul = Matmul::new(geom, 64)?;
    let conv = Conv2d::auto(geom)?;
    let dct = Dct::new(geom)?;
    let fft = Fft::new(geom, 2048)?;
    let kernels: [&dyn Kernel; 4] = [&matmul, &conv, &dct, &fft];

    println!(
        "running the paper's benchmarks on {} ({} cores, hybrid addressing on)\n",
        topology,
        geom.num_cores()
    );
    println!(
        "{:<8} {:>9} {:>8} {:>9} {:>10} {:>9} {:>9}",
        "kernel", "cycles", "IPC", "local%", "lat.mean", "ifetch%", "verified"
    );
    for kernel in kernels {
        let run = run_kernel(kernel, config, 7, 200_000_000)?;
        let ipc = run.core_totals.instret as f64
            / (run.cycles as f64 * geom.num_cores() as f64);
        println!(
            "{:<8} {:>9} {:>8.3} {:>8.1}% {:>10.2} {:>8.1}% {:>9}",
            kernel.name(),
            run.cycles,
            ipc,
            100.0 * run.stats.locality(),
            run.stats.latency.mean(),
            100.0 * run.icache.hit_rate(),
            "yes"
        );
    }
    println!("\nevery output was checked element-by-element against the Rust golden models");
    println!("(matmul: remote-heavy; 2dconv: halo exchanges only; dct: fully tile-local;");
    println!(" fft: the 'non-systolic' showcase — strided remote butterflies + barriers).");
    Ok(())
}
