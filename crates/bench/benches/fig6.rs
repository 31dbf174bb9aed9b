//! Regenerates **Fig. 6** of the paper: TopH throughput (6a) and average
//! latency (6b) with the hybrid addressing scheme, sweeping the probability
//! `p_local` of a request targeting the local tile's sequential region.
//!
//! Paper reference: throughput rises monotonically with `p_local`; an
//! application with 25 % stack accesses "can gain up to 50 % in
//! performance … without changing the code".

use mempool::{ClusterConfig, Topology};
use mempool_bench::{banner, f, row};
use mempool_bench::plot::{save_figure, LinePlot, Series};
use mempool_traffic::{run_sweep, Pattern, Windows};

fn main() {
    banner(
        "Fig. 6",
        "TopH with the hybrid addressing scheme, p_local sweep",
    );
    // Sweep past Top_H's uniform-traffic saturation so the locality gain
    // is visible (fully local traffic approaches 1 req/core/cycle).
    let loads: Vec<f64> = (1..=25).map(|i| i as f64 * 0.04).collect();
    let p_locals = [0.0, 0.25, 0.5, 0.75, 1.0];
    let windows = Windows {
        warmup: 1_000,
        measure: 8_000,
        drain: 100_000,
    };

    let mut sweeps = Vec::new();
    for &p_local in &p_locals {
        let sweep = run_sweep(
            ClusterConfig::paper(Topology::TopH),
            Pattern::PLocal { p_local },
            &loads,
            windows,
            42,
        )
        .into_complete()
        .expect("sweep completes");
        sweeps.push(sweep);
    }

    let header = || {
        let mut cells = vec!["load".to_owned()];
        cells.extend(p_locals.iter().map(|p| format!("p={p}")));
        row(&cells);
    };

    println!("\n--- Fig. 6a: accepted throughput [req/core/cycle] ---");
    header();
    for (i, &load) in loads.iter().enumerate() {
        let mut cells = vec![f(load)];
        cells.extend(sweeps.iter().map(|s| f(s[i].throughput)));
        row(&cells);
    }

    println!("\n--- Fig. 6b: average round-trip latency [cycles] ---");
    header();
    for (i, &load) in loads.iter().enumerate() {
        let mut cells = vec![f(load)];
        cells.extend(sweeps.iter().map(|s| f(s[i].avg_latency())));
        row(&cells);
    }

    println!("\n--- summary (paper reference in brackets) ---");
    let sat = |idx: usize| {
        sweeps[idx]
            .iter()
            .map(|p| p.throughput)
            .fold(0.0f64, f64::max)
    };
    for (i, &p) in p_locals.iter().enumerate() {
        println!("saturation throughput at p_local={p}: {:.3}", sat(i));
    }
    let gain = (sat(1) / sat(0) - 1.0) * 100.0;
    println!(
        "saturation gain of p_local=0.25 over 0.00: {gain:.0} % [paper: up to 50 % \
         performance for an application with 25 % stack accesses]"
    );

    let series = |metric: &dyn Fn(&mempool_traffic::SweepPoint) -> f64| -> Vec<Series> {
        sweeps
            .iter()
            .zip(&p_locals)
            .map(|(sweep, p)| Series {
                name: format!("p_local={p}"),
                points: sweep
                    .iter()
                    .map(|pt| (pt.offered_load, metric(pt)))
                    .collect(),
            })
            .collect()
    };
    let fig6a = LinePlot {
        title: "Fig. 6a: TopH throughput with hybrid addressing".into(),
        x_label: "injected load [req/core/cycle]".into(),
        y_label: "throughput [req/core/cycle]".into(),
        series: series(&|p| p.throughput),
        log_y: false,
    };
    let fig6b = LinePlot {
        title: "Fig. 6b: TopH latency with hybrid addressing".into(),
        x_label: "injected load [req/core/cycle]".into(),
        y_label: "latency [cycles]".into(),
        series: series(&|p| p.avg_latency()),
        log_y: true,
    };
    for (name, plot) in [("fig6a", fig6a), ("fig6b", fig6b)] {
        match save_figure(name, &plot.to_svg()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {name}: {e}"),
        }
    }
}
