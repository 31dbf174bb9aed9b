//! Regenerates **Fig. 5** of the paper: throughput (5a) and average
//! round-trip latency (5b) of the three topologies under uniform random
//! Poisson traffic, as a function of the injected load.
//!
//! Paper reference points: Top1 congests at ≈0.10 request/core/cycle;
//! Top4 and TopH support ≈0.38; TopH's average latency reaches 6 cycles
//! only at 0.33 request/core/cycle and stays below Top4's.

use mempool::{ClusterConfig, Topology};
use mempool_bench::{banner, f, row};
use mempool_bench::plot::{save_figure, LinePlot, Series};
use mempool_traffic::{run_sweep, Pattern, Windows};

fn main() {
    banner(
        "Fig. 5",
        "network analysis of Top1/Top4/TopH under uniform traffic",
    );
    let loads: Vec<f64> = (1..=22).map(|i| i as f64 * 0.02).collect();
    let windows = Windows {
        warmup: 1_000,
        measure: 8_000,
        drain: 100_000,
    };

    let topologies = [Topology::Top1, Topology::Top4, Topology::TopH];
    let mut results = Vec::new();
    for topo in topologies {
        let sweep = run_sweep(ClusterConfig::paper(topo), Pattern::Uniform, &loads, windows, 42)
            .into_complete()
            .expect("sweep completes");
        results.push((topo, sweep));
    }

    println!("\n--- Fig. 5a: accepted throughput [req/core/cycle] ---");
    row(&[
        "load".into(),
        "top1".into(),
        "top4".into(),
        "topH".into(),
    ]);
    for (i, &load) in loads.iter().enumerate() {
        row(&[
            f(load),
            f(results[0].1[i].throughput),
            f(results[1].1[i].throughput),
            f(results[2].1[i].throughput),
        ]);
    }

    println!("\n--- Fig. 5b: average round-trip latency [cycles] ---");
    row(&[
        "load".into(),
        "top1".into(),
        "top4".into(),
        "topH".into(),
    ]);
    for (i, &load) in loads.iter().enumerate() {
        row(&[
            f(load),
            f(results[0].1[i].avg_latency()),
            f(results[1].1[i].avg_latency()),
            f(results[2].1[i].avg_latency()),
        ]);
    }

    println!("\n--- summary (paper reference in brackets) ---");
    let sat = |idx: usize| {
        results[idx]
            .1
            .iter()
            .map(|p| p.throughput)
            .fold(0.0f64, f64::max)
    };
    println!(
        "saturation throughput: top1 {:.3} [~0.10], top4 {:.3} [~0.38], topH {:.3} [~0.38]",
        sat(0),
        sat(1),
        sat(2)
    );
    // TopH latency at load 0.32 (closest sampled point to the paper's 0.33).
    if let Some(p) = results[2].1.iter().find(|p| (p.offered_load - 0.32).abs() < 1e-9) {
        println!(
            "topH average latency at load 0.32: {:.2} cycles [paper: ~6 at 0.33]",
            p.avg_latency()
        );
    }
    let low = &results[2].1[1];
    println!(
        "topH zero-load-ish latency at 0.04: {:.2} cycles [paper: <6]",
        low.avg_latency()
    );

    // Regenerate the figures as SVGs.
    let series = |metric: &dyn Fn(&mempool_traffic::SweepPoint) -> f64| -> Vec<Series> {
        results
            .iter()
            .map(|(topo, sweep)| Series {
                name: topo.to_string(),
                points: sweep
                    .iter()
                    .map(|p| (p.offered_load, metric(p)))
                    .collect(),
            })
            .collect()
    };
    let fig5a = LinePlot {
        title: "Fig. 5a: throughput vs injected load".into(),
        x_label: "injected load [req/core/cycle]".into(),
        y_label: "throughput [req/core/cycle]".into(),
        series: series(&|p| p.throughput),
        log_y: false,
    };
    let fig5b = LinePlot {
        title: "Fig. 5b: average round-trip latency vs injected load".into(),
        x_label: "injected load [req/core/cycle]".into(),
        y_label: "latency [cycles]".into(),
        series: series(&|p| p.avg_latency()),
        log_y: true,
    };
    for (name, plot) in [("fig5a", fig5a), ("fig5b", fig5b)] {
        match save_figure(name, &plot.to_svg()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {name}: {e}"),
        }
    }
}
