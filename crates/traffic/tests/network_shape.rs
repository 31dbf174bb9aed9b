//! Shape assertions from §V of the paper, on a reduced cluster (16 tiles /
//! 64 cores) so the tests stay fast. The full-size sweeps live in the bench
//! harness (`cargo bench -p mempool-bench --bench fig5` and `--bench fig6`).

use mempool::{ClusterConfig, Topology};
use mempool_traffic::{run_point, Pattern, Windows};

fn windows() -> Windows {
    Windows {
        warmup: 500,
        measure: 3_000,
        drain: 60_000,
    }
}

#[test]
fn below_saturation_everything_is_delivered() {
    for topo in [Topology::Top1, Topology::Top4, Topology::TopH, Topology::Ideal] {
        let p = run_point(ClusterConfig::small(topo), Pattern::Uniform, 0.02, windows(), 1)
            .unwrap();
        assert!(
            (p.throughput - 0.02).abs() < 0.005,
            "{topo}: throughput {} at load 0.02",
            p.throughput
        );
    }
}

#[test]
fn top1_saturates_far_below_top4_and_toph() {
    // §V-A: "At a load of 0.10, Top1 becomes congested, while Top4 and TopH
    // support almost four times that load."
    let sat = |topo| {
        run_point(ClusterConfig::small(topo), Pattern::Uniform, 1.0, windows(), 2)
            .unwrap()
            .throughput
    };
    let top1 = sat(Topology::Top1);
    let top4 = sat(Topology::Top4);
    let toph = sat(Topology::TopH);
    assert!(
        top4 > 2.5 * top1,
        "Top4 saturation {top4} not well above Top1 {top1}"
    );
    assert!(
        toph > 2.5 * top1,
        "TopH saturation {toph} not well above Top1 {top1}"
    );
    assert!(
        toph >= top4 * 0.95,
        "TopH {toph} should at least match Top4 {top4}"
    );
}

#[test]
fn latency_explodes_beyond_saturation() {
    // §V-A Fig. 5b: average latency blows up past the congestion point.
    let low = run_point(
        ClusterConfig::small(Topology::Top1),
        Pattern::Uniform,
        0.02,
        windows(),
        3,
    )
    .unwrap();
    let high = run_point(
        ClusterConfig::small(Topology::Top1),
        Pattern::Uniform,
        0.30,
        windows(),
        3,
    )
    .unwrap();
    assert!(low.avg_latency() < 15.0, "zero-ish load latency {}", low.avg_latency());
    assert!(
        high.avg_latency() > 4.0 * low.avg_latency(),
        "no explosion: {} vs {}",
        high.avg_latency(),
        low.avg_latency()
    );
}

#[test]
fn toph_low_load_latency_beats_top4() {
    // §V-A: "Due to TopH's three-cycle latency to a local group, it
    // achieves a smaller average latency than Top4."
    let toph = run_point(
        ClusterConfig::small(Topology::TopH),
        Pattern::Uniform,
        0.05,
        windows(),
        4,
    )
    .unwrap();
    let top4 = run_point(
        ClusterConfig::small(Topology::Top4),
        Pattern::Uniform,
        0.05,
        windows(),
        4,
    )
    .unwrap();
    assert!(
        toph.avg_latency() < top4.avg_latency(),
        "TopH {} not below Top4 {}",
        toph.avg_latency(),
        top4.avg_latency()
    );
}

#[test]
fn higher_p_local_raises_throughput_and_lowers_latency() {
    // §V-B Fig. 6: locality monotonically improves both metrics.
    let cfg = ClusterConfig::small(Topology::TopH);
    let at = |p_local: f64| {
        run_point(cfg, Pattern::PLocal { p_local }, 1.0, windows(), 5).unwrap()
    };
    let p00 = at(0.0);
    let p25 = at(0.25);
    let p50 = at(0.5);
    let p100 = at(1.0);
    assert!(
        p25.throughput > p00.throughput
            && p50.throughput > p25.throughput
            && p100.throughput > p50.throughput,
        "throughput not monotone: {} {} {} {}",
        p00.throughput,
        p25.throughput,
        p50.throughput,
        p100.throughput
    );
    // Fully local traffic approaches one request per core per cycle.
    assert!(p100.throughput > 0.8, "local throughput {}", p100.throughput);
    let low_load = |p_local: f64| {
        run_point(cfg, Pattern::PLocal { p_local }, 0.1, windows(), 6)
            .unwrap()
            .avg_latency()
    };
    assert!(low_load(1.0) < low_load(0.0));
}

#[test]
fn locality_counter_tracks_pattern() {
    let cfg = ClusterConfig::small(Topology::TopH);
    let all_local = run_point(cfg, Pattern::PLocal { p_local: 1.0 }, 0.2, windows(), 7).unwrap();
    assert!(all_local.locality > 0.99, "locality {}", all_local.locality);
    let uniform = run_point(cfg, Pattern::Uniform, 0.2, windows(), 7).unwrap();
    assert!(uniform.locality < 0.2, "locality {}", uniform.locality);
}

#[test]
fn buffer_occupancy_tracks_congestion() {
    // The buffer-occupancy congestion metric: near-empty registers below
    // saturation, heavily occupied beyond it.
    let cfg = ClusterConfig::small(Topology::Top1);
    let low = run_point(cfg, Pattern::Uniform, 0.02, windows(), 9).unwrap();
    let high = run_point(cfg, Pattern::Uniform, 0.30, windows(), 9).unwrap();
    assert!(low.net_occupancy < 0.2, "low-load occupancy {}", low.net_occupancy);
    assert!(
        high.net_occupancy > 3.0 * low.net_occupancy,
        "occupancy did not grow with congestion: {} vs {}",
        high.net_occupancy,
        low.net_occupancy
    );
}

#[test]
fn hotspot_collapses_every_topology() {
    // All 64 cores hammer one tile's 16 banks: the aggregate service rate
    // is 16 accesses/cycle -> 0.25 req/core/cycle upper bound, and the
    // response path concentration pushes real throughput well below the
    // uniform saturation for Top4/TopH.
    let hot = Pattern::HotSpot {
        base: 0x10000,
        bytes: 64, // one word per bank of one tile
    };
    for topo in [Topology::Top4, Topology::TopH] {
        let uniform = run_point(ClusterConfig::small(topo), Pattern::Uniform, 1.0, windows(), 11)
            .unwrap()
            .throughput;
        let hotspot = run_point(ClusterConfig::small(topo), hot, 1.0, windows(), 11)
            .unwrap()
            .throughput;
        assert!(
            hotspot < 0.6 * uniform,
            "{topo}: hotspot {hotspot} not below uniform {uniform}"
        );
        assert!(hotspot > 0.0, "{topo}: hotspot deadlocked");
    }
}

#[test]
fn tile_heat_identifies_the_hotspot() {
    // HotSpot traffic at address 0x10000: with 4 KiB sequential regions on
    // the small cluster, 0x10000 = 64 KiB sits in the interleaved region;
    // its 64-byte window maps to one tile's 16 banks.
    let cfg = ClusterConfig::small(Topology::TopH);
    let map = cfg.address_map().unwrap();
    let scr = cfg.scrambler().unwrap().unwrap();
    let hot_tile = map.decode(scr.scramble(0x10000)).unwrap().tile as usize;

    let pattern = Pattern::HotSpot { base: 0x10000, bytes: 64 };
    // Build a cluster directly so we can inspect per-tile counters.
    let point = run_point(cfg, pattern, 0.2, windows(), 13).unwrap();
    let _ = point; // throughput sanity is covered elsewhere

    let mut cluster = mempool::Cluster::new(cfg, |loc| {
        mempool_traffic::TrafficGen::new(
            0.2,
            pattern,
            mempool_traffic::AddressSpace {
                l1_bytes: map.size_bytes() as u32,
                seq_base: 0,
                seq_bytes: 0,
                seq_total: 0,
                tile: loc.tile as u32,
                num_tiles: cfg.num_tiles as u32,
                banks_per_tile: cfg.banks_per_tile as u32,
            },
            64,
            loc.core as u64,
        )
    })
    .unwrap();
    cluster.step_cycles(2_000);
    let (tile, share) = cluster.stats().hottest_tile().expect("accesses happened");
    assert_eq!(tile, hot_tile);
    assert!(share > 0.99, "hot tile share {share}");
}

#[test]
fn ideal_topology_matches_md1_queueing_theory() {
    // On the ideal crossbar the only *network-side* latency source is bank
    // conflicts: each bank approximates an M/D/1 queue with unit service.
    // The cluster-side latency (request issue to response delivery, i.e.
    // excluding the generator's own source queue) must track
    // 1 + rho/(2(1-rho)).
    use mempool_traffic::{md1_latency, AddressSpace, TrafficGen};
    let cfg = ClusterConfig::small(Topology::Ideal); // 64 cores, 256 banks
    let l1_bytes = cfg.address_map().unwrap().size_bytes() as u32;
    for load in [0.2f64, 0.5, 0.8] {
        let rho = load * cfg.num_cores() as f64 / cfg.num_banks() as f64;
        let analytic = md1_latency(rho);
        let mut cluster = mempool::Cluster::new(cfg, |loc| {
            TrafficGen::new(
                load,
                Pattern::Uniform,
                AddressSpace {
                    l1_bytes,
                    seq_base: 0,
                    seq_bytes: 0,
                    seq_total: 0,
                    tile: loc.tile as u32,
                    num_tiles: cfg.num_tiles as u32,
                    banks_per_tile: cfg.banks_per_tile as u32,
                },
                64,
                1000 + loc.core as u64,
            )
        })
        .unwrap();
        cluster.step_cycles(6_000);
        let measured = cluster.stats().latency.mean();
        assert!(
            (measured - analytic).abs() < 0.05 + 0.12 * analytic,
            "load {load}: simulated {measured:.3} vs M/D/1 {analytic:.3}"
        );
    }
}

#[test]
fn adversarial_permutations_hurt_butterflies_more_than_uniform() {
    // Bit-complement concentrates paths in log-networks; a fully-connected
    // crossbar (the TopH local group or the ideal net) shrugs it off. The
    // global butterflies of Top4 must lose more throughput than the ideal
    // baseline does when switching from uniform to bit-complement.
    use mempool_traffic::Permutation;
    let pattern = Pattern::Permutation(Permutation::BitComplement);
    let sat = |topo, pat| {
        run_point(ClusterConfig::small(topo), pat, 1.0, windows(), 23)
            .unwrap()
            .throughput
    };
    let top4_uniform = sat(Topology::Top4, Pattern::Uniform);
    let top4_adv = sat(Topology::Top4, pattern);
    let ideal_uniform = sat(Topology::Ideal, Pattern::Uniform);
    let ideal_adv = sat(Topology::Ideal, pattern);
    let top4_loss = top4_adv / top4_uniform;
    let ideal_loss = ideal_adv / ideal_uniform;
    assert!(
        top4_loss < ideal_loss,
        "butterfly loss {top4_loss:.2} not worse than ideal loss {ideal_loss:.2}"
    );
}
