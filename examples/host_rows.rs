//! Where a simulated cycle's host time goes, on the three points DESIGN §10
//! measures: the Fig. 7 `dct` and `matmul` (n = 128) kernels and the Fig. 5
//! saturated-traffic point, all on the 256-core TopH cluster.
//!
//! Prints the host phase timer's eleven rows in µs per simulated cycle,
//! their total, the wall time of the timed cycles and the cluster's
//! `state_digest` — the digest must not move under a host-side change, the
//! rows and the wall time should. The kernels are built from their own
//! `source()` and `init`, and run to completion under the timer. The
//! traffic point is the benchmark's `traffic_sat`: uniform destinations at
//! 0.5 request/core/cycle, 2 000 warm-up cycles, then 10 000 timed ones.
//!
//! Run with: `cargo run --release --example host_rows -- <dct|matmul|traffic> [seed]`
//! (`seed`, default 1, seeds the kernels' data and the traffic sources).

use mempool::{Cluster, ClusterConfig, Core, HostProfile, HostRow, Topology};
use mempool_kernels::{build_program, Dct, Geometry, Kernel, Matmul};
use mempool_traffic::{AddressSpace, Pattern, TrafficGen};
use std::time::{Duration, Instant};

const LOAD: f64 = 0.5;
const WARMUP_CYCLES: u64 = 2_000;
const TIMED_CYCLES: u64 = 10_000;
const KERNEL_BUDGET: u64 = 10_000_000;

type Error = Box<dyn std::error::Error>;

fn main() -> Result<(), Error> {
    let mut args = std::env::args().skip(1);
    let (Some(point), seed, None) = (args.next(), args.next(), args.next()) else {
        return Err("usage: host_rows <dct|matmul|traffic> [seed]".into());
    };
    let seed: u64 = seed.map_or(Ok(1), |s| s.parse())?;
    let config = ClusterConfig::paper(Topology::TopH);
    let geometry = Geometry::from_config(&config, 4096);
    let (cycles, wall, digest, host) = match point.as_str() {
        "dct" => run_kernel(config, &Dct::new(geometry)?, seed)?,
        "matmul" => run_kernel(config, &Matmul::new(geometry, 128)?, seed)?,
        "traffic" => run_traffic(config, seed)?,
        other => return Err(format!("unknown point `{other}`: dct, matmul or traffic").into()),
    };
    println!(
        "{point} on {} ({} cores), seed {seed}: {cycles} timed cycles",
        config.topology,
        config.num_cores()
    );
    println!("\nhost µs per simulated cycle, by phase of the cycle:");
    for row in HostRow::ALL {
        println!("  {:<34} {:>10.3}", row.label(), host.us_per_cycle(row));
    }
    let per_cycle = |d: Duration| d.as_secs_f64() * 1e6 / cycles.max(1) as f64;
    println!("  {:<34} {:>10.3}", "total", per_cycle(host.total()));
    println!("  {:<34} {:>10.3}", "wall time", per_cycle(wall));
    println!("\nstate_digest {digest:#018x}");
    Ok(())
}

/// Runs `kernel` to completion under the timer and checks its result.
fn run_kernel(
    config: ClusterConfig,
    kernel: &dyn Kernel,
    seed: u64,
) -> Result<(u64, Duration, u64, HostProfile), Error> {
    let mut cluster = Cluster::snitch(config)?;
    cluster.load_program(&build_program(kernel, &config)?)?;
    kernel.init(&mut cluster, seed);
    cluster.enable_host_profile();
    let started = Instant::now();
    let cycles = cluster.run(KERNEL_BUDGET)?;
    let wall = started.elapsed();
    kernel.check(&cluster, seed)?;
    Ok(timed(&cluster, cycles, wall))
}

/// Warms the saturated network up, then times the measured cycles.
fn run_traffic(
    config: ClusterConfig,
    seed: u64,
) -> Result<(u64, Duration, u64, HostProfile), Error> {
    let map = config.address_map()?;
    let scrambler = config.scrambler()?.ok_or("TopH has a hybrid address map")?;
    let mut cluster = Cluster::new(config, |loc| {
        let space = AddressSpace {
            l1_bytes: map.size_bytes() as u32,
            seq_base: scrambler.seq_base(loc.tile as u32),
            seq_bytes: scrambler.seq_bytes_per_tile(),
            seq_total: scrambler.seq_region_bytes() as u32,
            tile: loc.tile as u32,
            num_tiles: config.num_tiles as u32,
            banks_per_tile: config.banks_per_tile as u32,
        };
        let stream = seed.wrapping_mul(0x9e37_79b9).wrapping_add(loc.core as u64);
        TrafficGen::new(LOAD, Pattern::Uniform, space, 64, stream)
    })?;
    cluster.step_cycles(WARMUP_CYCLES);
    cluster.enable_host_profile();
    let started = Instant::now();
    cluster.step_cycles(TIMED_CYCLES);
    let wall = started.elapsed();
    Ok(timed(&cluster, TIMED_CYCLES, wall))
}

fn timed<C: Core + mempool::Walk>(
    cluster: &Cluster<C>,
    cycles: u64,
    wall: Duration,
) -> (u64, Duration, u64, HostProfile) {
    let host = cluster.host_profile().expect("the timer is on").clone();
    (cycles, wall, cluster.state_digest(), host)
}
