//! Per-event energy model, calibrated against §VI-D and Fig. 10 of the
//! paper (TT / 0.80 V / 25 °C):
//!
//! * a local load costs 8.4 pJ, of which 4.5 pJ in the (tile-local)
//!   interconnect — about as much as a `mul` and 2.3× an `add`;
//! * a remote load costs 16.9 pJ, of which 13.0 pJ in interconnects
//!   (2.9× the interconnect energy of a local load);
//! * running `matmul` at 500 MHz, a tile consumes 20.9 mW — I-cache
//!   39.5 %, cores 26.6 %, SPM banks 12.6 %, tile interconnects < 10 % —
//!   and the cluster 1.55 W, 86 % of it inside the tiles.
//!
//! The model books tile-side energy (core, I$, SPM, tile crossbars) per
//! tile and global-interconnect energy at the cluster top level, which is
//! how the paper's 1.7 mW tile-interconnect figure coexists with the
//! 13 pJ remote-load interconnect energy.

use mempool::ClusterStats;
use mempool_mem::CacheStats;
use mempool_snitch::CoreStats;

/// Calibrated per-event energies in picojoules.
pub mod pj {
    /// Simple ALU instruction (`add` class), total.
    pub const ADD: f64 = 3.7;
    /// Multiply instruction, total.
    pub const MUL: f64 = 8.2;
    /// Divide/remainder instruction (serial divider), total.
    pub const DIV: f64 = 9.5;
    /// Core-side share of any memory instruction (LSU, ROB).
    pub const CORE_MEM: f64 = 1.9;
    /// Core idle/clocking energy per core per cycle.
    pub const CORE_IDLE: f64 = 0.4;
    /// One I-cache lookup.
    pub const ICACHE_FETCH: f64 = 4.5;
    /// One I-cache line refill over the AXI ring.
    pub const ICACHE_REFILL: f64 = 60.0;
    /// One SPM bank access.
    pub const SPM_ACCESS: f64 = 2.0;
    /// SPM leakage/precharge per bank per cycle.
    pub const SPM_IDLE: f64 = 0.2;
    /// Tile-interconnect share of a local (same-tile) access.
    pub const NET_TILE_LOCAL: f64 = 4.5;
    /// Tile-interconnect share of a remote access (both end tiles).
    pub const NET_TILE_REMOTE: f64 = 4.0;
    /// Global-interconnect share of a remote access (booked at top level).
    pub const NET_GLOBAL_REMOTE: f64 = 9.0;
    /// Tile clock tree and glue per tile per cycle.
    pub const TILE_IDLE: f64 = 3.0;
}

/// Activity counters extracted from a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Activity {
    /// Cluster cycles simulated.
    pub cycles: u64,
    /// Number of tiles.
    pub num_tiles: usize,
    /// Number of cores.
    pub num_cores: usize,
    /// SPM banks per tile.
    pub banks_per_tile: usize,
    /// Instructions retired (all cores).
    pub instructions: u64,
    /// Multiply instructions.
    pub muls: u64,
    /// Divide instructions.
    pub divs: u64,
    /// Memory instructions (loads + stores + atomics).
    pub memory_ops: u64,
    /// Memory accesses that stayed in the issuing tile.
    pub local_accesses: u64,
    /// Memory accesses that crossed tiles.
    pub remote_accesses: u64,
    /// I-cache lookups.
    pub ifetches: u64,
    /// I-cache refills.
    pub refills: u64,
}

/// A by-name lookup named a counter (or instruction class) that does not
/// exist. Carries the full available set so a stats-schema drift surfaces
/// as a legible report error instead of a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingCounterError {
    /// The name that was requested.
    pub name: String,
    /// The names that do exist.
    pub available: Vec<&'static str>,
}

impl std::fmt::Display for MissingCounterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no counter named `{}`; available: {}",
            self.name,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for MissingCounterError {}

/// The activity-counter names accepted by [`Activity::counter`], in
/// declaration order.
pub const ACTIVITY_COUNTERS: [&str; 8] = [
    "instructions",
    "muls",
    "divs",
    "memory_ops",
    "local_accesses",
    "remote_accesses",
    "ifetches",
    "refills",
];

impl Activity {
    /// Builds the activity record from the three statistics blocks a
    /// kernel run produces.
    pub fn from_run(
        stats: &ClusterStats,
        cores: &CoreStats,
        icache: &CacheStats,
        num_tiles: usize,
        num_cores: usize,
        banks_per_tile: usize,
    ) -> Activity {
        Activity {
            cycles: stats.cycles,
            num_tiles,
            num_cores,
            banks_per_tile,
            instructions: cores.instret,
            muls: cores.muls,
            divs: cores.divs,
            memory_ops: cores.loads + cores.stores + cores.amos,
            local_accesses: stats.local_requests,
            remote_accesses: stats.remote_requests,
            ifetches: icache.hits + icache.misses,
            refills: stats.icache_refills,
        }
    }

    /// Builds the activity record from a `mempool-metrics-v2`
    /// [`MetricsRegistry`](mempool::MetricsRegistry) export — the
    /// observability-layer equivalent of [`Activity::from_run`], usable on
    /// a registry alone (no live cluster required).
    ///
    /// Per-core instruction-class counters are summed over every
    /// `cluster/tile*/core*` scope; locality and refill counters come from
    /// the `cluster` and per-tile scopes.
    ///
    /// # Errors
    ///
    /// [`mempool::MetricsError`] when the registry lacks the `cluster`
    /// scope counters this model needs (e.g. a registry produced by a
    /// different schema).
    pub fn from_registry(
        registry: &mempool::MetricsRegistry,
    ) -> Result<Activity, mempool::MetricsError> {
        let core = |name| registry.sum_counter("cluster/tile", name);
        let icache_hits = registry.sum_counter("cluster/tile", "icache_hits");
        let icache_misses = registry.sum_counter("cluster/tile", "icache_misses");
        Ok(Activity {
            cycles: registry.counter("cluster", "cycles")?,
            num_tiles: registry.num_tiles(),
            num_cores: registry.num_cores(),
            banks_per_tile: registry.banks_per_tile(),
            instructions: core("instret"),
            muls: core("muls"),
            divs: core("divs"),
            memory_ops: core("loads") + core("stores") + core("amos"),
            local_accesses: registry.counter("cluster", "local_requests")?,
            remote_accesses: registry.counter("cluster", "remote_requests")?,
            ifetches: icache_hits + icache_misses,
            refills: registry.counter("cluster", "icache_refills")?,
        })
    }

    /// Looks up an event counter by name (for report generators driven by
    /// a counter-name schema).
    ///
    /// # Errors
    ///
    /// [`MissingCounterError`] naming the unknown counter and the
    /// [`ACTIVITY_COUNTERS`] that do exist.
    pub fn counter(&self, name: &str) -> Result<u64, MissingCounterError> {
        match name {
            "instructions" => Ok(self.instructions),
            "muls" => Ok(self.muls),
            "divs" => Ok(self.divs),
            "memory_ops" => Ok(self.memory_ops),
            "local_accesses" => Ok(self.local_accesses),
            "remote_accesses" => Ok(self.remote_accesses),
            "ifetches" => Ok(self.ifetches),
            "refills" => Ok(self.refills),
            _ => Err(MissingCounterError {
                name: name.to_string(),
                available: ACTIVITY_COUNTERS.to_vec(),
            }),
        }
    }
}

/// Energy split by component (picojoules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core datapaths (instructions + idle clocking).
    pub cores_pj: f64,
    /// Instruction caches (lookups + refills).
    pub icache_pj: f64,
    /// SPM banks (accesses + leakage).
    pub spm_pj: f64,
    /// Tile-local request/response interconnects.
    pub tile_net_pj: f64,
    /// Tile clock tree and glue.
    pub tile_other_pj: f64,
    /// Global interconnect (top level, outside the tiles).
    pub global_net_pj: f64,
}

impl EnergyBreakdown {
    /// Energy consumed inside the tiles.
    pub fn tiles_pj(&self) -> f64 {
        self.cores_pj + self.icache_pj + self.spm_pj + self.tile_net_pj + self.tile_other_pj
    }

    /// Total cluster energy.
    pub fn total_pj(&self) -> f64 {
        self.tiles_pj() + self.global_net_pj
    }

    /// Fraction of total energy consumed inside the tiles (paper: 86 %).
    pub fn tile_fraction(&self) -> f64 {
        self.tiles_pj() / self.total_pj()
    }
}

/// Computes the energy breakdown of an activity record.
pub fn energy(a: &Activity) -> EnergyBreakdown {
    let alu = a
        .instructions
        .saturating_sub(a.muls + a.divs + a.memory_ops) as f64;
    EnergyBreakdown {
        cores_pj: alu * pj::ADD
            + a.muls as f64 * pj::MUL
            + a.divs as f64 * pj::DIV
            + a.memory_ops as f64 * pj::CORE_MEM
            + (a.num_cores as u64 * a.cycles) as f64 * pj::CORE_IDLE,
        icache_pj: a.ifetches as f64 * pj::ICACHE_FETCH + a.refills as f64 * pj::ICACHE_REFILL,
        spm_pj: (a.local_accesses + a.remote_accesses) as f64 * pj::SPM_ACCESS
            + (a.num_tiles * a.banks_per_tile) as f64 * a.cycles as f64 * pj::SPM_IDLE,
        tile_net_pj: a.local_accesses as f64 * pj::NET_TILE_LOCAL
            + a.remote_accesses as f64 * pj::NET_TILE_REMOTE,
        tile_other_pj: a.num_tiles as f64 * a.cycles as f64 * pj::TILE_IDLE,
        global_net_pj: a.remote_accesses as f64 * pj::NET_GLOBAL_REMOTE,
    }
}

/// Average power of one tile (milliwatts) at `freq_mhz`.
pub fn tile_power_mw(a: &Activity, freq_mhz: f64) -> f64 {
    let b = energy(a);
    let pj_per_cycle = b.tiles_pj() / a.cycles as f64 / a.num_tiles as f64;
    pj_per_cycle * freq_mhz * 1e-6 * 1e3
}

/// Average power of the whole cluster (watts) at `freq_mhz`.
pub fn cluster_power_w(a: &Activity, freq_mhz: f64) -> f64 {
    let b = energy(a);
    b.total_pj() / a.cycles as f64 * freq_mhz * 1e-6
}

/// One row of the Fig. 10 per-instruction energy table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionEnergy {
    /// Instruction class.
    pub name: &'static str,
    /// Total energy (pJ).
    pub total_pj: f64,
    /// Of which spent in interconnects (pJ).
    pub interconnect_pj: f64,
}

/// The Fig. 10 energy-per-instruction table.
pub fn instruction_energy_table() -> Vec<InstructionEnergy> {
    let local_mem = pj::CORE_MEM + pj::SPM_ACCESS + pj::NET_TILE_LOCAL;
    let remote_mem =
        pj::CORE_MEM + pj::SPM_ACCESS + pj::NET_TILE_REMOTE + pj::NET_GLOBAL_REMOTE;
    vec![
        InstructionEnergy {
            name: "add",
            total_pj: pj::ADD,
            interconnect_pj: 0.0,
        },
        InstructionEnergy {
            name: "mul",
            total_pj: pj::MUL,
            interconnect_pj: 0.0,
        },
        InstructionEnergy {
            name: "local load",
            total_pj: local_mem,
            interconnect_pj: pj::NET_TILE_LOCAL,
        },
        InstructionEnergy {
            name: "local store",
            total_pj: local_mem,
            interconnect_pj: pj::NET_TILE_LOCAL,
        },
        InstructionEnergy {
            name: "remote load",
            total_pj: remote_mem,
            interconnect_pj: pj::NET_TILE_REMOTE + pj::NET_GLOBAL_REMOTE,
        },
        InstructionEnergy {
            name: "remote store",
            total_pj: remote_mem,
            interconnect_pj: pj::NET_TILE_REMOTE + pj::NET_GLOBAL_REMOTE,
        },
    ]
}

/// Looks up one row of the Fig. 10 table by instruction-class name.
///
/// # Errors
///
/// [`MissingCounterError`] naming the unknown class and the classes that
/// exist — report code matching on names gets an error, not a panic.
pub fn instruction_energy(name: &str) -> Result<InstructionEnergy, MissingCounterError> {
    let table = instruction_energy_table();
    table
        .iter()
        .find(|e| e.name == name)
        .copied()
        .ok_or_else(|| MissingCounterError {
            name: name.to_string(),
            available: table.iter().map(|e| e.name).collect(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_ratios_match_paper() {
        let get = |name: &str| instruction_energy(name).expect("table row exists");
        let add = get("add");
        let mul = get("mul");
        let ll = get("local load");
        let rl = get("remote load");
        assert!((ll.total_pj - 8.4).abs() < 0.05);
        assert!((rl.total_pj - 16.9).abs() < 0.1);
        assert!((ll.interconnect_pj - 4.5).abs() < 0.05);
        assert!((rl.interconnect_pj - 13.0).abs() < 0.05);
        // "a local load uses … 2.3× the energy consumed by a simple add"
        assert!((ll.total_pj / add.total_pj - 2.3).abs() < 0.05);
        // "even then that is only 4.5× the energy of an add"
        assert!((rl.total_pj / add.total_pj - 4.5).abs() < 0.1);
        // "local load uses about as much energy as … mul"
        assert!((ll.total_pj / mul.total_pj - 1.0).abs() < 0.1);
        // interconnect energy ratio remote/local = 2.9×
        assert!((rl.interconnect_pj / ll.interconnect_pj - 2.9).abs() < 0.05);
        // "local memory requests consume only half of the energy required
        // for remote memory accesses"
        assert!((rl.total_pj / ll.total_pj - 2.0).abs() < 0.05);
    }

    /// An analytically constructed matmul-like activity on the paper
    /// configuration (IPC and access mix measured from the simulator).
    fn matmul_like() -> Activity {
        let cycles = 8_651u64;
        Activity {
            cycles,
            num_tiles: 64,
            num_cores: 256,
            banks_per_tile: 16,
            instructions: (0.645 * 256.0 * cycles as f64) as u64,
            muls: (0.118 * 256.0 * cycles as f64) as u64,
            divs: 0,
            memory_ops: (0.24 * 256.0 * cycles as f64) as u64,
            local_accesses: (0.012 * 256.0 * cycles as f64) as u64,
            remote_accesses: (0.228 * 256.0 * cycles as f64) as u64,
            ifetches: (0.9 * 256.0 * cycles as f64) as u64,
            refills: 64 * 8,
        }
    }

    #[test]
    fn from_registry_matches_from_run() {
        let program = mempool_riscv::assemble(
            "li a0, 0x8000\n\
             li a1, 1\n\
             amoadd.w a2, a1, (a0)\n\
             fence\n\
             ecall\n",
        )
        .expect("valid program");
        let config = mempool::ClusterConfig::small(mempool::Topology::TopH);
        let mut cluster = mempool::Cluster::snitch(config).expect("valid config");
        cluster.load_program(&program).expect("loads");
        cluster.run(100_000).expect("finishes");

        let from_run = Activity::from_run(
            cluster.stats(),
            &cluster.core_stats_total(),
            &cluster.icache_stats(),
            cluster.config().num_tiles,
            cluster.config().num_cores(),
            cluster.config().banks_per_tile,
        );
        let from_registry =
            Activity::from_registry(&cluster.metrics_registry()).expect("schema matches");
        assert_eq!(from_registry, from_run);
    }

    #[test]
    fn tile_power_near_paper_value() {
        let p = tile_power_mw(&matmul_like(), 500.0);
        assert!((p - 20.9).abs() < 3.0, "tile power {p} mW");
    }

    #[test]
    fn cluster_power_near_paper_value() {
        let a = matmul_like();
        let p = cluster_power_w(&a, 500.0);
        assert!((p - 1.55).abs() < 0.25, "cluster power {p} W");
        let frac = energy(&a).tile_fraction();
        assert!((frac - 0.86).abs() < 0.05, "tile fraction {frac}");
    }

    #[test]
    fn idle_cluster_draws_little() {
        let idle = Activity {
            cycles: 1000,
            num_tiles: 64,
            num_cores: 256,
            banks_per_tile: 16,
            ..Activity::default()
        };
        let p = cluster_power_w(&idle, 500.0);
        let busy = cluster_power_w(&matmul_like(), 500.0);
        assert!(p < 0.35 * busy, "idle {p} W vs busy {busy} W");
    }

    #[test]
    fn missing_instruction_class_is_a_typed_error() {
        let err = instruction_energy("remote amoadd").expect_err("no such row");
        assert_eq!(err.name, "remote amoadd");
        assert!(err.available.contains(&"remote load"));
        let msg = err.to_string();
        assert!(msg.contains("`remote amoadd`"), "{msg}");
        assert!(msg.contains("remote load"), "{msg}");
    }

    #[test]
    fn missing_activity_counter_is_a_typed_error() {
        let a = matmul_like();
        assert_eq!(a.counter("muls"), Ok(a.muls));
        assert_eq!(a.counter("refills"), Ok(a.refills));
        let err = a.counter("fp_ops").expect_err("no such counter");
        assert_eq!(err.name, "fp_ops");
        assert_eq!(err.available, ACTIVITY_COUNTERS.to_vec());
        assert!(err.to_string().contains("fp_ops"));
        // Every advertised name resolves.
        for name in ACTIVITY_COUNTERS {
            assert!(a.counter(name).is_ok(), "{name} must resolve");
        }
    }

    #[test]
    fn energy_scales_with_locality() {
        let mut local = matmul_like();
        local.local_accesses += local.remote_accesses;
        local.remote_accesses = 0;
        let e_local = energy(&local).total_pj();
        let e_remote = energy(&matmul_like()).total_pj();
        assert!(e_local < e_remote);
    }
}
