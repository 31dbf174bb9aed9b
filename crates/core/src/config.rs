//! Cluster configuration: geometry, topology selection, and validation.

use mempool_mem::{AddressMap, Scrambler};
use mempool_snitch::SnitchConfig;
use std::fmt;

/// The processor-to-L1 interconnect topology (§III-C of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// The non-implementable baseline: every bank reachable in one cycle
    /// with no routing conflicts (bank conflicts remain). Used to normalize
    /// the benchmark results (§V-C).
    Ideal,
    /// `Top1`: a single radix-4 butterfly between tiles; each tile
    /// concentrates its cores' remote traffic through one master port.
    Top1,
    /// `Top4`: four parallel radix-4 butterflies; each core owns a dedicated
    /// master port (no concentration).
    Top4,
    /// `TopH`: the hierarchical topology MemPool ships — four local groups
    /// with fully-connected 16×16 crossbars inside a group and three
    /// directional butterflies (N/NE/E) between groups.
    TopH,
}

impl Topology {
    /// Number of remote master/slave port pairs per tile.
    pub fn remote_ports(self, cores_per_tile: usize) -> usize {
        match self {
            Topology::Ideal => 0,
            Topology::Top1 => 1,
            Topology::Top4 => cores_per_tile,
            Topology::TopH => 4,
        }
    }

    /// All four topologies, in presentation order.
    pub fn all() -> [Topology; 4] {
        [Topology::Ideal, Topology::Top1, Topology::Top4, Topology::TopH]
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Topology::Ideal => "ideal",
            Topology::Top1 => "top1",
            Topology::Top4 => "top4",
            Topology::TopH => "topH",
        };
        f.write_str(name)
    }
}

/// The inverse of `Display` — the one place the topology names are spelled
/// for parsing (command lines, config specs, examples). `toph` is accepted
/// next to the canonical `topH`.
impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name {
            "ideal" => Ok(Topology::Ideal),
            "top1" => Ok(Topology::Top1),
            "top4" => Ok(Topology::Top4),
            "topH" | "toph" => Ok(Topology::TopH),
            other => Err(format!("unknown topology `{other}`")),
        }
    }
}

/// How I-cache refills reach the backing memory.
///
/// The paper connects the tiles' 32-bit AXI refill ports "to a low-overhead
/// refill network (e.g., a ring), which is noncritical" (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefillNetwork {
    /// Abstract fixed-latency port per tile (`IcacheConfig::refill_latency`
    /// cycles per line, one line in flight per tile).
    Fixed,
    /// A modeled unidirectional ring with one stop per tile plus an L2
    /// stop: refill latency becomes distance-dependent and the ring's
    /// single-packet-per-link bandwidth is shared by all tiles.
    Ring {
        /// L2 access latency once the request reaches the L2 stop.
        l2_latency: u32,
    },
}

/// Instruction-cache parameters of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcacheConfig {
    /// Total size in bytes (paper: 2 KiB).
    pub size_bytes: u32,
    /// Associativity (paper: 4 ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Cycles from refill request to line installed
    /// ([`RefillNetwork::Fixed`] only).
    pub refill_latency: u32,
    /// Refill transport model.
    pub refill_network: RefillNetwork,
}

impl Default for IcacheConfig {
    fn default() -> Self {
        IcacheConfig {
            size_bytes: 2048,
            ways: 4,
            line_bytes: 32,
            refill_latency: 25,
            refill_network: RefillNetwork::Fixed,
        }
    }
}

/// Resilience knobs: per-request timeouts, bounded retry, and the cluster
/// watchdog.
///
/// Everything defaults to *off* (zero), so a fault-free cluster behaves
/// bit-identically to one built before this subsystem existed. Enable
/// [`standard`](ResilienceConfig::standard) when running fault campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Cycles an in-flight request may wait for its response before the
    /// retry layer re-issues it (0 disables timeouts and retries).
    pub request_timeout: u64,
    /// Re-issues per request before it is abandoned and the issuing core is
    /// faulted.
    pub max_retries: u32,
    /// Consecutive cycles without memory-system progress (while work is
    /// outstanding) before the watchdog declares a deadlock (0 disables the
    /// watchdog).
    pub watchdog_cycles: u64,
}

impl ResilienceConfig {
    /// The recommended settings for fault-injection runs: a 4096-cycle
    /// request timeout (far above any fault-free round trip), three
    /// retries, and a 16384-cycle watchdog.
    pub fn standard() -> Self {
        ResilienceConfig {
            request_timeout: 4096,
            max_retries: 3,
            watchdog_cycles: 16384,
        }
    }

    /// Whether the retry layer is active.
    pub fn retries_enabled(&self) -> bool {
        self.request_timeout > 0
    }

    /// Whether the watchdog is active.
    pub fn watchdog_enabled(&self) -> bool {
        self.watchdog_cycles > 0
    }
}

/// Full configuration of a MemPool cluster.
///
/// The default is the paper's 256-core system: 64 tiles × 4 cores, 16 banks
/// per tile with 256 rows (1 MiB of L1), radix-4 networks, and a 4 KiB
/// sequential region per tile when scrambling is enabled (the paper leaves
/// the region size as a knob; 4 KiB holds four per-core stacks plus local
/// working sets).
///
/// # Examples
///
/// ```
/// use mempool::{ClusterConfig, Topology};
///
/// let config = ClusterConfig::paper(Topology::TopH);
/// assert_eq!(config.num_cores(), 256);
/// assert_eq!(config.address_map().unwrap().size_bytes(), 1 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Interconnect topology.
    pub topology: Topology,
    /// Number of tiles.
    pub num_tiles: usize,
    /// Cores per tile.
    pub cores_per_tile: usize,
    /// SPM banks per tile.
    pub banks_per_tile: usize,
    /// 32-bit rows per bank.
    pub rows_per_bank: u32,
    /// Butterfly switch radix.
    pub radix: usize,
    /// Sequential-region size per tile in bytes; `None` disables the hybrid
    /// addressing scrambler (fully interleaved map).
    pub seq_region_bytes: Option<u32>,
    /// Core template (hart IDs are assigned per core).
    pub core: SnitchConfig,
    /// Instruction-cache parameters.
    pub icache: IcacheConfig,
    /// Timeout / retry / watchdog settings (all disabled by default).
    pub resilience: ResilienceConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper(Topology::TopH)
    }
}

/// Error returned when a [`ClusterConfig`] is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateConfigError {
    msg: String,
}

impl fmt::Display for ValidateConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ValidateConfigError {}

fn cfg_err(msg: impl Into<String>) -> ValidateConfigError {
    ValidateConfigError { msg: msg.into() }
}

fn is_power_of(mut n: usize, base: usize) -> bool {
    if n == 0 {
        return false;
    }
    while n > 1 {
        if !n.is_multiple_of(base) {
            return false;
        }
        n /= base;
    }
    true
}

impl ClusterConfig {
    /// The paper's 256-core configuration with the given topology.
    pub fn paper(topology: Topology) -> Self {
        ClusterConfig {
            topology,
            num_tiles: 64,
            cores_per_tile: 4,
            banks_per_tile: 16,
            rows_per_bank: 256,
            radix: 4,
            seq_region_bytes: Some(4096),
            core: SnitchConfig::default(),
            icache: IcacheConfig::default(),
            resilience: ResilienceConfig::default(),
        }
    }

    /// A reduced 16-tile / 64-core configuration, convenient for tests and
    /// examples (256 KiB of L1, 4 KiB sequential regions).
    pub fn small(topology: Topology) -> Self {
        ClusterConfig {
            topology,
            num_tiles: 16,
            cores_per_tile: 4,
            banks_per_tile: 16,
            rows_per_bank: 256,
            radix: 4,
            seq_region_bytes: Some(4096),
            core: SnitchConfig::default(),
            icache: IcacheConfig::default(),
            resilience: ResilienceConfig::default(),
        }
    }

    /// Total core count.
    pub fn num_cores(&self) -> usize {
        self.num_tiles * self.cores_per_tile
    }

    /// Total bank count.
    pub fn num_banks(&self) -> usize {
        self.num_tiles * self.banks_per_tile
    }

    /// Number of local groups (TopH): always four, mirroring the 2×2
    /// physical arrangement of the paper.
    pub fn num_groups(&self) -> usize {
        4
    }

    /// Tiles per local group (TopH).
    pub fn tiles_per_group(&self) -> usize {
        self.num_tiles / self.num_groups()
    }

    /// Builds the interleaved [`AddressMap`] for this geometry.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors from [`AddressMap::new`].
    pub fn address_map(&self) -> Result<AddressMap, ValidateConfigError> {
        AddressMap::new(
            self.num_tiles as u32,
            self.banks_per_tile as u32,
            self.rows_per_bank,
        )
        .map_err(|e| cfg_err(e.to_string()))
    }

    /// Builds the hybrid-addressing scrambler, if enabled.
    ///
    /// # Errors
    ///
    /// Returns an error when the configured sequential-region size is
    /// invalid for this geometry.
    pub fn scrambler(&self) -> Result<Option<Scrambler>, ValidateConfigError> {
        let map = self.address_map()?;
        match self.seq_region_bytes {
            None => Ok(None),
            Some(bytes) => Scrambler::new(map, bytes)
                .map(Some)
                .ok_or_else(|| cfg_err(format!("invalid sequential region size {bytes}"))),
        }
    }

    /// Checks all geometric constraints of the selected topology.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateConfigError`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ValidateConfigError> {
        self.address_map()?;
        self.scrambler()?;
        if self.cores_per_tile == 0 || self.cores_per_tile > 32 {
            return Err(cfg_err("cores_per_tile must be in 1..=32"));
        }
        if self.radix < 2 {
            return Err(cfg_err("radix must be at least 2"));
        }
        match self.topology {
            Topology::Ideal => {}
            Topology::Top1 | Topology::Top4 => {
                if !is_power_of(self.num_tiles, self.radix) {
                    return Err(cfg_err(format!(
                        "{}: num_tiles {} must be a power of radix {}",
                        self.topology, self.num_tiles, self.radix
                    )));
                }
            }
            Topology::TopH => {
                if !self.num_tiles.is_multiple_of(4) {
                    return Err(cfg_err("topH: num_tiles must be divisible by 4 groups"));
                }
                if !is_power_of(self.tiles_per_group(), self.radix) {
                    return Err(cfg_err(format!(
                        "topH: tiles per group {} must be a power of radix {}",
                        self.tiles_per_group(),
                        self.radix
                    )));
                }
            }
        }
        mempool_mem::ICache::new(
            self.icache.size_bytes,
            self.icache.ways,
            self.icache.line_bytes,
        )
        .map_err(|e| cfg_err(e.to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        for topo in Topology::all() {
            ClusterConfig::paper(topo).validate().unwrap();
            ClusterConfig::small(topo).validate().unwrap();
        }
    }

    #[test]
    fn geometry_rejections() {
        let mut c = ClusterConfig::paper(Topology::Top1);
        c.num_tiles = 48; // not a power of 4
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper(Topology::TopH);
        c.num_tiles = 20; // 5 per group, not a power of 4
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper(Topology::TopH);
        c.seq_region_bytes = Some(100); // not a power of two
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper(Topology::TopH);
        c.rows_per_bank = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn topology_names_round_trip() {
        for topo in Topology::all() {
            assert_eq!(topo.to_string().parse(), Ok(topo));
        }
        // The all-lowercase spelling of the one mixed-case name is accepted too.
        assert_eq!("topH".to_lowercase().parse(), Ok(Topology::TopH));
        assert!("mesh".parse::<Topology>().is_err());
        assert!("TOPH".parse::<Topology>().is_err());
    }

    #[test]
    fn derived_counts() {
        let c = ClusterConfig::paper(Topology::TopH);
        assert_eq!(c.num_cores(), 256);
        assert_eq!(c.num_banks(), 1024);
        assert_eq!(c.tiles_per_group(), 16);
        assert_eq!(Topology::Top1.remote_ports(4), 1);
        assert_eq!(Topology::Top4.remote_ports(4), 4);
        assert_eq!(Topology::TopH.remote_ports(4), 4);
        assert_eq!(Topology::Ideal.remote_ports(4), 0);
    }
}
