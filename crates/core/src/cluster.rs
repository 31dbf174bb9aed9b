//! The cycle-accurate MemPool cluster simulator.

use crate::cancel::{CancelToken, CancelledError, WALL_PROBE_STRIDE};
use crate::faults::{
    BankFailure, DeadlockDiagnostic, FaultEvent, FaultLog, FaultPlan, LinkFaultKind, PendingDump,
    SimError, TileDiagnostic,
};
use crate::host::{self, HostProfile, HostRow, HostTimer};
use crate::sanitize::{Sanitizer, SanitizerConfig, SanitizerReport};
use crate::net::{group_port, LinkRef, Net};
use crate::snapshot::{at, walk_fields, Place, SnapshotError, StateIo, Walk, Walked};
use crate::tile::{BankGate, ProgramImage, Tile};
use crate::{
    ClusterConfig, ClusterStats, Core, FaultStats, RefillNetwork, Request, Response, Topology,
    ValidateConfigError,
};
use mempool_mem::{AddressMap, CacheStats, QuarantineMap, Scrambler};
use mempool_noc::Ring;
use mempool_snitch::{DataRequest, DataRequestKind, DataResponse};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A refill transaction on the I-cache ring (§III-B's "low-overhead refill
/// network").
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RefillPacket {
    pub(crate) tile: usize,
    pub(crate) line: u32,
}

/// The modeled AXI refill ring: one stop per tile plus an L2 stop.
pub(crate) struct RefillRing {
    pub(crate) ring: Ring<RefillPacket>,
    pub(crate) l2_stop: usize,
    pub(crate) l2_latency: u32,
    /// Requests being served by L2: completion cycle, requesting tile,
    /// line.
    pub(crate) serving: VecDeque<(u64, usize, u32)>,
}

impl RefillRing {
    fn new(num_tiles: usize, l2_latency: u32) -> Self {
        RefillRing {
            ring: Ring::new(num_tiles + 1),
            l2_stop: num_tiles,
            l2_latency,
            serving: VecDeque::new(),
        }
    }

    /// Advances the ring one cycle; returns the number of lines installed.
    fn cycle(
        &mut self,
        tiles: &mut [Tile],
        now: u64,
        faults: Option<&FaultPlan>,
        fstats: &mut FaultStats,
    ) -> u64 {
        // Injected ring faults: lost flits vanish from their slot; any
        // stalled slot freezes the whole (bufferless, synchronous) ring for
        // the cycle.
        let mut advance = true;
        if let Some(plan) = faults {
            if plan.spec().has_ring_faults() {
                for slot in 0..self.ring.stops() {
                    if plan.ring_dropped(now, slot as u64)
                        && self.ring.drop_in_flight(slot).is_some()
                    {
                        fstats.ring_drops += 1;
                    }
                    if plan.ring_stalled(now, slot as u64) {
                        fstats.ring_stalls += 1;
                        advance = false;
                    }
                }
            }
        }
        if advance {
            self.ring.advance();
        }
        // Responses arriving at tiles install their lines.
        let mut installed = 0;
        for (t, tile) in tiles.iter_mut().enumerate() {
            while let Some(pkt) = self.ring.eject(t) {
                tile.complete_refill(pkt.line);
                installed += 1;
            }
        }
        // Requests arriving at L2 start their access.
        while let Some(pkt) = self.ring.eject(self.l2_stop) {
            self.serving
                .push_back((now + u64::from(self.l2_latency), pkt.tile, pkt.line));
        }
        // Completed L2 accesses head back (in order; retry on a busy link).
        while let Some(&(ready, tile, line)) = self.serving.front() {
            if ready > now || !self.ring.try_inject(self.l2_stop, tile, RefillPacket { tile, line })
            {
                break;
            }
            self.serving.pop_front();
        }
        // Tile misses enter the ring.
        for (t, tile) in tiles.iter_mut().enumerate() {
            if let Some(line) = tile.peek_refill_request() {
                if self.ring.try_inject(t, self.l2_stop, RefillPacket { tile: t, line }) {
                    tile.take_refill_request();
                }
            }
        }
        installed
    }
}

/// What placing requests on the interconnect adds to the cluster's
/// statistics. The core phase counts into a local one of these and the
/// cycle folds it into [`ClusterStats`] when the phase ends.
#[derive(Default)]
struct IssueCounters {
    memory_faults: u64,
    local_requests: u64,
    remote_requests: u64,
    group_local_requests: u64,
    direction_requests: [u64; 3],
    /// Requests issued — each also one more request in flight.
    issued: u64,
    quarantine_remaps: u64,
}

/// The read-only half of the issue path: everything needed to turn a
/// core's [`DataRequest`] into the [`Request`] its output latch holds.
struct IssuePath<'a> {
    scrambler: Option<Scrambler>,
    map: AddressMap,
    quarantine: &'a QuarantineMap,
    /// The group of every tile on TopH, whose remote requests are
    /// classified by direction; `None` on the flat topologies.
    groups: Option<&'a [u32]>,
    now: u64,
}

impl IssuePath<'_> {
    /// Scramble, decode, remap around quarantined banks, classify by
    /// locality. Returns the request core `core` of tile `tile` latches, or
    /// `None` when the address lies outside L1 — a guest-program bug: the
    /// caller kills the offending core and the cluster stays alive.
    #[inline]
    fn place(
        &self,
        core: usize,
        tile: usize,
        dr: &DataRequest,
        k: &mut IssueCounters,
    ) -> Option<Request> {
        let mut phys = self.scrambler.map_or(dr.addr, |s| s.scramble(dr.addr));
        let Some(mut at) = self.map.decode(phys) else {
            k.memory_faults += 1;
            return None;
        };
        // Graceful degradation: traffic to a quarantined bank is remapped
        // at issue onto its substitute (always within the same tile, so
        // locality classification is unaffected).
        if !self.quarantine.is_identity() {
            let remapped = self.quarantine.remap(at);
            if remapped.bank != at.bank {
                k.quarantine_remaps += 1;
                at = remapped;
                phys = self.map.encode(at);
            }
        }
        if at.tile as usize == tile {
            k.local_requests += 1;
        } else {
            k.remote_requests += 1;
            if let Some(group) = self.groups {
                match group_port(group[tile] as usize, group[at.tile as usize] as usize) {
                    0 => k.group_local_requests += 1,
                    port => k.direction_requests[port - 1] += 1, // N, NE, E
                }
            }
        }
        k.issued += 1;
        Some(Request {
            core: core as u32,
            tag: dr.tag,
            addr: phys,
            kind: dr.kind,
            issued_at: self.now,
        })
    }
}

/// The per-cycle fault view of each `(tile, bank)` for the request phase.
fn bank_gate<'a>(
    quarantine: &'a QuarantineMap,
    faults: Option<&'a FaultPlan>,
    now: u64,
) -> impl Fn(usize, u32) -> BankGate + Copy + 'a {
    let healthy = quarantine.is_identity();
    move |tile, bank| {
        if !healthy && quarantine.is_quarantined(tile as u32, bank) {
            BankGate::Dead
        } else if faults.is_some_and(|plan| plan.bank_stalled(now, tile as u32, bank)) {
            BankGate::Stalled
        } else {
            BankGate::Ready
        }
    }
}

/// Error returned by [`Cluster::run`] when the program does not finish
/// within the cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunTimeoutError {
    budget: u64,
}

impl RunTimeoutError {
    /// The exhausted cycle budget.
    pub fn budget(self) -> u64 {
        self.budget
    }
}

impl fmt::Display for RunTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program did not finish within {} cycles", self.budget)
    }
}

impl std::error::Error for RunTimeoutError {}

/// Retry-layer bookkeeping for one in-flight request, keyed by
/// `(core, tag)`. `last_sent` distinguishes a live (re)issue from a stale
/// response still draining out of the network after a retry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PendingRequest {
    pub(crate) addr: u32,
    pub(crate) kind: DataRequestKind,
    pub(crate) issued_at: u64,
    pub(crate) last_sent: u64,
    pub(crate) retries: u32,
}

impl PendingRequest {
    /// Bookkeeping for a request issued (not re-issued) this cycle.
    fn fresh(req: &Request) -> Self {
        PendingRequest {
            addr: req.addr,
            kind: req.kind,
            issued_at: req.issued_at,
            last_sent: req.issued_at,
            retries: 0,
        }
    }
}

/// Placement of one core within the cluster, handed to the core factory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreLocation {
    /// Global core index (also the hart ID).
    pub core: usize,
    /// Tile index.
    pub tile: usize,
    /// Lane within the tile (0..cores_per_tile).
    pub lane: usize,
}

/// A cycle-accurate MemPool cluster, generic over the core model `C` —
/// [`SnitchCore`](mempool_snitch::SnitchCore) for real programs, or a
/// synthetic traffic generator for network analysis (§V-A).
///
/// # Examples
///
/// Run a two-instruction-per-core program on the 64-core test cluster:
///
/// ```
/// use mempool::{Cluster, ClusterConfig, Topology};
/// use mempool_riscv::assemble;
///
/// let program = assemble("csrr a0, mhartid\necall\n")?;
/// let mut cluster = Cluster::snitch(ClusterConfig::small(Topology::TopH))?;
/// cluster.load_program(&program)?;
/// cluster.run(10_000)?;
/// assert_eq!(cluster.cores()[5].reg(mempool_riscv::Reg::A0), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Cluster<C> {
    pub(crate) config: ClusterConfig,
    pub(crate) map: AddressMap,
    pub(crate) scrambler: Option<Scrambler>,
    pub(crate) cores: Vec<C>,
    pub(crate) tiles: Vec<Tile>,
    pub(crate) net: Net,
    /// Per-core output latch between the core and the interconnect.
    pub(crate) out_latches: Vec<Option<Request>>,
    pub(crate) image: ProgramImage,
    pub(crate) now: u64,
    pub(crate) stats: ClusterStats,
    pub(crate) in_flight: u64,
    pub(crate) deliveries: Vec<Response>,
    pub(crate) refill_ring: Option<RefillRing>,
    /// Observability recorder (`None` = disabled, the zero-cost default).
    /// Architectural state once enabled: snapshotted and digested, so
    /// metrics survive checkpoint/restore bit-identically.
    pub(crate) obs: Option<Box<crate::obs::Obs>>,
    /// Program-level profiler (`None` = disabled). The cluster half holds
    /// the windowed activity sampler; the per-(region, PC) tables live
    /// inside the cores. Architectural state once enabled: snapshotted
    /// (the `profile` component) and digested.
    pub(crate) profiler: Option<Box<crate::profile::Profiler>>,
    // --- fault injection and resilience ---
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) quarantine: QuarantineMap,
    /// Retry-layer view of every tracked in-flight request, in
    /// deterministic (core, tag) order.
    pub(crate) pending: BTreeMap<(u32, u8), PendingRequest>,
    pub(crate) fault_log: FaultLog,
    /// Scheduled permanent bank failures (absolute cycles, sorted);
    /// `next_failure` indexes the first not yet activated.
    pub(crate) pending_failures: Vec<BankFailure>,
    pub(crate) next_failure: usize,
    /// Per-core first cycle at which an injected lockup releases.
    pub(crate) locked_until: Vec<u64>,
    /// No tracked request can be overdue before this cycle: a lower bound
    /// on the earliest `last_sent + request_timeout`, lowered at every
    /// issue and re-derived by each retry scan, so the scan is skipped
    /// while nothing is due. Derived state: not snapshotted, not digested.
    pub(crate) retry_due: u64,
    /// Scratch of the retry scan (the overdue keys of one cycle).
    retry_scratch: Vec<(u32, u8)>,
    /// Lines installed by the refill transport over all tiles: the sum of
    /// the tiles' own counters, kept current at the install sites so the
    /// end-of-cycle statistics need not walk the tiles. Derived state.
    pub(crate) refills_total: u64,
    /// Watchdog: last cycle the progress signature changed, and its value.
    pub(crate) last_progress: u64,
    pub(crate) progress_mark: u64,
    /// Cycle-level invariant sanitizer (`None` = disabled). Pure checking:
    /// never snapshotted, never digested, never perturbs results.
    pub(crate) sanitizer: Option<Box<Sanitizer>>,
    /// Cooperative cancellation token checked in the step loops. Pure
    /// policy: never snapshotted, never digested.
    pub(crate) cancel: Option<CancelToken>,
    /// Host phase timer (`None` = disabled). Observes the host only:
    /// never snapshotted, never digested, never perturbs results.
    pub(crate) host: Option<Box<HostTimer>>,
    /// Test-only seeded mutations (sanitizer coverage). Inert by default.
    pub(crate) debug_mut: DebugMutations,
}

/// Test-only delivery mutations used to prove the sanitizer detects the
/// failure modes it claims to: dropping, duplicating, and delaying
/// responses, applied at the head of the delivery drain. Inert unless
/// armed through the `debug_*` hooks.
#[derive(Debug, Default)]
pub(crate) struct DebugMutations {
    drop_next: bool,
    dup_next: bool,
    hold: Option<(u32, u64)>,
    held: Vec<(u64, Response)>,
}

impl DebugMutations {
    fn active(&self) -> bool {
        self.drop_next || self.dup_next || self.hold.is_some() || !self.held.is_empty()
    }
}

impl<C> Cluster<C> {
    /// Re-seeds the sanitizer's in-flight view from the retry layer (after
    /// a snapshot restore rewound the cluster under it). Bound-free so the
    /// snapshot machinery (generic only over [`Walk`]) can call it.
    ///
    /// [`Walk`]: crate::snapshot::Walk
    pub(crate) fn resync_sanitizer(&mut self) {
        if self.sanitizer.is_none() {
            return;
        }
        let map = self.map;
        let in_flight = self.in_flight;
        // (key, addr, issued_at, last_sent, retried) per pending request.
        type PendingView = Vec<((u32, u8), u32, u64, u64, bool)>;
        let pending: PendingView = self
            .pending
            .iter()
            .map(|(&k, p)| (k, p.addr, p.issued_at, p.last_sent, p.retries > 0))
            .collect();
        if let Some(san) = self.sanitizer.as_deref_mut() {
            san.resync(in_flight, pending.into_iter(), |addr| {
                map.decode(addr).map(|at| (at.tile, at.bank))
            });
        }
    }
}

impl<C: Core> Cluster<C> {
    /// Builds a cluster, constructing each core through `factory`.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateConfigError`] when the configuration is
    /// geometrically inconsistent.
    pub fn new(
        config: ClusterConfig,
        mut factory: impl FnMut(CoreLocation) -> C,
    ) -> Result<Self, ValidateConfigError> {
        config.validate()?;
        let map = config.address_map()?;
        let scrambler = config.scrambler()?;
        let cores = (0..config.num_cores())
            .map(|core| {
                factory(CoreLocation {
                    core,
                    tile: core / config.cores_per_tile,
                    lane: core % config.cores_per_tile,
                })
            })
            .collect();
        Ok(Cluster {
            map,
            scrambler,
            cores,
            tiles: (0..config.num_tiles).map(|_| Tile::new(&config)).collect(),
            net: Net::new(&config),
            out_latches: vec![None; config.num_cores()],
            image: ProgramImage::default(),
            now: 0,
            stats: ClusterStats::with_tiles(config.num_tiles),
            in_flight: 0,
            deliveries: Vec::new(),
            refill_ring: match config.icache.refill_network {
                RefillNetwork::Fixed => None,
                RefillNetwork::Ring { l2_latency } => {
                    Some(RefillRing::new(config.num_tiles, l2_latency))
                }
            },
            obs: None,
            profiler: None,
            faults: None,
            quarantine: QuarantineMap::new(map),
            pending: BTreeMap::new(),
            fault_log: FaultLog::default(),
            pending_failures: Vec::new(),
            next_failure: 0,
            locked_until: vec![0; config.num_cores()],
            retry_due: 0,
            retry_scratch: Vec::new(),
            refills_total: 0,
            last_progress: 0,
            progress_mark: 0,
            sanitizer: None,
            cancel: None,
            host: None,
            debug_mut: DebugMutations::default(),
            config,
        })
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The interleaved address map.
    pub fn address_map(&self) -> AddressMap {
        self.map
    }

    /// The hybrid-addressing scrambler, if enabled.
    pub fn scrambler(&self) -> Option<Scrambler> {
        self.scrambler
    }

    /// Current cycle count.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The cores, indexed by global core ID.
    pub fn cores(&self) -> &[C] {
        &self.cores
    }

    /// Mutable access to the cores (e.g. to set per-hart entry points).
    pub fn cores_mut(&mut self) -> &mut [C] {
        &mut self.cores
    }

    /// Number of requests issued but not yet answered.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Instruction-cache refills outstanding across all tiles.
    pub fn pending_refills(&self) -> usize {
        self.tiles.iter().map(Tile::pending_refills).sum()
    }

    /// Installs (or removes, with `None`) the fault plan driving injection
    /// from the *next* cycle on.
    ///
    /// Scheduled bank failures are re-derived from the plan and land within
    /// the first [`FaultPlan::bank_failures`] window of cycles after this
    /// call; quarantine state and the fault log restart.
    pub fn install_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.quarantine = QuarantineMap::new(self.map);
        self.fault_log.clear();
        self.pending_failures.clear();
        self.next_failure = 0;
        // A previously stalled link must not stay frozen after its plan is
        // gone.
        self.net.for_each_link(&mut |_, link| match link {
            LinkRef::Req(b) => b.set_stalled(false),
            LinkRef::Resp(b) => b.set_stalled(false),
        });
        if let Some(plan) = &plan {
            let mut failures = plan.bank_failures(
                self.config.num_tiles as u32,
                self.config.banks_per_tile as u32,
            );
            for f in &mut failures {
                f.cycle += self.now;
            }
            self.pending_failures = failures;
        }
        self.faults = plan;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The log of notable fault events since the plan was installed.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Number of banks currently quarantined (dead, traffic remapped).
    pub fn quarantined_banks(&self) -> usize {
        self.quarantine.quarantined_banks()
    }

    /// Does nothing: there is one engine (DESIGN.md §10, "Why there is one
    /// engine"). Kept only because the frozen `benchmark/` package still
    /// calls it for its `matmul_par2` workload and `core.*par2*` /
    /// `core.forkjoin*` probes; it goes when a later `benchmark` PR retires
    /// those rows.
    #[doc(hidden)]
    pub fn set_workers(&mut self, _workers: usize) {}

    /// Whether per-request bookkeeping (the retry layer's pending map) is
    /// active. Off in the default configuration, so fault-free runs keep
    /// their zero-overhead hot path.
    fn track_pending(&self) -> bool {
        self.faults.is_some()
            || self.config.resilience.retries_enabled()
            || self.config.resilience.watchdog_enabled()
    }

    /// A human-readable description of the instantiated hardware: the
    /// hierarchy, port counts and register placement that give this
    /// configuration its latency/throughput behaviour.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "MemPool cluster: {} cores in {} tiles ({} topology)",
            c.num_cores(),
            c.num_tiles,
            c.topology
        );
        let _ = writeln!(
            out,
            "  L1: {} banks x {} rows = {} KiB, {}",
            c.num_banks(),
            c.rows_per_bank,
            self.map.size_bytes() / 1024,
            match c.seq_region_bytes {
                Some(b) => format!("hybrid map with {b} B sequential regions"),
                None => "fully interleaved map".to_owned(),
            }
        );
        let ports = c.topology.remote_ports(c.cores_per_tile);
        let _ = writeln!(
            out,
            "  tile: {} cores, {} banks, {} remote port pair(s), {} B I-cache ({}-way)",
            c.cores_per_tile, c.banks_per_tile, ports, c.icache.size_bytes, c.icache.ways
        );
        let (_, regs) = self.net.occupancy();
        let topology_desc = match c.topology {
            Topology::Ideal => "single-cycle conflict-free crossbar (baseline)".to_owned(),
            Topology::Top1 => format!(
                "one {0}x{0} radix-{1} butterfly, mid-stage pipeline registers",
                c.num_tiles, c.radix
            ),
            Topology::Top4 => format!(
                "{2} parallel {0}x{0} radix-{1} butterflies (one per core lane)",
                c.num_tiles, c.radix, c.cores_per_tile
            ),
            Topology::TopH => format!(
                "4 groups of {0} tiles: {0}x{0} local crossbars + N/NE/E radix-{1} butterflies",
                c.tiles_per_group(),
                c.radix
            ),
        };
        let _ = writeln!(out, "  global interconnect: {topology_desc}");
        let _ = writeln!(out, "  global register slots: {regs} (elastic, depth 2)");
        let _ = writeln!(
            out,
            "  zero-load latency: 1 cycle local{}",
            match c.topology {
                Topology::Ideal => ", 1 cycle anywhere (idealized)".to_owned(),
                Topology::Top1 | Topology::Top4 => ", 5 cycles remote".to_owned(),
                Topology::TopH => ", 3 cycles in-group, 5 cycles cross-group".to_owned(),
            }
        );
        out
    }

    /// Turns on the observability recorder: per-tile latency histograms
    /// and (when `config` enables sampling) a bounded timeline of request
    /// spans. Until this is called the recorder is absent and the hot path
    /// pays nothing for it.
    ///
    /// Once enabled, the recorder's contents are architectural state:
    /// included in snapshots and the [`state_digest`](Cluster::state_digest).
    pub fn enable_observability(&mut self, config: crate::obs::ObsConfig) {
        self.obs = Some(Box::new(crate::obs::Obs::new(
            config,
            self.config.num_tiles,
        )));
    }

    /// Whether the observability recorder is currently attached.
    pub fn observability_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// The sampled request timeline recorded so far (`None` when
    /// observability is disabled). Non-destructive: the recorder keeps
    /// accumulating after the call.
    pub fn timeline(&self) -> Option<crate::obs::TimelineTrace> {
        self.obs.as_ref().map(|o| o.timeline())
    }

    /// Turns on the program-level profiler: per-(region, PC) cycle
    /// attribution inside every core, plus (when
    /// [`ProfileConfig::power_window`](crate::ProfileConfig) is non-zero)
    /// the windowed activity sampler behind the `mempool-power-v1`
    /// timeline. Until this is called the profiler is absent and the hot
    /// path pays nothing for it.
    ///
    /// Once enabled, all profiler state is architectural: included in
    /// snapshots (the `profile` component) and the
    /// [`state_digest`](Cluster::state_digest).
    pub fn enable_profiling(&mut self, config: crate::ProfileConfig) {
        let mut p = crate::profile::Profiler::new(config, self.config.num_tiles);
        p.window_start = self.now;
        p.mark = self.cumulative_activity();
        self.profiler = Some(Box::new(p));
        for core in &mut self.cores {
            core.enable_profile(config.max_pcs);
        }
    }

    /// Whether the profiler is currently attached.
    pub fn profiling_enabled(&self) -> bool {
        self.profiler.is_some()
    }

    /// Turns on the cycle-level invariant sanitizer (see
    /// [`SanitizerConfig`]). Unlike observability and profiling, the
    /// sanitizer is pure checking: it is *excluded* from snapshots and the
    /// [`state_digest`](Cluster::state_digest), and enabling it never
    /// changes simulation results. Until this is called the hot path pays
    /// nothing for it.
    ///
    /// Requests already in flight at attach time are reconstructed from
    /// the retry layer's pending map when tracking is on; otherwise their
    /// responses are tolerated without a conservation complaint.
    pub fn enable_sanitizer(&mut self, config: SanitizerConfig) {
        let mut san = Box::new(Sanitizer::new(config, &self.config));
        let map = self.map;
        san.resync(
            self.in_flight,
            self.pending
                .iter()
                .map(|(&k, p)| (k, p.addr, p.issued_at, p.last_sent, p.retries > 0)),
            |addr| map.decode(addr).map(|at| (at.tile, at.bank)),
        );
        self.sanitizer = Some(san);
    }

    /// The sanitizer's accumulated report (`None` when disabled).
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// Turns on the host phase timer (see [`HostProfile`]): from the next
    /// cycle on, every [`cycle`](Cluster::cycle) adds the wall-clock time
    /// of each of its phases to that phase's [`HostRow`]. Like the
    /// sanitizer, the timer is excluded from snapshots and the
    /// [`state_digest`](Cluster::state_digest) and never changes results;
    /// until this is called each phase boundary costs one branch. Calling
    /// it again starts a fresh profile.
    pub fn enable_host_profile(&mut self) {
        self.host = Some(Box::new(HostTimer::new()));
    }

    /// The host time per phase accumulated so far (`None` when the timer
    /// is off).
    pub fn host_profile(&self) -> Option<&HostProfile> {
        self.host.as_ref().map(|h| &h.profile)
    }

    /// Installs (or removes, with `None`) the cooperative cancellation
    /// token checked by [`run`](Cluster::run) and
    /// [`try_step_cycles`](Cluster::try_step_cycles). Pure policy: the
    /// token never perturbs architectural state.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Test-only: silently discards the next delivered response (the core
    /// never sees it, the cluster's accounting forgets it) so sanitizer
    /// tests can assert a conservation leak fires.
    #[doc(hidden)]
    pub fn debug_drop_next_delivery(&mut self) {
        self.debug_mut.drop_next = true;
    }

    /// Test-only: duplicates the next delivered response so sanitizer
    /// tests can assert a duplicate-response violation fires.
    #[doc(hidden)]
    pub fn debug_duplicate_next_delivery(&mut self) {
        self.debug_mut.dup_next = true;
    }

    /// Test-only: withholds the next response destined for `core` and
    /// re-injects it `cycles` later, so sanitizer tests can force a
    /// per-bank FIFO reorder.
    #[doc(hidden)]
    pub fn debug_hold_delivery(&mut self, core: u32, cycles: u64) {
        self.debug_mut.hold = Some((core, cycles));
    }

    /// Test-only: locks every core until the given absolute cycle, so
    /// sanitizer tests can stall a barrier without traffic in flight.
    #[doc(hidden)]
    pub fn debug_lock_all_cores(&mut self, until: u64) {
        for l in &mut self.locked_until {
            *l = until;
        }
    }

    /// The profiler configuration, when profiling is enabled.
    pub fn profile_config(&self) -> Option<crate::ProfileConfig> {
        self.profiler.as_ref().map(|p| p.config)
    }

    /// The power-sampling windows recorded so far (`None` when profiling
    /// is disabled, empty when `power_window` is `0`). Closed windows plus
    /// the currently open one (truncated at the present cycle), so the
    /// series always covers the whole run.
    pub fn power_windows(&self) -> Option<Vec<crate::PowerWindow>> {
        let p = self.profiler.as_ref()?;
        let mut windows = p.windows.clone();
        if p.config.power_window > 0 && self.now > p.window_start {
            let cum = self.cumulative_activity();
            windows.push(crate::PowerWindow {
                start: p.window_start,
                end: self.now,
                tiles: cum
                    .tiles
                    .iter()
                    .zip(&p.mark.tiles)
                    .map(|(cur, prev)| crate::TileActivity::delta(cur, prev))
                    .collect(),
                local_requests: cum.local_requests - p.mark.local_requests,
                remote_requests: cum.remote_requests - p.mark.remote_requests,
            });
        }
        Some(windows)
    }

    /// Every core's profile rendered as collapsed-stack lines for
    /// flamegraph tooling (`None` when profiling is disabled). See
    /// [`folded_stacks`](crate::folded_stacks) for the line format.
    pub fn profile_folded(&self) -> Option<String> {
        self.profiler.as_ref()?;
        let cpt = self.config.cores_per_tile as u32;
        Some(crate::profile::folded_stacks(
            self.cores
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.core_profile().map(|p| (i as u32 / cpt, i as u32, p))),
        ))
    }

    /// Cluster-wide per-region cycle attribution, summed over all cores
    /// (`None` when profiling is disabled).
    pub fn region_profile(
        &self,
    ) -> Option<[mempool_snitch::RegionCounters; mempool_snitch::profile::REGION_SLOTS]> {
        self.profiler.as_ref()?;
        Some(crate::profile::aggregate_regions(
            self.cores.iter().filter_map(|c| c.core_profile()),
        ))
    }

    /// Snapshots the cluster's cumulative activity counters (the window
    /// sampler differences these between window edges).
    pub(crate) fn cumulative_activity(&self) -> crate::profile::ActivityMark {
        let cpt = self.config.cores_per_tile;
        let tiles = (0..self.config.num_tiles)
            .map(|t| {
                let mut a = crate::TileActivity::default();
                for lane in 0..cpt {
                    for (name, v) in self.cores[t * cpt + lane].metric_counters() {
                        match name {
                            "instret" => a.instret += v,
                            "muls" => a.muls += v,
                            "divs" => a.divs += v,
                            "loads" | "stores" | "amos" => a.memory_ops += v,
                            _ => {}
                        }
                    }
                }
                let ic = self.tiles[t].icache_stats();
                a.icache_fetches = ic.hits + ic.misses;
                a.icache_refills = self.tiles[t].refills();
                a.bank_accesses = self.stats.tile_accesses[t];
                a
            })
            .collect();
        crate::profile::ActivityMark {
            tiles,
            local_requests: self.stats.local_requests,
            remote_requests: self.stats.remote_requests,
        }
    }

    /// Builds a [`MetricsRegistry`](crate::MetricsRegistry) snapshot of
    /// every counter and histogram in the cluster, organised by scope path
    /// (`cluster`, `cluster/tile{t}`, `cluster/tile{t}/core{c}`,
    /// `cluster/tile{t}/bank{b}`, `cluster/link{id}`, `cluster/ring`).
    ///
    /// Always available; the per-tile latency histograms additionally
    /// require [`enable_observability`](Cluster::enable_observability).
    /// The registry is a pure function of architectural state, so two
    /// clusters with equal [`state_digest`](Cluster::state_digest)s export
    /// byte-identical [`MetricsRegistry::to_json`](crate::MetricsRegistry::to_json)
    /// — except for the `host` scope, the host phase timer's nanoseconds
    /// per [`HostRow`], present only while
    /// [`enable_host_profile`](Cluster::enable_host_profile) is in effect.
    pub fn metrics_registry(&self) -> crate::MetricsRegistry {
        use crate::obs::MetricScope;
        let c = &self.config;
        let mut reg = crate::MetricsRegistry::new(
            c.topology.to_string(),
            c.num_tiles,
            c.num_cores(),
            c.banks_per_tile,
        );

        let s = &self.stats;
        let (net_occupancy, net_register_slots) = self.net.occupancy();
        let mut cluster_scope = MetricScope::new("cluster".to_owned());
        cluster_scope
            .counter_entry("cycles", s.cycles)
            .counter_entry("requests_issued", s.requests_issued)
            .counter_entry("responses_delivered", s.responses_delivered)
            .counter_entry("bank_accesses", s.bank_accesses)
            .counter_entry("local_requests", s.local_requests)
            .counter_entry("remote_requests", s.remote_requests)
            .counter_entry("group_local_requests", s.group_local_requests)
            .counter_entry("icache_refills", s.icache_refills)
            .counter_entry("memory_faults", s.memory_faults)
            .counter_entry("in_flight", self.in_flight)
            .counter_entry("net_occupancy", net_occupancy)
            .counter_entry("net_register_slots", net_register_slots)
            .histogram_entry("latency", (&s.latency).into());
        reg.push_scope(cluster_scope);

        // Profiling adds per-region scopes: cluster-wide aggregation here,
        // per-core detail next to each core scope below. Zero-cycle region
        // slots are omitted (a pure function of state, so still
        // deterministic).
        let region_scope = |path: String, rc: &mempool_snitch::RegionCounters| {
            let mut rs = MetricScope::new(path);
            rs.counter_entry("retired", rc.retired);
            for (i, name) in crate::STALL_COUNTER_NAMES.iter().enumerate() {
                rs.counter_entry(name, rc.stalls[i]);
            }
            rs.counter_entry("cycles", rc.cycles());
            rs
        };
        if let Some(regions) = self.region_profile() {
            for (r, rc) in regions.iter().enumerate() {
                if rc.cycles() == 0 {
                    continue;
                }
                reg.push_scope(region_scope(format!("cluster/region{r}"), rc));
            }
        }

        for (t, tile) in self.tiles.iter().enumerate() {
            let ic = tile.icache_stats();
            let mut ts = MetricScope::new(format!("cluster/tile{t}"));
            ts.counter_entry("bank_accesses", s.tile_accesses[t])
                .counter_entry("icache_hits", ic.hits)
                .counter_entry("icache_misses", ic.misses)
                .counter_entry("icache_refills", tile.refills())
                .counter_entry("req_fabric_grants", tile.req_fabric.total_grants())
                .counter_entry("resp_fabric_grants", tile.resp_fabric.total_grants());
            if let Some(obs) = &self.obs {
                ts.histogram_entry("latency", (&obs.tile_latency[t]).into());
            }
            reg.push_scope(ts);

            for lane in 0..c.cores_per_tile {
                let core = t * c.cores_per_tile + lane;
                let counters = self.cores[core].metric_counters();
                if counters.is_empty() {
                    continue;
                }
                let mut cs = MetricScope::new(format!("cluster/tile{t}/core{core}"));
                for (name, value) in counters {
                    cs.counter_entry(name, value);
                }
                reg.push_scope(cs);
                if let Some(p) = self.cores[core].core_profile() {
                    for (r, rc) in p.regions().iter().enumerate() {
                        if rc.cycles() == 0 {
                            continue;
                        }
                        reg.push_scope(region_scope(
                            format!("cluster/tile{t}/core{core}/region{r}"),
                            rc,
                        ));
                    }
                }
            }

            for (b, bank) in tile.banks.iter().enumerate() {
                let mut bs = MetricScope::new(format!("cluster/tile{t}/bank{b}"));
                bs.counter_entry("accesses", bank.accesses());
                reg.push_scope(bs);
            }
        }

        self.net.for_each_link_stats(&mut |id, link| {
            let mut ls = MetricScope::new(format!("cluster/link{id}"));
            ls.counter_entry("pushes", link.pushes)
                .counter_entry("occupancy", link.occupancy)
                .counter_entry("is_req", u64::from(link.is_req));
            reg.push_scope(ls);
        });

        if let Some(rr) = &self.refill_ring {
            let mut rs = MetricScope::new("cluster/ring".to_owned());
            rs.counter_entry("injected", rr.ring.injected())
                .counter_entry("ejected", rr.ring.ejected())
                .counter_entry("in_flight", rr.ring.in_flight() as u64);
            reg.push_scope(rs);
        }

        // The host timer's scope is the one scope that is not a function of
        // architectural state; it is written only while the timer is on.
        if let Some(host) = self.host_profile() {
            let mut hs = MetricScope::new("host".to_owned());
            hs.counter_entry("cycles", host.cycles());
            for row in HostRow::ALL {
                hs.counter_entry(row.counter(), host.row(row).as_nanos() as u64);
            }
            reg.push_scope(hs);
        }

        reg
    }

    /// FNV-1a digest over the entire L1 contents (physical order) — a
    /// cheap determinism check: identical programs and seeds must produce
    /// identical digests on every run.
    pub fn l1_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for tile in &self.tiles {
            for bank in &tile.banks {
                for row in 0..bank.rows() {
                    let word = bank.peek(row).expect("row in range");
                    for byte in word.to_le_bytes() {
                        hash ^= u64::from(byte);
                        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
        hash
    }

    /// Combined I-cache statistics over all tiles.
    pub fn icache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for tile in &self.tiles {
            let s = tile.icache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// Loads (pre-decodes) a program into the shared instruction memory.
    ///
    /// # Errors
    ///
    /// Returns the decode error of the first malformed instruction word.
    pub fn load_program(
        &mut self,
        program: &mempool_riscv::Program,
    ) -> Result<(), mempool_riscv::DecodeError> {
        self.image = ProgramImage::from_program(program)?;
        self.stats.icache_refills = 0;
        Ok(())
    }

    /// Reads a word from L1 at a *programmer-view* address (the hybrid
    /// scrambler is applied, as a core would). Returns `None` when the
    /// address is out of range.
    pub fn read_word(&self, vaddr: u32) -> Option<u32> {
        let phys = self.scrambler.map_or(vaddr, |s| s.scramble(vaddr));
        let at = self.quarantine.remap(self.map.decode(phys)?);
        self.tiles[at.tile as usize].banks[at.bank as usize].peek(at.row)
    }

    /// Writes a word to L1 at a programmer-view address (for test setup and
    /// input data). Returns `None` when the address is out of range.
    pub fn write_word(&mut self, vaddr: u32, value: u32) -> Option<()> {
        let phys = self.scrambler.map_or(vaddr, |s| s.scramble(vaddr));
        let at = self.quarantine.remap(self.map.decode(phys)?);
        self.tiles[at.tile as usize].banks[at.bank as usize].poke(at.row, value);
        Some(())
    }

    /// Bulk [`write_word`](Cluster::write_word) of consecutive words.
    ///
    /// # Errors
    ///
    /// Returns a [`BusError`](crate::BusError) naming the first address
    /// outside L1 (counted in `stats.memory_faults`); preceding words are
    /// written.
    pub fn write_words(&mut self, vaddr: u32, values: &[u32]) -> Result<(), crate::BusError> {
        for (i, &v) in values.iter().enumerate() {
            let addr = vaddr + 4 * i as u32;
            if self.write_word(addr, v).is_none() {
                self.stats.memory_faults += 1;
                return Err(crate::BusError { addr });
            }
        }
        Ok(())
    }

    /// Bulk [`read_word`](Cluster::read_word) of consecutive words.
    ///
    /// # Errors
    ///
    /// Returns a [`BusError`](crate::BusError) naming the first address
    /// outside L1 (counted in `stats.memory_faults`).
    pub fn read_words(&mut self, vaddr: u32, len: usize) -> Result<Vec<u32>, crate::BusError> {
        (0..len)
            .map(|i| {
                let addr = vaddr + 4 * i as u32;
                self.read_word(addr).ok_or_else(|| {
                    self.stats.memory_faults += 1;
                    crate::BusError { addr }
                })
            })
            .collect()
    }

    /// Applies the cycle's scheduled and rolled faults: permanent bank
    /// failures activate (and quarantine), transient bank stalls are
    /// counted, and every interconnect register stage gets its stall/drop/
    /// corrupt decision for the cycle.
    fn apply_faults(&mut self, now: u64) {
        while self.next_failure < self.pending_failures.len()
            && self.pending_failures[self.next_failure].cycle <= now
        {
            let f = self.pending_failures[self.next_failure];
            self.next_failure += 1;
            self.stats.faults.banks_failed += 1;
            let substitute = self.quarantine.quarantine(f.tile, f.bank);
            if substitute.is_some() {
                self.stats.faults.banks_quarantined += 1;
            }
            self.fault_log.record(FaultEvent::BankFailed {
                cycle: now,
                tile: f.tile,
                bank: f.bank,
                substitute,
            });
        }
        let Some(plan) = &self.faults else { return };
        let spec = *plan.spec();
        // Transient bank stalls are counted here, once per (bank, cycle);
        // the routing-phase gate closures re-derive the same (pure,
        // counter-mode) decision without double counting.
        if spec.bank_stall > 0.0 {
            for tile in 0..self.config.num_tiles as u32 {
                for bank in 0..self.config.banks_per_tile as u32 {
                    if plan.bank_stalled(now, tile, bank) {
                        self.stats.faults.bank_stalls += 1;
                    }
                }
            }
        }
        if spec.has_link_faults() {
            let fstats = &mut self.stats.faults;
            self.net.for_each_link(&mut |id, link| {
                let Some(kind) = plan.link_fault(now, id) else {
                    match link {
                        LinkRef::Req(b) => b.set_stalled(false),
                        LinkRef::Resp(b) => b.set_stalled(false),
                    }
                    return;
                };
                match (kind, link) {
                    (LinkFaultKind::Stall, LinkRef::Req(b)) => {
                        b.set_stalled(true);
                        fstats.link_stalls += 1;
                    }
                    (LinkFaultKind::Stall, LinkRef::Resp(b)) => {
                        b.set_stalled(true);
                        fstats.link_stalls += 1;
                    }
                    (LinkFaultKind::Drop, LinkRef::Req(b)) => {
                        b.set_stalled(false);
                        if b.drop_head().is_some() {
                            fstats.link_drops += 1;
                        }
                    }
                    (LinkFaultKind::Drop, LinkRef::Resp(b)) => {
                        b.set_stalled(false);
                        if b.drop_head().is_some() {
                            fstats.link_drops += 1;
                        }
                    }
                    // Requests carry validated routing fields; corrupting
                    // them would crash the switch rather than model a data
                    // fault, so the corrupt roll is a no-op on request
                    // stages.
                    (LinkFaultKind::Corrupt, LinkRef::Req(b)) => b.set_stalled(false),
                    (LinkFaultKind::Corrupt, LinkRef::Resp(b)) => {
                        b.set_stalled(false);
                        if let Some(resp) = b.head_mut() {
                            resp.data ^= 1 << plan.corrupt_bit(now, id);
                            fstats.link_corruptions += 1;
                        }
                    }
                }
            });
        }
    }

    /// Timeout/retry layer: re-issues tracked requests whose response is
    /// overdue, abandoning (and faulting the core of) any that exhaust the
    /// retry budget. The ordered scan of the pending map only runs from
    /// the cycle the earliest tracked request can be overdue.
    fn retry_overdue(&mut self, now: u64) {
        if now < self.retry_due {
            return;
        }
        let timeout = self.config.resilience.request_timeout;
        let max_retries = self.config.resilience.max_retries;
        let mut overdue = std::mem::take(&mut self.retry_scratch);
        let mut due = u64::MAX;
        for (&key, p) in &self.pending {
            if now - p.last_sent >= timeout {
                overdue.push(key);
            } else {
                due = due.min(p.last_sent + timeout);
            }
        }
        for (core, tag) in overdue.drain(..) {
            // The retry needs the core's output latch; if it is busy this
            // cycle the request simply stays overdue until next cycle.
            if self.out_latches[core as usize].is_some() {
                due = now;
                continue;
            }
            let p = self.pending[&(core, tag)];
            self.stats.faults.request_timeouts += 1;
            if p.retries >= max_retries {
                self.pending.remove(&(core, tag));
                self.stats.faults.requests_abandoned += 1;
                self.in_flight -= 1;
                self.fault_log.record(FaultEvent::RequestAbandoned {
                    cycle: now,
                    core,
                    addr: p.addr,
                    retries: p.retries,
                });
                self.cores[core as usize].fault();
                if let Some(san) = self.sanitizer.as_deref_mut() {
                    san.on_abandon(core, tag);
                }
            } else {
                let p = self.pending.get_mut(&(core, tag)).expect("checked above");
                p.retries += 1;
                p.last_sent = now;
                due = due.min(now + timeout);
                let (addr, kind) = (p.addr, p.kind);
                self.stats.faults.request_retries += 1;
                self.out_latches[core as usize] = Some(Request {
                    core,
                    tag,
                    addr,
                    kind,
                    issued_at: now,
                });
            }
        }
        self.retry_due = due;
        self.retry_scratch = overdue;
    }

    /// Advances the whole cluster by one clock cycle.
    pub fn cycle(&mut self) {
        host::start(&mut self.host);
        self.now += 1;
        let now = self.now;
        let cpt = self.config.cores_per_tile;
        let track = self.track_pending();

        // 0. Fault application: scheduled bank failures activate, link
        //    register stages get their per-cycle fault decisions.
        if self.faults.is_some() || self.next_failure < self.pending_failures.len() {
            self.apply_faults(now);
        }

        // 1. I-cache refill transport (fixed-latency ports or the ring).
        self.refills_total += match &mut self.refill_ring {
            None => self.tiles.iter_mut().map(|tile| u64::from(tile.refill_tick(now))).sum(),
            Some(ring) => ring.cycle(
                &mut self.tiles,
                now,
                self.faults.as_ref(),
                &mut self.stats.faults,
            ),
        };
        host::lap(&mut self.host, HostRow::FaultsRefill);

        // 2. Response phase: master response registers deliver; tile
        //    response crossbars route bank responses toward cores or remote
        //    ports; long-haul response networks advance.
        self.deliveries.clear();
        self.net
            .deliver_master_resp(&mut self.tiles, &mut self.deliveries);
        host::lap(&mut self.host, HostRow::MasterResponses);
        let ideal = matches!(self.config.topology, Topology::Ideal);
        if !ideal {
            for t in 0..self.tiles.len() {
                let net = &self.net;
                let tile = &mut self.tiles[t];
                let port_for = |resp: &Response| net.tile_resp_port(t, resp);
                tile.route_responses(cpt, &mut self.deliveries, port_for);
            }
        }
        host::lap(&mut self.host, HostRow::TileResponses);
        if !ideal {
            self.net.route_responses(&mut self.tiles);
        }
        host::lap(&mut self.host, HostRow::LongHaulResponses);
        self.drain_deliveries(now, track);

        // 2b. Retry layer: overdue tracked requests are re-issued (or
        //     abandoned) before the cores step, so a retry occupies the
        //     core's output latch exactly like a fresh issue.
        if self.config.resilience.retries_enabled() && !self.pending.is_empty() {
            self.retry_overdue(now);
        }
        host::lap(&mut self.host, HostRow::DeliveryDrain);

        // 3. Core phase, tile by tile: each tile's lanes fetch through that
        //    tile's I-cache.
        let path = IssuePath {
            scrambler: self.scrambler,
            map: self.map,
            quarantine: &self.quarantine,
            groups: self.net.tile_groups(),
            now,
        };
        let mut issues = IssueCounters::default();
        let image = &self.image;
        let lanes = self
            .cores
            .chunks_mut(cpt)
            .zip(self.out_latches.chunks_mut(cpt))
            .zip(self.locked_until.chunks_mut(cpt));
        for (tile_idx, (tile, ((cores, latches), locked))) in
            self.tiles.iter_mut().zip(lanes).enumerate()
        {
            let lanes = cores.iter_mut().zip(latches).zip(locked);
            for (lane, ((core, latch), locked_until)) in lanes.enumerate() {
                if now < *locked_until {
                    continue;
                }
                let c = tile_idx * cpt + lane;
                if let Some(plan) = &self.faults {
                    if let Some(len) = plan.core_lockup(now, c as u32) {
                        *locked_until = now + len;
                        self.stats.faults.core_lockups += 1;
                        self.fault_log.record(FaultEvent::CoreLocked {
                            cycle: now,
                            core: c as u32,
                            until: now + len,
                        });
                        continue;
                    }
                    if plan.spurious_retire(now, c as u32) && !core.done() {
                        core.spurious_retire();
                        self.stats.faults.spurious_retires += 1;
                        continue;
                    }
                }
                let ready = latch.is_none();
                let Some(dr) = core.step(&mut |pc| tile.fetch(pc, image), ready) else {
                    continue;
                };
                debug_assert!(ready, "core issued against backpressure");
                let Some(req) = path.place(c, tile_idx, &dr, &mut issues) else {
                    core.fault();
                    continue;
                };
                if track {
                    self.pending.insert((req.core, req.tag), PendingRequest::fresh(&req));
                }
                *latch = Some(req);
            }
        }
        self.stats.memory_faults += issues.memory_faults;
        self.stats.local_requests += issues.local_requests;
        self.stats.remote_requests += issues.remote_requests;
        self.stats.group_local_requests += issues.group_local_requests;
        for (total, n) in self.stats.direction_requests.iter_mut().zip(issues.direction_requests) {
            *total += n;
        }
        self.stats.requests_issued += issues.issued;
        self.in_flight += issues.issued;
        self.stats.faults.quarantine_remaps += issues.quarantine_remaps;
        if issues.issued > 0 {
            let timeout = self.config.resilience.request_timeout;
            self.retry_due = self.retry_due.min(now + timeout);
        }

        // 3b. Sanitizer issue scan: latches must be observed before the
        //     request phase consumes them (same-cycle local accepts).
        if self.sanitizer.is_some() {
            self.sanitize_issues(now);
        }
        host::lap(&mut self.host, HostRow::CorePhase);

        // 4. Request phase: long-haul networks, then tile crossbars + bank
        //    accesses, then core latches into the master port registers.
        //    (The ideal crossbar has no long-haul or port stage: its one
        //    routing pass is timed as the tile request row.)
        let gate = bank_gate(&self.quarantine, self.faults.as_ref(), now);
        if let Some(ideal) = self.net.ideal() {
            self.stats.bank_accesses += ideal.route_requests(
                &mut self.out_latches,
                &mut self.tiles,
                &self.map,
                &mut self.stats.tile_accesses,
                gate,
                &mut self.stats.faults.requests_dropped,
            );
            host::lap(&mut self.host, HostRow::TileRequests);
        } else {
            self.net.route_longhaul_requests(&mut self.tiles, &self.map);
            host::lap(&mut self.host, HostRow::LongHaulRequests);
            for (t, latches) in self.out_latches.chunks_mut(cpt).enumerate() {
                let served = self.tiles[t].accept_requests(
                    t,
                    latches,
                    &self.map,
                    |bank| gate(t, bank),
                    &mut self.stats.faults.requests_dropped,
                );
                self.stats.bank_accesses += served;
                self.stats.tile_accesses[t] += served;
            }
            host::lap(&mut self.host, HostRow::TileRequests);
            self.net.route_port_requests(&mut self.out_latches, &self.map);
        }
        host::lap(&mut self.host, HostRow::PortRequests);

        // 5. End-of-cycle commit.
        for tile in &mut self.tiles {
            tile.commit();
        }
        host::lap(&mut self.host, HostRow::TileCommit);
        self.finish_cycle(now);
        host::lap(&mut self.host, HostRow::FinishCycle);
    }

    /// Completes the response phase: delivers this cycle's responses to
    /// their cores in staging order (master-port registers first, then the
    /// tile response crossbars in ascending tile order).
    fn drain_deliveries(&mut self, now: u64, track: bool) {
        if self.debug_mut.active() {
            self.apply_debug_mutations(now, track);
        }
        let faults_active = self.faults.is_some();
        for resp in self.deliveries.drain(..) {
            if let Some(san) = self.sanitizer.as_deref_mut() {
                san.on_delivery(&resp, now, faults_active);
            }
            if track {
                // After a retry, the original response may still drain out
                // of the network; only the copy matching the latest issue
                // completes the request.
                let fresh = self
                    .pending
                    .get(&(resp.core, resp.tag))
                    .is_some_and(|p| p.last_sent == resp.issued_at);
                if !fresh {
                    self.stats.faults.stale_responses += 1;
                    continue;
                }
                self.pending.remove(&(resp.core, resp.tag));
            }
            self.stats.latency.record(now - resp.issued_at);
            if let Some(obs) = &mut self.obs {
                let tile = resp.core / self.config.cores_per_tile as u32;
                obs.on_delivery(resp.core, tile, resp.issued_at, now - resp.issued_at);
            }
            self.stats.responses_delivered += 1;
            self.in_flight -= 1;
            self.cores[resp.core as usize].deliver(DataResponse {
                tag: resp.tag,
                data: resp.data,
            });
        }
    }

    /// Whether every register row's visible-head bits equal a walk over its
    /// registers, as they must at every cycle boundary.
    pub(crate) fn heads_in_sync(&self) -> bool {
        self.net.heads_in_sync() && self.tiles.iter().all(|t| t.bank_resp.heads_in_sync())
    }

    /// End-of-cycle bookkeeping after the tile commits: network commit,
    /// derived statistics, power-window sampling, the watchdog progress
    /// signature and the sanitizer's per-cycle checks.
    fn finish_cycle(&mut self, now: u64) {
        self.net.commit();
        self.stats.icache_refills = self.refills_total;
        debug_assert_eq!(
            self.refills_total,
            self.tiles.iter().map(Tile::refills).sum::<u64>(),
            "running refill count drifted from the tiles'"
        );
        let (occupied, total) = self.net.occupancy();
        debug_assert_eq!(
            (occupied, total),
            self.net.walked_occupancy(),
            "running occupancy drifted from the registers'"
        );
        debug_assert!(
            self.heads_in_sync(),
            "running head bits drifted from the registers'"
        );
        self.stats.net_occupancy_sum += occupied;
        self.stats.net_register_slots = total;
        self.stats.cycles += 1;

        // Power-window sampling.
        if self
            .profiler
            .as_ref()
            .is_some_and(|p| p.window_closes(now))
        {
            let cum = self.cumulative_activity();
            if let Some(p) = &mut self.profiler {
                p.close_window(now, cum);
            }
        }

        // Watchdog progress signature: any delivered response, bank access,
        // new issue, refill, or resilience action (drop, retry, abandon,
        // stale drain) counts as forward motion.
        let f = &self.stats.faults;
        let signature = self.stats.responses_delivered
            + self.stats.bank_accesses
            + self.stats.requests_issued
            + self.stats.icache_refills
            + f.stale_responses
            + f.requests_dropped
            + f.request_retries
            + f.requests_abandoned;
        if signature != self.progress_mark {
            self.progress_mark = signature;
            self.last_progress = now;
        }

        // Invariant sanitizer: per-cycle structural checks.
        if self.sanitizer.is_some() {
            self.sanitize_cycle(now);
        }
    }

    /// Sanitizer issue scan: records every latch freshly (re-)issued this
    /// cycle. Runs between the core phase and the request phase, before
    /// same-cycle local accepts consume the latches.
    fn sanitize_issues(&mut self, now: u64) {
        let faults_active = self.faults.is_some();
        let map = self.map;
        let quarantine = &self.quarantine;
        let Some(san) = self.sanitizer.as_deref_mut() else {
            return;
        };
        for latch in self.out_latches.iter().flatten() {
            if latch.issued_at != now {
                continue;
            }
            let dest = map.decode(latch.addr).map(|at| (at.tile, at.bank));
            let dest_quarantined =
                dest.is_some_and(|(t, b)| quarantine.is_quarantined(t, b));
            san.on_issue(latch, now, dest, dest_quarantined, faults_active);
        }
    }

    /// Sanitizer per-cycle checks: buffer bounds, conservation aging,
    /// quarantine consistency, and liveness.
    fn sanitize_cycle(&mut self, now: u64) {
        let (occupied, capacity) = self.net.occupancy();
        let qcount = self.quarantine.quarantined_banks();
        let tiles = &self.tiles;
        let quarantine = &self.quarantine;
        let num_tiles = self.config.num_tiles as u32;
        let banks_per_tile = self.config.banks_per_tile as u32;
        let Some(san) = self.sanitizer.as_deref_mut() else {
            return;
        };
        san.check_cycle(now, occupied, capacity);
        if qcount != san.known_quarantined() {
            san.rebaseline_quarantine(
                (0..num_tiles)
                    .flat_map(|t| (0..banks_per_tile).map(move |b| (t, b)))
                    .filter(|&(t, b)| quarantine.is_quarantined(t, b))
                    .map(|(t, b)| (t, b, tiles[t as usize].banks[b as usize].accesses())),
            );
        }
        if qcount > 0 {
            san.check_quarantine(now, |t, b| {
                tiles[t as usize].banks[b as usize].accesses()
            });
        }
        if san.liveness_due(now, self.last_progress)
            && (self.in_flight > 0 || !self.cores.iter().all(Core::done))
        {
            san.check_liveness(now, self.last_progress, self.in_flight);
        }
    }

    /// Applies armed test-only delivery mutations (see the `debug_*`
    /// hooks) at the head of the delivery drain.
    fn apply_debug_mutations(&mut self, now: u64, track: bool) {
        // Re-inject held responses whose delay elapsed.
        let mut i = 0;
        while i < self.debug_mut.held.len() {
            if self.debug_mut.held[i].0 <= now {
                let (_, resp) = self.debug_mut.held.remove(i);
                self.deliveries.push(resp);
            } else {
                i += 1;
            }
        }
        if self.debug_mut.drop_next && !self.deliveries.is_empty() {
            self.debug_mut.drop_next = false;
            let resp = self.deliveries.remove(0);
            self.in_flight -= 1;
            if track {
                self.pending.remove(&(resp.core, resp.tag));
            }
        }
        if self.debug_mut.dup_next && !self.deliveries.is_empty() {
            self.debug_mut.dup_next = false;
            let resp = self.deliveries[0];
            self.deliveries.push(resp);
            self.in_flight += 1;
        }
        if let Some((core, cycles)) = self.debug_mut.hold {
            if let Some(idx) = self.deliveries.iter().position(|r| r.core == core) {
                self.debug_mut.hold = None;
                let resp = self.deliveries.remove(idx);
                self.debug_mut.held.push((now + cycles, resp));
            }
        }
    }

    /// Runs `n` cycles unconditionally (for open-ended traffic experiments).
    pub fn step_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.cycle();
        }
    }

    /// Runs up to `n` cycles, checking the installed
    /// [`CancelToken`](crate::CancelToken) between cycles. Without a token
    /// this is exactly [`step_cycles`](Cluster::step_cycles).
    ///
    /// Returns the number of cycles executed by this call.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token trips; the cluster stops at a
    /// clean cycle boundary (checkpointable, resumable bit-identically).
    pub fn try_step_cycles(&mut self, n: u64) -> Result<u64, SimError> {
        for i in 0..n {
            if let Some(cause) = self.probe_cancel() {
                let _ = i;
                return Err(SimError::Cancelled(CancelledError {
                    cycle: self.now,
                    cause,
                }));
            }
            self.cycle();
        }
        Ok(n)
    }

    /// Checks the cancellation token, throttling the wall-clock read.
    fn probe_cancel(&self) -> Option<crate::CancelCause> {
        let token = self.cancel.as_ref()?;
        token.probe(self.now, self.now.is_multiple_of(WALL_PROBE_STRIDE))
    }

    /// Runs until every core reports [`Core::done`] and all in-flight
    /// requests drained, or the budget expires, or the watchdog (when
    /// enabled in [`ResilienceConfig`](crate::ResilienceConfig)) detects a
    /// deadlock.
    ///
    /// Returns the number of cycles executed by this call.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] when the budget expires while the cluster is
    /// still making progress; [`SimError::Deadlock`] — with a per-tile dump
    /// of stuck requests — when work is outstanding but nothing has moved
    /// for the configured number of cycles.
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, SimError> {
        let start = self.now;
        let watchdog = self.config.resilience.watchdog_cycles;
        while !(self.in_flight == 0 && self.cores.iter().all(Core::done)) {
            if self.now - start >= max_cycles {
                return Err(SimError::Timeout(RunTimeoutError { budget: max_cycles }));
            }
            if let Some(cause) = self.probe_cancel() {
                return Err(SimError::Cancelled(CancelledError {
                    cycle: self.now,
                    cause,
                }));
            }
            self.cycle();
            if watchdog > 0
                && (self.in_flight > 0 || self.pending_refills() > 0)
                && self.now - self.last_progress >= watchdog
            {
                return Err(SimError::Deadlock(Box::new(self.deadlock_diagnostic())));
            }
        }
        Ok(self.now - start)
    }

    /// Snapshot of the stuck memory system for the watchdog report:
    /// tracked in-flight requests grouped by destination tile.
    fn deadlock_diagnostic(&self) -> DeadlockDiagnostic {
        /// Longest per-tile request dump; `total` still reports the rest.
        const MAX_DUMP_PER_TILE: usize = 8;
        let mut tiles: BTreeMap<u32, TileDiagnostic> = BTreeMap::new();
        for (&(core, tag), p) in &self.pending {
            let tile = self.map.decode(p.addr).map_or(u32::MAX, |at| at.tile);
            let entry = tiles.entry(tile).or_insert_with(|| TileDiagnostic {
                tile,
                total: 0,
                requests: Vec::new(),
            });
            entry.total += 1;
            if entry.requests.len() < MAX_DUMP_PER_TILE {
                entry.requests.push(PendingDump {
                    core,
                    tag,
                    addr: p.addr,
                    issued_at: p.issued_at,
                    retries: p.retries,
                });
            }
        }
        DeadlockDiagnostic {
            cycle: self.now,
            idle_cycles: self.now - self.last_progress,
            in_flight: self.in_flight as usize,
            pending_refills: self.pending_refills(),
            tiles: tiles.into_values().collect(),
        }
    }

    /// Resets all transient machine state — cores are rebuilt via
    /// `factory`, networks and latches drain, statistics restart — while
    /// **keeping L1 contents and warm I-caches**. Use it to chain program
    /// phases over the same data set.
    pub fn reset_with(&mut self, mut factory: impl FnMut(CoreLocation) -> C) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            *core = factory(CoreLocation {
                core: i,
                tile: i / self.config.cores_per_tile,
                lane: i % self.config.cores_per_tile,
            });
        }
        for tile in &mut self.tiles {
            tile.clear_transient();
        }
        self.net = Net::new(&self.config);
        self.out_latches.iter_mut().for_each(|l| *l = None);
        self.in_flight = 0;
        self.stats = ClusterStats::with_tiles(self.config.num_tiles);
        // The recorder restarts empty but stays enabled with its config.
        if let Some(obs) = &mut self.obs {
            **obs = crate::obs::Obs::new(obs.config, self.config.num_tiles);
        }
        // Same for the profiler: empty windows, marks re-latched against
        // whatever survives the reset (e.g. warm I-cache statistics), and
        // the factory-fresh cores get their profile tables back.
        if let Some(config) = self.profile_config() {
            self.enable_profiling(config);
        }
        if let Some(ring) = &mut self.refill_ring {
            *ring = RefillRing::new(self.config.num_tiles, ring.l2_latency);
        }
        // Resilience state: transient bookkeeping restarts, but the fault
        // plan, its remaining scheduled failures, and quarantined banks
        // survive — a reset does not heal dead hardware.
        self.pending.clear();
        self.locked_until.iter_mut().for_each(|l| *l = 0);
        self.fault_log.clear();
        self.last_progress = self.now;
        self.progress_mark = 0;
    }
}

impl Cluster<mempool_snitch::SnitchCore> {
    /// [`reset_with`](Cluster::reset_with) specialized for Snitch cores
    /// (hart IDs re-assigned from the configuration template).
    pub fn reset(&mut self) {
        let template = self.config.core;
        self.reset_with(|loc| {
            mempool_snitch::SnitchCore::new(mempool_snitch::SnitchConfig {
                hartid: loc.core as u32,
                ..template
            })
        });
    }

    /// Builds a cluster of Snitch cores with hart IDs assigned by global
    /// core index, using the configuration's core template.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateConfigError`] when the configuration is
    /// inconsistent.
    pub fn snitch(config: ClusterConfig) -> Result<Self, ValidateConfigError> {
        let template = config.core;
        Cluster::new(config, |loc| {
            mempool_snitch::SnitchCore::new(mempool_snitch::SnitchConfig {
                hartid: loc.core as u32,
                ..template
            })
        })
    }

    /// Sum of per-core statistics over all cores.
    pub fn core_stats_total(&self) -> mempool_snitch::CoreStats {
        let mut total = mempool_snitch::CoreStats::default();
        for core in &self.cores {
            let s = core.stats();
            total.instret += s.instret;
            total.cycles += s.cycles;
            total.loads += s.loads;
            total.stores += s.stores;
            total.amos += s.amos;
            total.muls += s.muls;
            total.divs += s.divs;
            total.taken_branches += s.taken_branches;
            total.stall_scoreboard += s.stall_scoreboard;
            total.stall_lsu_full += s.stall_lsu_full;
            total.stall_port += s.stall_port;
            total.stall_fetch += s.stall_fetch;
            total.stall_fence += s.stall_fence;
            total.stall_exec += s.stall_exec;
            total.halted_cycles += s.halted_cycles;
        }
        total
    }
}

walk_fields! {
    PendingRequest { addr, kind, issued_at, last_sent, retries }
    RefillPacket { tile, line }
}

/// Each stop's link slot, each stop's output queue, the requests L2 is
/// serving, then the injection and ejection counters.
impl Walk for RefillRing {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        let get = |ring: &Ring<RefillPacket>| {
            let slots = ring.slots().map(|s| s.map(|(dest, p)| (dest, *p)));
            let outputs = (0..ring.stops()).map(|stop| ring.output(stop).copied().collect());
            (slots.collect::<Vec<_>>(), outputs.collect::<Vec<Vec<_>>>())
        };
        let set = |ring: &mut Ring<RefillPacket>, (slots, outputs): (Vec<Option<(usize, _)>>, _)| {
            if slots.iter().flatten().any(|&(dest, _)| dest >= ring.stops()) {
                return Err(SnapshotError::Corrupt("ring destination"));
            }
            ring.load(slots, outputs);
            Ok(())
        };
        io.via(at!(this.ring), get, set, |io, mut v| {
            io.walk(at!(v.0[..]))?;
            io.walk(at!(v.1[..]))
        })?;
        io.walk(at!(this.serving))?;
        let set = |ring: &mut Ring<RefillPacket>, (injected, ejected)| {
            ring.set_counters(injected, ejected);
            Ok(())
        };
        io.via(at!(this.ring), |r| (r.injected(), r.ejected()), set, Walk::walk)
    }
}
