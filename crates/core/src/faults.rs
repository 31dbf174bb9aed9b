//! Deterministic fault injection and the resilience error taxonomy.
//!
//! A [`FaultPlan`] turns a single `u64` seed plus a [`FaultSpec`] into a
//! *pure function* from (cycle, site) to fault decisions: every query is an
//! independent counter-mode draw through the splitmix64 finalizer, so the
//! plan is stateless, order-independent, and exactly replayable — the same
//! seed produces the same faults no matter how the simulator interleaves its
//! queries. This is what makes fault campaigns reproducible from a campaign
//! log line.
//!
//! The injectable faults mirror the failure modes a physical MemPool cluster
//! could exhibit:
//!
//! * **SPM bank faults** — transient single-cycle bank stalls, and permanent
//!   bank failures that trigger quarantine via
//!   [`QuarantineMap`](mempool_mem::QuarantineMap);
//! * **interconnect link faults** — per-cycle stalls, flit drops, and
//!   response-payload corruption at any elastic-buffer register stage;
//! * **refill-ring faults** — slot stalls and in-flight flit drops;
//! * **core faults** — temporary lockups (a core freezes for a bounded
//!   number of cycles) and spurious retires (an instruction is skipped).
//!
//! Errors surfaced by the resilient cluster are typed: [`SimError`] replaces
//! the bare timeout, and [`DeadlockDiagnostic`] carries a per-tile dump of
//! in-flight requests when the watchdog fires.

use std::fmt;

use mempool_rng::{splitmix64_mix, Rng, SeedableRng, StdRng};

use crate::cluster::RunTimeoutError;
use crate::snapshot::{at, variant, walk_fields, Place, SnapshotError, StateIo, Walk, Walked};

/// Fault probabilities and counts, parsed from a `key=value,...` spec string.
///
/// All probability fields are per-cycle, per-site rates in `[0, 1]`;
/// `bank_fail` is an absolute number of permanent bank failures injected in
/// the first cycles of the run.
///
/// # Examples
///
/// ```
/// use mempool::FaultSpec;
///
/// let spec: FaultSpec = "bank_fail=2,link_stall=0.01".parse().unwrap();
/// assert_eq!(spec.bank_fail, 2);
/// assert_eq!(spec.link_stall, 0.01);
/// // Display round-trips through parse.
/// assert_eq!(spec.to_string().parse::<FaultSpec>().unwrap(), spec);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Number of permanent SPM bank failures to inject (distinct banks).
    pub bank_fail: u32,
    /// Per-cycle probability that a given bank refuses requests this cycle.
    pub bank_stall: f64,
    /// Per-cycle probability that a given interconnect register stage
    /// stalls (valid/ready gated low, contents kept).
    pub link_stall: f64,
    /// Per-cycle probability that a given register stage silently drops its
    /// oldest flit.
    pub link_drop: f64,
    /// Per-cycle probability that a response register stage flips one data
    /// bit of its oldest flit (requests are never corrupted — routing fields
    /// are validated upstream).
    pub link_corrupt: f64,
    /// Per-cycle probability that a refill-ring link stalls.
    pub ring_stall: f64,
    /// Per-cycle probability that an in-flight refill-ring flit is lost.
    pub ring_drop: f64,
    /// Per-cycle probability that a core enters a bounded lockup.
    pub core_lockup: f64,
    /// Per-cycle probability that a core spuriously retires (skips) an
    /// instruction without executing it.
    pub spurious_retire: f64,
}

/// Error from parsing a [`FaultSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultSpecError {
    msg: String,
}

impl fmt::Display for ParseFaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.msg)
    }
}

impl std::error::Error for ParseFaultSpecError {}

fn spec_err(msg: impl Into<String>) -> ParseFaultSpecError {
    ParseFaultSpecError { msg: msg.into() }
}

impl FaultSpec {
    /// Whether every field is zero (no faults would ever fire).
    pub fn is_empty(&self) -> bool {
        *self == FaultSpec::default()
    }

    /// Whether any interconnect-link fault has a nonzero rate.
    pub fn has_link_faults(&self) -> bool {
        self.link_stall > 0.0 || self.link_drop > 0.0 || self.link_corrupt > 0.0
    }

    /// Whether any refill-ring fault has a nonzero rate.
    pub fn has_ring_faults(&self) -> bool {
        self.ring_stall > 0.0 || self.ring_drop > 0.0
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = ParseFaultSpecError;

    /// Parses `key=value` pairs separated by commas; `none` or the empty
    /// string yields the all-zero spec.
    fn from_str(s: &str) -> Result<FaultSpec, ParseFaultSpecError> {
        let mut spec = FaultSpec::default();
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(spec);
        }
        for pair in s.split(',') {
            let pair = pair.trim();
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| spec_err(format!("`{pair}` is not a key=value pair")))?;
            let prob = |field: &mut f64| -> Result<(), ParseFaultSpecError> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| spec_err(format!("`{value}` is not a number")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(spec_err(format!("`{key}` must be in [0, 1], got {value}")));
                }
                *field = p;
                Ok(())
            };
            match key.trim() {
                "bank_fail" => {
                    spec.bank_fail = value
                        .parse()
                        .map_err(|_| spec_err(format!("`{value}` is not a count")))?;
                }
                "bank_stall" => prob(&mut spec.bank_stall)?,
                "link_stall" => prob(&mut spec.link_stall)?,
                "link_drop" => prob(&mut spec.link_drop)?,
                "link_corrupt" => prob(&mut spec.link_corrupt)?,
                "ring_stall" => prob(&mut spec.ring_stall)?,
                "ring_drop" => prob(&mut spec.ring_drop)?,
                "core_lockup" => prob(&mut spec.core_lockup)?,
                "spurious_retire" => prob(&mut spec.spurious_retire)?,
                other => return Err(spec_err(format!("unknown fault kind `{other}`"))),
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.bank_fail > 0 {
            parts.push(format!("bank_fail={}", self.bank_fail));
        }
        for (key, p) in [
            ("bank_stall", self.bank_stall),
            ("link_stall", self.link_stall),
            ("link_drop", self.link_drop),
            ("link_corrupt", self.link_corrupt),
            ("ring_stall", self.ring_stall),
            ("ring_drop", self.ring_drop),
            ("core_lockup", self.core_lockup),
            ("spurious_retire", self.spurious_retire),
        ] {
            if p > 0.0 {
                parts.push(format!("{key}={p}"));
            }
        }
        if parts.is_empty() {
            f.write_str("none")
        } else {
            f.write_str(&parts.join(","))
        }
    }
}

/// A permanent bank failure scheduled by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankFailure {
    /// Cycle at which the bank dies.
    pub cycle: u64,
    /// Tile of the failing bank.
    pub tile: u32,
    /// Bank index within the tile.
    pub bank: u32,
}

/// The kind of fault a link register stage suffers this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// Valid/ready gated low for the cycle; contents preserved.
    Stall,
    /// The oldest stored flit is silently discarded.
    Drop,
    /// One data bit of the oldest stored response flit is flipped.
    Corrupt,
}

// Domain-separation salts: one per fault family, so queries never alias.
const SALT_BANK_FAIL: u64 = 0xfa17_0001_9e37_79b9;
const SALT_BANK_STALL: u64 = 0xfa17_0002_9e37_79b9;
const SALT_LINK: u64 = 0xfa17_0003_9e37_79b9;
const SALT_RING_STALL: u64 = 0xfa17_0004_9e37_79b9;
const SALT_RING_DROP: u64 = 0xfa17_0005_9e37_79b9;
const SALT_CORE_LOCKUP: u64 = 0xfa17_0006_9e37_79b9;
const SALT_LOCKUP_LEN: u64 = 0xfa17_0007_9e37_79b9;
const SALT_SPURIOUS: u64 = 0xfa17_0008_9e37_79b9;
const SALT_CORRUPT_BIT: u64 = 0xfa17_0009_9e37_79b9;

/// Earliest cycles of the run in which scheduled bank failures land: early
/// enough that even short kernels exercise quarantine and recovery.
const BANK_FAIL_WINDOW: u64 = 64;

/// Longest core lockup, in cycles. Kept well below any sane request timeout
/// so a locked core looks like a stalled pipeline, not a dead cluster.
const MAX_LOCKUP_CYCLES: u64 = 64;

/// A seeded, replayable fault schedule.
///
/// Every decision is a pure function of `(seed, fault kind, cycle, site)`
/// computed with counter-mode splitmix64 — no internal state, no dependence
/// on query order. Two plans with the same seed and spec answer every query
/// identically, which the determinism tests in
/// `crates/core/tests/fault_resilience.rs` pin down.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// Creates a plan for `spec` driven by `seed`.
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan { seed, spec }
    }

    /// The driving seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault specification.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// One counter-mode draw: an avalanched 64-bit word unique to
    /// `(seed, salt, cycle, site)`.
    fn roll(&self, salt: u64, cycle: u64, site: u64) -> u64 {
        splitmix64_mix(splitmix64_mix(splitmix64_mix(self.seed ^ salt) ^ cycle) ^ site)
    }

    /// Maps a raw roll to a uniform draw in `[0, 1)` (53-bit precision).
    fn unit(roll: u64) -> f64 {
        (roll >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn hit(&self, p: f64, salt: u64, cycle: u64, site: u64) -> bool {
        p > 0.0 && Self::unit(self.roll(salt, cycle, site)) < p
    }

    /// The permanent bank failures this plan schedules for a cluster of
    /// `num_tiles × banks_per_tile` banks: `spec.bank_fail` distinct banks,
    /// each dying at a cycle in `1..=64`, sorted by (cycle, tile, bank).
    pub fn bank_failures(&self, num_tiles: u32, banks_per_tile: u32) -> Vec<BankFailure> {
        let total = u64::from(num_tiles) * u64::from(banks_per_tile);
        let want = u64::from(self.spec.bank_fail).min(total) as usize;
        if want == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ SALT_BANK_FAIL);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < want {
            let tile = rng.gen_range(0u32..num_tiles);
            let bank = rng.gen_range(0u32..banks_per_tile);
            chosen.insert((tile, bank));
        }
        let mut failures: Vec<BankFailure> = chosen
            .into_iter()
            .map(|(tile, bank)| BankFailure {
                cycle: rng.gen_range(1u64..BANK_FAIL_WINDOW + 1),
                tile,
                bank,
            })
            .collect();
        failures.sort_by_key(|f| (f.cycle, f.tile, f.bank));
        failures
    }

    /// Whether bank `bank` of tile `tile` transiently stalls this cycle.
    pub fn bank_stalled(&self, cycle: u64, tile: u32, bank: u32) -> bool {
        self.hit(
            self.spec.bank_stall,
            SALT_BANK_STALL,
            cycle,
            (u64::from(tile) << 32) | u64::from(bank),
        )
    }

    /// The fault (if any) suffered by interconnect register stage `link`
    /// this cycle. The three link-fault rates partition one uniform draw,
    /// so at most one fault fires per link per cycle.
    pub fn link_fault(&self, cycle: u64, link: u64) -> Option<LinkFaultKind> {
        let s = &self.spec;
        if !s.has_link_faults() {
            return None;
        }
        let u = Self::unit(self.roll(SALT_LINK, cycle, link));
        if u < s.link_stall {
            Some(LinkFaultKind::Stall)
        } else if u < s.link_stall + s.link_drop {
            Some(LinkFaultKind::Drop)
        } else if u < s.link_stall + s.link_drop + s.link_corrupt {
            Some(LinkFaultKind::Corrupt)
        } else {
            None
        }
    }

    /// Which data bit (0–31) a corruption fault on `link` flips this cycle.
    pub fn corrupt_bit(&self, cycle: u64, link: u64) -> u32 {
        (self.roll(SALT_CORRUPT_BIT, cycle, link) % 32) as u32
    }

    /// Whether refill-ring slot `slot` stalls this cycle.
    pub fn ring_stalled(&self, cycle: u64, slot: u64) -> bool {
        self.hit(self.spec.ring_stall, SALT_RING_STALL, cycle, slot)
    }

    /// Whether the flit in refill-ring slot `slot` is lost this cycle.
    pub fn ring_dropped(&self, cycle: u64, slot: u64) -> bool {
        self.hit(self.spec.ring_drop, SALT_RING_DROP, cycle, slot)
    }

    /// If core `core` locks up this cycle, the lockup duration in cycles
    /// (`1..=64`).
    pub fn core_lockup(&self, cycle: u64, core: u32) -> Option<u64> {
        if !self.hit(self.spec.core_lockup, SALT_CORE_LOCKUP, cycle, u64::from(core)) {
            return None;
        }
        Some(1 + self.roll(SALT_LOCKUP_LEN, cycle, u64::from(core)) % MAX_LOCKUP_CYCLES)
    }

    /// Whether core `core` spuriously retires (skips) an instruction this
    /// cycle.
    pub fn spurious_retire(&self, cycle: u64, core: u32) -> bool {
        self.hit(self.spec.spurious_retire, SALT_SPURIOUS, cycle, u64::from(core))
    }
}

/// A notable fault event, recorded in the [`FaultLog`].
///
/// Only *rare* events are logged (permanent failures, abandoned requests,
/// lockups) — per-cycle stall/drop noise is counted in
/// [`FaultStats`](crate::FaultStats) instead, so the log stays readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A bank died and its traffic was quarantined onto `substitute`
    /// (`None`: the failure was refused because it was the tile's last
    /// live bank).
    BankFailed {
        /// Cycle of the failure.
        cycle: u64,
        /// Tile of the failed bank.
        tile: u32,
        /// Bank index within the tile.
        bank: u32,
        /// The live bank now serving the dead bank's rows.
        substitute: Option<u32>,
    },
    /// A request exhausted its retry budget and was abandoned.
    RequestAbandoned {
        /// Cycle of abandonment.
        cycle: u64,
        /// Issuing core (cluster-wide index).
        core: u32,
        /// Physical address of the request.
        addr: u32,
        /// Retries attempted before giving up.
        retries: u32,
    },
    /// A core entered a bounded lockup.
    CoreLocked {
        /// Cycle the lockup began.
        cycle: u64,
        /// The locked core (cluster-wide index).
        core: u32,
        /// First cycle at which the core runs again.
        until: u64,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::BankFailed {
                cycle,
                tile,
                bank,
                substitute,
            } => match substitute {
                Some(s) => write!(
                    f,
                    "[{cycle}] bank {bank} of tile {tile} failed; quarantined onto bank {s}"
                ),
                None => write!(
                    f,
                    "[{cycle}] bank {bank} of tile {tile} failed; last live bank, failure refused"
                ),
            },
            FaultEvent::RequestAbandoned {
                cycle,
                core,
                addr,
                retries,
            } => write!(
                f,
                "[{cycle}] core {core} abandoned request to {addr:#010x} after {retries} retries"
            ),
            FaultEvent::CoreLocked { cycle, core, until } => {
                write!(f, "[{cycle}] core {core} locked up until cycle {until}")
            }
        }
    }
}

/// Default capacity of a [`FaultLog`].
const FAULT_LOG_CAPACITY: usize = 4096;

/// A bounded, in-order record of notable fault events.
///
/// The log never grows past its capacity; overflow is counted in
/// [`dropped`](FaultLog::dropped) so campaigns can tell the record is
/// truncated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for FaultLog {
    fn default() -> Self {
        FaultLog::new(FAULT_LOG_CAPACITY)
    }
}

impl FaultLog {
    /// Creates a log retaining at most `capacity` events.
    pub fn new(capacity: usize) -> FaultLog {
        FaultLog {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, counting it as dropped when the log is full.
    pub fn record(&mut self, event: FaultEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events discarded after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Empties the log.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

/// One in-flight request in a [`DeadlockDiagnostic`] dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDump {
    /// Issuing core (cluster-wide index).
    pub core: u32,
    /// LSU tag of the request.
    pub tag: u8,
    /// Physical address.
    pub addr: u32,
    /// Cycle the request was (last) issued.
    pub issued_at: u64,
    /// Retries already attempted.
    pub retries: u32,
}

/// The in-flight requests targeting one tile when the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileDiagnostic {
    /// The destination tile.
    pub tile: u32,
    /// Total in-flight requests targeting this tile.
    pub total: usize,
    /// The oldest such requests (capped per tile to keep the dump short).
    pub requests: Vec<PendingDump>,
}

/// Watchdog report: the cluster stopped making progress.
///
/// Produced when, for a configured number of consecutive cycles, no
/// response was delivered, no bank was accessed, no request was issued,
/// and no refill completed while work was still outstanding — a deadlock
/// or livelock in the memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockDiagnostic {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Consecutive cycles without progress.
    pub idle_cycles: u64,
    /// Data requests in flight, cluster-wide.
    pub in_flight: usize,
    /// Instruction refills outstanding, cluster-wide.
    pub pending_refills: usize,
    /// Per-tile dump of tracked in-flight requests, sorted by tile.
    pub tiles: Vec<TileDiagnostic>,
}

impl fmt::Display for DeadlockDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster deadlock at cycle {}: no progress for {} cycles \
             ({} data requests in flight, {} refills pending)",
            self.cycle, self.idle_cycles, self.in_flight, self.pending_refills
        )?;
        for tile in &self.tiles {
            writeln!(f, "  tile {}: {} in-flight request(s)", tile.tile, tile.total)?;
            for r in &tile.requests {
                writeln!(
                    f,
                    "    core {} tag {} addr {:#010x} issued at cycle {} ({} retries)",
                    r.core, r.tag, r.addr, r.issued_at, r.retries
                )?;
            }
            if tile.total > tile.requests.len() {
                writeln!(f, "    ... and {} more", tile.total - tile.requests.len())?;
            }
        }
        Ok(())
    }
}

/// Typed top-level simulation failure returned by
/// [`Cluster::run`](crate::Cluster::run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget ran out while the cluster was still making
    /// progress.
    Timeout(RunTimeoutError),
    /// The watchdog detected a deadlock or livelock in the memory system.
    Deadlock(Box<DeadlockDiagnostic>),
    /// An installed [`CancelToken`](crate::CancelToken) tripped: explicit
    /// request, wall-clock deadline, or sim-cycle budget.
    Cancelled(crate::CancelledError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout(e) => e.fmt(f),
            SimError::Deadlock(d) => d.fmt(f),
            SimError::Cancelled(c) => c.fmt(f),
        }
    }
}

impl std::error::Error for SimError {}

impl From<RunTimeoutError> for SimError {
    fn from(e: RunTimeoutError) -> SimError {
        SimError::Timeout(e)
    }
}

/// A host-side access fell outside the L1 address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusError {
    /// The offending byte address.
    pub addr: u32,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bus error: address {:#010x} is outside L1", self.addr)
    }
}

impl std::error::Error for BusError {}

/// The tag, the cycle, then the variant's fields.
impl Walk for FaultEvent {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        use FaultEvent::*;
        let blanks = [
            BankFailed { cycle: 0, tile: 0, bank: 0, substitute: None },
            RequestAbandoned { cycle: 0, core: 0, addr: 0, retries: 0 },
            CoreLocked { cycle: 0, core: 0, until: 0 },
        ];
        variant(io, &mut this, &blanks, "fault event kind")?;
        let cycle = at!(this, BankFailed { cycle, .. }
            | RequestAbandoned { cycle, .. }
            | CoreLocked { cycle, .. } => cycle);
        io.maybe(cycle)?;
        let site = at!(this, BankFailed { tile: n, .. }
            | RequestAbandoned { core: n, .. }
            | CoreLocked { core: n, .. } => n);
        io.maybe(site)?;
        io.maybe(at!(this, BankFailed { bank, .. } => bank))?;
        io.maybe(at!(this, BankFailed { substitute, .. } => substitute))?;
        io.maybe(at!(this, RequestAbandoned { addr, .. } => addr))?;
        io.maybe(at!(this, RequestAbandoned { retries, .. } => retries))?;
        io.maybe(at!(this, CoreLocked { until, .. } => until))
    }
}

/// Capacity, dropped count, then the events (never more than the capacity).
impl Walk for FaultLog {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.walk(at!(this.capacity))?;
        io.walk(at!(this.dropped))?;
        let blank = || FaultEvent::CoreLocked { cycle: 0, core: 0, until: 0 };
        io.seq(at!(this.events), blank, Walk::walk)?;
        match this.loading() {
            Some(log) if log.events.len() > log.capacity => {
                Err(SnapshotError::Corrupt("fault log length"))
            }
            _ => Ok(()),
        }
    }
}

walk_fields! {
    BankFailure { cycle, tile, bank }
    FaultSpec {
        bank_fail, bank_stall, link_stall, link_drop, link_corrupt, ring_stall, ring_drop,
        core_lockup, spurious_retire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_and_display_round_trip() {
        let spec: FaultSpec = "bank_fail=2, link_stall=0.01,core_lockup=0.5"
            .parse()
            .unwrap();
        assert_eq!(spec.bank_fail, 2);
        assert_eq!(spec.link_stall, 0.01);
        assert_eq!(spec.core_lockup, 0.5);
        let back: FaultSpec = spec.to_string().parse().unwrap();
        assert_eq!(back, spec);
        assert_eq!("none".parse::<FaultSpec>().unwrap(), FaultSpec::default());
        assert_eq!("".parse::<FaultSpec>().unwrap(), FaultSpec::default());
        assert_eq!(FaultSpec::default().to_string(), "none");
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!("flux_capacitor=1".parse::<FaultSpec>().is_err());
        assert!("link_stall".parse::<FaultSpec>().is_err());
        assert!("link_stall=two".parse::<FaultSpec>().is_err());
        assert!("link_stall=1.5".parse::<FaultSpec>().is_err());
        assert!("bank_fail=-1".parse::<FaultSpec>().is_err());
    }

    #[test]
    fn plan_is_deterministic_and_order_independent() {
        let spec: FaultSpec = "link_stall=0.3,link_drop=0.1,core_lockup=0.05"
            .parse()
            .unwrap();
        let a = FaultPlan::new(42, spec);
        let b = FaultPlan::new(42, spec);
        // Query b in reverse order: answers must still match a's.
        let forward: Vec<_> = (0..512u64)
            .map(|c| (a.link_fault(c, 7), a.core_lockup(c, 3)))
            .collect();
        let backward: Vec<_> = (0..512u64)
            .rev()
            .map(|c| (b.link_fault(c, 7), b.core_lockup(c, 3)))
            .collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn different_seeds_differ() {
        let spec: FaultSpec = "link_stall=0.5".parse().unwrap();
        let a = FaultPlan::new(1, spec);
        let b = FaultPlan::new(2, spec);
        let differs = (0..256u64).any(|c| a.link_fault(c, 0) != b.link_fault(c, 0));
        assert!(differs);
    }

    #[test]
    fn bank_failures_are_distinct_sorted_and_capped() {
        let spec: FaultSpec = "bank_fail=10".parse().unwrap();
        let plan = FaultPlan::new(7, spec);
        let failures = plan.bank_failures(4, 4);
        assert_eq!(failures.len(), 10);
        let mut pairs: Vec<_> = failures.iter().map(|f| (f.tile, f.bank)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 10, "banks must be distinct");
        assert!(failures.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(failures
            .iter()
            .all(|f| (1..=BANK_FAIL_WINDOW).contains(&f.cycle)));
        // Requesting more failures than banks exist saturates.
        let all: FaultSpec = "bank_fail=99".parse().unwrap();
        assert_eq!(FaultPlan::new(7, all).bank_failures(2, 2).len(), 4);
        // Same seed, same schedule.
        assert_eq!(failures, FaultPlan::new(7, spec).bank_failures(4, 4));
    }

    #[test]
    fn link_fault_partitions_probability() {
        // With rates summing to 1 every cycle faults, and the observed mix
        // roughly follows the requested split.
        let spec: FaultSpec = "link_stall=0.5,link_drop=0.3,link_corrupt=0.2"
            .parse()
            .unwrap();
        let plan = FaultPlan::new(99, spec);
        let mut counts = [0u32; 3];
        for c in 0..10_000u64 {
            match plan.link_fault(c, 0).expect("rates sum to 1") {
                LinkFaultKind::Stall => counts[0] += 1,
                LinkFaultKind::Drop => counts[1] += 1,
                LinkFaultKind::Corrupt => counts[2] += 1,
            }
        }
        assert!((4500..5500).contains(&counts[0]), "{counts:?}");
        assert!((2500..3500).contains(&counts[1]), "{counts:?}");
        assert!((1500..2500).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn lockup_durations_bounded() {
        let spec: FaultSpec = "core_lockup=1".parse().unwrap();
        let plan = FaultPlan::new(3, spec);
        for c in 0..1000u64 {
            let len = plan.core_lockup(c, 0).expect("p = 1 always locks");
            assert!((1..=MAX_LOCKUP_CYCLES).contains(&len));
        }
    }

    #[test]
    fn empty_spec_never_fires() {
        let plan = FaultPlan::new(123, FaultSpec::default());
        for c in 0..256u64 {
            assert!(plan.link_fault(c, 0).is_none());
            assert!(!plan.bank_stalled(c, 0, 0));
            assert!(!plan.ring_stalled(c, 0));
            assert!(!plan.ring_dropped(c, 0));
            assert!(plan.core_lockup(c, 0).is_none());
            assert!(!plan.spurious_retire(c, 0));
        }
        assert!(plan.bank_failures(4, 4).is_empty());
    }

    #[test]
    fn fault_log_caps_and_counts_drops() {
        let mut log = FaultLog::new(2);
        for i in 0..5u64 {
            log.record(FaultEvent::CoreLocked {
                cycle: i,
                core: 0,
                until: i + 1,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        log.clear();
        assert!(log.is_empty());
    }
}
