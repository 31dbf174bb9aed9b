//! Opt-in per-PC / per-region execution profile of one core.
//!
//! When enabled (see [`SnitchCore::enable_profile`]), every cycle the core
//! spends is attributed twice:
//!
//! * to the **program counter** it was fetching/retiring at (bounded table,
//!   spill into an overflow bucket), split into retired instructions and
//!   per-[`StallCause`] stall cycles;
//! * to the current **region** — a kernel phase ID the program writes into
//!   the custom `mregion` CSR (see `mempool_riscv::csr::MREGION`), so
//!   init/compute/barrier/writeback phases are first-class.
//!
//! The profile is plain integer state updated deterministically inside
//! [`SnitchCore::step`]; it is part of the core's dynamic state image and
//! therefore survives checkpoint/restore.
//!
//! [`SnitchCore::enable_profile`]: crate::SnitchCore::enable_profile
//! [`SnitchCore::step`]: crate::SnitchCore::step

use crate::StallCause;
use std::collections::BTreeMap;

/// Number of distinct region slots tracked; region IDs at or above
/// `REGION_SLOTS - 1` fold into the last ("other") slot.
pub const REGION_SLOTS: usize = 8;

/// Canonical region names, indexed by slot. Slots 0–3 are the kernel-phase
/// convention emitted by `mempool_kernels::emit_region`; the rest are free
/// for ad-hoc instrumentation.
pub const REGION_NAMES: [&str; REGION_SLOTS] = [
    "init",
    "compute",
    "barrier",
    "writeback",
    "region4",
    "region5",
    "region6",
    "other",
];

/// Region ID written by `emit_region` for the init phase.
pub const REGION_INIT: u32 = 0;
/// Region ID for the compute phase.
pub const REGION_COMPUTE: u32 = 1;
/// Region ID for barrier/synchronization code.
pub const REGION_BARRIER: u32 = 2;
/// Region ID for the writeback phase.
pub const REGION_WRITEBACK: u32 = 3;

/// Maps a raw `mregion` CSR value to its bounded slot index.
pub fn region_slot(region: u32) -> usize {
    (region as usize).min(REGION_SLOTS - 1)
}

/// Human-readable name for a raw `mregion` CSR value.
pub fn region_name(region: u32) -> &'static str {
    REGION_NAMES[region_slot(region)]
}

/// All stall causes in canonical (declaration) order — the index of a cause
/// in this array is its slot in [`PcCounters::stalls`] /
/// [`RegionCounters::stalls`].
pub const STALL_CAUSES: [StallCause; 6] = [
    StallCause::Scoreboard,
    StallCause::LsuFull,
    StallCause::PortBusy,
    StallCause::Fetch,
    StallCause::Fence,
    StallCause::ExecBusy,
];

/// Canonical index of a stall cause (see [`STALL_CAUSES`]).
pub fn stall_index(cause: StallCause) -> usize {
    match cause {
        StallCause::Scoreboard => 0,
        StallCause::LsuFull => 1,
        StallCause::PortBusy => 2,
        StallCause::Fetch => 3,
        StallCause::Fence => 4,
        StallCause::ExecBusy => 5,
    }
}

/// Short machine-friendly name of a stall cause (folded-stack frames,
/// metrics counter suffixes).
pub fn stall_name(cause: StallCause) -> &'static str {
    match cause {
        StallCause::Scoreboard => "scoreboard",
        StallCause::LsuFull => "lsu_full",
        StallCause::PortBusy => "port_busy",
        StallCause::Fetch => "fetch",
        StallCause::Fence => "fence",
        StallCause::ExecBusy => "exec_busy",
    }
}

/// Cycle attribution of one (region, PC) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcCounters {
    /// Instructions retired at this PC.
    pub retired: u64,
    /// Stall cycles charged to this PC, indexed by [`STALL_CAUSES`].
    pub stalls: [u64; STALL_CAUSES.len()],
}

impl PcCounters {
    /// Total stall cycles across all causes.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Total cycles attributed (one per retirement, one per stall).
    pub fn cycles(&self) -> u64 {
        self.retired + self.stall_cycles()
    }
}

/// Cycle attribution of one region slot, summed over all PCs (exact even
/// when the PC table overflows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCounters {
    /// Instructions retired while the region was current.
    pub retired: u64,
    /// Stall cycles while the region was current, indexed by
    /// [`STALL_CAUSES`].
    pub stalls: [u64; STALL_CAUSES.len()],
}

impl RegionCounters {
    /// Total stall cycles across all causes.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Total cycles attributed to the region.
    pub fn cycles(&self) -> u64 {
        self.retired + self.stall_cycles()
    }
}

fn key(region: u32, pc: u32) -> u64 {
    ((region_slot(region) as u64) << 32) | u64::from(pc)
}

/// One core's bounded per-PC / per-region profile (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreProfile {
    max_pcs: usize,
    pcs: BTreeMap<u64, PcCounters>,
    overflow: PcCounters,
    regions: [RegionCounters; REGION_SLOTS],
}

impl CoreProfile {
    /// Creates an empty profile tracking at most `max_pcs` distinct
    /// (region, PC) pairs; further pairs are folded into the overflow
    /// bucket (region attribution stays exact regardless).
    pub fn new(max_pcs: usize) -> Self {
        CoreProfile {
            max_pcs: max_pcs.max(1),
            pcs: BTreeMap::new(),
            overflow: PcCounters::default(),
            regions: [RegionCounters::default(); REGION_SLOTS],
        }
    }

    /// The configured (region, PC)-pair bound.
    pub fn max_pcs(&self) -> usize {
        self.max_pcs
    }

    fn entry(&mut self, region: u32, pc: u32) -> &mut PcCounters {
        let k = key(region, pc);
        if self.pcs.len() >= self.max_pcs && !self.pcs.contains_key(&k) {
            return &mut self.overflow;
        }
        self.pcs.entry(k).or_default()
    }

    /// Attributes one retired instruction to `(region, pc)`. Called by the
    /// core every retirement; public so aggregation code can be tested
    /// against hand-built profiles.
    pub fn record_retire(&mut self, region: u32, pc: u32) {
        self.entry(region, pc).retired += 1;
        self.regions[region_slot(region)].retired += 1;
    }

    /// Attributes one stall cycle to `(region, pc)`.
    pub fn record_stall(&mut self, region: u32, pc: u32, cause: StallCause) {
        let i = stall_index(cause);
        self.entry(region, pc).stalls[i] += 1;
        self.regions[region_slot(region)].stalls[i] += 1;
    }

    /// Iterates the tracked `(region_slot, pc, counters)` triples in
    /// canonical (region, PC) order.
    pub fn pcs(&self) -> impl Iterator<Item = (u32, u32, &PcCounters)> {
        self.pcs
            .iter()
            .map(|(&k, c)| ((k >> 32) as u32, k as u32, c))
    }

    /// Number of tracked (region, PC) pairs.
    pub fn tracked_pcs(&self) -> usize {
        self.pcs.len()
    }

    /// Attribution that spilled past the PC-table bound.
    pub fn overflow(&self) -> &PcCounters {
        &self.overflow
    }

    /// Per-region aggregation (always exact).
    pub fn regions(&self) -> &[RegionCounters; REGION_SLOTS] {
        &self.regions
    }

    /// Sum over all regions.
    pub fn total(&self) -> RegionCounters {
        let mut t = RegionCounters::default();
        for r in &self.regions {
            t.retired += r.retired;
            for (acc, &s) in t.stalls.iter_mut().zip(&r.stalls) {
                *acc += s;
            }
        }
        t
    }

    /// Rebuilds a profile from its serialized parts (checkpoint restore).
    /// `entries` are `(region_slot, pc, counters)` triples.
    pub fn from_parts(
        max_pcs: usize,
        entries: Vec<(u32, u32, PcCounters)>,
        overflow: PcCounters,
        regions: [RegionCounters; REGION_SLOTS],
    ) -> Self {
        CoreProfile {
            max_pcs: max_pcs.max(1),
            pcs: entries
                .into_iter()
                .map(|(region, pc, c)| (key(region, pc), c))
                .collect(),
            overflow,
            regions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_attribution_is_exact_past_the_pc_bound() {
        let mut p = CoreProfile::new(2);
        p.record_retire(1, 0x10);
        p.record_retire(1, 0x14);
        p.record_retire(1, 0x18); // spills
        p.record_stall(1, 0x1c, StallCause::Fetch); // spills
        assert_eq!(p.tracked_pcs(), 2);
        assert_eq!(p.overflow().retired, 1);
        assert_eq!(p.overflow().stalls[stall_index(StallCause::Fetch)], 1);
        assert_eq!(p.regions()[1].retired, 3);
        assert_eq!(p.regions()[1].stall_cycles(), 1);
        assert_eq!(p.total().cycles(), 4);
    }

    #[test]
    fn out_of_range_regions_fold_into_other() {
        let mut p = CoreProfile::new(16);
        p.record_retire(42, 0x10);
        assert_eq!(p.regions()[REGION_SLOTS - 1].retired, 1);
        assert_eq!(region_name(42), "other");
    }

    #[test]
    fn roundtrips_through_parts() {
        let mut p = CoreProfile::new(8);
        p.record_retire(0, 0x0);
        p.record_stall(1, 0x4, StallCause::Scoreboard);
        let entries: Vec<_> = p.pcs().map(|(r, pc, c)| (r, pc, *c)).collect();
        let q = CoreProfile::from_parts(p.max_pcs(), entries, *p.overflow(), *p.regions());
        assert_eq!(p, q);
    }
}
