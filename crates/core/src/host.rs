//! The host phase timer: where a simulated cycle's *wall-clock* time goes.
//!
//! [`Cluster::enable_host_profile`](crate::Cluster::enable_host_profile)
//! (or [`SimSessionBuilder::host_profile`](crate::SimSessionBuilder::host_profile))
//! attaches it. While it is attached, [`Cluster::cycle`](crate::Cluster::cycle)
//! reads the monotonic clock at each boundary between the eleven
//! [`HostRow`]s and adds the elapsed time to the row just finished. The
//! rows are those of DESIGN §10's host cost model, in the order the cycle
//! runs them.
//!
//! The timer observes the host, not the simulation. It is never
//! snapshotted and never digested, and it allocates nothing per cycle.
//! While it is absent, each row boundary costs one predictable branch.

use std::time::{Duration, Instant};

/// One phase of [`Cluster::cycle`](crate::Cluster::cycle), in execution
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostRow {
    /// Fault application and the I-cache refill transport.
    FaultsRefill,
    /// The master response registers deliver to their cores.
    MasterResponses,
    /// The tile response crossbars route bank responses.
    TileResponses,
    /// The long-haul response networks advance.
    LongHaulResponses,
    /// The delivery drain, then the retry layer's overdue scan.
    DeliveryDrain,
    /// Every core steps and its request takes the issue path.
    CorePhase,
    /// The long-haul request networks advance.
    LongHaulRequests,
    /// The tile request crossbars and the bank accesses.
    TileRequests,
    /// Core output latches move into the master port registers.
    PortRequests,
    /// End-of-cycle commit of the tiles' registers.
    TileCommit,
    /// `finish_cycle`: statistics, sanitizer, observers, watchdog.
    FinishCycle,
}

impl HostRow {
    /// Every row, in the order the cycle runs them.
    pub const ALL: [HostRow; 11] = [
        HostRow::FaultsRefill,
        HostRow::MasterResponses,
        HostRow::TileResponses,
        HostRow::LongHaulResponses,
        HostRow::DeliveryDrain,
        HostRow::CorePhase,
        HostRow::LongHaulRequests,
        HostRow::TileRequests,
        HostRow::PortRequests,
        HostRow::TileCommit,
        HostRow::FinishCycle,
    ];

    /// The row's name in DESIGN §10's tables and `mempool-run profile --host`.
    pub fn label(self) -> &'static str {
        match self {
            HostRow::FaultsRefill => "fault application + refill ports",
            HostRow::MasterResponses => "master-response delivery",
            HostRow::TileResponses => "tile response crossbars",
            HostRow::LongHaulResponses => "long-haul response networks",
            HostRow::DeliveryDrain => "delivery drain",
            HostRow::CorePhase => "core phase",
            HostRow::LongHaulRequests => "long-haul request networks",
            HostRow::TileRequests => "tile request crossbars + banks",
            HostRow::PortRequests => "core latches -> master ports",
            HostRow::TileCommit => "tile commit",
            HostRow::FinishCycle => "finish_cycle",
        }
    }

    /// The row's counter in the metrics document's `host` scope
    /// (nanoseconds summed over the timed cycles).
    pub fn counter(self) -> &'static str {
        match self {
            HostRow::FaultsRefill => "faults_refill_ns",
            HostRow::MasterResponses => "master_responses_ns",
            HostRow::TileResponses => "tile_responses_ns",
            HostRow::LongHaulResponses => "longhaul_responses_ns",
            HostRow::DeliveryDrain => "delivery_drain_ns",
            HostRow::CorePhase => "core_phase_ns",
            HostRow::LongHaulRequests => "longhaul_requests_ns",
            HostRow::TileRequests => "tile_requests_ns",
            HostRow::PortRequests => "port_requests_ns",
            HostRow::TileCommit => "tile_commit_ns",
            HostRow::FinishCycle => "finish_cycle_ns",
        }
    }
}

/// Host time accumulated per [`HostRow`] over the cycles timed so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfile {
    row_ns: [u64; HostRow::ALL.len()],
    cycles: u64,
}

impl HostProfile {
    /// Simulated cycles timed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Host time spent in `row`, summed over the timed cycles.
    pub fn row(&self, row: HostRow) -> Duration {
        Duration::from_nanos(self.row_ns[row as usize])
    }

    /// Host time of all rows together.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.row_ns.iter().sum())
    }

    /// Host microseconds per simulated cycle spent in `row` (0 before the
    /// first timed cycle).
    pub fn us_per_cycle(&self, row: HostRow) -> f64 {
        self.row_ns[row as usize] as f64 / 1e3 / self.cycles.max(1) as f64
    }
}

/// The running timer: the profile plus the instant of the last row
/// boundary.
#[derive(Debug)]
pub(crate) struct HostTimer {
    pub(crate) profile: HostProfile,
    mark: Instant,
}

impl HostTimer {
    pub(crate) fn new() -> Self {
        HostTimer {
            profile: HostProfile::default(),
            mark: Instant::now(),
        }
    }

    /// Opens a cycle: the first row starts now.
    #[inline]
    pub(crate) fn start(&mut self) {
        self.mark = Instant::now();
    }

    /// Closes `row`: the time since the last boundary is its.
    #[inline]
    pub(crate) fn lap(&mut self, row: HostRow) {
        let now = Instant::now();
        self.profile.row_ns[row as usize] += (now - self.mark).as_nanos() as u64;
        self.mark = now;
        if row == HostRow::FinishCycle {
            self.profile.cycles += 1;
        }
    }
}

/// Opens a cycle on `timer`, when one is attached.
#[inline(always)]
pub(crate) fn start(timer: &mut Option<Box<HostTimer>>) {
    if let Some(timer) = timer {
        timer.start();
    }
}

/// Closes `row` on `timer`, when one is attached: while it is not, one
/// predictable branch. A free function over the cluster's field, so the
/// cycle can call it while other fields are borrowed.
#[inline(always)]
pub(crate) fn lap(timer: &mut Option<Box<HostTimer>>, row: HostRow) {
    if let Some(timer) = timer {
        timer.lap(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_declared_in_execution_order() {
        for (i, row) in HostRow::ALL.iter().enumerate() {
            assert_eq!(*row as usize, i);
        }
        let mut keys: Vec<_> = HostRow::ALL.iter().map(|r| r.counter()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), HostRow::ALL.len());
    }

    #[test]
    fn laps_add_up_and_the_last_row_counts_the_cycle() {
        let mut timer = HostTimer::new();
        for _ in 0..3 {
            timer.start();
            for row in HostRow::ALL {
                timer.lap(row);
            }
        }
        let p = &timer.profile;
        assert_eq!(p.cycles(), 3);
        let sum: Duration = HostRow::ALL.iter().map(|&r| p.row(r)).sum();
        assert_eq!(sum, p.total());
    }
}
