//! Cluster-level statistics: latency distributions, throughput, locality.

use crate::snapshot::{at, walk_fields, Place, StateIo, Walk, Walked};
use std::fmt;

/// An online latency distribution (count, sum, min, max, and a coarse
/// power-of-two histogram for percentiles).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// `buckets[i]` counts samples with `latency == i` for i < 64; the tail
    /// bucket counts everything larger.
    buckets: Vec<u64>,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats::new()
    }
}

const EXACT_BUCKETS: usize = 64;

impl LatencyStats {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        LatencyStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; EXACT_BUCKETS + 1],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        let idx = (latency as usize).min(EXACT_BUCKETS);
        self.buckets[idx] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (for exact mean reconstruction in exports).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw histogram: `bucket_counts()[i]` counts samples with
    /// `latency == i` for `i < 64`; the last bucket is the `>= 64` tail.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`None` with no samples).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` with no samples).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (0.0–1.0) from the histogram; exact below 64 cycles,
    /// saturating to "≥64" above.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Some(if i == EXACT_BUCKETS { self.max } else { i as u64 });
            }
        }
        Some(self.max)
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; EXACT_BUCKETS + 1];
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// Count, sum, min, max, then the bucket count and every bucket.
impl Walk for LatencyStats {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.walk(at!(this.count))?;
        io.walk(at!(this.sum))?;
        io.walk(at!(this.min))?;
        io.walk(at!(this.max))?;
        io.count(this.buckets.len(), "latency histogram bucket count")?;
        io.walk(at!(this.buckets[..]))
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "no samples");
        }
        write!(
            f,
            "n={} mean={:.2} min={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.min,
            self.quantile(0.5).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
            self.max
        )
    }
}

/// Counters of injected faults and the resilience machinery's reactions.
///
/// Split from the performance counters so fault campaigns can report the
/// two separately: everything here is zero in a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Cycles in which a bank refused requests due to an injected stall.
    pub bank_stalls: u64,
    /// Permanent bank failures activated.
    pub banks_failed: u64,
    /// Banks successfully quarantined (traffic redirected).
    pub banks_quarantined: u64,
    /// Requests whose target bank was substituted by the quarantine map.
    pub quarantine_remaps: u64,
    /// In-flight requests discarded because their target bank was dead.
    pub requests_dropped: u64,
    /// Link-cycles an interconnect register stage spent stall-gated.
    pub link_stalls: u64,
    /// Flits silently dropped from interconnect register stages.
    pub link_drops: u64,
    /// Response payloads corrupted in interconnect register stages.
    pub link_corruptions: u64,
    /// Slot-cycles the refill ring spent stall-gated.
    pub ring_stalls: u64,
    /// Refill-ring flits lost in flight.
    pub ring_drops: u64,
    /// Core lockups injected.
    pub core_lockups: u64,
    /// Instructions spuriously retired (skipped) by injected faults.
    pub spurious_retires: u64,
    /// Requests that exceeded the per-request timeout.
    pub request_timeouts: u64,
    /// Requests re-issued by the retry layer.
    pub request_retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub requests_abandoned: u64,
    /// Responses discarded as stale (a retry's original answer arrived
    /// after the request had already been re-issued or abandoned).
    pub stale_responses: u64,
}

impl FaultStats {
    /// Total fault injections (not counting the resilience layer's own
    /// reactions like retries and remaps).
    pub fn total_injected(&self) -> u64 {
        self.bank_stalls
            + self.banks_failed
            + self.link_stalls
            + self.link_drops
            + self.link_corruptions
            + self.ring_stalls
            + self.ring_drops
            + self.core_lockups
            + self.spurious_retires
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Accumulates `other` into `self` (for campaign-level aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        self.bank_stalls += other.bank_stalls;
        self.banks_failed += other.banks_failed;
        self.banks_quarantined += other.banks_quarantined;
        self.quarantine_remaps += other.quarantine_remaps;
        self.requests_dropped += other.requests_dropped;
        self.link_stalls += other.link_stalls;
        self.link_drops += other.link_drops;
        self.link_corruptions += other.link_corruptions;
        self.ring_stalls += other.ring_stalls;
        self.ring_drops += other.ring_drops;
        self.core_lockups += other.core_lockups;
        self.spurious_retires += other.spurious_retires;
        self.request_timeouts += other.request_timeouts;
        self.request_retries += other.request_retries;
        self.requests_abandoned += other.requests_abandoned;
        self.stale_responses += other.stale_responses;
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bank_stalls={} banks_failed={} banks_quarantined={} quarantine_remaps={} \
             requests_dropped={} link_stalls={} link_drops={} link_corruptions={} \
             ring_stalls={} ring_drops={} core_lockups={} spurious_retires={} \
             request_timeouts={} request_retries={} requests_abandoned={} stale_responses={}",
            self.bank_stalls,
            self.banks_failed,
            self.banks_quarantined,
            self.quarantine_remaps,
            self.requests_dropped,
            self.link_stalls,
            self.link_drops,
            self.link_corruptions,
            self.ring_stalls,
            self.ring_drops,
            self.core_lockups,
            self.spurious_retires,
            self.request_timeouts,
            self.request_retries,
            self.requests_abandoned,
            self.stale_responses,
        )
    }
}

/// Aggregate counters of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Requests that left a core.
    pub requests_issued: u64,
    /// Requests served by a bank.
    pub bank_accesses: u64,
    /// Responses delivered back to cores.
    pub responses_delivered: u64,
    /// Requests whose target bank was in the issuing core's own tile.
    pub local_requests: u64,
    /// Requests that crossed to a remote tile.
    pub remote_requests: u64,
    /// Remote requests that stayed within the local group (TopH only).
    pub group_local_requests: u64,
    /// Remote requests per inter-group direction `[N, NE, E]` (TopH only).
    pub direction_requests: [u64; 3],
    /// Round-trip latency distribution (issue → response delivery).
    pub latency: LatencyStats,
    /// I-cache refills performed (all tiles).
    pub icache_refills: u64,
    /// Requests dropped because their address fell outside L1 (the issuing
    /// core is halted with a fault).
    pub memory_faults: u64,
    /// Sum over cycles of occupied global-interconnect register slots
    /// (divide by `cycles` for the mean occupancy).
    pub net_occupancy_sum: u64,
    /// Total global-interconnect register slots (constant per topology).
    pub net_register_slots: u64,
    /// Bank accesses served per tile (activity heat map).
    pub tile_accesses: Vec<u64>,
    /// Injected-fault and resilience counters (all zero without a fault
    /// plan).
    pub faults: FaultStats,
}

impl ClusterStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        ClusterStats {
            latency: LatencyStats::new(),
            ..ClusterStats::default()
        }
    }

    /// Creates zeroed statistics with a per-tile access counter per tile.
    pub fn with_tiles(num_tiles: usize) -> Self {
        ClusterStats {
            tile_accesses: vec![0; num_tiles],
            ..ClusterStats::new()
        }
    }

    /// Delivered requests per core per cycle.
    pub fn throughput(&self, num_cores: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.responses_delivered as f64 / (self.cycles as f64 * num_cores as f64)
        }
    }

    /// The hottest tile and its share of all bank accesses (`None` with no
    /// accesses).
    pub fn hottest_tile(&self) -> Option<(usize, f64)> {
        let total: u64 = self.tile_accesses.iter().sum();
        if total == 0 {
            return None;
        }
        let (tile, &max) = self
            .tile_accesses
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)?;
        Some((tile, max as f64 / total as f64))
    }

    /// Mean fraction of occupied global-interconnect registers per cycle
    /// (0.0 for the ideal topology, which has no registers).
    pub fn net_occupancy(&self) -> f64 {
        if self.cycles == 0 || self.net_register_slots == 0 {
            0.0
        } else {
            self.net_occupancy_sum as f64 / (self.cycles * self.net_register_slots) as f64
        }
    }

    /// Fraction of requests that stayed in the issuing tile.
    pub fn locality(&self) -> f64 {
        let total = self.local_requests + self.remote_requests;
        if total == 0 {
            0.0
        } else {
            self.local_requests as f64 / total as f64
        }
    }
}

impl Walk for ClusterStats {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.walk(at!(this.cycles))?;
        io.walk(at!(this.requests_issued))?;
        io.walk(at!(this.bank_accesses))?;
        io.walk(at!(this.responses_delivered))?;
        io.walk(at!(this.local_requests))?;
        io.walk(at!(this.remote_requests))?;
        io.walk(at!(this.group_local_requests))?;
        io.walk(at!(this.direction_requests))?;
        io.walk(at!(this.latency))?;
        io.walk(at!(this.icache_refills))?;
        io.walk(at!(this.memory_faults))?;
        io.walk(at!(this.net_occupancy_sum))?;
        io.walk(at!(this.net_register_slots))?;
        io.count(this.tile_accesses.len(), "tile access counter count")?;
        io.walk(at!(this.tile_accesses[..]))?;
        io.walk(at!(this.faults))
    }
}

walk_fields! {
    FaultStats {
        bank_stalls, banks_failed, banks_quarantined, quarantine_remaps, requests_dropped,
        link_stalls, link_drops, link_corruptions, ring_stalls, ring_drops, core_lockups,
        spurious_retires, request_timeouts, request_retries, requests_abandoned,
        stale_responses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_basic_moments() {
        let mut l = LatencyStats::new();
        for v in [1u64, 3, 5, 5, 10] {
            l.record(v);
        }
        assert_eq!(l.count(), 5);
        assert_eq!(l.min(), Some(1));
        assert_eq!(l.max(), Some(10));
        assert!((l.mean() - 4.8).abs() < 1e-12);
        assert_eq!(l.quantile(0.5), Some(5));
        assert_eq!(l.quantile(1.0), Some(10));
    }

    #[test]
    fn latency_empty() {
        let l = LatencyStats::new();
        assert_eq!(l.mean(), 0.0);
        assert_eq!(l.min(), None);
        assert_eq!(l.quantile(0.5), None);
        assert_eq!(l.to_string(), "no samples");
    }

    #[test]
    fn latency_merge() {
        let mut a = LatencyStats::new();
        a.record(2);
        let mut b = LatencyStats::new();
        b.record(8);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(100));
        assert_eq!(a.min(), Some(2));
    }

    #[test]
    fn big_samples_saturate_histogram() {
        let mut l = LatencyStats::new();
        l.record(1000);
        assert_eq!(l.quantile(0.5), Some(1000)); // tail bucket reports max
    }

    #[test]
    fn throughput_and_locality() {
        let mut s = ClusterStats::new();
        s.cycles = 100;
        s.responses_delivered = 50;
        s.local_requests = 30;
        s.remote_requests = 10;
        assert!((s.throughput(2) - 0.25).abs() < 1e-12);
        assert!((s.locality() - 0.75).abs() < 1e-12);
    }
}
