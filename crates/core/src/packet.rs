//! The packets that travel the request and response interconnects, and
//! recorded memory traces.

use crate::snapshot::{at, walk_fields, Place, StateIo, Walk, Walked};
use mempool_snitch::DataRequestKind;

/// One recorded memory request of a core (programmer-view address, i.e.
/// before hybrid-addressing scrambling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the request left the core.
    pub cycle: u64,
    /// Virtual (pre-scramble) byte address.
    pub addr: u32,
    /// Whether the request wrote memory.
    pub write: bool,
}

impl TraceEvent {
    /// The event of request `dr` leaving its core at cycle `now`.
    pub(crate) fn of(dr: &mempool_snitch::DataRequest, now: u64) -> Self {
        TraceEvent {
            cycle: now,
            addr: dr.addr,
            write: dr.kind.is_write(),
        }
    }
}

/// A per-core memory trace captured by
/// [`Cluster::begin_trace`](crate::Cluster::begin_trace) — the raw material
/// for trace-driven network studies (replay the same memory schedule on a
/// different topology without re-executing the program).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryTrace {
    per_core: Vec<Vec<TraceEvent>>,
}

impl MemoryTrace {
    /// Creates an empty trace for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        MemoryTrace {
            per_core: vec![Vec::new(); num_cores],
        }
    }

    /// Records an event for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn record(&mut self, core: usize, event: TraceEvent) {
        self.per_core[core].push(event);
    }

    /// Number of cores the trace covers.
    pub fn num_cores(&self) -> usize {
        self.per_core.len()
    }

    /// The events of one core, in issue order.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &[TraceEvent] {
        &self.per_core[core]
    }

    /// Total recorded events.
    pub fn len(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A memory request in flight, carrying the routing metadata the paper's
/// interconnect transports: the issuing core (for the return path) and the
/// reorder-buffer tag (for response matching).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Request {
    /// Global core index of the issuer.
    pub core: u32,
    /// The issuer's reorder-buffer tag.
    pub tag: u8,
    /// *Physical* byte address (after hybrid-addressing scrambling).
    pub addr: u32,
    /// Operation.
    pub kind: DataRequestKind,
    /// Cycle at which the request left the core (for latency statistics).
    pub issued_at: u64,
}

/// A memory response in flight back to its core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Response {
    /// Global core index of the original issuer (routing destination).
    pub core: u32,
    /// The issuer's reorder-buffer tag.
    pub tag: u8,
    /// Payload: load data / AMO old value / SC status; 0 for store acks.
    pub data: u32,
    /// Cycle at which the original request left the core.
    pub issued_at: u64,
    /// Whether the original request was a write (for statistics).
    pub is_write: bool,
}

walk_fields! {
    Request { core, tag, addr, kind, issued_at }
    Response { core, tag, data, issued_at, is_write }
}
