//! The packets that travel the request and response interconnects.

use crate::snapshot::{at, walk_fields, Place, StateIo, Walk, Walked};
use mempool_snitch::DataRequestKind;

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
