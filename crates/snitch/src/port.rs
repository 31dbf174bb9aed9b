//! The core's two ports: instruction fetch and data memory.

use mempool_riscv::{AmoOp, Instr, LoadOp, StoreOp};

/// Result of an instruction fetch attempt this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// The instruction is available (I-cache hit; pre-decoded by the owner
    /// of the program image).
    Ready(Instr),
    /// The I-cache missed (or the fetch port is busy); the core stalls.
    Stall,
    /// The PC points outside the program image; the core halts with a
    /// fault.
    Fault,
}

/// A memory operation leaving the core's data port.
///
/// The `tag` identifies the reorder-buffer (LSU) slot; responses carry it
/// back so out-of-order completions land in the right slot — this is the
/// per-core metadata the paper's request interconnect transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRequest {
    /// LSU slot / reorder-buffer tag.
    pub tag: u8,
    /// Byte address in the core's (pre-scramble) view of L1.
    pub addr: u32,
    /// Operation kind and payload.
    pub kind: DataRequestKind,
}

/// The operation performed at the target bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DataRequestKind {
    /// Load of the given width.
    Load(LoadOp),
    /// Store of the given width; `data` is already shifted to its lanes.
    Store {
        /// Width.
        op: StoreOp,
        /// Register value to store (unshifted).
        data: u32,
    },
    /// RV32A read-modify-write.
    Amo {
        /// Operation.
        op: AmoOp,
        /// Source operand.
        operand: u32,
    },
    /// Load-reserved word.
    #[default]
    LoadReserved,
    /// Store-conditional word.
    StoreConditional {
        /// Data to write on success.
        data: u32,
    },
}

impl DataRequestKind {
    /// Whether the operation writes memory.
    pub fn is_write(&self) -> bool {
        !matches!(self, DataRequestKind::Load(_) | DataRequestKind::LoadReserved)
    }
}

/// A completed memory operation returning to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataResponse {
    /// The LSU tag from the matching [`DataRequest`].
    pub tag: u8,
    /// Response payload: load data, AMO old value, or SC status.
    pub data: u32,
}
