//! The RV32IMA instruction set, as a structured enum.

use crate::Reg;
use std::fmt;

/// Integer register–register / register–immediate ALU operations (RV32I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`); subtraction is [`AluOp::Sub`].
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Logical left shift.
    Sll,
    /// Set if less than, signed.
    Slt,
    /// Set if less than, unsigned.
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

impl AluOp {
    /// The mnemonic for the register–register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
        }
    }

    /// Whether an immediate (`-i` suffixed) form of this operation exists.
    ///
    /// `sub` has no immediate form in RV32I (use `addi` with a negated
    /// immediate instead).
    pub fn has_imm_form(self) -> bool {
        !matches!(self, AluOp::Sub)
    }

    /// Whether the immediate form takes a 5-bit shift amount rather than a
    /// 12-bit signed immediate.
    pub fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }
}

/// RV32M multiply/divide operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of the signed×signed product.
    Mulh,
    /// High 32 bits of the signed×unsigned product.
    Mulhsu,
    /// High 32 bits of the unsigned×unsigned product.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

impl MulOp {
    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MulOp::Mul => "mul",
            MulOp::Mulh => "mulh",
            MulOp::Mulhsu => "mulhsu",
            MulOp::Mulhu => "mulhu",
            MulOp::Div => "div",
            MulOp::Divu => "divu",
            MulOp::Rem => "rem",
            MulOp::Remu => "remu",
        }
    }

    /// Whether this operation uses the (multi-cycle) divider rather than the
    /// multiplier.
    pub fn is_division(self) -> bool {
        matches!(self, MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu)
    }
}

/// Conditional branch comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal.
    Beq,
    /// Branch if not equal.
    Bne,
    /// Branch if less than, signed.
    Blt,
    /// Branch if greater or equal, signed.
    Bge,
    /// Branch if less than, unsigned.
    Bltu,
    /// Branch if greater or equal, unsigned.
    Bgeu,
}

impl BranchOp {
    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Beq => "beq",
            BranchOp::Bne => "bne",
            BranchOp::Blt => "blt",
            BranchOp::Bge => "bge",
            BranchOp::Bltu => "bltu",
            BranchOp::Bgeu => "bgeu",
        }
    }

    /// Evaluates the branch condition on two operand values.
    pub fn taken(self, a: u32, b: u32) -> bool {
        match self {
            BranchOp::Beq => a == b,
            BranchOp::Bne => a != b,
            BranchOp::Blt => (a as i32) < (b as i32),
            BranchOp::Bge => (a as i32) >= (b as i32),
            BranchOp::Bltu => a < b,
            BranchOp::Bgeu => a >= b,
        }
    }
}

/// Load widths and signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load byte, sign-extended.
    Lb,
    /// Load half-word, sign-extended.
    Lh,
    /// Load word.
    Lw,
    /// Load byte, zero-extended.
    Lbu,
    /// Load half-word, zero-extended.
    Lhu,
}

impl LoadOp {
    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            LoadOp::Lb => "lb",
            LoadOp::Lh => "lh",
            LoadOp::Lw => "lw",
            LoadOp::Lbu => "lbu",
            LoadOp::Lhu => "lhu",
        }
    }

    /// Access size in bytes.
    pub fn size(self) -> u32 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw => 4,
        }
    }

    /// Extracts and extends the loaded value from a full word read at the
    /// access-aligned address, given the byte offset within the word.
    pub fn extract(self, word: u32, byte_offset: u32) -> u32 {
        match self {
            LoadOp::Lw => word,
            LoadOp::Lb => ((word >> (8 * byte_offset)) as u8) as i8 as i32 as u32,
            LoadOp::Lbu => ((word >> (8 * byte_offset)) as u8) as u32,
            LoadOp::Lh => ((word >> (8 * byte_offset)) as u16) as i16 as i32 as u32,
            LoadOp::Lhu => ((word >> (8 * byte_offset)) as u16) as u32,
        }
    }
}

/// Store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte.
    Sb,
    /// Store half-word.
    Sh,
    /// Store word.
    Sw,
}

impl StoreOp {
    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            StoreOp::Sb => "sb",
            StoreOp::Sh => "sh",
            StoreOp::Sw => "sw",
        }
    }

    /// Access size in bytes.
    pub fn size(self) -> u32 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
        }
    }

    /// Byte-enable mask and shifted data for a read-modify-write of the
    /// containing word.
    pub fn merge(self, old_word: u32, value: u32, byte_offset: u32) -> u32 {
        match self {
            StoreOp::Sw => value,
            StoreOp::Sb => {
                let shift = 8 * byte_offset;
                (old_word & !(0xff << shift)) | ((value & 0xff) << shift)
            }
            StoreOp::Sh => {
                let shift = 8 * byte_offset;
                (old_word & !(0xffff << shift)) | ((value & 0xffff) << shift)
            }
        }
    }
}

/// RV32A atomic memory operations (excluding LR/SC, which have their own
/// instruction variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// Atomic swap.
    Swap,
    /// Atomic add.
    Add,
    /// Atomic exclusive or.
    Xor,
    /// Atomic and.
    And,
    /// Atomic or.
    Or,
    /// Atomic signed minimum.
    Min,
    /// Atomic signed maximum.
    Max,
    /// Atomic unsigned minimum.
    Minu,
    /// Atomic unsigned maximum.
    Maxu,
}

impl AmoOp {
    /// The assembly mnemonic (including the `.w` size suffix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AmoOp::Swap => "amoswap.w",
            AmoOp::Add => "amoadd.w",
            AmoOp::Xor => "amoxor.w",
            AmoOp::And => "amoand.w",
            AmoOp::Or => "amoor.w",
            AmoOp::Min => "amomin.w",
            AmoOp::Max => "amomax.w",
            AmoOp::Minu => "amominu.w",
            AmoOp::Maxu => "amomaxu.w",
        }
    }

    /// Applies the operation: returns the new memory value given the old
    /// memory value and the source operand.
    pub fn apply(self, old: u32, src: u32) -> u32 {
        match self {
            AmoOp::Swap => src,
            AmoOp::Add => old.wrapping_add(src),
            AmoOp::Xor => old ^ src,
            AmoOp::And => old & src,
            AmoOp::Or => old | src,
            AmoOp::Min => (old as i32).min(src as i32) as u32,
            AmoOp::Max => (old as i32).max(src as i32) as u32,
            AmoOp::Minu => old.min(src),
            AmoOp::Maxu => old.max(src),
        }
    }
}

/// CSR access operations (Zicsr).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// Atomic read/write.
    Rw,
    /// Atomic read and set bits.
    Rs,
    /// Atomic read and clear bits.
    Rc,
}

impl CsrOp {
    fn mnemonic(self, imm: bool) -> &'static str {
        match (self, imm) {
            (CsrOp::Rw, false) => "csrrw",
            (CsrOp::Rs, false) => "csrrs",
            (CsrOp::Rc, false) => "csrrc",
            (CsrOp::Rw, true) => "csrrwi",
            (CsrOp::Rs, true) => "csrrsi",
            (CsrOp::Rc, true) => "csrrci",
        }
    }
}

/// A decoded RV32IMA instruction.
///
/// Offsets for branches and jumps are byte offsets relative to the address of
/// the instruction itself (as in the encoded form).
///
/// # Examples
///
/// ```
/// use mempool_riscv::{Instr, Reg, AluOp};
///
/// let add = Instr::Op { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
/// assert_eq!(add.to_string(), "add a0, a1, a2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Load upper immediate. `imm` holds the full 32-bit result (low 12 bits
    /// zero).
    Lui {
        /// Destination register.
        rd: Reg,
        /// Value placed in `rd`; low 12 bits must be zero.
        imm: u32,
    },
    /// Add upper immediate to PC. `imm` as in [`Instr::Lui`].
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Offset added to the PC; low 12 bits must be zero.
        imm: u32,
    },
    /// Jump and link.
    Jal {
        /// Link register (receives PC+4).
        rd: Reg,
        /// Signed byte offset from this instruction; ±1 MiB, even.
        offset: i32,
    },
    /// Indirect jump and link.
    Jalr {
        /// Link register (receives PC+4).
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison performed.
        op: BranchOp,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
        /// Signed byte offset from this instruction; ±4 KiB, even.
        offset: i32,
    },
    /// Memory load.
    Load {
        /// Width/signedness.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Memory store.
    Store {
        /// Width.
        op: StoreOp,
        /// Source data register.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Register–immediate ALU operation (`addi`, `slti`, shifts, …).
    OpImm {
        /// Operation; [`AluOp::Sub`] is not representable here.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Signed 12-bit immediate, or 5-bit shift amount for shifts.
        imm: i32,
    },
    /// Register–register ALU operation.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// RV32M multiply/divide.
    MulDiv {
        /// Operation.
        op: MulOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// RV32A load-reserved word.
    LrW {
        /// Destination register.
        rd: Reg,
        /// Address register.
        rs1: Reg,
    },
    /// RV32A store-conditional word. `rd` receives 0 on success, 1 on
    /// failure.
    ScW {
        /// Status destination register.
        rd: Reg,
        /// Address register.
        rs1: Reg,
        /// Data register.
        rs2: Reg,
    },
    /// RV32A atomic memory operation on a word.
    Amo {
        /// Read-modify-write operation.
        op: AmoOp,
        /// Destination register (receives the old memory value).
        rd: Reg,
        /// Address register.
        rs1: Reg,
        /// Source operand register.
        rs2: Reg,
    },
    /// CSR access with a register source.
    Csr {
        /// Access kind.
        op: CsrOp,
        /// Destination register (receives the old CSR value).
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// CSR address (12 bits).
        csr: u16,
    },
    /// CSR access with a 5-bit zero-extended immediate source.
    CsrImm {
        /// Access kind.
        op: CsrOp,
        /// Destination register (receives the old CSR value).
        rd: Reg,
        /// Zero-extended 5-bit immediate.
        imm: u8,
        /// CSR address (12 bits).
        csr: u16,
    },
    /// Memory fence. In the MemPool core model this drains all outstanding
    /// memory requests before the next instruction issues.
    Fence,
    /// Instruction fence (treated as a pipeline flush / no-op in this model).
    FenceI,
    /// Environment call. The core model treats it as a halt request.
    Ecall,
    /// Breakpoint. The core model treats it as a halt request.
    Ebreak,
    /// Wait for interrupt. The MemPool core model uses it to park a core.
    Wfi,
}

impl Instr {
    /// A canonical no-op (`addi x0, x0, 0`).
    pub const NOP: Instr = Instr::OpImm {
        op: AluOp::Add,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        imm: 0,
    };

    /// The destination register written by this instruction, if any.
    ///
    /// `x0` destinations are reported as `None` since the write has no
    /// architectural effect.
    pub fn dest(self) -> Option<Reg> {
        let rd = match self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::OpImm { rd, .. }
            | Instr::Op { rd, .. }
            | Instr::MulDiv { rd, .. }
            | Instr::LrW { rd, .. }
            | Instr::ScW { rd, .. }
            | Instr::Amo { rd, .. }
            | Instr::Csr { rd, .. }
            | Instr::CsrImm { rd, .. } => rd,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// The source registers read by this instruction (up to two).
    pub fn sources(self) -> [Option<Reg>; 2] {
        match self {
            Instr::Jalr { rs1, .. }
            | Instr::Load { rs1, .. }
            | Instr::OpImm { rs1, .. }
            | Instr::LrW { rs1, .. }
            | Instr::Csr { rs1, .. } => [Some(rs1), None],
            Instr::Branch { rs1, rs2, .. }
            | Instr::Store { rs1, rs2, .. }
            | Instr::Op { rs1, rs2, .. }
            | Instr::MulDiv { rs1, rs2, .. }
            | Instr::ScW { rs1, rs2, .. }
            | Instr::Amo { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            _ => [None, None],
        }
    }

    /// Whether this instruction accesses data memory (loads, stores,
    /// atomics).
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::LrW { .. }
                | Instr::ScW { .. }
                | Instr::Amo { .. }
        )
    }

    /// The scoreboard's view of this instruction, from one match: a mask
    /// with the bit of every source register and of a non-zero
    /// destination (the registers that must be free before it issues),
    /// and whether it accesses data memory. Equal to folding
    /// [`sources`](Instr::sources), [`dest`](Instr::dest) and
    /// [`is_memory`](Instr::is_memory), which the per-cycle issue check
    /// would otherwise match three times.
    #[inline]
    pub fn hazards(self) -> (u32, bool) {
        let reg = |r: Reg| 1u32 << r.index();
        // x0 is bit 0: a write to it blocks on nothing.
        let dest = |rd: Reg| reg(rd) & !1;
        match self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::CsrImm { rd, .. } => (dest(rd), false),
            Instr::Jalr { rd, rs1, .. }
            | Instr::OpImm { rd, rs1, .. }
            | Instr::Csr { rd, rs1, .. } => (dest(rd) | reg(rs1), false),
            Instr::Op { rd, rs1, rs2, .. } | Instr::MulDiv { rd, rs1, rs2, .. } => {
                (dest(rd) | reg(rs1) | reg(rs2), false)
            }
            Instr::Branch { rs1, rs2, .. } => (reg(rs1) | reg(rs2), false),
            Instr::Load { rd, rs1, .. } | Instr::LrW { rd, rs1, .. } => (dest(rd) | reg(rs1), true),
            Instr::Store { rs1, rs2, .. } => (reg(rs1) | reg(rs2), true),
            Instr::ScW { rd, rs1, rs2 } | Instr::Amo { rd, rs1, rs2, .. } => {
                (dest(rd) | reg(rs1) | reg(rs2), true)
            }
            Instr::Fence | Instr::FenceI | Instr::Ecall | Instr::Ebreak | Instr::Wfi => (0, false),
        }
    }

    /// Whether this instruction can redirect control flow.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm >> 12),
            Instr::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm >> 12),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", op.mnemonic()),
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => write!(f, "{} {rd}, {offset}({rs1})", op.mnemonic()),
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => write!(f, "{} {rs2}, {offset}({rs1})", op.mnemonic()),
            Instr::OpImm { op, rd, rs1, imm } => {
                // The immediate form of `sltu` is spelled `sltiu`, not `sltui`.
                match op {
                    AluOp::Sltu => write!(f, "sltiu {rd}, {rs1}, {imm}"),
                    _ => write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic()),
                }
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::LrW { rd, rs1 } => write!(f, "lr.w {rd}, ({rs1})"),
            Instr::ScW { rd, rs1, rs2 } => write!(f, "sc.w {rd}, {rs2}, ({rs1})"),
            Instr::Amo { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs2}, ({rs1})", op.mnemonic())
            }
            Instr::Csr { op, rd, rs1, csr } => {
                write!(f, "{} {rd}, {:#x}, {rs1}", op.mnemonic(false), csr)
            }
            Instr::CsrImm { op, rd, imm, csr } => {
                write!(f, "{} {rd}, {:#x}, {imm}", op.mnemonic(true), csr)
            }
            Instr::Fence => f.write_str("fence"),
            Instr::FenceI => f.write_str("fence.i"),
            Instr::Ecall => f.write_str("ecall"),
            Instr::Ebreak => f.write_str("ebreak"),
            Instr::Wfi => f.write_str("wfi"),
        }
    }
}

/// Well-known CSR addresses used by the MemPool runtime.
pub mod csr {
    /// Hart (core) ID, read-only.
    pub const MHARTID: u16 = 0xf14;
    /// Machine cycle counter, low 32 bits.
    pub const MCYCLE: u16 = 0xb00;
    /// Machine cycle counter, high 32 bits.
    pub const MCYCLEH: u16 = 0xb80;
    /// Machine retired-instruction counter, low 32 bits.
    pub const MINSTRET: u16 = 0xb02;
    /// Machine retired-instruction counter, high 32 bits.
    pub const MINSTRETH: u16 = 0xb82;
    /// Machine scratch register.
    pub const MSCRATCH: u16 = 0x340;
    /// MemPool profiler region marker (custom machine-mode CSR).
    ///
    /// Kernels write a region ID here to tag the following instructions
    /// with a program phase (init/compute/barrier/writeback); the profiler
    /// attributes cycles to whatever region is current when they retire.
    pub const MREGION: u16 = 0x7c0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_skips_x0() {
        let i = Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::A0,
            imm: 1,
        };
        assert_eq!(i.dest(), None);
        let i = Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A1,
            rs1: Reg::A0,
            imm: 1,
        };
        assert_eq!(i.dest(), Some(Reg::A1));
    }

    /// `hazards` is `sources`, `dest` and `is_memory` folded, for every
    /// instruction a random word decodes to.
    #[test]
    fn hazards_fold_sources_dest_and_memory() {
        let mut word = 0x9e37_79b9u32;
        let mut decoded = 0;
        for _ in 0..200_000 {
            word = word.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            // Force a 32-bit encoding (low bits 0b11) so most words decode.
            let Ok(instr) = crate::decode(word | 0b11) else {
                continue;
            };
            decoded += 1;
            let mut mask = 0u32;
            for src in instr.sources().into_iter().flatten() {
                mask |= 1 << src.index();
            }
            if let Some(rd) = instr.dest() {
                mask |= 1 << rd.index();
            }
            assert_eq!(instr.hazards(), (mask, instr.is_memory()), "{instr}");
        }
        assert!(decoded > 10_000, "only {decoded} words decoded");
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchOp::Blt.taken(-1i32 as u32, 0));
        assert!(!BranchOp::Bltu.taken(-1i32 as u32, 0));
        assert!(BranchOp::Bgeu.taken(-1i32 as u32, 0));
        assert!(BranchOp::Beq.taken(7, 7));
        assert!(BranchOp::Bne.taken(7, 8));
        assert!(BranchOp::Bge.taken(0, -5i32 as u32));
    }

    #[test]
    fn amo_semantics() {
        assert_eq!(AmoOp::Add.apply(5, 7), 12);
        assert_eq!(AmoOp::Swap.apply(5, 7), 7);
        assert_eq!(AmoOp::Min.apply(-3i32 as u32, 2), -3i32 as u32);
        assert_eq!(AmoOp::Minu.apply(-3i32 as u32, 2), 2);
        assert_eq!(AmoOp::Max.apply(-3i32 as u32, 2), 2);
        assert_eq!(AmoOp::Maxu.apply(-3i32 as u32, 2), -3i32 as u32);
        assert_eq!(AmoOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AmoOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AmoOp::Or.apply(0b1100, 0b1010), 0b1110);
    }

    #[test]
    fn load_extract() {
        let word = 0x8070_ff80;
        assert_eq!(LoadOp::Lb.extract(word, 0), 0xffff_ff80);
        assert_eq!(LoadOp::Lbu.extract(word, 0), 0x80);
        assert_eq!(LoadOp::Lh.extract(word, 0), 0xffff_ff80);
        assert_eq!(LoadOp::Lhu.extract(word, 2), 0x8070);
        assert_eq!(LoadOp::Lw.extract(word, 0), word);
    }

    #[test]
    fn store_merge() {
        assert_eq!(StoreOp::Sb.merge(0xaabb_ccdd, 0x11, 1), 0xaabb_11dd);
        assert_eq!(StoreOp::Sh.merge(0xaabb_ccdd, 0x1122, 2), 0x1122_ccdd);
        assert_eq!(StoreOp::Sw.merge(0xaabb_ccdd, 0x1, 0), 1);
    }

    #[test]
    fn display_forms() {
        let l = Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::A0,
            rs1: Reg::SP,
            offset: -4,
        };
        assert_eq!(l.to_string(), "lw a0, -4(sp)");
        assert_eq!(Instr::NOP.to_string(), "addi zero, zero, 0");
    }

    #[test]
    fn memory_classification() {
        assert!(Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0
        }
        .is_memory());
        assert!(!Instr::NOP.is_memory());
        assert!(Instr::Jal {
            rd: Reg::ZERO,
            offset: 8
        }
        .is_control());
    }
}
