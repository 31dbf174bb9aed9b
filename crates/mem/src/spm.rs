//! Scratchpad-memory banks: single-ported, one access per cycle, with RV32A
//! atomics executed at the bank.

use mempool_riscv::AmoOp;
use std::fmt;

/// A word-granular operation presented to an SPM bank.
///
/// Sub-word stores are expressed with a byte strobe; sub-word loads return
/// the full word and the requester extracts the bytes it needs (as the
/// hardware would on a 32-bit data bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOp {
    /// Read a word.
    Load,
    /// Write the byte lanes selected by `strobe` (bit *i* enables byte *i*).
    Store {
        /// Data to write (already aligned to the word lanes).
        data: u32,
        /// Byte-lane enable mask, low 4 bits.
        strobe: u8,
    },
    /// Read-modify-write atomic; returns the old value.
    Amo {
        /// The RV32A operation.
        op: AmoOp,
        /// Source operand.
        operand: u32,
    },
    /// Load-reserved: reads the word and registers a reservation for `hart`.
    LoadReserved {
        /// Requesting hart (core) ID.
        hart: u32,
    },
    /// Store-conditional: writes `data` iff `hart` still holds a valid
    /// reservation on the row; returns 0 on success, 1 on failure.
    StoreConditional {
        /// Requesting hart (core) ID.
        hart: u32,
        /// Data to write on success.
        data: u32,
    },
}

impl BankOp {
    /// Whether the operation writes memory (used for reservation
    /// invalidation and energy accounting).
    pub fn is_write(&self) -> bool {
        !matches!(self, BankOp::Load | BankOp::LoadReserved { .. })
    }
}

/// Error for out-of-range bank rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRowError {
    row: u32,
    rows: u32,
}

impl fmt::Display for BankRowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row {} out of range (bank has {} rows)", self.row, self.rows)
    }
}

impl std::error::Error for BankRowError {}

/// One single-ported SPM bank of 32-bit rows.
///
/// The bank serves exactly one [`BankOp`] per cycle in the cluster model;
/// that serialization lives in the cluster, the bank itself is a plain
/// state container with atomic semantics.
///
/// # Examples
///
/// ```
/// use mempool_mem::{BankOp, SpmBank};
/// use mempool_riscv::AmoOp;
///
/// let mut bank = SpmBank::new(16);
/// bank.access(3, BankOp::Store { data: 5, strobe: 0xf })?;
/// let old = bank.access(3, BankOp::Amo { op: AmoOp::Add, operand: 2 })?;
/// assert_eq!(old, 5);
/// assert_eq!(bank.access(3, BankOp::Load)?, 7);
/// # Ok::<(), mempool_mem::BankRowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpmBank {
    rows: Vec<u32>,
    /// Active LR reservations: `(hart, row)`. MemPool-scale banks see very
    /// few concurrent reservations, so a small vector beats a map.
    reservations: Vec<(u32, u32)>,
    /// Lifetime count of serviced accesses (observability counter; part of
    /// the checkpointed state).
    accesses: u64,
}

impl SpmBank {
    /// Creates a zero-initialized bank with `rows` 32-bit words.
    pub fn new(rows: u32) -> Self {
        SpmBank {
            rows: vec![0; rows as usize],
            reservations: Vec::new(),
            accesses: 0,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Direct read access for testing and result extraction (no timing, no
    /// reservation effects).
    pub fn peek(&self, row: u32) -> Option<u32> {
        self.rows.get(row as usize).copied()
    }

    /// Direct write access for program loading (no timing, clears nothing).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn poke(&mut self, row: u32, value: u32) {
        self.rows[row as usize] = value;
    }

    /// Performs one bank access and returns the response value: the read
    /// data for loads/LR, the old memory value for AMOs, the success flag
    /// (0/1) for SC, and 0 for plain stores.
    ///
    /// # Errors
    ///
    /// Returns [`BankRowError`] if `row` is out of range.
    #[inline]
    pub fn access(&mut self, row: u32, op: BankOp) -> Result<u32, BankRowError> {
        let rows = self.rows();
        let cell = self
            .rows
            .get_mut(row as usize)
            .ok_or(BankRowError { row, rows })?;
        self.accesses += 1;
        let response = match op {
            BankOp::Load => *cell,
            BankOp::Store { data, strobe } => {
                *cell = merge_strobe(*cell, data, strobe);
                self.invalidate(row, None);
                0
            }
            BankOp::Amo { op, operand } => {
                let old = *cell;
                *cell = op.apply(old, operand);
                self.invalidate(row, None);
                old
            }
            BankOp::LoadReserved { hart } => {
                let value = *cell;
                self.reservations.retain(|&(h, _)| h != hart);
                self.reservations.push((hart, row));
                value
            }
            BankOp::StoreConditional { hart, data } => {
                let held = self
                    .reservations
                    .iter()
                    .any(|&(h, r)| h == hart && r == row);
                if held {
                    *cell = data;
                    self.invalidate(row, Some(hart));
                    self.reservations.retain(|&(h, _)| h != hart);
                    0
                } else {
                    1
                }
            }
        };
        Ok(response)
    }

    /// All rows as a word slice (checkpointing and digests).
    pub fn words(&self) -> &[u32] {
        &self.rows
    }

    /// Active LR reservations as `(hart, row)` pairs, in age order
    /// (checkpointing).
    pub fn reservations(&self) -> &Vec<(u32, u32)> {
        &self.reservations
    }

    /// Lifetime count of serviced accesses (observability counter).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Restores the access counter from a checkpoint.
    pub fn set_accesses(&mut self, accesses: u64) {
        self.accesses = accesses;
    }

    /// All rows, writable in place (checkpoint restore); the row count is
    /// fixed.
    pub fn words_mut(&mut self) -> &mut [u32] {
        &mut self.rows
    }

    /// The LR reservations, to restore from a checkpoint.
    pub fn reservations_mut(&mut self) -> &mut Vec<(u32, u32)> {
        &mut self.reservations
    }

    /// Drops all reservations on `row` except the optional `keep` hart.
    fn invalidate(&mut self, row: u32, keep: Option<u32>) {
        self.reservations
            .retain(|&(h, r)| r != row || keep == Some(h));
    }
}

fn merge_strobe(old: u32, data: u32, strobe: u8) -> u32 {
    let mut mask = 0u32;
    for lane in 0..4 {
        if strobe & (1 << lane) != 0 {
            mask |= 0xff << (8 * lane);
        }
    }
    (old & !mask) | (data & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let mut bank = SpmBank::new(8);
        bank.access(0, BankOp::Store { data: 0xdead_beef, strobe: 0xf }).unwrap();
        assert_eq!(bank.access(0, BankOp::Load).unwrap(), 0xdead_beef);
    }

    #[test]
    fn sub_word_store_merges_lanes() {
        let mut bank = SpmBank::new(8);
        bank.access(1, BankOp::Store { data: 0xaabb_ccdd, strobe: 0xf }).unwrap();
        bank.access(1, BankOp::Store { data: 0x0000_1100, strobe: 0b0010 }).unwrap();
        assert_eq!(bank.peek(1), Some(0xaabb_11dd));
        bank.access(1, BankOp::Store { data: 0x7788_0000, strobe: 0b1100 }).unwrap();
        assert_eq!(bank.peek(1), Some(0x7788_11dd));
    }

    #[test]
    fn amo_returns_old_value() {
        let mut bank = SpmBank::new(4);
        bank.poke(2, 10);
        let old = bank
            .access(2, BankOp::Amo { op: AmoOp::Add, operand: 5 })
            .unwrap();
        assert_eq!(old, 10);
        assert_eq!(bank.peek(2), Some(15));
    }

    #[test]
    fn lr_sc_success() {
        let mut bank = SpmBank::new(4);
        bank.poke(0, 41);
        assert_eq!(bank.access(0, BankOp::LoadReserved { hart: 3 }).unwrap(), 41);
        assert_eq!(
            bank.access(0, BankOp::StoreConditional { hart: 3, data: 42 }).unwrap(),
            0
        );
        assert_eq!(bank.peek(0), Some(42));
    }

    #[test]
    fn sc_fails_without_reservation() {
        let mut bank = SpmBank::new(4);
        assert_eq!(
            bank.access(0, BankOp::StoreConditional { hart: 3, data: 42 }).unwrap(),
            1
        );
        assert_eq!(bank.peek(0), Some(0));
    }

    #[test]
    fn intervening_write_breaks_reservation() {
        let mut bank = SpmBank::new(4);
        bank.access(0, BankOp::LoadReserved { hart: 1 }).unwrap();
        bank.access(0, BankOp::Store { data: 9, strobe: 0xf }).unwrap();
        assert_eq!(
            bank.access(0, BankOp::StoreConditional { hart: 1, data: 7 }).unwrap(),
            1
        );
        assert_eq!(bank.peek(0), Some(9));
    }

    #[test]
    fn competing_sc_only_one_wins() {
        let mut bank = SpmBank::new(4);
        bank.access(0, BankOp::LoadReserved { hart: 1 }).unwrap();
        bank.access(0, BankOp::LoadReserved { hart: 2 }).unwrap();
        assert_eq!(
            bank.access(0, BankOp::StoreConditional { hart: 1, data: 11 }).unwrap(),
            0
        );
        // Hart 1's successful SC invalidates hart 2's reservation.
        assert_eq!(
            bank.access(0, BankOp::StoreConditional { hart: 2, data: 22 }).unwrap(),
            1
        );
        assert_eq!(bank.peek(0), Some(11));
    }

    #[test]
    fn new_lr_replaces_old_reservation() {
        let mut bank = SpmBank::new(4);
        bank.access(0, BankOp::LoadReserved { hart: 1 }).unwrap();
        bank.access(1, BankOp::LoadReserved { hart: 1 }).unwrap();
        // Reservation moved to row 1, so SC on row 0 fails.
        assert_eq!(
            bank.access(0, BankOp::StoreConditional { hart: 1, data: 5 }).unwrap(),
            1
        );
        assert_eq!(
            bank.access(1, BankOp::StoreConditional { hart: 1, data: 6 }).unwrap(),
            0
        );
    }

    #[test]
    fn amo_breaks_reservation() {
        let mut bank = SpmBank::new(4);
        bank.access(0, BankOp::LoadReserved { hart: 1 }).unwrap();
        bank.access(0, BankOp::Amo { op: AmoOp::Add, operand: 1 }).unwrap();
        assert_eq!(
            bank.access(0, BankOp::StoreConditional { hart: 1, data: 5 }).unwrap(),
            1
        );
    }

    #[test]
    fn out_of_range_row_rejected() {
        let mut bank = SpmBank::new(4);
        assert!(bank.access(4, BankOp::Load).is_err());
    }
}
