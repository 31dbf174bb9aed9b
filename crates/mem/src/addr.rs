//! Address interpretation: the interleaved L1 map and the hybrid addressing
//! scrambler of MemPool §IV.

use std::fmt;

/// Where a physical L1 address lands: tile, bank within the tile, row within
/// the bank, and byte offset within the word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankAddress {
    /// Tile index, `0..num_tiles`.
    pub tile: u32,
    /// Bank index within the tile, `0..banks_per_tile`.
    pub bank: u32,
    /// Word row within the bank.
    pub row: u32,
    /// Byte offset within the 32-bit word (0–3).
    pub byte: u32,
}

/// Error returned when address-map geometry is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildAddressMapError {
    msg: String,
}

impl fmt::Display for BuildAddressMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for BuildAddressMapError {}

fn err(msg: impl Into<String>) -> BuildAddressMapError {
    BuildAddressMapError { msg: msg.into() }
}

/// The sequentially interleaved L1 memory map of the MemPool cluster.
///
/// Word addresses interleave across all banks of all tiles to minimize
/// banking conflicts (§IV): after the 2-bit byte offset come `b` bank bits,
/// then `t` tile bits, then the row offset.
///
/// # Examples
///
/// ```
/// use mempool_mem::AddressMap;
///
/// // The full MemPool cluster: 64 tiles × 16 banks × 256 rows = 1 MiB.
/// let map = AddressMap::new(64, 16, 256)?;
/// let a = map.decode(0x0000_0004).unwrap();
/// assert_eq!((a.tile, a.bank, a.row), (0, 1, 0)); // next word, next bank
/// let b = map.decode(0x0000_0040).unwrap();
/// assert_eq!((b.tile, b.bank, b.row), (1, 0, 0)); // wrapped into next tile
/// # Ok::<(), mempool_mem::BuildAddressMapError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    num_tiles: u32,
    banks_per_tile: u32,
    rows_per_bank: u32,
    bank_bits: u32,
    tile_bits: u32,
    /// `num_tiles × banks_per_tile × rows_per_bank × 4`, the bound every
    /// [`decode`](AddressMap::decode) tests.
    size_bytes: u64,
}

impl AddressMap {
    /// Creates a map for `num_tiles` tiles of `banks_per_tile` banks with
    /// `rows_per_bank` 32-bit rows each.
    ///
    /// # Errors
    ///
    /// Returns an error unless `num_tiles` and `banks_per_tile` are nonzero
    /// powers of two and `rows_per_bank` is nonzero.
    pub fn new(
        num_tiles: u32,
        banks_per_tile: u32,
        rows_per_bank: u32,
    ) -> Result<AddressMap, BuildAddressMapError> {
        if num_tiles == 0 || !num_tiles.is_power_of_two() {
            return Err(err("num_tiles must be a nonzero power of two"));
        }
        if banks_per_tile == 0 || !banks_per_tile.is_power_of_two() {
            return Err(err("banks_per_tile must be a nonzero power of two"));
        }
        if rows_per_bank == 0 {
            return Err(err("rows_per_bank must be nonzero"));
        }
        Ok(AddressMap {
            num_tiles,
            banks_per_tile,
            rows_per_bank,
            bank_bits: banks_per_tile.trailing_zeros(),
            tile_bits: num_tiles.trailing_zeros(),
            size_bytes: u64::from(num_tiles)
                * u64::from(banks_per_tile)
                * u64::from(rows_per_bank)
                * 4,
        })
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> u32 {
        self.num_tiles
    }

    /// Banks per tile.
    pub fn banks_per_tile(&self) -> u32 {
        self.banks_per_tile
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }

    /// Total L1 capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Decodes a byte address into its bank location, or `None` when the
    /// address lies beyond the L1 region.
    #[inline]
    pub fn decode(&self, addr: u32) -> Option<BankAddress> {
        if u64::from(addr) >= self.size_bytes {
            return None;
        }
        let byte = addr & 3;
        let bank = (addr >> 2) & (self.banks_per_tile - 1);
        let tile = (addr >> (2 + self.bank_bits)) & (self.num_tiles - 1);
        let row = addr >> (2 + self.bank_bits + self.tile_bits);
        Some(BankAddress {
            tile,
            bank,
            row,
            byte,
        })
    }

    /// The inverse of [`decode`](AddressMap::decode).
    ///
    /// # Panics
    ///
    /// Panics if any field of `at` is out of range for this map.
    pub fn encode(&self, at: BankAddress) -> u32 {
        assert!(at.tile < self.num_tiles, "tile out of range");
        assert!(at.bank < self.banks_per_tile, "bank out of range");
        assert!(at.row < self.rows_per_bank, "row out of range");
        assert!(at.byte < 4, "byte out of range");
        (at.row << (2 + self.bank_bits + self.tile_bits))
            | (at.tile << (2 + self.bank_bits))
            | (at.bank << 2)
            | at.byte
    }
}

/// The hybrid addressing scrambler of §IV: swaps address bits so that the
/// first `2^S` bytes seen by each tile form a *sequential region* mapped
/// entirely onto that tile's banks, while the rest of the address space
/// stays fully interleaved.
///
/// The transformation is a pure wire crossing (a bijection) applied
/// identically by every core, so all cores keep the same shared view of L1;
/// it is conditional on the address falling inside the combined sequential
/// region of `2^S · num_tiles` bytes.
///
/// # Examples
///
/// ```
/// use mempool_mem::{AddressMap, Scrambler};
///
/// let map = AddressMap::new(64, 16, 256)?;
/// // 1 KiB sequential region per tile.
/// let scr = Scrambler::new(map, 1024).unwrap();
/// // The first KiB maps to tile 0 ...
/// assert_eq!(map.decode(scr.scramble(0x000)).unwrap().tile, 0);
/// assert_eq!(map.decode(scr.scramble(0x3fc)).unwrap().tile, 0);
/// // ... and the second KiB to tile 1.
/// assert_eq!(map.decode(scr.scramble(0x400)).unwrap().tile, 1);
/// // Outside the sequential region the map is untouched.
/// assert_eq!(scr.scramble(0x40000), 0x40000);
/// # Ok::<(), mempool_mem::BuildAddressMapError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scrambler {
    map: AddressMap,
    /// Bits of row offset inside the sequential region (`s` in the paper).
    seq_row_bits: u32,
    /// Byte size of one tile's sequential region (`2^S`).
    seq_bytes_per_tile: u32,
}

impl Scrambler {
    /// Creates a scrambler giving each tile a sequential region of
    /// `seq_bytes_per_tile` bytes.
    ///
    /// Returns `None` unless the size is a power of two, spans at least one
    /// full row across the tile's banks (`4 · banks_per_tile` bytes), and
    /// fits in the tile's SPM.
    pub fn new(map: AddressMap, seq_bytes_per_tile: u32) -> Option<Scrambler> {
        let row_bytes = 4 * map.banks_per_tile; // one row across all banks
        if !seq_bytes_per_tile.is_power_of_two()
            || seq_bytes_per_tile < row_bytes
            || u64::from(seq_bytes_per_tile)
                > u64::from(map.rows_per_bank) * u64::from(row_bytes)
        {
            return None;
        }
        let seq_row_bits = (seq_bytes_per_tile / row_bytes).trailing_zeros();
        Some(Scrambler {
            map,
            seq_row_bits,
            seq_bytes_per_tile,
        })
    }

    /// The underlying interleaved map.
    pub fn map(&self) -> AddressMap {
        self.map
    }

    /// Byte size of one tile's sequential region.
    pub fn seq_bytes_per_tile(&self) -> u32 {
        self.seq_bytes_per_tile
    }

    /// Total bytes covered by sequential regions (all tiles).
    pub fn seq_region_bytes(&self) -> u64 {
        u64::from(self.seq_bytes_per_tile) * u64::from(self.map.num_tiles)
    }

    /// The first address of tile `tile`'s sequential region (in the
    /// *programmer's* address space, i.e. before scrambling).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn seq_base(&self, tile: u32) -> u32 {
        assert!(tile < self.map.num_tiles, "tile out of range");
        tile * self.seq_bytes_per_tile
    }

    /// Whether `addr` falls inside the combined sequential region.
    #[inline]
    pub fn in_seq_region(&self, addr: u32) -> bool {
        u64::from(addr) < self.seq_region_bytes()
    }

    /// Applies the hybrid address transformation (identity outside the
    /// sequential region).
    #[inline]
    pub fn scramble(&self, addr: u32) -> u32 {
        if !self.in_seq_region(addr) {
            return addr;
        }
        let low_bits = 2 + self.map.bank_bits; // byte + bank offsets untouched
        let s = self.seq_row_bits;
        let t = self.map.tile_bits;
        let low = addr & ((1 << low_bits) - 1);
        let seq_row = (addr >> low_bits) & ((1 << s) - 1);
        let tile = (addr >> (low_bits + s)) & ((1 << t) - 1);
        low | (tile << low_bits) | (seq_row << (low_bits + t))
    }

    /// The inverse transformation (also identity outside the region).
    pub fn unscramble(&self, addr: u32) -> u32 {
        if !self.in_seq_region(addr) {
            return addr;
        }
        let low_bits = 2 + self.map.bank_bits;
        let s = self.seq_row_bits;
        let t = self.map.tile_bits;
        let low = addr & ((1 << low_bits) - 1);
        let tile = (addr >> low_bits) & ((1 << t) - 1);
        let seq_row = (addr >> (low_bits + t)) & ((1 << s) - 1);
        low | (seq_row << low_bits) | (tile << (low_bits + s))
    }
}

/// Graceful-degradation remap for failed SPM banks.
///
/// When a bank is declared dead, every address that decodes onto it is
/// re-pointed at a *substitute* live bank in the same tile. The substitute
/// then serves both its own rows and the dead bank's rows, halving its
/// effective capacity but keeping the address space fully readable and
/// writable — requests simply contend on the surviving bank. Tiles are
/// independent: a failure never redirects traffic across the interconnect.
///
/// The map starts as the identity and is updated incrementally via
/// [`quarantine`](QuarantineMap::quarantine). Substitution is resolved
/// eagerly (path compression): `remap` is always a single table lookup, and
/// quarantining a bank that already served as a substitute re-points every
/// bank that leaned on it.
///
/// # Examples
///
/// ```
/// use mempool_mem::{AddressMap, QuarantineMap};
///
/// let map = AddressMap::new(4, 4, 16)?;
/// let mut q = QuarantineMap::new(map);
/// assert!(q.is_identity());
/// // Bank 1 of tile 2 dies; bank 2 takes over its rows.
/// assert_eq!(q.quarantine(2, 1), Some(2));
/// let at = map.decode(map.encode(mempool_mem::BankAddress {
///     tile: 2, bank: 1, row: 3, byte: 0,
/// })).unwrap();
/// assert_eq!(q.remap(at).bank, 2);
/// # Ok::<(), mempool_mem::BuildAddressMapError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineMap {
    banks_per_tile: u32,
    /// `subst[tile * banks_per_tile + bank]` = the live bank (same tile)
    /// that services requests addressed to `bank`.
    subst: Vec<u32>,
    /// Whether each global bank has been declared dead.
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`, kept exact by
    /// [`quarantine`](QuarantineMap::quarantine) and
    /// [`load`](QuarantineMap::load) so the per-request
    /// [`is_identity`](QuarantineMap::is_identity) check is O(1).
    dead_count: usize,
}

impl QuarantineMap {
    /// Creates the identity map (no banks quarantined) for `map`'s geometry.
    pub fn new(map: AddressMap) -> QuarantineMap {
        let total = (map.num_tiles() * map.banks_per_tile()) as usize;
        QuarantineMap {
            banks_per_tile: map.banks_per_tile(),
            subst: (0..total as u32)
                .map(|i| i % map.banks_per_tile())
                .collect(),
            dead: vec![false; total],
            dead_count: 0,
        }
    }

    fn index(&self, tile: u32, bank: u32) -> usize {
        (tile * self.banks_per_tile + bank) as usize
    }

    /// Declares bank `bank` of tile `tile` dead and redirects its traffic to
    /// the next live bank of the same tile (searching upward with wraparound).
    ///
    /// Returns the substitute bank, or `None` when the bank is already
    /// quarantined or it is the tile's last live bank (a tile cannot lose
    /// its entire SPM, so the final failure is refused and the bank stays
    /// live).
    ///
    /// # Panics
    ///
    /// Panics if `tile` or `bank` is out of range.
    pub fn quarantine(&mut self, tile: u32, bank: u32) -> Option<u32> {
        assert!(bank < self.banks_per_tile, "bank out of range");
        let idx = self.index(tile, bank);
        if self.dead[idx] {
            return None;
        }
        let substitute = (1..self.banks_per_tile)
            .map(|step| (bank + step) % self.banks_per_tile)
            .find(|&b| !self.dead[self.index(tile, b)])?;
        self.dead[idx] = true;
        self.dead_count += 1;
        // Re-point the bank itself and every earlier casualty that leaned on
        // it, so lookups stay a single table read.
        for b in 0..self.banks_per_tile {
            let i = self.index(tile, b);
            if self.subst[i] == bank {
                self.subst[i] = substitute;
            }
        }
        Some(substitute)
    }

    /// Whether bank `bank` of tile `tile` is quarantined.
    ///
    /// # Panics
    ///
    /// Panics if `tile` or `bank` is out of range.
    pub fn is_quarantined(&self, tile: u32, bank: u32) -> bool {
        assert!(bank < self.banks_per_tile, "bank out of range");
        self.dead[self.index(tile, bank)]
    }

    /// Applies the remap: dead banks resolve to their substitute, live banks
    /// to themselves. Tile, row, and byte are never changed.
    ///
    /// # Panics
    ///
    /// Panics if `at.tile` or `at.bank` is out of range.
    pub fn remap(&self, at: BankAddress) -> BankAddress {
        assert!(at.bank < self.banks_per_tile, "bank out of range");
        BankAddress {
            bank: self.subst[self.index(at.tile, at.bank)],
            ..at
        }
    }

    /// The substitution table, indexed `tile * banks_per_tile + bank`
    /// (checkpointing).
    pub fn subst_table(&self) -> &[u32] {
        &self.subst
    }

    /// The per-bank dead flags, same indexing as
    /// [`subst_table`](QuarantineMap::subst_table) (checkpointing).
    pub fn dead_flags(&self) -> &[bool] {
        &self.dead
    }

    /// Restores the full quarantine state. The geometry is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length disagrees with the bank count.
    pub fn load(&mut self, subst: &[u32], dead: &[bool]) {
        assert_eq!(subst.len(), self.subst.len(), "subst table size mismatch");
        assert_eq!(dead.len(), self.dead.len(), "dead flag count mismatch");
        self.subst.copy_from_slice(subst);
        self.dead.copy_from_slice(dead);
        self.dead_count = dead.iter().filter(|&&d| d).count();
    }

    /// Whether no bank has been quarantined (remap is the identity).
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.dead_count == 0
    }

    /// Number of quarantined banks across the whole cluster.
    pub fn quarantined_banks(&self) -> usize {
        self.dead_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_map() -> AddressMap {
        // 4 tiles × 4 banks × 16 rows = 1 KiB.
        AddressMap::new(4, 4, 16).unwrap()
    }

    #[test]
    fn decode_encode_round_trip() {
        let map = small_map();
        for addr in 0..map.size_bytes() as u32 {
            let at = map.decode(addr).unwrap();
            assert_eq!(map.encode(at), addr);
        }
    }

    #[test]
    fn decode_out_of_range() {
        let map = small_map();
        assert!(map.decode(map.size_bytes() as u32).is_none());
    }

    #[test]
    fn interleaving_crosses_banks_then_tiles() {
        let map = small_map();
        let a0 = map.decode(0).unwrap();
        let a4 = map.decode(4).unwrap();
        let a16 = map.decode(16).unwrap();
        assert_eq!((a0.tile, a0.bank), (0, 0));
        assert_eq!((a4.tile, a4.bank), (0, 1));
        assert_eq!((a16.tile, a16.bank), (1, 0));
    }

    #[test]
    fn geometry_validation() {
        assert!(AddressMap::new(3, 4, 16).is_err());
        assert!(AddressMap::new(4, 5, 16).is_err());
        assert!(AddressMap::new(4, 4, 0).is_err());
        assert!(AddressMap::new(0, 4, 16).is_err());
    }

    #[test]
    fn scrambler_sequential_region_stays_on_tile() {
        let map = small_map();
        // 64 bytes per tile = 4 rows across 4 banks.
        let scr = Scrambler::new(map, 64).unwrap();
        for tile in 0..4u32 {
            for offset in (0..64).step_by(4) {
                let vaddr = scr.seq_base(tile) + offset;
                let at = map.decode(scr.scramble(vaddr)).unwrap();
                assert_eq!(at.tile, tile, "vaddr {vaddr:#x}");
            }
        }
    }

    #[test]
    fn scrambler_spreads_within_tile_banks() {
        // Consecutive words in the sequential region still interleave across
        // the tile's banks (byte/bank offsets untouched).
        let map = small_map();
        let scr = Scrambler::new(map, 64).unwrap();
        let banks: Vec<u32> = (0..16u32)
            .map(|i| map.decode(scr.scramble(i * 4)).unwrap().bank)
            .collect();
        assert_eq!(&banks[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn scrambler_is_bijective_on_region() {
        let map = small_map();
        let scr = Scrambler::new(map, 64).unwrap();
        let region = scr.seq_region_bytes() as u32;
        let mut seen = vec![false; region as usize];
        for addr in 0..region {
            let phys = scr.scramble(addr);
            assert!(phys < region, "scramble leaves the region");
            assert!(!seen[phys as usize], "collision at {phys:#x}");
            seen[phys as usize] = true;
            assert_eq!(scr.unscramble(phys), addr);
        }
    }

    #[test]
    fn scrambler_identity_outside_region() {
        let map = small_map();
        let scr = Scrambler::new(map, 64).unwrap();
        for addr in (scr.seq_region_bytes() as u32)..(map.size_bytes() as u32) {
            assert_eq!(scr.scramble(addr), addr);
            assert_eq!(scr.unscramble(addr), addr);
        }
    }

    #[test]
    fn scrambler_size_validation() {
        let map = small_map();
        assert!(Scrambler::new(map, 48).is_none()); // not a power of two
        assert!(Scrambler::new(map, 8).is_none()); // smaller than one row
        assert!(Scrambler::new(map, 512).is_none()); // exceeds tile SPM (256 B)
        assert!(Scrambler::new(map, 256).is_some()); // exactly the tile SPM
    }

    #[test]
    fn quarantine_starts_as_identity() {
        let map = small_map();
        let q = QuarantineMap::new(map);
        assert!(q.is_identity());
        assert_eq!(q.quarantined_banks(), 0);
        for addr in (0..map.size_bytes() as u32).step_by(4) {
            let at = map.decode(addr).unwrap();
            assert_eq!(q.remap(at), at);
        }
    }

    #[test]
    fn quarantine_redirects_within_tile() {
        let map = small_map();
        let mut q = QuarantineMap::new(map);
        assert_eq!(q.quarantine(1, 2), Some(3));
        assert!(q.is_quarantined(1, 2));
        assert!(!q.is_identity());
        let at = BankAddress {
            tile: 1,
            bank: 2,
            row: 5,
            byte: 0,
        };
        let got = q.remap(at);
        assert_eq!((got.tile, got.bank, got.row), (1, 3, 5));
        // Other tiles are untouched.
        let other = BankAddress {
            tile: 2,
            bank: 2,
            row: 5,
            byte: 0,
        };
        assert_eq!(q.remap(other), other);
    }

    #[test]
    fn quarantine_chain_compresses() {
        let map = small_map();
        let mut q = QuarantineMap::new(map);
        // Bank 1 dies -> bank 2; then bank 2 dies -> bank 3. Bank 1's
        // traffic must follow to bank 3, not the dead bank 2.
        assert_eq!(q.quarantine(0, 1), Some(2));
        assert_eq!(q.quarantine(0, 2), Some(3));
        let at = BankAddress {
            tile: 0,
            bank: 1,
            row: 0,
            byte: 0,
        };
        assert_eq!(q.remap(at).bank, 3);
        // Remapped target is always live.
        for bank in 0..4 {
            let at = BankAddress {
                tile: 0,
                bank,
                row: 0,
                byte: 0,
            };
            assert!(!q.is_quarantined(0, q.remap(at).bank));
        }
    }

    #[test]
    fn quarantine_wraps_and_refuses_last_bank() {
        let map = small_map();
        let mut q = QuarantineMap::new(map);
        assert_eq!(q.quarantine(3, 3), Some(0)); // wraps around
        assert_eq!(q.quarantine(3, 3), None); // already dead
        assert_eq!(q.quarantine(3, 1), Some(2));
        assert_eq!(q.quarantine(3, 2), Some(0));
        // Bank 0 is the last live bank of tile 3: refuse.
        assert_eq!(q.quarantine(3, 0), None);
        assert!(!q.is_quarantined(3, 0));
        assert_eq!(q.quarantined_banks(), 3);
    }

    #[test]
    fn cached_dead_count_matches_full_scan() {
        use mempool_rng::{Rng, SeedableRng, StdRng};
        let map = AddressMap::new(8, 4, 16).unwrap();
        let scan = |q: &QuarantineMap| q.dead_flags().iter().filter(|&&d| d).count();
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x0dea_d000 ^ case);
            let mut q = QuarantineMap::new(map);
            for _ in 0..rng.gen_range(0usize..48) {
                // Repeats and last-live-bank refusals must not be counted.
                q.quarantine(rng.gen_range(0u32..8), rng.gen_range(0u32..4));
                assert_eq!(q.quarantined_banks(), scan(&q), "case {case}");
                assert_eq!(q.is_identity(), scan(&q) == 0, "case {case}");
            }
            // `load` over a map holding a different count re-derives it.
            let mut other = QuarantineMap::new(map);
            other.quarantine(0, 0);
            other.load(q.subst_table(), q.dead_flags());
            assert_eq!(other, q, "case {case}");
            assert_eq!(other.quarantined_banks(), scan(&q), "case {case}");
            assert_eq!(other.is_identity(), scan(&q) == 0, "case {case}");
        }
    }

    #[test]
    fn paper_configuration() {
        // 64 tiles × 16 banks × 256 rows = 1 MiB, 1 KiB sequential regions.
        let map = AddressMap::new(64, 16, 256).unwrap();
        assert_eq!(map.size_bytes(), 1 << 20);
        let scr = Scrambler::new(map, 1024).unwrap();
        assert_eq!(scr.seq_region_bytes(), 64 * 1024);
        // Spot-check: address 1024·7 + 260 lands on tile 7.
        let at = map.decode(scr.scramble(1024 * 7 + 260)).unwrap();
        assert_eq!(at.tile, 7);
    }
}
