//! Checkpoint/restore with canonical state digests, and divergence
//! bisection.
//!
//! One byte encoding serves two purposes: serialized, it is the checkpoint
//! image a [`ClusterSnapshot`] stores; hashed, it is the canonical
//! [`state_digest`](Cluster::state_digest) that two runs can compare for
//! bit-identity. Both views stream the same encoders into a [`StateSink`],
//! so a digest always describes exactly what a snapshot would capture.
//!
//! The digest deliberately **excludes** the configuration, the program
//! image, and the fault *plan parameters* (seed, spec, and the scheduled
//! bank-failure list): those are inputs, not evolving state. Everything the
//! inputs *cause* — quarantined banks, fault logs, retry counters, locked
//! cores — is digested. This is what lets
//! [`bisect_divergence`] compare a faulted run against a clean one and
//! pinpoint the first cycle at which their architectural states part ways.

use crate::cluster::{PendingRequest, RefillPacket, RefillRing};
use crate::faults::{BankFailure, FaultEvent, FaultLog, FaultPlan, FaultSpec};
use crate::net::{Net, RegRow, Row};
use crate::tile::Tile;
use crate::{Cluster, ClusterConfig, Core, Request, Response};
use mempool_noc::{ElasticBuffer, Fabric, RoundRobin};
use mempool_riscv::{AmoOp, LoadOp, Reg, StoreOp};
use mempool_snitch::profile::{CoreProfile, PcCounters, RegionCounters, REGION_SLOTS};
use mempool_snitch::{DataRequestKind, SnitchCore};
use std::fmt;
use std::io;
use std::path::Path;

/// FNV-1a offset basis (the digest over an empty byte stream).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// What four and eight zero bytes multiply the hash by: a zero byte's step,
/// `h ← (h ^ 0) · P`, is `h ← h · P`.
const FNV_PRIME_4: u64 = FNV_PRIME.wrapping_pow(4);
const FNV_PRIME_8: u64 = FNV_PRIME.wrapping_pow(8);

/// Snapshot file magic: `"MPSN"` little-endian.
const MAGIC: u32 = 0x4d50_534e;
/// Current snapshot format version. Version 2 added the observability
/// section and the cumulative NoC/memory activity counters (elastic-buffer
/// pushes, arbiter grants, ring injections/ejections, per-bank accesses).
/// Version 3 added the program-level profiler: per-core `mregion`/
/// `halted_cycles`/profile tables in the core encoding and the cluster
/// `profile` component (power-window sampler).
pub const SNAPSHOT_VERSION: u32 = 3;
/// Fixed header length in bytes.
const HEADER_LEN: usize = 56;

/// A byte sink the canonical state encoders write into: a `Vec<u8>` when
/// serializing, an [`Fnv`] hasher when digesting.
pub trait StateSink {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    fn put_f64(&mut self, v: f64) {
        self.put(&v.to_bits().to_le_bytes());
    }

    /// Appends a run of little-endian `u32`s — the bytes of a
    /// [`put_u32`](StateSink::put_u32) per word, which is what the default
    /// does; both sinks of this crate take the run in one pass instead.
    fn put_words(&mut self, words: &[u32]) {
        for &w in words {
            self.put_u32(w);
        }
    }
}

impl StateSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_words(&mut self, words: &[u32]) {
        let start = self.len();
        self.resize(start + 4 * words.len(), 0);
        for (slot, w) in self[start..].chunks_exact_mut(4).zip(words) {
            slot.copy_from_slice(&w.to_le_bytes());
        }
    }
}

/// A streaming FNV-1a hasher usable as a [`StateSink`], so digests are
/// computed without materializing the encoded bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// FNV-1a, one byte at a time.
    fn put_each(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Most of a checkpoint is zeroed L1, and FNV-1a over a run of zero bytes
/// is one multiplication by a power of the prime: an all-zero 8-byte chunk
/// or word costs one multiply, anything else the byte loop. The hash is a
/// function of the byte stream alone, so how the stream is cut into calls
/// (and into chunks inside one) cannot show in the digest.
impl StateSink for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            if chunk == [0; 8] {
                self.0 = self.0.wrapping_mul(FNV_PRIME_8);
            } else {
                self.put_each(chunk);
            }
        }
        self.put_each(chunks.remainder());
    }

    fn put_words(&mut self, words: &[u32]) {
        for &w in words {
            if w == 0 {
                self.0 = self.0.wrapping_mul(FNV_PRIME_4);
            } else {
                self.put_each(&w.to_le_bytes());
            }
        }
    }
}

/// FNV-1a digest of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.put(bytes);
    f.finish()
}

/// Error raised when loading or restoring a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the decoder was done.
    Truncated,
    /// The leading magic number is not a snapshot's.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// A section's recomputed digest disagrees with the header.
    DigestMismatch,
    /// The snapshot was taken from a cluster with a different configuration.
    ConfigMismatch,
    /// The snapshot was taken with a different program loaded.
    ImageMismatch,
    /// A structurally invalid field (named) was encountered.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a cluster snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})")
            }
            SnapshotError::DigestMismatch => write!(f, "snapshot digest mismatch (corrupted file)"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was taken under a different cluster configuration")
            }
            SnapshotError::ImageMismatch => {
                write!(f, "snapshot was taken with a different program loaded")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A bounds-checked little-endian reader over a snapshot byte stream.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of stream.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of stream.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length 4")))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of stream.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length 8")))
    }

    /// Takes a bool (one byte; values other than 0/1 are corrupt).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`].
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool")),
        }
    }

    /// Takes an `f64` stored as its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of stream.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Fills `words` with the next little-endian `u32`s — the reverse of
    /// [`StateSink::put_words`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when fewer than `4 * words.len()` bytes
    /// remain; nothing is consumed then.
    pub fn take_words(&mut self, words: &mut [u32]) -> Result<(), SnapshotError> {
        let len = words.len().checked_mul(4).ok_or(SnapshotError::Truncated)?;
        for (w, bytes) in words.iter_mut().zip(self.take(len)?.chunks_exact(4)) {
            *w = u32::from_le_bytes(bytes.try_into().expect("length 4"));
        }
        Ok(())
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the stream is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

/// Core models that can checkpoint their architectural state into the
/// canonical byte encoding — required of a core type `C` for
/// [`Cluster::snapshot`] / [`Cluster::restore`] to be available on
/// `Cluster<C>`.
pub trait CoreState {
    /// Streams the core's complete dynamic state into `out`.
    fn encode_state(&self, out: &mut dyn StateSink);

    /// Restores the core's state from its [`encode_state`] encoding.
    ///
    /// [`encode_state`]: CoreState::encode_state
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the bytes are truncated or
    /// structurally inconsistent with this core's configuration.
    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError>;
}

// ---------------------------------------------------------------------------
// Field codecs for the ISA-level payload types.
// ---------------------------------------------------------------------------

fn put_load_op(out: &mut dyn StateSink, op: LoadOp) {
    out.put_u8(match op {
        LoadOp::Lb => 0,
        LoadOp::Lh => 1,
        LoadOp::Lw => 2,
        LoadOp::Lbu => 3,
        LoadOp::Lhu => 4,
    });
}

fn take_load_op(r: &mut ByteReader<'_>) -> Result<LoadOp, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => LoadOp::Lb,
        1 => LoadOp::Lh,
        2 => LoadOp::Lw,
        3 => LoadOp::Lbu,
        4 => LoadOp::Lhu,
        _ => return Err(SnapshotError::Corrupt("load op")),
    })
}

fn put_store_op(out: &mut dyn StateSink, op: StoreOp) {
    out.put_u8(match op {
        StoreOp::Sb => 0,
        StoreOp::Sh => 1,
        StoreOp::Sw => 2,
    });
}

fn take_store_op(r: &mut ByteReader<'_>) -> Result<StoreOp, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => StoreOp::Sb,
        1 => StoreOp::Sh,
        2 => StoreOp::Sw,
        _ => return Err(SnapshotError::Corrupt("store op")),
    })
}

fn put_amo_op(out: &mut dyn StateSink, op: AmoOp) {
    out.put_u8(match op {
        AmoOp::Swap => 0,
        AmoOp::Add => 1,
        AmoOp::Xor => 2,
        AmoOp::And => 3,
        AmoOp::Or => 4,
        AmoOp::Min => 5,
        AmoOp::Max => 6,
        AmoOp::Minu => 7,
        AmoOp::Maxu => 8,
    });
}

fn take_amo_op(r: &mut ByteReader<'_>) -> Result<AmoOp, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => AmoOp::Swap,
        1 => AmoOp::Add,
        2 => AmoOp::Xor,
        3 => AmoOp::And,
        4 => AmoOp::Or,
        5 => AmoOp::Min,
        6 => AmoOp::Max,
        7 => AmoOp::Minu,
        8 => AmoOp::Maxu,
        _ => return Err(SnapshotError::Corrupt("amo op")),
    })
}

fn put_kind(out: &mut dyn StateSink, kind: DataRequestKind) {
    match kind {
        DataRequestKind::Load(op) => {
            out.put_u8(0);
            put_load_op(out, op);
        }
        DataRequestKind::Store { op, data } => {
            out.put_u8(1);
            put_store_op(out, op);
            out.put_u32(data);
        }
        DataRequestKind::Amo { op, operand } => {
            out.put_u8(2);
            put_amo_op(out, op);
            out.put_u32(operand);
        }
        DataRequestKind::LoadReserved => out.put_u8(3),
        DataRequestKind::StoreConditional { data } => {
            out.put_u8(4);
            out.put_u32(data);
        }
    }
}

fn take_kind(r: &mut ByteReader<'_>) -> Result<DataRequestKind, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => DataRequestKind::Load(take_load_op(r)?),
        1 => DataRequestKind::Store {
            op: take_store_op(r)?,
            data: r.take_u32()?,
        },
        2 => DataRequestKind::Amo {
            op: take_amo_op(r)?,
            operand: r.take_u32()?,
        },
        3 => DataRequestKind::LoadReserved,
        4 => DataRequestKind::StoreConditional { data: r.take_u32()? },
        _ => return Err(SnapshotError::Corrupt("request kind")),
    })
}

fn put_req(out: &mut dyn StateSink, req: &Request) {
    out.put_u32(req.core);
    out.put_u8(req.tag);
    out.put_u32(req.addr);
    put_kind(out, req.kind);
    out.put_u64(req.issued_at);
}

fn take_req(r: &mut ByteReader<'_>) -> Result<Request, SnapshotError> {
    Ok(Request {
        core: r.take_u32()?,
        tag: r.take_u8()?,
        addr: r.take_u32()?,
        kind: take_kind(r)?,
        issued_at: r.take_u64()?,
    })
}

fn put_resp(out: &mut dyn StateSink, resp: &Response) {
    out.put_u32(resp.core);
    out.put_u8(resp.tag);
    out.put_u32(resp.data);
    out.put_u64(resp.issued_at);
    out.put_bool(resp.is_write);
}

fn take_resp(r: &mut ByteReader<'_>) -> Result<Response, SnapshotError> {
    Ok(Response {
        core: r.take_u32()?,
        tag: r.take_u8()?,
        data: r.take_u32()?,
        issued_at: r.take_u64()?,
        is_write: r.take_bool()?,
    })
}

fn put_opt_req(out: &mut dyn StateSink, latch: &Option<Request>) {
    match latch {
        None => out.put_bool(false),
        Some(req) => {
            out.put_bool(true);
            put_req(out, req);
        }
    }
}

fn take_opt_req(r: &mut ByteReader<'_>) -> Result<Option<Request>, SnapshotError> {
    Ok(if r.take_bool()? { Some(take_req(r)?) } else { None })
}

fn put_opt_resp(out: &mut dyn StateSink, latch: &Option<Response>) {
    match latch {
        None => out.put_bool(false),
        Some(resp) => {
            out.put_bool(true);
            put_resp(out, resp);
        }
    }
}

fn take_opt_resp(r: &mut ByteReader<'_>) -> Result<Option<Response>, SnapshotError> {
    Ok(if r.take_bool()? { Some(take_resp(r)?) } else { None })
}

// ---------------------------------------------------------------------------
// Structural codecs: elastic buffers, fabrics, arbiters.
// ---------------------------------------------------------------------------

fn save_ebuf<T>(
    out: &mut dyn StateSink,
    buf: &ElasticBuffer<T>,
    enc: impl Fn(&mut dyn StateSink, &T),
) {
    let stored: Vec<&T> = buf.iter().collect();
    out.put_u64(stored.len() as u64);
    for item in stored {
        enc(out, item);
    }
    let arrivals: Vec<&T> = buf.iter_arrivals().collect();
    out.put_u64(arrivals.len() as u64);
    for item in arrivals {
        enc(out, item);
    }
    out.put_bool(buf.is_stalled());
    out.put_u64(buf.pushes());
}

fn load_ebuf<T>(
    r: &mut ByteReader<'_>,
    buf: &mut ElasticBuffer<T>,
    dec: impl Fn(&mut ByteReader<'_>) -> Result<T, SnapshotError>,
) -> Result<(), SnapshotError> {
    let ns = r.take_u64()? as usize;
    let mut stored = Vec::new();
    for _ in 0..ns {
        stored.push(dec(r)?);
    }
    let na = r.take_u64()? as usize;
    let mut arrivals = Vec::new();
    for _ in 0..na {
        arrivals.push(dec(r)?);
    }
    let stalled = r.take_bool()?;
    let pushes = r.take_u64()?;
    if stored.len() + arrivals.len() > buf.capacity() {
        return Err(SnapshotError::Corrupt("elastic buffer occupancy"));
    }
    buf.load(stored, arrivals, stalled);
    buf.set_pushes(pushes);
    Ok(())
}

fn save_fabric(out: &mut dyn StateSink, fabric: &Fabric) {
    let pointers = fabric.arbiter_pointers();
    out.put_u64(pointers.len() as u64);
    for p in pointers {
        out.put_u64(p as u64);
    }
    for g in fabric.arbiter_grants() {
        out.put_u64(g);
    }
}

fn load_fabric(r: &mut ByteReader<'_>, fabric: &mut Fabric) -> Result<(), SnapshotError> {
    let n = r.take_u64()? as usize;
    if n != fabric.arbiter_pointers().len() {
        return Err(SnapshotError::Corrupt("fabric arbiter count"));
    }
    let mut pointers = Vec::with_capacity(n);
    for _ in 0..n {
        pointers.push(r.take_u64()? as usize);
    }
    fabric.set_arbiter_pointers(&pointers);
    let mut grants = Vec::with_capacity(n);
    for _ in 0..n {
        grants.push(r.take_u64()?);
    }
    fabric.set_arbiter_grants(&grants);
    Ok(())
}

fn save_rr_list(out: &mut dyn StateSink, rrs: &[RoundRobin]) {
    out.put_u64(rrs.len() as u64);
    for rr in rrs {
        out.put_u64(rr.pointer() as u64);
        out.put_u64(rr.grants());
    }
}

fn load_rr_list(r: &mut ByteReader<'_>, rrs: &mut [RoundRobin]) -> Result<(), SnapshotError> {
    let n = r.take_u64()? as usize;
    if n != rrs.len() {
        return Err(SnapshotError::Corrupt("round-robin arbiter count"));
    }
    for rr in rrs {
        rr.set_pointer(r.take_u64()? as usize);
        rr.set_grants(r.take_u64()?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// SnitchCore: the cycle-accurate core model is checkpointable.
// ---------------------------------------------------------------------------

impl CoreState for SnitchCore {
    fn encode_state(&self, out: &mut dyn StateSink) {
        let s = SnitchCore::save_state(self);
        out.put_u32(s.pc);
        for reg in s.regs {
            out.put_u32(reg);
        }
        out.put_u32(s.scoreboard);
        out.put_u64(s.lsu.len() as u64);
        for slot in &s.lsu {
            match slot {
                None => out.put_bool(false),
                Some(sl) => {
                    out.put_bool(true);
                    out.put_u8(sl.dest.map_or(0xff, Reg::index));
                    match sl.load {
                        None => out.put_u8(0xff),
                        Some(op) => put_load_op(out, op),
                    }
                    out.put_u32(sl.byte_offset);
                }
            }
        }
        out.put_bool(s.halted);
        out.put_bool(s.faulted);
        out.put_u32(s.exec_busy);
        out.put_bool(s.fencing);
        out.put_u32(s.mscratch);
        let st = s.stats;
        for v in [
            st.instret,
            st.cycles,
            st.loads,
            st.stores,
            st.amos,
            st.muls,
            st.divs,
            st.taken_branches,
            st.stall_scoreboard,
            st.stall_lsu_full,
            st.stall_port,
            st.stall_fetch,
            st.stall_fence,
            st.stall_exec,
            st.halted_cycles,
        ] {
            out.put_u64(v);
        }
        out.put_u32(s.region);
        match &s.profile {
            None => out.put_bool(false),
            Some(p) => {
                out.put_bool(true);
                out.put_u64(p.max_pcs() as u64);
                out.put_u64(p.tracked_pcs() as u64);
                for (region, pc, c) in p.pcs() {
                    out.put_u32(region);
                    out.put_u32(pc);
                    put_pc_counters(out, c);
                }
                put_pc_counters(out, p.overflow());
                for rc in p.regions() {
                    put_region_counters(out, rc);
                }
            }
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        let mut s = SnitchCore::save_state(self);
        s.pc = r.take_u32()?;
        for reg in &mut s.regs {
            *reg = r.take_u32()?;
        }
        s.scoreboard = r.take_u32()?;
        let depth = r.take_u64()? as usize;
        if depth != s.lsu.len() {
            return Err(SnapshotError::Corrupt("LSU depth"));
        }
        for slot in &mut s.lsu {
            *slot = if r.take_bool()? {
                let dest = match r.take_u8()? {
                    0xff => None,
                    idx => Some(Reg::new(idx).ok_or(SnapshotError::Corrupt("register index"))?),
                };
                let load = {
                    let mut probe = r.clone();
                    if probe.take_u8()? == 0xff {
                        *r = probe;
                        None
                    } else {
                        Some(take_load_op(r)?)
                    }
                };
                Some(mempool_snitch::LsuSlotState {
                    dest,
                    load,
                    byte_offset: r.take_u32()?,
                })
            } else {
                None
            };
        }
        s.halted = r.take_bool()?;
        s.faulted = r.take_bool()?;
        s.exec_busy = r.take_u32()?;
        s.fencing = r.take_bool()?;
        s.mscratch = r.take_u32()?;
        let st = &mut s.stats;
        for field in [
            &mut st.instret,
            &mut st.cycles,
            &mut st.loads,
            &mut st.stores,
            &mut st.amos,
            &mut st.muls,
            &mut st.divs,
            &mut st.taken_branches,
            &mut st.stall_scoreboard,
            &mut st.stall_lsu_full,
            &mut st.stall_port,
            &mut st.stall_fetch,
            &mut st.stall_fence,
            &mut st.stall_exec,
            &mut st.halted_cycles,
        ] {
            *field = r.take_u64()?;
        }
        s.region = r.take_u32()?;
        s.profile = if r.take_bool()? {
            let max_pcs = r.take_u64()? as usize;
            let n = r.take_u64()? as usize;
            if n > max_pcs.max(1) {
                return Err(SnapshotError::Corrupt("profile entry count"));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let region = r.take_u32()?;
                let pc = r.take_u32()?;
                entries.push((region, pc, take_pc_counters(r)?));
            }
            let overflow = take_pc_counters(r)?;
            let mut regions = [RegionCounters::default(); REGION_SLOTS];
            for rc in &mut regions {
                *rc = take_region_counters(r)?;
            }
            Some(CoreProfile::from_parts(max_pcs, entries, overflow, regions))
        } else {
            None
        };
        self.restore_state(&s);
        Ok(())
    }
}

fn put_pc_counters(out: &mut dyn StateSink, c: &PcCounters) {
    out.put_u64(c.retired);
    for &v in &c.stalls {
        out.put_u64(v);
    }
}

fn take_pc_counters(r: &mut ByteReader<'_>) -> Result<PcCounters, SnapshotError> {
    let mut c = PcCounters {
        retired: r.take_u64()?,
        ..PcCounters::default()
    };
    for v in &mut c.stalls {
        *v = r.take_u64()?;
    }
    Ok(c)
}

fn put_region_counters(out: &mut dyn StateSink, c: &RegionCounters) {
    out.put_u64(c.retired);
    for &v in &c.stalls {
        out.put_u64(v);
    }
}

fn take_region_counters(r: &mut ByteReader<'_>) -> Result<RegionCounters, SnapshotError> {
    let mut c = RegionCounters {
        retired: r.take_u64()?,
        ..RegionCounters::default()
    };
    for v in &mut c.stalls {
        *v = r.take_u64()?;
    }
    Ok(c)
}

fn put_tile_activity(out: &mut dyn StateSink, a: &crate::TileActivity) {
    for v in [
        a.instret,
        a.muls,
        a.divs,
        a.memory_ops,
        a.icache_fetches,
        a.icache_refills,
        a.bank_accesses,
    ] {
        out.put_u64(v);
    }
}

fn take_tile_activity(r: &mut ByteReader<'_>) -> Result<crate::TileActivity, SnapshotError> {
    let mut a = crate::TileActivity::default();
    for field in [
        &mut a.instret,
        &mut a.muls,
        &mut a.divs,
        &mut a.memory_ops,
        &mut a.icache_fetches,
        &mut a.icache_refills,
        &mut a.bank_accesses,
    ] {
        *field = r.take_u64()?;
    }
    Ok(a)
}

// ---------------------------------------------------------------------------
// The snapshot container.
// ---------------------------------------------------------------------------

/// A complete, versioned checkpoint of a [`Cluster`]'s architectural and
/// micro-architectural state.
///
/// Layout: a 56-byte header (magic, version, configuration digest, program
/// digest, state digest, cycle, input-section digest, input-section length),
/// an *input* section (fault-plan parameters and the scheduled bank-failure
/// list — snapshotted but excluded from the state digest), and the *state*
/// section covering every core, bank, pipeline register, arbiter pointer,
/// retry-layer entry, and statistics counter. The state digest in the
/// header is the FNV-1a hash of the state section, identical to what
/// [`Cluster::state_digest`] reports on the captured cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSnapshot {
    bytes: Vec<u8>,
}

impl ClusterSnapshot {
    fn u32_at(&self, offset: usize) -> u32 {
        u32::from_le_bytes(self.bytes[offset..offset + 4].try_into().expect("in header"))
    }

    fn u64_at(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.bytes[offset..offset + 8].try_into().expect("in header"))
    }

    /// The snapshot format version.
    pub fn version(&self) -> u32 {
        self.u32_at(4)
    }

    /// Digest of the cluster configuration the snapshot was taken under.
    pub fn config_digest(&self) -> u64 {
        self.u64_at(8)
    }

    /// Digest of the loaded program image.
    pub fn image_digest(&self) -> u64 {
        self.u64_at(16)
    }

    /// The canonical state digest at capture time.
    pub fn state_digest(&self) -> u64 {
        self.u64_at(24)
    }

    /// The cycle count at capture time.
    pub fn cycle(&self) -> u64 {
        self.u64_at(32)
    }

    fn section_a(&self) -> &[u8] {
        let len_a = self.u64_at(48) as usize;
        &self.bytes[HEADER_LEN..HEADER_LEN + len_a]
    }

    fn section_b(&self) -> &[u8] {
        let len_a = self.u64_at(48) as usize;
        &self.bytes[HEADER_LEN + len_a..]
    }

    /// The raw serialized image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Parses and validates a serialized snapshot: magic, version, and both
    /// section digests must check out. Copies `bytes`; a caller that owns
    /// them hands them to [`from_vec`](ClusterSnapshot::from_vec).
    ///
    /// # Errors
    ///
    /// As [`from_vec`](ClusterSnapshot::from_vec).
    pub fn from_bytes(bytes: &[u8]) -> Result<ClusterSnapshot, SnapshotError> {
        ClusterSnapshot::from_vec(bytes.to_vec())
    }

    /// Validates a serialized snapshot in place and takes it over, so that
    /// a checkpoint read from disk is held once.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::Truncated`], or [`SnapshotError::DigestMismatch`].
    pub fn from_vec(bytes: Vec<u8>) -> Result<ClusterSnapshot, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let snap = ClusterSnapshot { bytes };
        if snap.u32_at(0) != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if snap.version() != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snap.version()));
        }
        if snap.u64_at(48) > (snap.bytes.len() - HEADER_LEN) as u64 {
            return Err(SnapshotError::Truncated);
        }
        if fnv64(snap.section_a()) != snap.u64_at(40) {
            return Err(SnapshotError::DigestMismatch);
        }
        if fnv64(snap.section_b()) != snap.state_digest() {
            return Err(SnapshotError::DigestMismatch);
        }
        Ok(snap)
    }

    /// Writes the snapshot to `path` atomically ([`crate::log::replace`]),
    /// so a crash mid-write never leaves a truncated checkpoint behind.
    ///
    /// # Errors
    ///
    /// Any underlying I/O error.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        crate::log::replace(path, |out| out.write_all(&self.bytes))
    }

    /// Reads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`SnapshotError`]s mapped to
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_file(path: &Path) -> io::Result<ClusterSnapshot> {
        ClusterSnapshot::from_vec(std::fs::read(path)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Digest identifying a [`ClusterConfig`] (formatting-based: two configs
/// digest equal iff they compare equal field-for-field).
pub(crate) fn config_digest(config: &ClusterConfig) -> u64 {
    fnv64(format!("{config:?}").as_bytes())
}

// ---------------------------------------------------------------------------
// Cluster encode/decode.
// ---------------------------------------------------------------------------

fn save_tile(out: &mut dyn StateSink, tile: &Tile) {
    for bank in &tile.banks {
        let words = bank.words();
        out.put_u64(words.len() as u64);
        out.put_words(words);
        let reservations = bank.reservations();
        out.put_u64(reservations.len() as u64);
        for &(hart, row) in reservations {
            out.put_u32(hart);
            out.put_u32(row);
        }
        out.put_u64(bank.accesses());
    }
    for reg in tile.bank_resp.regs() {
        save_ebuf(out, reg, |o, resp| put_resp(o, resp));
    }
    save_fabric(out, &tile.req_fabric);
    save_fabric(out, &tile.resp_fabric);
    out.put_u64(tile.slave_req.len() as u64);
    for latch in &tile.slave_req {
        put_opt_req(out, latch);
    }
    for latch in &tile.resp_out {
        put_opt_resp(out, latch);
    }
    out.put_u64(tile.icache.tick());
    let cs = tile.icache.stats();
    out.put_u64(cs.hits);
    out.put_u64(cs.misses);
    let ways: Vec<(u32, bool, u64)> = tile.icache.ways().collect();
    out.put_u64(ways.len() as u64);
    for (tag, valid, lru) in ways {
        out.put_u32(tag);
        out.put_bool(valid);
        out.put_u64(lru);
    }
    out.put_u64(tile.refill.pending.len() as u64);
    for &line in &tile.refill.pending {
        out.put_u32(line);
    }
    out.put_u64(tile.refill.outbox.len() as u64);
    for &line in &tile.refill.outbox {
        out.put_u32(line);
    }
    match tile.refill.in_flight {
        None => out.put_bool(false),
        Some((line, done_at)) => {
            out.put_bool(true);
            out.put_u32(line);
            out.put_u64(done_at);
        }
    }
    out.put_u64(tile.refill.refills);
}

fn load_tile(r: &mut ByteReader<'_>, tile: &mut Tile) -> Result<(), SnapshotError> {
    let mut words = Vec::new();
    for bank in &mut tile.banks {
        let n = r.take_u64()? as usize;
        if n != bank.words().len() {
            return Err(SnapshotError::Corrupt("bank row count"));
        }
        words.resize(n, 0);
        r.take_words(&mut words)?;
        let nr = r.take_u64()? as usize;
        let mut reservations = Vec::with_capacity(nr);
        for _ in 0..nr {
            reservations.push((r.take_u32()?, r.take_u32()?));
        }
        bank.load(&words, &reservations);
        bank.set_accesses(r.take_u64()?);
    }
    load_row(r, &mut tile.bank_resp, take_resp)?;
    load_fabric(r, &mut tile.req_fabric)?;
    load_fabric(r, &mut tile.resp_fabric)?;
    let ports = r.take_u64()? as usize;
    if ports != tile.slave_req.len() {
        return Err(SnapshotError::Corrupt("remote port count"));
    }
    for latch in &mut tile.slave_req {
        *latch = take_opt_req(r)?;
    }
    for latch in &mut tile.resp_out {
        *latch = take_opt_resp(r)?;
    }
    let tick = r.take_u64()?;
    let cache_stats = mempool_mem::CacheStats {
        hits: r.take_u64()?,
        misses: r.take_u64()?,
    };
    let nways = r.take_u64()? as usize;
    if nways != tile.icache.ways().count() {
        return Err(SnapshotError::Corrupt("icache way count"));
    }
    let mut ways = Vec::with_capacity(nways);
    for _ in 0..nways {
        ways.push((r.take_u32()?, r.take_bool()?, r.take_u64()?));
    }
    tile.icache.load(ways, tick, cache_stats);
    let np = r.take_u64()? as usize;
    tile.refill.pending.clear();
    for _ in 0..np {
        tile.refill.pending.push(r.take_u32()?);
    }
    let no = r.take_u64()? as usize;
    tile.refill.outbox.clear();
    for _ in 0..no {
        tile.refill.outbox.push_back(r.take_u32()?);
    }
    tile.refill.in_flight = if r.take_bool()? {
        Some((r.take_u32()?, r.take_u64()?))
    } else {
        None
    };
    tile.refill.refills = r.take_u64()?;
    Ok(())
}

/// Restores one register row and re-derives its occupancy bookkeeping.
fn load_row<T>(
    r: &mut ByteReader<'_>,
    row: &mut RegRow<T>,
    dec: impl Fn(&mut ByteReader<'_>) -> Result<T, SnapshotError>,
) -> Result<(), SnapshotError> {
    for reg in row.regs_mut() {
        load_ebuf(r, reg, &dec)?;
    }
    row.resync();
    Ok(())
}

/// Arbiters ahead of the register rows, the remaining fabrics behind them;
/// the rows themselves in link-id order.
fn save_net(out: &mut dyn StateSink, net: &Net) {
    match net {
        Net::Ideal(n) => save_rr_list(out, &n.rr),
        Net::Global(n) => save_rr_list(out, &n.rr_concentrator),
        Net::Hier(n) => n.port_router.iter().for_each(|fabric| save_fabric(out, fabric)),
    }
    net.for_each_row(&mut |row| match row {
        Row::Req(row) => {
            row.regs().iter().for_each(|reg| save_ebuf(out, reg, |o, req| put_req(o, req)));
        }
        Row::Resp(row) => {
            row.regs().iter().for_each(|reg| save_ebuf(out, reg, |o, resp| put_resp(o, resp)));
        }
    });
    match net {
        Net::Ideal(_) => {}
        Net::Global(n) => {
            for fabric in n.req_a.iter().chain(&n.req_b).chain(&n.resp_a).chain(&n.resp_b) {
                save_fabric(out, fabric);
            }
        }
        Net::Hier(n) => {
            let fabrics = n.local_req.iter().chain(&n.local_resp);
            for fabric in fabrics.chain(&n.inter_req).chain(&n.inter_resp) {
                save_fabric(out, fabric);
            }
        }
    }
}

fn load_net(r: &mut ByteReader<'_>, net: &mut Net) -> Result<(), SnapshotError> {
    match net {
        Net::Ideal(n) => load_rr_list(r, &mut n.rr)?,
        Net::Global(n) => load_rr_list(r, &mut n.rr_concentrator)?,
        Net::Hier(n) => n.port_router.iter_mut().try_for_each(|fabric| load_fabric(r, fabric))?,
    }
    let mut loaded = Ok(());
    net.for_each_row_mut(&mut |row| {
        if loaded.is_ok() {
            loaded = match row {
                Row::Req(row) => load_row(r, row, take_req),
                Row::Resp(row) => load_row(r, row, take_resp),
            };
        }
    });
    loaded?;
    match net {
        Net::Ideal(_) => Ok(()),
        Net::Global(n) => {
            let fabrics = n.req_a.iter_mut().chain(&mut n.req_b);
            let mut fabrics = fabrics.chain(&mut n.resp_a).chain(&mut n.resp_b);
            fabrics.try_for_each(|fabric| load_fabric(r, fabric))
        }
        Net::Hier(n) => {
            let fabrics = n.local_req.iter_mut().chain(&mut n.local_resp);
            let mut fabrics = fabrics.chain(&mut n.inter_req).chain(&mut n.inter_resp);
            fabrics.try_for_each(|fabric| load_fabric(r, fabric))
        }
    }
}

fn save_ring(out: &mut dyn StateSink, ring: &RefillRing) {
    for slot in ring.ring.slots() {
        match slot {
            None => out.put_bool(false),
            Some((dest, pkt)) => {
                out.put_bool(true);
                out.put_u64(dest as u64);
                out.put_u64(pkt.tile as u64);
                out.put_u32(pkt.line);
            }
        }
    }
    for stop in 0..ring.ring.stops() {
        let queued: Vec<&RefillPacket> = ring.ring.output(stop).collect();
        out.put_u64(queued.len() as u64);
        for pkt in queued {
            out.put_u64(pkt.tile as u64);
            out.put_u32(pkt.line);
        }
    }
    out.put_u64(ring.serving.len() as u64);
    for &(ready, tile, line) in &ring.serving {
        out.put_u64(ready);
        out.put_u64(tile as u64);
        out.put_u32(line);
    }
    out.put_u64(ring.ring.injected());
    out.put_u64(ring.ring.ejected());
}

fn load_ring(r: &mut ByteReader<'_>, ring: &mut RefillRing) -> Result<(), SnapshotError> {
    let stops = ring.ring.stops();
    let mut slots = Vec::with_capacity(stops);
    for _ in 0..stops {
        slots.push(if r.take_bool()? {
            let dest = r.take_u64()? as usize;
            if dest >= stops {
                return Err(SnapshotError::Corrupt("ring destination"));
            }
            let tile = r.take_u64()? as usize;
            let line = r.take_u32()?;
            Some((dest, RefillPacket { tile, line }))
        } else {
            None
        });
    }
    let mut outputs = Vec::with_capacity(stops);
    for _ in 0..stops {
        let n = r.take_u64()? as usize;
        let mut queue = Vec::with_capacity(n);
        for _ in 0..n {
            let tile = r.take_u64()? as usize;
            let line = r.take_u32()?;
            queue.push(RefillPacket { tile, line });
        }
        outputs.push(queue);
    }
    ring.ring.load(slots, outputs);
    let ns = r.take_u64()? as usize;
    ring.serving.clear();
    for _ in 0..ns {
        let ready = r.take_u64()?;
        let tile = r.take_u64()? as usize;
        let line = r.take_u32()?;
        ring.serving.push_back((ready, tile, line));
    }
    let injected = r.take_u64()?;
    let ejected = r.take_u64()?;
    ring.ring.set_counters(injected, ejected);
    Ok(())
}

fn put_fault_event(out: &mut dyn StateSink, event: &FaultEvent) {
    match *event {
        FaultEvent::BankFailed {
            cycle,
            tile,
            bank,
            substitute,
        } => {
            out.put_u8(0);
            out.put_u64(cycle);
            out.put_u32(tile);
            out.put_u32(bank);
            match substitute {
                None => out.put_bool(false),
                Some(s) => {
                    out.put_bool(true);
                    out.put_u32(s);
                }
            }
        }
        FaultEvent::RequestAbandoned {
            cycle,
            core,
            addr,
            retries,
        } => {
            out.put_u8(1);
            out.put_u64(cycle);
            out.put_u32(core);
            out.put_u32(addr);
            out.put_u32(retries);
        }
        FaultEvent::CoreLocked { cycle, core, until } => {
            out.put_u8(2);
            out.put_u64(cycle);
            out.put_u32(core);
            out.put_u64(until);
        }
    }
}

fn take_fault_event(r: &mut ByteReader<'_>) -> Result<FaultEvent, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => FaultEvent::BankFailed {
            cycle: r.take_u64()?,
            tile: r.take_u32()?,
            bank: r.take_u32()?,
            substitute: if r.take_bool()? { Some(r.take_u32()?) } else { None },
        },
        1 => FaultEvent::RequestAbandoned {
            cycle: r.take_u64()?,
            core: r.take_u32()?,
            addr: r.take_u32()?,
            retries: r.take_u32()?,
        },
        2 => FaultEvent::CoreLocked {
            cycle: r.take_u64()?,
            core: r.take_u32()?,
            until: r.take_u64()?,
        },
        _ => return Err(SnapshotError::Corrupt("fault event kind")),
    })
}

impl<C: CoreState> Cluster<C> {
    fn encode_globals(&self, out: &mut dyn StateSink) {
        out.put_u64(self.now);
        out.put_u64(self.in_flight);
        out.put_u64(self.next_failure as u64);
        out.put_u64(self.last_progress);
        out.put_u64(self.progress_mark);
    }

    fn encode_core(&self, i: usize, out: &mut dyn StateSink) {
        self.cores[i].encode_state(out);
        put_opt_req(out, &self.out_latches[i]);
        out.put_u64(self.locked_until[i]);
    }

    fn encode_pending(&self, out: &mut dyn StateSink) {
        out.put_u64(self.pending.len() as u64);
        for (&(core, tag), p) in &self.pending {
            out.put_u32(core);
            out.put_u8(tag);
            out.put_u32(p.addr);
            put_kind(out, p.kind);
            out.put_u64(p.issued_at);
            out.put_u64(p.last_sent);
            out.put_u32(p.retries);
        }
    }

    fn encode_quarantine(&self, out: &mut dyn StateSink) {
        let subst = self.quarantine.subst_table();
        out.put_u64(subst.len() as u64);
        for &s in subst {
            out.put_u32(s);
        }
        for &d in self.quarantine.dead_flags() {
            out.put_bool(d);
        }
    }

    fn encode_fault_log(&self, out: &mut dyn StateSink) {
        out.put_u64(self.fault_log.capacity() as u64);
        out.put_u64(self.fault_log.dropped());
        out.put_u64(self.fault_log.len() as u64);
        for event in self.fault_log.events() {
            put_fault_event(out, event);
        }
    }

    fn encode_stats(&self, out: &mut dyn StateSink) {
        let s = &self.stats;
        out.put_u64(s.cycles);
        out.put_u64(s.requests_issued);
        out.put_u64(s.bank_accesses);
        out.put_u64(s.responses_delivered);
        out.put_u64(s.local_requests);
        out.put_u64(s.remote_requests);
        out.put_u64(s.group_local_requests);
        for &d in &s.direction_requests {
            out.put_u64(d);
        }
        s.latency.save_state(out);
        out.put_u64(s.icache_refills);
        out.put_u64(s.memory_faults);
        out.put_u64(s.net_occupancy_sum);
        out.put_u64(s.net_register_slots);
        out.put_u64(s.tile_accesses.len() as u64);
        for &t in &s.tile_accesses {
            out.put_u64(t);
        }
        let f = &s.faults;
        for v in [
            f.bank_stalls,
            f.banks_failed,
            f.banks_quarantined,
            f.quarantine_remaps,
            f.requests_dropped,
            f.link_stalls,
            f.link_drops,
            f.link_corruptions,
            f.ring_stalls,
            f.ring_drops,
            f.core_lockups,
            f.spurious_retires,
            f.request_timeouts,
            f.request_retries,
            f.requests_abandoned,
            f.stale_responses,
        ] {
            out.put_u64(v);
        }
    }

    fn encode_obs(&self, out: &mut dyn StateSink) {
        match &self.obs {
            None => out.put_bool(false),
            Some(obs) => {
                out.put_bool(true);
                out.put_u64(obs.config.trace_sample_every);
                out.put_u64(obs.config.trace_capacity as u64);
                for h in &obs.tile_latency {
                    h.save_state(out);
                }
                out.put_u64(obs.spans.len() as u64);
                for s in &obs.spans {
                    out.put_u32(s.core);
                    out.put_u32(s.tile);
                    out.put_u64(s.issued_at);
                    out.put_u64(s.latency);
                }
                out.put_u64(obs.deliveries_seen);
                out.put_u64(obs.dropped_spans);
            }
        }
    }

    fn encode_profile(&self, out: &mut dyn StateSink) {
        match &self.profiler {
            None => out.put_bool(false),
            Some(p) => {
                out.put_bool(true);
                out.put_u64(p.config.max_pcs as u64);
                out.put_u64(p.config.power_window);
                out.put_u64(p.window_start);
                for t in &p.mark.tiles {
                    put_tile_activity(out, t);
                }
                out.put_u64(p.mark.local_requests);
                out.put_u64(p.mark.remote_requests);
                out.put_u64(p.windows.len() as u64);
                for w in &p.windows {
                    out.put_u64(w.start);
                    out.put_u64(w.end);
                    for t in &w.tiles {
                        put_tile_activity(out, t);
                    }
                    out.put_u64(w.local_requests);
                    out.put_u64(w.remote_requests);
                }
            }
        }
    }

    /// Streams the digested state section: every component in canonical
    /// order.
    fn encode_section_b(&self, out: &mut dyn StateSink) {
        self.encode_globals(out);
        for i in 0..self.cores.len() {
            self.encode_core(i, out);
        }
        self.encode_pending(out);
        for tile in &self.tiles {
            save_tile(out, tile);
        }
        save_net(out, &self.net);
        match &self.refill_ring {
            None => out.put_bool(false),
            Some(ring) => {
                out.put_bool(true);
                save_ring(out, ring);
            }
        }
        self.encode_quarantine(out);
        self.encode_fault_log(out);
        self.encode_stats(out);
        self.encode_obs(out);
        self.encode_profile(out);
    }

    /// Streams the input section: fault-plan parameters and the scheduled
    /// bank-failure list (snapshotted for resumption, excluded from the
    /// state digest).
    fn encode_section_a(&self, out: &mut dyn StateSink) {
        match &self.faults {
            None => out.put_bool(false),
            Some(plan) => {
                out.put_bool(true);
                out.put_u64(plan.seed());
                let spec = plan.spec();
                out.put_u32(spec.bank_fail);
                for p in [
                    spec.bank_stall,
                    spec.link_stall,
                    spec.link_drop,
                    spec.link_corrupt,
                    spec.ring_stall,
                    spec.ring_drop,
                    spec.core_lockup,
                    spec.spurious_retire,
                ] {
                    out.put_f64(p);
                }
            }
        }
        out.put_u64(self.pending_failures.len() as u64);
        for f in &self.pending_failures {
            out.put_u64(f.cycle);
            out.put_u32(f.tile);
            out.put_u32(f.bank);
        }
    }

    /// The canonical FNV-1a digest over the cluster's complete dynamic
    /// state: cores (registers, PCs, LSU queues), SPM banks, I-caches,
    /// every interconnect register stage and arbiter pointer, the retry
    /// layer, quarantine, fault log, and statistics.
    ///
    /// Two runs of the same program under the same seeds produce identical
    /// digests at every cycle; the fault-plan *parameters* are excluded so
    /// a faulted and a fault-free run compare meaningfully until the first
    /// injected fault takes effect (see [`bisect_divergence`]).
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.encode_section_b(&mut h);
        h.finish()
    }

    /// Per-component digests in canonical order — the per-tile /
    /// per-structure view a [`DivergenceReport`] diffs.
    pub fn component_digests(&self) -> Vec<(String, u64)> {
        let digest_of = |enc: &dyn Fn(&mut dyn StateSink)| {
            let mut h = Fnv::new();
            enc(&mut h);
            h.finish()
        };
        let mut components = Vec::with_capacity(self.cores.len() + self.tiles.len() + 6);
        components.push(("globals".to_owned(), digest_of(&|out| self.encode_globals(out))));
        for i in 0..self.cores.len() {
            components.push((format!("core{i}"), digest_of(&|out| self.encode_core(i, out))));
        }
        components.push(("pending".to_owned(), digest_of(&|out| self.encode_pending(out))));
        for (t, tile) in self.tiles.iter().enumerate() {
            components.push((format!("tile{t}"), digest_of(&|out| save_tile(out, tile))));
        }
        components.push(("net".to_owned(), digest_of(&|out| save_net(out, &self.net))));
        if let Some(ring) = &self.refill_ring {
            components.push(("refill-ring".to_owned(), digest_of(&|out| save_ring(out, ring))));
        }
        components.push((
            "quarantine".to_owned(),
            digest_of(&|out| self.encode_quarantine(out)),
        ));
        components.push((
            "fault-log".to_owned(),
            digest_of(&|out| self.encode_fault_log(out)),
        ));
        components.push(("stats".to_owned(), digest_of(&|out| self.encode_stats(out))));
        components.push(("obs".to_owned(), digest_of(&|out| self.encode_obs(out))));
        components.push((
            "profile".to_owned(),
            digest_of(&|out| self.encode_profile(out)),
        ));
        components
    }

    /// Captures a complete checkpoint of the cluster.
    ///
    /// The invariant the snapshot tests pin down: restoring this snapshot
    /// into a same-configured cluster (same program loaded) and continuing
    /// is cycle-for-cycle bit-identical to never having snapshotted.
    pub fn snapshot(&self) -> ClusterSnapshot {
        // One buffer: room for the header, then both sections encoded in
        // place, then the header filled in from what they turned out to be.
        // Sized for L1 (most of any image but a saturated backlog's) and
        // half as much again for everything else.
        let l1_bytes = 4 * self.config.num_banks() * self.config.rows_per_bank as usize;
        let mut bytes = Vec::with_capacity(HEADER_LEN + l1_bytes + l1_bytes / 2);
        bytes.resize(HEADER_LEN, 0);
        self.encode_section_a(&mut bytes);
        let len_a = bytes.len() - HEADER_LEN;
        self.encode_section_b(&mut bytes);
        let (a, b) = bytes[HEADER_LEN..].split_at(len_a);
        let fields = [
            config_digest(&self.config),
            self.image.digest(),
            fnv64(b),
            self.now,
            fnv64(a),
            len_a as u64,
        ];
        bytes[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        bytes[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        for (slot, field) in bytes[8..HEADER_LEN].chunks_exact_mut(8).zip(fields) {
            slot.copy_from_slice(&field.to_le_bytes());
        }
        ClusterSnapshot { bytes }
    }

    /// Restores the cluster to the exact state captured in `snap`.
    ///
    /// The cluster must have been built with the same configuration and
    /// have the same program loaded (both are digest-checked); everything
    /// else — cores, memory, network, fault and retry state, statistics —
    /// is overwritten.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] / [`SnapshotError::ImageMismatch`]
    /// when the snapshot belongs to a different cluster or program, and
    /// decode errors when the image is inconsistent. On error the cluster
    /// may be left partially restored; restore again (or discard it).
    pub fn restore(&mut self, snap: &ClusterSnapshot) -> Result<(), SnapshotError> {
        if snap.config_digest() != config_digest(&self.config) {
            return Err(SnapshotError::ConfigMismatch);
        }
        if snap.image_digest() != self.image.digest() {
            return Err(SnapshotError::ImageMismatch);
        }

        let mut ra = ByteReader::new(snap.section_a());
        self.faults = if ra.take_bool()? {
            let seed = ra.take_u64()?;
            let spec = FaultSpec {
                bank_fail: ra.take_u32()?,
                bank_stall: ra.take_f64()?,
                link_stall: ra.take_f64()?,
                link_drop: ra.take_f64()?,
                link_corrupt: ra.take_f64()?,
                ring_stall: ra.take_f64()?,
                ring_drop: ra.take_f64()?,
                core_lockup: ra.take_f64()?,
                spurious_retire: ra.take_f64()?,
            };
            Some(FaultPlan::new(seed, spec))
        } else {
            None
        };
        let nf = ra.take_u64()? as usize;
        self.pending_failures.clear();
        for _ in 0..nf {
            self.pending_failures.push(BankFailure {
                cycle: ra.take_u64()?,
                tile: ra.take_u32()?,
                bank: ra.take_u32()?,
            });
        }
        if !ra.is_empty() {
            return Err(SnapshotError::Corrupt("trailing input-section bytes"));
        }

        let r = &mut ByteReader::new(snap.section_b());
        self.now = r.take_u64()?;
        self.in_flight = r.take_u64()?;
        self.next_failure = r.take_u64()? as usize;
        self.last_progress = r.take_u64()?;
        self.progress_mark = r.take_u64()?;
        for i in 0..self.cores.len() {
            self.cores[i].decode_state(r)?;
            self.out_latches[i] = take_opt_req(r)?;
            self.locked_until[i] = r.take_u64()?;
        }
        let np = r.take_u64()? as usize;
        self.pending.clear();
        for _ in 0..np {
            let core = r.take_u32()?;
            let tag = r.take_u8()?;
            let p = PendingRequest {
                addr: r.take_u32()?,
                kind: take_kind(r)?,
                issued_at: r.take_u64()?,
                last_sent: r.take_u64()?,
                retries: r.take_u32()?,
            };
            self.pending.insert((core, tag), p);
        }
        for tile in &mut self.tiles {
            load_tile(r, tile)?;
        }
        // Derived bookkeeping the cycle loop keeps beside the restored state.
        self.refills_total = self.tiles.iter().map(Tile::refills).sum();
        self.retry_due = 0;
        load_net(r, &mut self.net)?;
        let has_ring = r.take_bool()?;
        match (&mut self.refill_ring, has_ring) {
            (Some(ring), true) => load_ring(r, ring)?,
            (None, false) => {}
            _ => return Err(SnapshotError::Corrupt("refill transport kind")),
        }
        {
            let ns = r.take_u64()? as usize;
            if ns != self.quarantine.subst_table().len() {
                return Err(SnapshotError::Corrupt("quarantine table size"));
            }
            let mut subst = Vec::with_capacity(ns);
            for _ in 0..ns {
                subst.push(r.take_u32()?);
            }
            let mut dead = Vec::with_capacity(ns);
            for _ in 0..ns {
                dead.push(r.take_bool()?);
            }
            self.quarantine.load(&subst, &dead);
        }
        {
            let capacity = r.take_u64()? as usize;
            let dropped = r.take_u64()?;
            let n = r.take_u64()? as usize;
            if n > capacity {
                return Err(SnapshotError::Corrupt("fault log length"));
            }
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(take_fault_event(r)?);
            }
            self.fault_log = FaultLog::from_parts(events, capacity, dropped);
        }
        {
            let s = &mut self.stats;
            s.cycles = r.take_u64()?;
            s.requests_issued = r.take_u64()?;
            s.bank_accesses = r.take_u64()?;
            s.responses_delivered = r.take_u64()?;
            s.local_requests = r.take_u64()?;
            s.remote_requests = r.take_u64()?;
            s.group_local_requests = r.take_u64()?;
            for d in &mut s.direction_requests {
                *d = r.take_u64()?;
            }
            s.latency.load_state(r)?;
            s.icache_refills = r.take_u64()?;
            s.memory_faults = r.take_u64()?;
            s.net_occupancy_sum = r.take_u64()?;
            s.net_register_slots = r.take_u64()?;
            let nt = r.take_u64()? as usize;
            if nt != s.tile_accesses.len() {
                return Err(SnapshotError::Corrupt("tile access counter count"));
            }
            for t in &mut s.tile_accesses {
                *t = r.take_u64()?;
            }
            let f = &mut s.faults;
            for field in [
                &mut f.bank_stalls,
                &mut f.banks_failed,
                &mut f.banks_quarantined,
                &mut f.quarantine_remaps,
                &mut f.requests_dropped,
                &mut f.link_stalls,
                &mut f.link_drops,
                &mut f.link_corruptions,
                &mut f.ring_stalls,
                &mut f.ring_drops,
                &mut f.core_lockups,
                &mut f.spurious_retires,
                &mut f.request_timeouts,
                &mut f.request_retries,
                &mut f.requests_abandoned,
                &mut f.stale_responses,
            ] {
                *field = r.take_u64()?;
            }
        }
        // The restore is authoritative for observability: a snapshot taken
        // without the recorder detaches any recorder on this cluster.
        self.obs = if r.take_bool()? {
            let config = crate::obs::ObsConfig {
                trace_sample_every: r.take_u64()?,
                trace_capacity: r.take_u64()? as usize,
            };
            let mut obs = crate::obs::Obs::new(config, self.config.num_tiles);
            for h in &mut obs.tile_latency {
                h.load_state(r)?;
            }
            let ns = r.take_u64()? as usize;
            for _ in 0..ns {
                obs.spans.push(crate::obs::TraceSpan {
                    core: r.take_u32()?,
                    tile: r.take_u32()?,
                    issued_at: r.take_u64()?,
                    latency: r.take_u64()?,
                });
            }
            obs.deliveries_seen = r.take_u64()?;
            obs.dropped_spans = r.take_u64()?;
            Some(Box::new(obs))
        } else {
            None
        };
        // Same authority for the profiler: the cluster half restores here,
        // the per-core tables were restored with each core above.
        self.profiler = if r.take_bool()? {
            let config = crate::ProfileConfig {
                max_pcs: r.take_u64()? as usize,
                power_window: r.take_u64()?,
            };
            let mut p = crate::profile::Profiler::new(config, self.config.num_tiles);
            p.window_start = r.take_u64()?;
            for t in &mut p.mark.tiles {
                *t = take_tile_activity(r)?;
            }
            p.mark.local_requests = r.take_u64()?;
            p.mark.remote_requests = r.take_u64()?;
            let nw = r.take_u64()? as usize;
            for _ in 0..nw {
                let start = r.take_u64()?;
                let end = r.take_u64()?;
                let mut tiles = Vec::with_capacity(self.config.num_tiles);
                for _ in 0..self.config.num_tiles {
                    tiles.push(take_tile_activity(r)?);
                }
                p.windows.push(crate::PowerWindow {
                    start,
                    end,
                    tiles,
                    local_requests: r.take_u64()?,
                    remote_requests: r.take_u64()?,
                });
            }
            Some(Box::new(p))
        } else {
            None
        };
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt("trailing state-section bytes"));
        }
        // Transient per-cycle scratch (always drained within a cycle).
        self.deliveries.clear();
        // An attached sanitizer tracked the *pre-restore* timeline; reseed it
        // from the restored pending map so it does not report the restored
        // in-flight traffic as leaks or duplicates.
        self.resync_sanitizer();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Divergence bisection.
// ---------------------------------------------------------------------------

/// One component whose digests disagree at the first divergent cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDiff {
    /// Component name (`core3`, `tile7`, `net`, `stats`, ...).
    pub component: String,
    /// Digest in the first cluster.
    pub left: u64,
    /// Digest in the second cluster.
    pub right: u64,
}

/// The result of [`bisect_divergence`]: where and in what two runs first
/// disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// First cycle at which the state digests differ.
    pub cycle: u64,
    /// The components (tiles, cores, structures) that differ at that cycle,
    /// in canonical order.
    pub components: Vec<ComponentDiff>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "first divergence at cycle {}:", self.cycle)?;
        for c in &self.components {
            write!(
                f,
                "\n  {}: {:#018x} vs {:#018x}",
                c.component, c.left, c.right
            )?;
        }
        Ok(())
    }
}

/// Binary-searches for the first cycle at which two clusters' state digests
/// diverge, advancing both in lock-step.
///
/// The clusters must share a geometry (so their component lists line up);
/// they may differ in fault plans — plan *parameters* are excluded from the
/// digest precisely so a faulted run and a clean run agree until the first
/// injected fault acts. Both clusters are left **at the divergent cycle**
/// (or `max_cycles` further along when no divergence was found, returning
/// `None`).
///
/// `stride` is the checkpoint interval of the forward scan: the search runs
/// both clusters `stride` cycles at a time, and on the first mismatching
/// window restores from the last agreeing checkpoint and bisects inside it.
pub fn bisect_divergence<C: Core + CoreState>(
    a: &mut Cluster<C>,
    b: &mut Cluster<C>,
    max_cycles: u64,
    stride: u64,
) -> Option<DivergenceReport> {
    let stride = stride.max(1);
    let diff = |a: &Cluster<C>, b: &Cluster<C>| -> Vec<ComponentDiff> {
        a.component_digests()
            .into_iter()
            .zip(b.component_digests())
            .filter(|((_, left), (_, right))| left != right)
            .map(|((component, left), (_, right))| ComponentDiff {
                component,
                left,
                right,
            })
            .collect()
    };
    if a.state_digest() != b.state_digest() {
        return Some(DivergenceReport {
            cycle: a.now(),
            components: diff(a, b),
        });
    }
    let mut remaining = max_cycles;
    while remaining > 0 {
        let chunk = stride.min(remaining);
        let snap_a = a.snapshot();
        let snap_b = b.snapshot();
        let base = a.now();
        a.step_cycles(chunk);
        b.step_cycles(chunk);
        if a.state_digest() == b.state_digest() {
            remaining -= chunk;
            continue;
        }
        // Diverged somewhere in (base, base + chunk]: bisect by restoring
        // to the last agreeing checkpoint and replaying partial windows.
        let (mut lo, mut hi) = (0u64, chunk);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            a.restore(&snap_a).expect("snapshot of this very cluster");
            b.restore(&snap_b).expect("snapshot of this very cluster");
            a.step_cycles(mid);
            b.step_cycles(mid);
            if a.state_digest() == b.state_digest() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        a.restore(&snap_a).expect("snapshot of this very cluster");
        b.restore(&snap_b).expect("snapshot of this very cluster");
        a.step_cycles(hi);
        b.step_cycles(hi);
        return Some(DivergenceReport {
            cycle: base + hi,
            components: diff(a, b),
        });
    }
    None
}

#[cfg(test)]
mod oracle;
