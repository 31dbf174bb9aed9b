//! Checkpoint/restore with canonical state digests, and divergence
//! bisection.
//!
//! One byte encoding serves two purposes: serialized, it is the checkpoint
//! image a [`ClusterSnapshot`] stores; hashed, it is the canonical
//! [`state_digest`](Cluster::state_digest) that two runs can compare for
//! bit-identity. Both views, and the restore, run the same walks: every
//! stateful type has one [`Walk`] over a two-way [`StateIo`], which saves
//! into any [`StateSink`] (a `Vec<u8>`, or an [`Fnv`] hasher) and loads from
//! a [`ByteReader`]. An encoder and its decoder are therefore one piece of
//! code and cannot disagree about a layout.
//!
//! The digest deliberately **excludes** the configuration, the program
//! image, and the fault *plan parameters* (seed, spec, and the scheduled
//! bank-failure list): those are inputs, not evolving state. Everything the
//! inputs *cause* — quarantined banks, fault logs, retry counters, locked
//! cores — is digested. This is what lets
//! [`bisect_divergence`] compare a faulted run against a clean one and
//! pinpoint the first cycle at which their architectural states part ways.

use crate::faults::{FaultPlan, FaultSpec};
use crate::obs::{Obs, ObsConfig};
use crate::profile::Profiler;
use crate::tile::Tile;
use crate::{Cluster, ClusterConfig, ProfileConfig};
use mempool_mem::{CacheStats, ICache, QuarantineMap};
use mempool_noc::{ElasticBuffer, Fabric, RoundRobin};
use mempool_riscv::{AmoOp, LoadOp, Reg, StoreOp};
use mempool_snitch::profile::{CoreProfile, PcCounters, RegionCounters};
use mempool_snitch::{CoreStats, DataRequestKind, LsuSlotState, SnitchCore, SnitchState};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::mem::discriminant;
use std::ops::Deref;
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
/// serializing, an [`Fnv`] hasher when digesting. Every sink saves a
/// [`Walk`] (it is a [`StateIo`]).
pub trait StateSink {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Appends a run of little-endian `u32`s — the bytes of a `put` per
    /// word, which is what the default does; both sinks of this crate take
    /// the run in one pass instead.
    fn put_words(&mut self, words: &[u32]) {
        for &w in words {
            self.put(&w.to_le_bytes());
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

// ---------------------------------------------------------------------------
// The two-way walk.
// ---------------------------------------------------------------------------

/// What a walk returns. Saving cannot fail; loading fails on a truncated or
/// inconsistent image.
pub type Walked = Result<(), SnapshotError>;

/// One direction of a checkpoint walk. Every [`StateSink`] saves: the walk
/// reads the state through shared references and streams its bytes out. A
/// [`ByteReader`] loads: it reads the bytes and writes the state through
/// exclusive references. A [`Walk`] is written once, generic over this
/// trait, and instantiated for both, as `Iter` and `IterMut` are.
pub trait StateIo: Sized {
    /// How a walk holds what it visits: `&'a T` saving, `&'a mut T` loading.
    type Ref<'a, T: ?Sized + 'a>;

    /// Narrows a held place to a part of it, if it has that part.
    fn try_at<'a, T: ?Sized, U: ?Sized>(
        x: &'a mut Self::Ref<'_, T>,
        get: impl FnOnce(&T) -> Option<&U>,
        get_mut: impl FnOnce(&mut T) -> Option<&mut U>,
    ) -> Option<Self::Ref<'a, U>>;

    /// Reads through a held place.
    fn view<'a, T: ?Sized>(x: &'a Self::Ref<'_, T>) -> &'a T;

    /// The place itself when loading, `None` when saving: the branch for
    /// the few fields whose save and load are not mirror images.
    fn loading<'a, T: ?Sized>(x: &'a mut Self::Ref<'_, T>) -> Option<&'a mut T>;

    /// Holds a local.
    fn local<T: ?Sized>(v: &mut T) -> Self::Ref<'_, T>;

    /// Moves `N` raw bytes between the stream and `x`.
    fn bytes<const N: usize>(&mut self, x: Place<'_, Self, [u8; N]>) -> Walked;

    /// Moves a run of little-endian words in one pass: the bulk L1 path.
    fn words(&mut self, x: Place<'_, Self, [u32]>) -> Walked;

    /// Unread bytes when loading, what bounds a count's reservation
    /// (`usize::MAX` when saving).
    fn remaining(&self) -> usize;

    /// Walks `x` by its type's [`Walk`].
    fn walk<T: Walk + ?Sized>(&mut self, x: Place<'_, Self, T>) -> Walked {
        T::walk(self, x)
    }

    /// Walks `x` if an enum value has it (see [`at!`]).
    fn maybe<T: Walk + ?Sized>(&mut self, x: Option<Place<'_, Self, T>>) -> Walked {
        x.map_or(Ok(()), |x| self.walk(x))
    }

    /// Walks every element of a slice, without a count.
    fn each<T>(
        &mut self,
        mut xs: Place<'_, Self, [T]>,
        mut walk: impl FnMut(&mut Self, Place<'_, Self, T>) -> Walked,
    ) -> Walked {
        for i in 0..xs.len() {
            walk(self, xs.at(|s| &s[i], |s| &mut s[i]))?;
        }
        Ok(())
    }

    /// The count of a fixed-shape structure: saving writes `len`, the live
    /// structure's length; loading fails with [`SnapshotError::Corrupt`]
    /// (`what`) unless the stored count is `len`, before anything it counts
    /// is read.
    fn count(&mut self, len: usize, what: &'static str) -> Walked {
        let mut n = len;
        self.walk(Place::local(&mut n))?;
        if n == len {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(what))
        }
    }

    /// A part kept behind accessors: saving walks what `get` returns;
    /// loading walks into that same value and hands it to `set`, which may
    /// reject it.
    fn via<T: ?Sized, V>(
        &mut self,
        mut x: Place<'_, Self, T>,
        get: impl FnOnce(&T) -> V,
        set: impl FnOnce(&mut T, V) -> Walked,
        walk: impl FnOnce(&mut Self, Place<'_, Self, V>) -> Walked,
    ) -> Walked {
        let mut v = get(&x);
        walk(self, Place::local(&mut v))?;
        match x.loading() {
            Some(x) => set(x, v),
            None => Ok(()),
        }
    }

    /// An optional part: a presence flag, then the part. Loading replaces
    /// the value with `new()` (or `None`) before the part is walked.
    fn opt<T>(
        &mut self,
        mut x: Place<'_, Self, Option<T>>,
        new: impl FnOnce() -> T,
        walk: impl FnOnce(&mut Self, Place<'_, Self, T>) -> Walked,
    ) -> Walked {
        let mut some = x.is_some();
        self.walk(Place::local(&mut some))?;
        if let Some(x) = x.loading() {
            *x = some.then(new);
        }
        match x.try_at(Option::as_ref, Option::as_mut) {
            Some(part) => walk(self, part),
            None => Ok(()),
        }
    }

    /// A length-prefixed sequence. Loading rebuilds it from `new()`
    /// elements. Its count is not checked against anything, so it reserves
    /// no more than the image could still fill: at most `remaining / len`
    /// further elements, `len` the bytes the first one took.
    fn seq<T>(
        &mut self,
        mut xs: Place<'_, Self, Vec<T>>,
        mut new: impl FnMut() -> T,
        mut walk: impl FnMut(&mut Self, Place<'_, Self, T>) -> Walked,
    ) -> Walked {
        let mut n = xs.len();
        self.walk(Place::local(&mut n))?;
        if let Some(xs) = xs.loading() {
            xs.clear();
        }
        let start = self.remaining();
        for i in 0..n {
            if let Some(xs) = xs.loading() {
                if i == 1 {
                    let first = (start - self.remaining()).max(1);
                    xs.reserve((n - 1).min(self.remaining() / first));
                }
                xs.push(new());
            }
            walk(self, xs.at(|s| &s[i], |s| &mut s[i]))?;
        }
        Ok(())
    }
}

/// Every sink saves.
impl<S: StateSink> StateIo for S {
    type Ref<'a, T: ?Sized + 'a> = &'a T;

    fn try_at<'a, T: ?Sized, U: ?Sized>(
        x: &'a mut &T,
        get: impl FnOnce(&T) -> Option<&U>,
        _: impl FnOnce(&mut T) -> Option<&mut U>,
    ) -> Option<&'a U> {
        get(x)
    }

    fn view<'a, T: ?Sized>(x: &'a &T) -> &'a T {
        x
    }

    fn loading<'a, T: ?Sized>(_: &'a mut &T) -> Option<&'a mut T> {
        None
    }

    fn local<T: ?Sized>(v: &mut T) -> &T {
        v
    }

    fn bytes<const N: usize>(&mut self, x: Place<'_, Self, [u8; N]>) -> Walked {
        self.put(x.held);
        Ok(())
    }

    fn words(&mut self, x: Place<'_, Self, [u32]>) -> Walked {
        self.put_words(x.held);
        Ok(())
    }

    fn remaining(&self) -> usize {
        usize::MAX
    }
}

/// The reader loads.
impl StateIo for ByteReader<'_> {
    type Ref<'a, T: ?Sized + 'a> = &'a mut T;

    fn try_at<'a, T: ?Sized, U: ?Sized>(
        x: &'a mut &mut T,
        _: impl FnOnce(&T) -> Option<&U>,
        get_mut: impl FnOnce(&mut T) -> Option<&mut U>,
    ) -> Option<&'a mut U> {
        get_mut(x)
    }

    fn view<'a, T: ?Sized>(x: &'a &mut T) -> &'a T {
        x
    }

    fn loading<'a, T: ?Sized>(x: &'a mut &mut T) -> Option<&'a mut T> {
        Some(x)
    }

    fn local<T: ?Sized>(v: &mut T) -> &mut T {
        v
    }

    fn bytes<const N: usize>(&mut self, x: Place<'_, Self, [u8; N]>) -> Walked {
        x.held.copy_from_slice(self.take(N)?);
        Ok(())
    }

    fn words(&mut self, x: Place<'_, Self, [u32]>) -> Walked {
        self.take_words(x.held)
    }

    fn remaining(&self) -> usize {
        ByteReader::remaining(self)
    }
}

/// A value as a walk holds it: borrowed when saving, borrowed mutably when
/// loading. It reads through [`Deref`] in both directions; [`at!`] narrows
/// it to a part.
pub struct Place<'a, Io: StateIo, T: ?Sized + 'a> {
    held: Io::Ref<'a, T>,
}

impl<'a, Io: StateIo, T: ?Sized> Place<'a, Io, T> {
    /// Holds a local: what a walk saves from, or loads into.
    pub fn local(v: &'a mut T) -> Self {
        Place { held: Io::local(v) }
    }

    /// The part `get`/`get_mut` select (what [`at!`] expands to).
    pub fn at<U: ?Sized>(
        &mut self,
        get: impl FnOnce(&T) -> &U,
        get_mut: impl FnOnce(&mut T) -> &mut U,
    ) -> Place<'_, Io, U> {
        let part = self.try_at(|t| Some(get(t)), |t| Some(get_mut(t)));
        part.expect("a field is always there")
    }

    /// The part `get`/`get_mut` select, if the value has it.
    pub fn try_at<U: ?Sized>(
        &mut self,
        get: impl FnOnce(&T) -> Option<&U>,
        get_mut: impl FnOnce(&mut T) -> Option<&mut U>,
    ) -> Option<Place<'_, Io, U>> {
        Io::try_at(&mut self.held, get, get_mut).map(|held| Place { held })
    }

    /// The same place, for one more walk.
    pub fn reborrow(&mut self) -> Place<'_, Io, T> {
        self.at(|t| t, |t| t)
    }

    /// The value itself when loading, `None` when saving.
    pub fn loading(&mut self) -> Option<&mut T> {
        Io::loading(&mut self.held)
    }
}

impl<Io: StateIo, T: ?Sized> Deref for Place<'_, Io, T> {
    type Target = T;

    fn deref(&self) -> &T {
        Io::view(&self.held)
    }
}

/// Narrows a [`Place`] to a field path, `at!(x.a.b[i])`, or, when an enum
/// value matches a pattern, to the one binding it names:
/// `at!(x, Some(v) => v)`.
#[macro_export]
macro_rules! at {
    ($x:ident . $($path:tt)+) => {
        $x.at(|t| &t.$($path)+, |t| &mut t.$($path)+)
    };
    ($x:ident, $pat:pat => $v:ident) => {
        $x.try_at(
            #[allow(unreachable_patterns)]
            |t| match t {
                $pat => ::core::option::Option::Some($v),
                _ => ::core::option::Option::None,
            },
            #[allow(unreachable_patterns)]
            |t| match t {
                $pat => ::core::option::Option::Some($v),
                _ => ::core::option::Option::None,
            },
        )
    };
}
pub use at;

/// A type with checkpointed state. Its one walk saves it (into any
/// [`StateSink`], so also into the digest) and loads it (from a
/// [`ByteReader`]); a [`Cluster<C>`] checkpoints when its core model `C`
/// walks.
pub trait Walk {
    /// Visits the value's complete dynamic state in canonical order.
    ///
    /// # Errors
    ///
    /// Loading returns a [`SnapshotError`] when the bytes are truncated or
    /// inconsistent with the live value's shape.
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked;
}

/// Saves `x` into `out`.
pub fn save<T: Walk + ?Sized>(out: &mut impl StateSink, x: &T) {
    saved(T::walk(out, Place { held: x }));
}

/// Loads `x` from `r`.
///
/// # Errors
///
/// As [`Walk::walk`].
pub fn load<T: Walk + ?Sized>(r: &mut ByteReader<'_>, x: &mut T) -> Walked {
    T::walk(r, Place { held: x })
}

/// The end of a save walk, which has no failure path.
fn saved(walked: Walked) {
    walked.expect("saving cannot fail");
}

// ---------------------------------------------------------------------------
// Walks of plain data.
// ---------------------------------------------------------------------------

macro_rules! walk_le {
    ($($t:ty),*) => {$(
        /// Little-endian.
        impl Walk for $t {
            fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
                let set = |v: &mut $t, b| {
                    *v = <$t>::from_le_bytes(b);
                    Ok(())
                };
                io.via(this, |v| v.to_le_bytes(), set, |io, b| io.bytes(b))
            }
        }
    )*};
}
walk_le!(u8, u32, u64);

/// As a `u64`.
impl Walk for usize {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        let set = |v: &mut usize, n: u64| {
            *v = n as usize;
            Ok(())
        };
        io.via(this, |&v| v as u64, set, u64::walk)
    }
}

/// One byte, 0 or 1.
impl Walk for bool {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        let set = |v: &mut bool, b| {
            *v = match b {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Corrupt("bool")),
            };
            Ok(())
        };
        io.via(this, |&v| u8::from(v), set, u8::walk)
    }
}

/// Its IEEE-754 bit pattern.
impl Walk for f64 {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        let set = |v: &mut f64, bits| {
            *v = f64::from_bits(bits);
            Ok(())
        };
        io.via(this, |v| v.to_bits(), set, u64::walk)
    }
}

/// Every element, without a count.
impl<T: Walk> Walk for [T] {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        io.each(this, T::walk)
    }
}

/// Every element, without a count.
impl<T: Walk, const N: usize> Walk for [T; N] {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.each(this.at(|a| &a[..], |a| &mut a[..]), T::walk)
    }
}

/// The value it holds.
impl<T: Walk + ?Sized> Walk for Box<T> {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.walk(this.at(|b| &**b, |b| &mut **b))
    }
}

/// A presence flag, then the value.
impl<T: Walk + Default> Walk for Option<T> {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        io.opt(this, T::default, T::walk)
    }
}

/// A count, then the elements.
impl<T: Walk + Default> Walk for Vec<T> {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        io.seq(this, T::default, T::walk)
    }
}

/// A count, then the elements, front first.
impl<T: Walk + Default + Copy> Walk for VecDeque<T> {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        let set = |queue: &mut Self, items: Vec<T>| {
            *queue = items.into();
            Ok(())
        };
        io.via(this, |queue| queue.iter().copied().collect(), set, Walk::walk)
    }
}

macro_rules! walk_tuple {
    ($($n:tt $t:ident),+) => {
        /// The fields in order.
        impl<$($t: Walk),+> Walk for ($($t,)+) {
            fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
                $(io.walk(at!(this.$n))?;)+
                Ok(())
            }
        }
    };
}
walk_tuple!(0 A, 1 B);
walk_tuple!(0 A, 1 B, 2 C);
walk_tuple!(0 A, 1 B, 2 C, 3 D);

/// A struct walked as its fields, in the order named.
macro_rules! walk_fields {
    ($($ty:ty { $($f:ident),+ $(,)? })+) => {$(
        impl Walk for $ty {
            fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
                $(io.walk(at!(this.$f))?;)+
                Ok(())
            }
        }
    )+};
}
pub(crate) use walk_fields;

/// An enum's variant as a one-byte tag: its index among `blanks`, one
/// value per variant. Loading resets the value to the tagged blank, whose
/// fields the caller then walks.
pub(crate) fn variant<Io: StateIo, T: Copy>(
    io: &mut Io,
    x: &mut Place<'_, Io, T>,
    blanks: &[T],
    what: &'static str,
) -> Walked {
    let live = blanks.iter().position(|b| discriminant(b) == discriminant(&**x));
    let mut tag = live.expect("every variant has a blank") as u8;
    io.walk(Place::local(&mut tag))?;
    if let Some(x) = x.loading() {
        *x = *blanks.get(usize::from(tag)).ok_or(SnapshotError::Corrupt(what))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Walks of the model's state.
// ---------------------------------------------------------------------------

const LOAD_OPS: [LoadOp; 5] = [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu];

/// The byte that stands for "none" where an index or a code would be.
const NONE: u8 = 0xff;

impl Walk for LoadOp {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        variant(io, &mut this, &LOAD_OPS, "load op")
    }
}

impl Walk for StoreOp {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        variant(io, &mut this, &[StoreOp::Sb, StoreOp::Sh, StoreOp::Sw], "store op")
    }
}

impl Walk for AmoOp {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        use AmoOp::*;
        variant(io, &mut this, &[Swap, Add, Xor, And, Or, Min, Max, Minu, Maxu], "amo op")
    }
}

/// The tag, the op of a load, store or AMO, then its data word.
impl Walk for DataRequestKind {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        use DataRequestKind::*;
        let blanks = [
            Load(LoadOp::Lb),
            Store { op: StoreOp::Sb, data: 0 },
            Amo { op: AmoOp::Swap, operand: 0 },
            LoadReserved,
            StoreConditional { data: 0 },
        ];
        variant(io, &mut this, &blanks, "request kind")?;
        io.maybe(at!(this, Load(op) => op))?;
        io.maybe(at!(this, Store { op, .. } => op))?;
        io.maybe(at!(this, Amo { op, .. } => op))?;
        let word = at!(this, Store { data: w, .. }
            | Amo { operand: w, .. }
            | StoreConditional { data: w } => w);
        io.maybe(word)
    }
}

walk_fields! {
    CacheStats { hits, misses }
    PcCounters { retired, stalls }
    RegionCounters { retired, stalls }
    CoreStats {
        instret, cycles, loads, stores, amos, muls, divs, taken_branches, stall_scoreboard,
        stall_lsu_full, stall_port, stall_fetch, stall_fence, stall_exec, halted_cycles,
    }
}

/// Stored items, staged arrivals, the stall gate, then the push counter.
impl<T: Walk + Default + Copy> Walk for ElasticBuffer<T> {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        let get = |b: &Self| {
            let stored = b.iter().copied().collect::<Vec<T>>();
            (stored, b.iter_arrivals().copied().collect::<Vec<T>>(), b.is_stalled(), b.pushes())
        };
        let set = |b: &mut Self, (stored, arrivals, stalled, pushes): (Vec<T>, Vec<T>, _, _)| {
            if stored.len() + arrivals.len() > b.capacity() {
                return Err(SnapshotError::Corrupt("elastic buffer occupancy"));
            }
            b.load(stored, arrivals, stalled);
            b.set_pushes(pushes);
            Ok(())
        };
        io.via(this, get, set, Walk::walk)
    }
}

/// The pointer, checked against the arbiter's width on load.
fn rr_pointer<Io: StateIo>(io: &mut Io, rr: Place<'_, Io, RoundRobin>) -> Walked {
    let set = |rr: &mut RoundRobin, pointer| {
        if pointer >= rr.lines() {
            return Err(SnapshotError::Corrupt("arbiter pointer"));
        }
        rr.set_pointer(pointer);
        Ok(())
    };
    io.via(rr, RoundRobin::pointer, set, usize::walk)
}

fn rr_grants<Io: StateIo>(io: &mut Io, rr: Place<'_, Io, RoundRobin>) -> Walked {
    let set = |rr: &mut RoundRobin, grants| {
        rr.set_grants(grants);
        Ok(())
    };
    io.via(rr, RoundRobin::grants, set, u64::walk)
}

impl Walk for RoundRobin {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        rr_pointer(io, this.reborrow())?;
        rr_grants(io, this)
    }
}

/// The arbiter count, every pointer, then every grant counter.
impl Walk for Fabric {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.count(this.arbiters().len(), "fabric arbiter count")?;
        io.each(this.at(Fabric::arbiters, Fabric::arbiters_mut), rr_pointer)?;
        io.each(this.at(Fabric::arbiters, Fabric::arbiters_mut), rr_grants)
    }
}

/// The tick, the hit/miss counters, then every way as `(tag, valid, lru)`.
impl Walk for ICache {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        let get = |c: &ICache| (c.tick(), c.stats(), c.ways().collect::<Vec<_>>());
        let set = |c: &mut ICache, (tick, stats, ways): (_, _, Vec<_>)| {
            c.load(ways, tick, stats);
            Ok(())
        };
        io.via(this, get, set, |io, mut v| {
            io.walk(at!(v.0))?;
            io.walk(at!(v.1))?;
            io.count(v.2.len(), "icache way count")?;
            io.walk(at!(v.2[..]))
        })
    }
}

/// The table size, the substitution table, then the dead flags.
impl Walk for QuarantineMap {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        let get = |q: &QuarantineMap| (q.subst_table().to_vec(), q.dead_flags().to_vec());
        let set = |q: &mut QuarantineMap, (subst, dead): (Vec<u32>, Vec<bool>)| {
            q.load(&subst, &dead);
            Ok(())
        };
        io.via(this, get, set, |io, mut v| {
            io.count(v.0.len(), "quarantine table size")?;
            io.walk(at!(v.0[..]))?;
            io.walk(at!(v.1[..]))
        })
    }
}

// ---------------------------------------------------------------------------
// SnitchCore: the cycle-accurate core model checkpoints.
// ---------------------------------------------------------------------------

impl Walk for SnitchCore {
    fn walk<Io: StateIo>(io: &mut Io, this: Place<'_, Io, Self>) -> Walked {
        let set = |core: &mut SnitchCore, state: SnitchState| {
            core.restore_state(&state);
            Ok(())
        };
        io.via(this, SnitchCore::save_state, set, Walk::walk)
    }
}

impl Walk for SnitchState {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.walk(at!(this.pc))?;
        io.words(at!(this.regs[..]))?;
        io.walk(at!(this.scoreboard))?;
        io.count(this.lsu.len(), "LSU depth")?;
        io.walk(at!(this.lsu[..]))?;
        io.walk(at!(this.halted))?;
        io.walk(at!(this.faulted))?;
        io.walk(at!(this.exec_busy))?;
        io.walk(at!(this.fencing))?;
        io.walk(at!(this.mscratch))?;
        io.walk(at!(this.stats))?;
        io.walk(at!(this.region))?;
        io.opt(at!(this.profile), || CoreProfile::new(1), core_profile)
    }
}

/// The destination register, the load op, then the byte offset. A slot
/// without a destination or a load op (an AMO or SC result, delivered
/// verbatim) stores `0xff` in its place, so these two fields go through a
/// code rather than a walk of their own.
impl Walk for LsuSlotState {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        let set = |dest: &mut Option<Reg>, index| {
            *dest = match index {
                NONE => None,
                i => Some(Reg::new(i).ok_or(SnapshotError::Corrupt("register index"))?),
            };
            Ok(())
        };
        io.via(at!(this.dest), |d| d.map_or(NONE, Reg::index), set, u8::walk)?;
        let code = |op| LOAD_OPS.iter().position(|&o| o == op).expect("a load op") as u8;
        let set = |load: &mut Option<LoadOp>, code| {
            *load = match code {
                NONE => None,
                c => Some(*LOAD_OPS.get(usize::from(c)).ok_or(SnapshotError::Corrupt("load op"))?),
            };
            Ok(())
        };
        io.via(at!(this.load), |l| l.map_or(NONE, code), set, u8::walk)?;
        io.walk(at!(this.byte_offset))
    }
}

/// The PC bound, the tracked `(region, pc, counters)` entries (never more
/// than the bound), the overflow bucket, then the region table.
fn core_profile<Io: StateIo>(io: &mut Io, this: Place<'_, Io, CoreProfile>) -> Walked {
    let get = |p: &CoreProfile| {
        let entries = p.pcs().map(|(region, pc, c)| (region, pc, *c)).collect::<Vec<_>>();
        (p.max_pcs(), entries, *p.overflow(), *p.regions())
    };
    let set = |p: &mut CoreProfile, (max_pcs, entries, overflow, regions): (usize, Vec<_>, _, _)| {
        if entries.len() > max_pcs.max(1) {
            return Err(SnapshotError::Corrupt("profile entry count"));
        }
        *p = CoreProfile::from_parts(max_pcs, entries, overflow, regions);
        Ok(())
    };
    io.via(this, get, set, Walk::walk)
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
// The cluster's two sections.
// ---------------------------------------------------------------------------

/// The input section: the fault-plan parameters and the scheduled
/// bank-failure list (snapshotted for resumption, excluded from the state
/// digest).
fn section_a<Io: StateIo, C>(io: &mut Io, mut c: Place<'_, Io, Cluster<C>>) -> Walked {
    let set = |plan: &mut Option<FaultPlan>, params: Option<(u64, FaultSpec)>| {
        *plan = params.map(|(seed, spec)| FaultPlan::new(seed, spec));
        Ok(())
    };
    let params = |plan: &Option<FaultPlan>| plan.as_ref().map(|p| (p.seed(), *p.spec()));
    io.via(at!(c.faults), params, set, Walk::walk)?;
    io.walk(at!(c.pending_failures))
}

/// One component of the digested state section. [`Component::all`] lists
/// them in canonical order; the state digest, the checkpoint image, its
/// restore and [`component_digests`](Cluster::component_digests) all walk
/// that one list.
#[derive(Debug, Clone, Copy)]
enum Component {
    Globals,
    Core(usize),
    Pending,
    Tile(usize),
    Net,
    RefillRing,
    Quarantine,
    FaultLog,
    Stats,
    Obs,
    Profile,
}

impl Component {
    fn all(cores: usize, tiles: usize) -> impl Iterator<Item = Component> {
        use Component::*;
        let head = [Globals].into_iter().chain((0..cores).map(Core)).chain([Pending]);
        let tail = [Net, RefillRing, Quarantine, FaultLog, Stats, Obs, Profile];
        head.chain((0..tiles).map(Tile)).chain(tail)
    }

    fn name(self) -> String {
        match self {
            Component::Core(i) => format!("core{i}"),
            Component::Tile(t) => format!("tile{t}"),
            Component::RefillRing => "refill-ring".to_owned(),
            Component::FaultLog => "fault-log".to_owned(),
            other => format!("{other:?}").to_lowercase(),
        }
    }

    fn walk<Io: StateIo, C: Walk>(self, io: &mut Io, mut c: Place<'_, Io, Cluster<C>>) -> Walked {
        match self {
            Component::Globals => {
                io.walk(at!(c.now))?;
                io.walk(at!(c.in_flight))?;
                io.walk(at!(c.next_failure))?;
                io.walk(at!(c.last_progress))?;
                io.walk(at!(c.progress_mark))
            }
            Component::Core(i) => {
                io.walk(at!(c.cores[i]))?;
                io.walk(at!(c.out_latches[i]))?;
                io.walk(at!(c.locked_until[i]))
            }
            Component::Pending => {
                let entries = |m: &BTreeMap<_, _>| m.iter().map(|(&k, &p)| (k, p)).collect();
                let set = |m: &mut BTreeMap<_, _>, entries: Vec<_>| {
                    *m = entries.into_iter().collect();
                    Ok(())
                };
                io.via(at!(c.pending), entries, set, Walk::walk)
            }
            Component::Tile(t) => io.walk(at!(c.tiles[t])),
            Component::Net => io.walk(at!(c.net)),
            // The transport is the configuration's: the flag must match it.
            Component::RefillRing => {
                let live = c.refill_ring.is_some();
                let mut has = live;
                io.walk(Place::local(&mut has))?;
                if has != live {
                    return Err(SnapshotError::Corrupt("refill transport kind"));
                }
                let ring = c.try_at(|c| c.refill_ring.as_ref(), |c| c.refill_ring.as_mut());
                ring.map_or(Ok(()), |ring| io.walk(ring))
            }
            Component::Quarantine => io.walk(at!(c.quarantine)),
            Component::FaultLog => io.walk(at!(c.fault_log)),
            Component::Stats => io.walk(at!(c.stats)),
            // A restore is authoritative for the recorder and the profiler:
            // a snapshot taken without one detaches it here.
            Component::Obs => {
                let tiles = c.config.num_tiles;
                let config = ObsConfig { trace_sample_every: 0, trace_capacity: 0 };
                io.opt(at!(c.obs), || Box::new(Obs::new(config, tiles)), Walk::walk)
            }
            Component::Profile => {
                let tiles = c.config.num_tiles;
                let config = ProfileConfig { max_pcs: 0, power_window: 0 };
                let new = || Box::new(Profiler::new(config, tiles));
                io.opt(at!(c.profiler), new, Walk::walk)
            }
        }
    }
}

/// The state section: every component in canonical order.
fn section_b<Io: StateIo, C: Walk>(io: &mut Io, mut c: Place<'_, Io, Cluster<C>>) -> Walked {
    for part in Component::all(c.cores.len(), c.tiles.len()) {
        part.walk(io, c.reborrow())?;
    }
    Ok(())
}

impl<C: Walk> Cluster<C> {
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
        saved(section_b(&mut h, Place { held: self }));
        h.finish()
    }

    /// Per-component digests in canonical order — the per-tile /
    /// per-structure view a [`DivergenceReport`] diffs.
    pub fn component_digests(&self) -> Vec<(String, u64)> {
        let parts = Component::all(self.cores.len(), self.tiles.len());
        let digest = |part: Component| {
            let mut h = Fnv::new();
            saved(part.walk(&mut h, Place { held: self }));
            (part.name(), h.finish())
        };
        parts.map(digest).collect()
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
        saved(section_a(&mut bytes, Place { held: self }));
        let len_a = bytes.len() - HEADER_LEN;
        saved(section_b(&mut bytes, Place { held: self }));
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
        let r = &mut ByteReader::new(snap.section_a());
        section_a(r, Place { held: &mut *self })?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt("trailing input-section bytes"));
        }
        let r = &mut ByteReader::new(snap.section_b());
        section_b(r, Place { held: &mut *self })?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt("trailing state-section bytes"));
        }
        // Derived bookkeeping the cycle loop keeps beside the restored state.
        self.refills_total = self.tiles.iter().map(Tile::refills).sum();
        self.retry_due = 0;
        self.deliveries.clear();
        // An attached sanitizer tracked the *pre-restore* timeline; reseed it
        // from the restored pending map so it does not report the restored
        // in-flight traffic as leaks or duplicates.
        self.resync_sanitizer();
        Ok(())
    }
}

mod bisect;
pub use bisect::{bisect_divergence, ComponentDiff, DivergenceReport};

#[cfg(test)]
mod oracle;
