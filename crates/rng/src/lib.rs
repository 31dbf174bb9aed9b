//! # mempool-rng
//!
//! A tiny, vendored pseudo-random number generator exposing the subset of
//! the `rand 0.8` surface the workspace uses (`StdRng::seed_from_u64`,
//! `Rng::gen`, `Rng::gen_range`, `RngCore::next_u32`). The whole suite must
//! build and test without network access, so external registry crates are
//! off the table; everything random in the simulator is seeded test input
//! or synthetic traffic, where reproducibility matters and cryptographic
//! quality does not.
//!
//! [`StdRng`] is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit
//! counter stream through an avalanching finalizer. It passes through
//! practical statistical batteries at the scale used here and — unlike
//! `rand`'s `StdRng` — its output stream is *guaranteed* stable across
//! releases, which the determinism contracts in this repo rely on.
//!
//! # Examples
//!
//! ```
//! use mempool_rng::{Rng, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let die: i32 = rng.gen_range(1..7);
//! assert!((1..7).contains(&die));
//! let p: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&p));
//! // Same seed, same stream.
//! let mut again = StdRng::seed_from_u64(42);
//! assert_eq!(again.gen_range(1..7), die);
//! ```

#![warn(missing_docs)]

use core::ops::Range;

/// The raw 32/64-bit generator interface (the `rand::RngCore` subset).
pub trait RngCore {
    /// Next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32;

    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed (the `rand::SeedableRng` subset).
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from the generator's raw bits with
/// [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for i32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as i32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types [`Rng::gen_range`] can draw over a half-open `lo..hi` range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`; the caller guarantees `lo < hi`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Draws a u64 below `span` by widening multiply — avoids modulo bias well
/// beyond the span sizes used anywhere in this workspace.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_sample_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                lo + below(rng, (hi - lo) as u64) as $t
            }
        }
    )*};
}

macro_rules! impl_sample_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as $u).wrapping_sub(lo as $u);
                lo.wrapping_add(below(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_sample_uniform_unsigned!(u8, u16, u32, u64, usize);
impl_sample_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// High-level sampling helpers (the `rand::Rng` subset), blanket-implemented
/// for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T` from the generator's raw bits.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "gen_range on an empty range");
        T::sample_range(self, range.start, range.end)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Splitmix64: a counter stepped by the golden-ratio increment, finalized
/// with an avalanching mix. One multiply-xor-shift pipeline per draw, full
/// 2^64 period, and every seed gives an independent-looking stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl StdRng {
    /// The raw generator state (checkpointing). Feeding it back through
    /// [`SeedableRng::seed_from_u64`] reproduces the exact stream position,
    /// because seeding stores the value verbatim.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Moves the stream `n` draws ahead in one step: the state is a counter
    /// stepped by a constant, so this is what `n` calls of
    /// [`next_u64`](RngCore::next_u64) leave behind.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GOLDEN_GAMMA));
    }
}

/// The splitmix64 finalizer: bijective, avalanching mix of a 64-bit word.
#[inline]
#[must_use]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        splitmix64_mix(self.state)
    }
}

/// A transparent arithmetic-progression generator for tests that want fully
/// predictable "random" data (the `rand::rngs::mock::StepRng` drop-in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRng {
    value: u64,
    step: u64,
}

impl StepRng {
    /// Yields `initial`, `initial + step`, `initial + 2 * step`, …
    #[must_use]
    pub fn new(initial: u64, step: u64) -> Self {
        StepRng {
            value: initial,
            step,
        }
    }
}

impl RngCore for StepRng {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.value;
        self.value = self.value.wrapping_add(self.step);
        out
    }
}

/// Namespace aliases mirroring `rand`'s module layout, so call sites keep
/// their `rngs::StdRng` / `rngs::mock::StepRng` paths.
pub mod rngs {
    pub use super::StdRng;

    /// Mock generators with fully predictable output.
    pub mod mock {
        pub use super::super::StepRng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_splitmix64_vector() {
        // Reference values for seed 1234567 from the canonical splitmix64.
        let mut rng = StdRng::seed_from_u64(1234567);
        assert_eq!(rng.next_u64(), 0x599e_d017_fb08_fc85);
        assert_eq!(rng.next_u64(), 0x2c73_f084_5854_0fa5);
    }

    #[test]
    fn advance_equals_that_many_draws() {
        for (seed, n) in [(0, 0), (7, 1), (99, 2), (u64::MAX, 3), (1234567, 1000)] {
            let mut drawn = StdRng::seed_from_u64(seed);
            for _ in 0..n {
                drawn.next_u64();
            }
            let mut advanced = StdRng::seed_from_u64(seed);
            advanced.advance(n);
            assert_eq!(advanced, drawn, "seed {seed}, {n} draws");
            assert_eq!(advanced.next_u64(), drawn.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10_000 {
            let v: i32 = rng.gen_range(-128..128);
            assert!((-128..128).contains(&v));
            let u: u32 = rng.gen_range(3..17);
            assert!((3..17).contains(&u));
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_small_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn step_rng_is_arithmetic() {
        let mut rng = StepRng::new(10, 3);
        assert_eq!(rng.next_u64(), 10);
        assert_eq!(rng.next_u64(), 13);
        assert_eq!(rng.next_u32(), 16);
    }
}
