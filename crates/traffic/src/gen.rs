//! The synthetic traffic generator of §V-A: each core is replaced by a
//! generator producing new requests following a Poisson process, with
//! uniformly distributed destination banks (optionally biased into the
//! local tile's sequential region, §V-B).

use mempool::snapshot::at;
use mempool::{Core, LatencyStats, Place, SnapshotError, StateIo, Walk, Walked};
use mempool_riscv::LoadOp;
use mempool_snitch::{DataRequest, DataRequestKind, DataResponse, Fetch};
use mempool_rng::StdRng;
use mempool_rng::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;

/// Destination distribution of generated requests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Pattern {
    /// Uniformly distributed over all banks of the cluster (Fig. 5).
    #[default]
    Uniform,
    /// With probability `p_local`, uniform within the generator's own
    /// tile's sequential region; otherwise uniform over the interleaved
    /// remainder of L1 (Fig. 6).
    PLocal {
        /// Probability of targeting the local sequential region.
        p_local: f64,
    },
    /// All requests target one tile's banks — the classic hot-spot pattern
    /// that collapses any blocking network far below its uniform
    /// saturation.
    HotSpot {
        /// Byte address range `[base, base + bytes)` all requests land in
        /// (typically one tile's worth of interleaved words).
        base: u32,
        /// Size of the hot region in bytes.
        bytes: u32,
    },
    /// A fixed tile-level permutation (Dally & Towles' adversarial
    /// patterns): every request targets a uniform bank inside the tile the
    /// permutation maps this generator's tile to.
    Permutation(Permutation),
}

impl Pattern {
    /// Renders the pattern as its canonical spec string
    /// (`uniform`, `plocal=<p>`, `hotspot=<base>:<bytes>`,
    /// `perm=bitcomp|tornado|transpose`) — the format accepted by
    /// [`parse_spec`](Pattern::parse_spec), used by the CLI and by worker
    /// job specs.
    pub fn to_spec(self) -> String {
        match self {
            Pattern::Uniform => "uniform".to_owned(),
            Pattern::PLocal { p_local } => format!("plocal={p_local}"),
            Pattern::HotSpot { base, bytes } => format!("hotspot={base}:{bytes}"),
            Pattern::Permutation(p) => match p {
                Permutation::BitComplement => "perm=bitcomp".to_owned(),
                Permutation::Tornado => "perm=tornado".to_owned(),
                Permutation::TileTranspose => "perm=transpose".to_owned(),
            },
        }
    }

    /// Parses a spec string produced by [`to_spec`](Pattern::to_spec).
    /// `None` when the string is not a valid pattern spec (unknown form,
    /// unparsable number, or a `plocal` probability outside `[0, 1]`).
    pub fn parse_spec(spec: &str) -> Option<Pattern> {
        if spec == "uniform" {
            return Some(Pattern::Uniform);
        }
        if let Some(p) = spec.strip_prefix("plocal=") {
            let p_local: f64 = p.parse().ok()?;
            if !(0.0..=1.0).contains(&p_local) {
                return None;
            }
            return Some(Pattern::PLocal { p_local });
        }
        if let Some(rest) = spec.strip_prefix("hotspot=") {
            let (base, bytes) = rest.split_once(':')?;
            return Some(Pattern::HotSpot {
                base: base.parse().ok()?,
                bytes: bytes.parse().ok()?,
            });
        }
        if let Some(perm) = spec.strip_prefix("perm=") {
            let p = match perm {
                "bitcomp" => Permutation::BitComplement,
                "tornado" => Permutation::Tornado,
                "transpose" => Permutation::TileTranspose,
                _ => return None,
            };
            return Some(Pattern::Permutation(p));
        }
        None
    }
}

/// Tile-level permutation patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permutation {
    /// Destination tile = bitwise complement of the source tile — the
    /// classic adversary for log-networks (paths concentrate maximally).
    BitComplement,
    /// Destination tile = source + tiles/2 (mod tiles).
    Tornado,
    /// Destination tile with its high and low tile-index bit halves
    /// swapped (matrix-transpose communication).
    TileTranspose,
}

impl Permutation {
    /// Applies the permutation over `tiles` tiles (a power of two).
    pub fn dest_tile(self, tile: u32, tiles: u32) -> u32 {
        debug_assert!(tiles.is_power_of_two());
        match self {
            Permutation::BitComplement => !tile & (tiles - 1),
            Permutation::Tornado => (tile + tiles / 2) % tiles,
            Permutation::TileTranspose => {
                let bits = tiles.trailing_zeros();
                let lo_bits = bits / 2;
                let hi_bits = bits - lo_bits;
                let lo = tile & ((1 << lo_bits) - 1);
                let hi = tile >> lo_bits;
                (lo << hi_bits) | hi
            }
        }
    }
}

/// Geometry the generator needs to synthesize addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    /// Total L1 bytes.
    pub l1_bytes: u32,
    /// Start of this core's tile's sequential region (programmer view).
    pub seq_base: u32,
    /// Bytes per tile sequential region (0 disables the local pattern).
    pub seq_bytes: u32,
    /// Total bytes covered by all sequential regions.
    pub seq_total: u32,
    /// This generator's tile index (permutation patterns).
    pub tile: u32,
    /// Number of tiles in the cluster (permutation patterns).
    pub num_tiles: u32,
    /// Banks per tile (permutation patterns).
    pub banks_per_tile: u32,
}

/// Statistics collected by one generator.
#[derive(Debug, Clone, Default)]
pub struct GenStats {
    /// Requests generated (arrivals of the Poisson process).
    pub generated: u64,
    /// Requests injected into the network.
    pub injected: u64,
    /// Responses received.
    pub completed: u64,
    /// Round-trip latency (generation → response), measured only for
    /// requests generated after [`TrafficGen::start_measuring`].
    pub latency: LatencyStats,
}

/// A Poisson traffic source implementing [`Core`].
///
/// # Examples
///
/// ```
/// use mempool_traffic::{AddressSpace, Pattern, TrafficGen};
///
/// let space = AddressSpace {
///     l1_bytes: 1 << 20,
///     seq_base: 0,
///     seq_bytes: 1024,
///     seq_total: 64 << 10,
///     tile: 0,
///     num_tiles: 64,
///     banks_per_tile: 16,
/// };
/// let mut gen = TrafficGen::new(0.25, Pattern::Uniform, space, 64, 7);
/// gen.start_measuring();
/// # let _ = gen;
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGen {
    rate: f64,
    source: Source,
    rng: StdRng,
    /// Waiting requests restored from a checkpoint, in generation order:
    /// all older than the owed ones.
    restored: VecDeque<Queued>,
    /// Waiting requests drawn from `rng` behind the restored ones and not
    /// yet injected; `cursor` redraws them in order.
    owed: u64,
    cursor: Cursor,
    /// In-flight generation timestamps per tag.
    tags: Vec<Option<u64>>,
    /// One bit per tag that is free (`tags[t]` is `None`); four words cover
    /// the 256-tag bound.
    free_tags: [u64; 4],
    in_flight: usize,
    clock: u64,
    measure_from: Option<u64>,
    stopped: bool,
    stats: GenStats,
}

/// What a draw depends on besides the stream, fixed at construction: the
/// same stream state always draws the same arrival count and, for every
/// pattern, the same address.
#[derive(Debug, Clone, Copy)]
struct Source {
    /// `exp(-rate)`, the stopping threshold of every arrival draw.
    arrival_floor: f64,
    /// `⌊exp(-rate) · 2⁵³⌋`: a cycle has no arrival exactly when the top
    /// 53 bits of its first word are at most this.
    no_arrival_below: u64,
    pattern: Pattern,
    space: AddressSpace,
}

/// `2⁻⁵³`: one step of a uniform `f64` drawn from the top 53 bits of a word.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

impl Source {
    fn new(rate: f64, pattern: Pattern, space: AddressSpace) -> Source {
        let arrival_floor = (-rate).exp();
        Source {
            arrival_floor,
            no_arrival_below: (arrival_floor * (1u64 << 53) as f64).floor() as u64,
            pattern,
            space,
        }
    }

    /// Whether a cycle whose first word is `word` has no arrival: Knuth's
    /// first test `u₁ ≤ exp(-rate)` in integers. `u₁` is the top 53 bits
    /// times `2⁻⁵³`, and scaling by a power of two is exact, so the two
    /// tests agree on every word.
    #[inline]
    fn no_arrival(&self, word: u64) -> bool {
        word >> 11 <= self.no_arrival_below
    }

    /// Samples the number of Poisson arrivals of one cycle (Knuth's method —
    /// rates of interest are well below 1). The f64 product runs only once
    /// the first draw has shown an arrival.
    fn arrivals(&self, rng: &mut StdRng) -> u32 {
        let word = rng.next_u64();
        if self.no_arrival(word) {
            return 0;
        }
        let mut k = 1;
        let mut p = (word >> 11) as f64 * UNIT;
        loop {
            p *= rng.gen::<f64>();
            if p <= self.arrival_floor {
                return k;
            }
            k += 1;
        }
    }

    /// How many draws [`pick_address`](Source::pick_address) takes: fixed
    /// by the pattern, since every draw is one word of the stream.
    fn draws_per_address(&self) -> u64 {
        match self.pattern {
            Pattern::Uniform | Pattern::HotSpot { .. } => 1,
            // The locality coin, then one offset on either side of it.
            Pattern::PLocal { .. } if self.space.seq_bytes > 0 => 2,
            Pattern::PLocal { .. } => 1,
            // A row, then a bank.
            Pattern::Permutation(_) => 2,
        }
    }

    fn pick_address(&self, rng: &mut StdRng) -> u32 {
        let space = &self.space;
        let word = match self.pattern {
            Pattern::Uniform => rng.gen_range(0..space.l1_bytes / 4),
            Pattern::PLocal { p_local } => {
                if space.seq_bytes > 0 && rng.gen::<f64>() < p_local {
                    let off = rng.gen_range(0..space.seq_bytes / 4);
                    return space.seq_base + off * 4;
                }
                // Outside the sequential regions: uniform over the
                // interleaved remainder.
                let lo = space.seq_total / 4;
                let hi = space.l1_bytes / 4;
                rng.gen_range(lo..hi)
            }
            Pattern::HotSpot { base, bytes } => {
                let off = rng.gen_range(0..bytes.max(4) / 4);
                return base + off * 4;
            }
            Pattern::Permutation(perm) => {
                // A uniform word inside the destination tile under the
                // interleaved map: word = (row * tiles + dest) * banks + bank.
                let dest = perm.dest_tile(space.tile, space.num_tiles);
                let banks = space.banks_per_tile;
                let rows = space.l1_bytes / 4 / space.num_tiles / banks;
                let row = rng.gen_range(0..rows);
                let bank = rng.gen_range(0..banks);
                (row * space.num_tiles + dest) * banks + bank
            }
        };
        word * 4
    }
}

/// The owed backlog as a place on the generator's own stream: the stream
/// just before the oldest owed request's address was drawn, that request's
/// generation cycle, and how many of that cycle's arrivals are still owed.
/// The source is open-loop — its draws depend on the stream, the rate and
/// the pattern, never on the network — so redrawing from here replays the
/// owed requests in generation order.
#[derive(Debug, Clone)]
struct Cursor {
    rng: StdRng,
    cycle: u64,
    left: u32,
}

impl Cursor {
    /// Redraws the front owed request as `(generation cycle, address)`, and
    /// moves onto the next one when `more` are owed behind it.
    fn pop(&mut self, source: &Source, more: bool) -> (u64, u32) {
        let front = (self.cycle, source.pick_address(&mut self.rng));
        self.left -= 1;
        // The cycles between two owed requests drew no arrivals, and none
        // of them was stopped: a stopped generator draws nothing more.
        while more && self.left == 0 {
            self.cycle += 1;
            self.left = source.arrivals(&mut self.rng);
        }
        front
    }
}

/// A restored waiting request in 8 bytes. A checkpoint does not say where
/// the stream stood when its waiting requests were drawn, so they are kept
/// rather than redrawn: the low half of the generation cycle, which
/// [`TrafficGen::gen_time`] widens against the clock.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Low 32 bits of the generation cycle.
    gen_lo: u32,
    addr: u32,
}

impl TrafficGen {
    /// Creates a generator with injection `rate` (requests/cycle, ≥ 0),
    /// the given destination pattern and address space, `outstanding`
    /// request tags, and an RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `outstanding` is 0 or exceeds 256, or `rate` is negative.
    pub fn new(
        rate: f64,
        pattern: Pattern,
        space: AddressSpace,
        outstanding: usize,
        seed: u64,
    ) -> Self {
        assert!((1..=256).contains(&outstanding), "outstanding in 1..=256");
        assert!(rate >= 0.0, "rate must be non-negative");
        let rng = StdRng::seed_from_u64(seed);
        TrafficGen {
            rate,
            source: Source::new(rate, pattern, space),
            cursor: Cursor {
                rng: rng.clone(),
                cycle: 0,
                left: 0,
            },
            rng,
            restored: VecDeque::new(),
            owed: 0,
            tags: vec![None; outstanding],
            free_tags: free_mask(outstanding, |_| true),
            in_flight: 0,
            clock: 0,
            measure_from: None,
            stopped: false,
            stats: GenStats::default(),
        }
    }

    /// Starts recording latencies for requests generated from now on.
    pub fn start_measuring(&mut self) {
        self.measure_from = Some(self.clock);
    }

    /// Stops generating new requests (existing ones drain).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Collected statistics.
    pub fn stats(&self) -> &GenStats {
        &self.stats
    }

    /// Requests waiting in the source queue.
    pub fn queue_len(&self) -> usize {
        self.restored.len() + self.owed as usize
    }

    /// The full generation cycle of a restored request: the one cycle within
    /// 2³² of the clock, and not after it, whose low half is the stored one.
    /// Exact while no request waits 2³² cycles, which `step` asserts.
    fn gen_time(&self, queued: Queued) -> u64 {
        self.clock - u64::from((self.clock as u32).wrapping_sub(queued.gen_lo))
    }
}

/// The free-tag mask of `outstanding` tags of which `is_free` says which
/// are unused.
fn free_mask(outstanding: usize, is_free: impl Fn(usize) -> bool) -> [u64; 4] {
    let mut mask = [0u64; 4];
    for tag in (0..outstanding).filter(|&t| is_free(t)) {
        mask[tag / 64] |= 1 << (tag % 64);
    }
    mask
}

/// The RNG state, the source queue, the tags, the clock, then the
/// statistics.
impl Walk for TrafficGen {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        let set = |rng: &mut StdRng, state| {
            *rng = StdRng::seed_from_u64(state);
            Ok(())
        };
        io.via(at!(this.rng), StdRng::state, set, u64::walk)?;
        // The queue as `(generation cycle, address)` pairs, oldest first:
        // the one field not saved as it is loaded. Saving redraws the owed
        // requests from the cursor; loading keeps every request as a
        // restored one, its two ends held against the clock once that is
        // read.
        let mut n = this.queue_len();
        io.walk(Place::local(&mut n))?;
        let (mut oldest, mut youngest) = (None, 0);
        if let Some(gen) = this.loading() {
            gen.restored.clear();
            gen.owed = 0;
            // A corrupt count allocates no more than the file could fill.
            gen.restored.reserve(n.min(io.remaining() / 12));
            for _ in 0..n {
                let mut queued = (0u64, 0u32);
                io.walk(Place::local(&mut queued))?;
                let (cycle, addr) = queued;
                if cycle < youngest {
                    return Err(SnapshotError::Corrupt("queued generation cycle"));
                }
                oldest.get_or_insert(cycle);
                youngest = cycle;
                gen.restored.push_back(Queued { gen_lo: cycle as u32, addr });
            }
        } else {
            let gen = &*this;
            let mut cursor = gen.cursor.clone();
            let owed = (0..gen.owed).rev().map(|behind| cursor.pop(&gen.source, behind > 0));
            for mut queued in gen.restored.iter().map(|&q| (gen.gen_time(q), q.addr)).chain(owed) {
                io.walk(Place::local(&mut queued))?;
            }
        }
        io.count(this.tags.len(), "outstanding tag count")?;
        io.walk(at!(this.tags[..]))?;
        io.walk(at!(this.in_flight))?;
        if let Some(gen) = this.loading() {
            gen.free_tags = free_mask(gen.tags.len(), |t| gen.tags[t].is_none());
            let free: u32 = gen.free_tags.iter().map(|w| w.count_ones()).sum();
            if gen.in_flight != gen.tags.len() - free as usize {
                return Err(SnapshotError::Corrupt("in-flight count"));
            }
        }
        io.walk(at!(this.clock))?;
        if let Some(gen) = this.loading() {
            // A generation cycle after the clock would underflow the latency
            // it is subtracted from; one 2³² cycles before it has no 32-bit
            // form.
            let unpackable = |oldest| gen.clock - oldest > u64::from(u32::MAX);
            if youngest > gen.clock || oldest.is_some_and(unpackable) {
                return Err(SnapshotError::Corrupt("queued generation cycle"));
            }
            if gen.tags.iter().flatten().any(|&gen_time| gen_time > gen.clock) {
                return Err(SnapshotError::Corrupt("in-flight generation cycle"));
            }
        }
        io.walk(at!(this.measure_from))?;
        io.walk(at!(this.stopped))?;
        io.walk(at!(this.stats.generated))?;
        io.walk(at!(this.stats.injected))?;
        io.walk(at!(this.stats.completed))?;
        io.walk(at!(this.stats.latency))
    }
}

impl Core for TrafficGen {
    fn deliver(&mut self, response: DataResponse) {
        let gen_time = self.tags[response.tag as usize]
            .take()
            .expect("response matches an in-flight tag");
        self.free_tags[response.tag as usize / 64] |= 1 << (response.tag % 64);
        self.in_flight -= 1;
        self.stats.completed += 1;
        if self.measure_from.is_some_and(|from| gen_time >= from) {
            // Deliveries happen at the start of a cycle, before `step`
            // advances the local clock — the response belongs to cycle
            // `clock + 1`.
            self.stats.latency.record(self.clock + 1 - gen_time);
        }
    }

    fn step(
        &mut self,
        _fetch: &mut impl FnMut(u32) -> Fetch,
        request_ready: bool,
    ) -> Option<DataRequest> {
        self.clock += 1;
        // Ahead of this cycle's arrivals every restored request is at least
        // a cycle old, and the front is the oldest: its stored half meets
        // the clock's again only after 2³² cycles of waiting.
        assert!(
            self.restored.front().is_none_or(|q| q.gen_lo != self.clock as u32),
            "a request waited 2^32 cycles in the source queue"
        );
        let n = if self.rate > 0.0 && !self.stopped {
            self.source.arrivals(&mut self.rng)
        } else {
            0
        };
        if self.owed == 0 {
            // Nothing drawn is owed: this cycle's arrivals are the front.
            self.cursor = Cursor {
                rng: self.rng.clone(),
                cycle: self.clock,
                left: n,
            };
        }
        // The stream moves past this cycle's addresses undrawn; the cursor
        // draws them when they are injected.
        self.rng.advance(u64::from(n) * self.source.draws_per_address());
        self.owed += u64::from(n);
        self.stats.generated += u64::from(n);
        if !request_ready || self.queue_len() == 0 {
            return None;
        }
        // The lowest free tag: what a scan of `tags` for `None` finds.
        let word = self.free_tags.iter().position(|&w| w != 0)?;
        let tag = word * 64 + self.free_tags[word].trailing_zeros() as usize;
        self.free_tags[word] &= self.free_tags[word] - 1;
        let (gen_time, addr) = match self.restored.pop_front() {
            Some(queued) => (self.gen_time(queued), queued.addr),
            None => {
                self.owed -= 1;
                self.cursor.pop(&self.source, self.owed > 0)
            }
        };
        self.tags[tag] = Some(gen_time);
        self.in_flight += 1;
        self.stats.injected += 1;
        Some(DataRequest {
            tag: tag as u8,
            addr,
            kind: DataRequestKind::Load(LoadOp::Lw),
        })
    }

    fn done(&self) -> bool {
        self.stopped && self.queue_len() == 0 && self.in_flight == 0
    }

    fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("generated", self.stats.generated),
            ("injected", self.stats.injected),
            ("completed", self.stats.completed),
            ("queue_len", self.queue_len() as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace {
            l1_bytes: 1 << 16,
            seq_base: 1024,
            seq_bytes: 256,
            seq_total: 16 * 256,
            tile: 4,
            num_tiles: 16,
            banks_per_tile: 16,
        }
    }

    #[test]
    fn permutation_definitions() {
        assert_eq!(Permutation::BitComplement.dest_tile(0, 16), 15);
        assert_eq!(Permutation::BitComplement.dest_tile(5, 16), 10);
        assert_eq!(Permutation::Tornado.dest_tile(3, 16), 11);
        assert_eq!(Permutation::Tornado.dest_tile(12, 16), 4);
        assert_eq!(Permutation::TileTranspose.dest_tile(0b0111, 16), 0b1101);
        // Permutations are bijections.
        for perm in [
            Permutation::BitComplement,
            Permutation::Tornado,
            Permutation::TileTranspose,
        ] {
            let mut seen = [false; 64];
            for t in 0..64 {
                let d = perm.dest_tile(t, 64) as usize;
                assert!(!seen[d], "{perm:?} collides at {d}");
                seen[d] = true;
            }
        }
    }

    #[test]
    fn permutation_addresses_land_in_the_destination_tile() {
        let mut gen = TrafficGen::new(
            1.0,
            Pattern::Permutation(Permutation::BitComplement),
            space(),
            64,
            9,
        );
        // Source tile 4 of 16 -> destination tile 11; interleaved map has
        // tile bits at [6..10) for 16 banks.
        for _ in 0..200 {
            let addr = gen.source.pick_address(&mut gen.rng);
            assert_eq!((addr >> 6) & 15, 11, "addr {addr:#x}");
        }
    }

    fn drive(gen: &mut TrafficGen, cycles: u64, respond_after: u64) {
        // Immediate-memory harness with fixed latency.
        let mut pending: Vec<(u64, u8)> = Vec::new();
        for now in 1..=cycles {
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (_, tag) = pending.remove(i);
                    gen.deliver(DataResponse { tag, data: 0 });
                } else {
                    i += 1;
                }
            }
            if let Some(req) = gen.step(&mut |_| Fetch::Stall, true) {
                pending.push((now + respond_after, req.tag));
            }
        }
    }

    #[test]
    fn generation_rate_matches_lambda() {
        let mut gen = TrafficGen::new(0.25, Pattern::Uniform, space(), 64, 1);
        drive(&mut gen, 40_000, 2);
        let rate = gen.stats().generated as f64 / 40_000.0;
        assert!((rate - 0.25).abs() < 0.02, "measured rate {rate}");
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut gen = TrafficGen::new(0.0, Pattern::Uniform, space(), 8, 1);
        drive(&mut gen, 1000, 1);
        assert_eq!(gen.stats().generated, 0);
    }

    #[test]
    fn latency_includes_queueing_delay() {
        let mut gen = TrafficGen::new(0.5, Pattern::Uniform, space(), 1, 2);
        gen.start_measuring();
        // One outstanding tag + 10-cycle memory: the effective service rate
        // is 0.1 req/cycle, well below 0.5 — queueing delay must dominate.
        drive(&mut gen, 5_000, 10);
        let mean = gen.stats().latency.mean();
        assert!(mean > 50.0, "queueing not reflected: mean {mean}");
    }

    #[test]
    fn p_local_targets_own_region() {
        let mut gen = TrafficGen::new(1.0, Pattern::PLocal { p_local: 1.0 }, space(), 64, 3);
        let mut in_region = 0;
        for _ in 0..1000 {
            let addr = gen.source.pick_address(&mut gen.rng);
            if (space().seq_base..space().seq_base + space().seq_bytes).contains(&addr) {
                in_region += 1;
            }
        }
        assert_eq!(in_region, 1000);
    }

    #[test]
    fn p_local_zero_avoids_sequential_regions() {
        let mut gen = TrafficGen::new(1.0, Pattern::PLocal { p_local: 0.0 }, space(), 64, 4);
        for _ in 0..1000 {
            let addr = gen.source.pick_address(&mut gen.rng);
            assert!(addr >= space().seq_total);
        }
    }

    #[test]
    fn addresses_are_word_aligned_and_in_range() {
        let mut gen = TrafficGen::new(1.0, Pattern::Uniform, space(), 64, 5);
        for _ in 0..1000 {
            let addr = gen.source.pick_address(&mut gen.rng);
            assert_eq!(addr % 4, 0);
            assert!(addr < space().l1_bytes);
        }
    }

    #[test]
    fn stop_then_drain_reaches_done() {
        let mut gen = TrafficGen::new(0.3, Pattern::Uniform, space(), 16, 6);
        let mut pending: Vec<(u64, u8)> = Vec::new();
        for now in 1..=1100u64 {
            if now == 100 {
                gen.stop();
            }
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (_, tag) = pending.remove(i);
                    gen.deliver(DataResponse { tag, data: 0 });
                } else {
                    i += 1;
                }
            }
            if let Some(req) = gen.step(&mut |_| Fetch::Stall, true) {
                pending.push((now + 3, req.tag));
            }
        }
        assert!(gen.done());
        assert_eq!(gen.stats().injected, gen.stats().completed);
    }

    /// The integer no-arrival test answers Knuth's first f64 step on every
    /// word: on both sides of each rate's boundary and at random words.
    #[test]
    fn the_integer_no_arrival_test_is_the_first_f64_step() {
        let mut rng = StdRng::seed_from_u64(0x6b0);
        for rate in [0.0, 0.01, 0.5, 1.0, 3.0] {
            let source = Source::new(rate, Pattern::Uniform, space());
            let knuth =
                |word| 1.0 * mempool_rng::StepRng::new(word, 0).gen::<f64>() <= (-rate).exp();
            let bound = source.no_arrival_below;
            let tops = (bound.saturating_sub(2)..=bound + 2).filter(|&top| top < 1 << 53);
            let near: Vec<u64> = tops
                .flat_map(|top| [0, 1, 0x7ff].map(|low| top << 11 | low))
                .collect();
            // Both outcomes occur at the boundary of every rate but 0.
            let both = near.iter().any(|&w| knuth(w)) && near.iter().any(|&w| !knuth(w));
            assert!(rate == 0.0 || both, "rate {rate}");
            let random = (0..100_000).map(|_| rng.next_u64());
            for word in near.into_iter().chain(random) {
                assert_eq!(source.no_arrival(word), knuth(word), "rate {rate}, word {word:#x}");
            }
        }
    }

    /// Whole draws: the same counts as Knuth's product, leaving the stream
    /// in the same place.
    #[test]
    fn arrivals_draw_what_knuths_method_draws() {
        for rate in [0.0, 0.01, 0.5, 1.0, 3.0] {
            let source = Source::new(rate, Pattern::Uniform, space());
            let mut rng = StdRng::seed_from_u64(rate.to_bits());
            let mut reference = rng.clone();
            for _ in 0..20_000 {
                let (mut k, mut p) = (0, 1.0);
                loop {
                    p *= reference.gen::<f64>();
                    if p <= (-rate).exp() {
                        break;
                    }
                    k += 1;
                }
                assert_eq!(source.arrivals(&mut rng), k, "rate {rate}");
                assert_eq!(rng, reference, "rate {rate}");
            }
        }
    }

    #[test]
    fn draws_per_address_is_what_pick_address_draws() {
        let patterns = [
            Pattern::Uniform,
            Pattern::PLocal { p_local: 0.0 },
            Pattern::PLocal { p_local: 1.0 },
            Pattern::Permutation(Permutation::BitComplement),
            Pattern::Permutation(Permutation::TileTranspose),
        ];
        let no_seq = AddressSpace { seq_bytes: 0, ..space() };
        let cases = patterns.into_iter().chain(other_patterns()).map(|p| (p, space()));
        let cases = cases.chain([(Pattern::PLocal { p_local: 0.5 }, no_seq)]);
        for (pattern, space) in cases {
            let source = Source::new(0.5, pattern, space);
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..1_000 {
                let mut skipped = rng.clone();
                skipped.advance(source.draws_per_address());
                source.pick_address(&mut rng);
                assert_eq!(rng, skipped, "{pattern:?}, seq_bytes {}", space.seq_bytes);
            }
        }
    }

    /// The generator as it was before its hot paths were rewritten: a
    /// stored 16-byte `(generation cycle, address)` per waiting request,
    /// `exp` per cycle, a scan of `tags` per issue. Its addresses come from
    /// the generator's own [`Source::pick_address`].
    struct WideGen {
        rate: f64,
        source: Source,
        rng: StdRng,
        queue: VecDeque<(u64, u32)>,
        tags: Vec<Option<u64>>,
        clock: u64,
        measure_from: Option<u64>,
        stopped: bool,
        stats: GenStats,
    }

    impl WideGen {
        fn new(pattern: Pattern, rate: f64, outstanding: usize, seed: u64) -> WideGen {
            WideGen {
                rate,
                source: TrafficGen::new(rate, pattern, space(), outstanding, seed).source,
                rng: StdRng::seed_from_u64(seed),
                queue: VecDeque::new(),
                tags: vec![None; outstanding],
                clock: 0,
                measure_from: None,
                stopped: false,
                stats: GenStats::default(),
            }
        }

        fn deliver(&mut self, tag: u8) {
            let gen_time = self.tags[tag as usize].take().expect("in flight");
            self.stats.completed += 1;
            if self.measure_from.is_some_and(|from| gen_time >= from) {
                self.stats.latency.record(self.clock + 1 - gen_time);
            }
        }

        /// The issued `(tag, generation cycle, address)`.
        fn step(&mut self, request_ready: bool) -> Option<(u8, u64, u32)> {
            self.clock += 1;
            if !self.stopped {
                let l = (-self.rate).exp();
                let (mut p, mut arrivals) = (self.rng.gen::<f64>(), 0);
                while p > l {
                    p *= self.rng.gen::<f64>();
                    arrivals += 1;
                }
                for _ in 0..arrivals {
                    let addr = self.source.pick_address(&mut self.rng);
                    self.queue.push_back((self.clock, addr));
                    self.stats.generated += 1;
                }
            }
            if !request_ready || self.queue.is_empty() {
                return None;
            }
            let tag = self.tags.iter().position(Option::is_none)?;
            let (gen_time, addr) = self.queue.pop_front().expect("nonempty");
            self.tags[tag] = Some(gen_time);
            self.stats.injected += 1;
            Some((tag as u8, gen_time, addr))
        }

        fn encode_state(&self) -> Vec<u8> {
            let mut out = Vec::new();
            let u64s = |out: &mut Vec<u8>, vs: &[u64]| {
                vs.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
            };
            u64s(&mut out, &[self.rng.state(), self.queue.len() as u64]);
            for &(cycle, addr) in &self.queue {
                u64s(&mut out, &[cycle]);
                out.extend_from_slice(&addr.to_le_bytes());
            }
            u64s(&mut out, &[self.tags.len() as u64]);
            for tag in &self.tags {
                out.push(u8::from(tag.is_some()));
                u64s(&mut out, tag.as_slice());
            }
            u64s(&mut out, &[self.tags.iter().flatten().count() as u64, self.clock]);
            out.push(u8::from(self.measure_from.is_some()));
            u64s(&mut out, self.measure_from.as_slice());
            out.push(u8::from(self.stopped));
            let stats = &self.stats;
            u64s(&mut out, &[stats.generated, stats.injected, stats.completed]);
            mempool::snapshot::save(&mut out, &self.stats.latency);
            out
        }

        /// Moves the generator `delta` cycles into the future, its waiting
        /// and in-flight requests with it.
        fn shift_clock(&mut self, delta: u64) {
            self.clock += delta;
            self.queue.iter_mut().for_each(|(cycle, _)| *cycle += delta);
            self.tags.iter_mut().flatten().for_each(|cycle| *cycle += delta);
            self.measure_from.iter_mut().for_each(|cycle| *cycle += delta);
        }
    }

    fn encoded(gen: &TrafficGen) -> Vec<u8> {
        let mut bytes = Vec::new();
        mempool::snapshot::save(&mut bytes, gen);
        bytes
    }

    fn decoded(bytes: &[u8], outstanding: usize) -> Result<TrafficGen, mempool::SnapshotError> {
        let mut gen = TrafficGen::new(0.9, Pattern::Uniform, space(), outstanding, 0);
        mempool::snapshot::load(&mut mempool::ByteReader::new(bytes), &mut gen)?;
        Ok(gen)
    }

    /// A generator and its reference under one memory: responses come back
    /// late and out of order, and every cycle must issue, measure and encode
    /// alike.
    struct Lockstep {
        gen: TrafficGen,
        reference: WideGen,
        harness: StdRng,
        in_flight: Vec<u8>,
        /// Issues whose request was generated before cycle 2³² and left the
        /// queue at or after it.
        issued_across_the_wrap: u64,
    }

    impl Lockstep {
        fn new(rate: f64, outstanding: usize, seed: u64) -> Lockstep {
            Lockstep::of(Pattern::Uniform, rate, outstanding, seed)
        }

        fn of(pattern: Pattern, rate: f64, outstanding: usize, seed: u64) -> Lockstep {
            Lockstep {
                gen: TrafficGen::new(rate, pattern, space(), outstanding, seed),
                reference: WideGen::new(pattern, rate, outstanding, seed),
                harness: StdRng::seed_from_u64(seed ^ 0xbac4),
                in_flight: Vec::new(),
                issued_across_the_wrap: 0,
            }
        }

        /// Starts measuring both from the next cycle on.
        fn start_measuring(&mut self) {
            self.gen.start_measuring();
            self.reference.measure_from = Some(self.reference.clock);
        }

        fn stop(&mut self) {
            self.gen.stop();
            self.reference.stopped = true;
        }

        /// Replaces the generator with one restored from its own state.
        fn restore(&mut self) {
            let (gen, source) = (&self.gen, self.gen.source);
            let outstanding = gen.tags.len();
            let mut fresh = TrafficGen::new(gen.rate, source.pattern, source.space, outstanding, 0);
            let bytes = encoded(gen);
            let mut reader = mempool::ByteReader::new(&bytes);
            mempool::snapshot::load(&mut reader, &mut fresh).expect("own state");
            self.gen = fresh;
        }

        /// One cycle in which each in-flight response returns with
        /// probability 1/`return_odds` and the port is free with
        /// probability `ready_of_4`/4.
        fn cycle(&mut self, return_odds: u32, ready_of_4: u32) {
            while !self.in_flight.is_empty() && self.harness.gen_range(0..return_odds) == 0 {
                let at = self.harness.gen_range(0..self.in_flight.len());
                let tag = self.in_flight.swap_remove(at);
                self.gen.deliver(DataResponse { tag, data: 0 });
                self.reference.deliver(tag);
            }
            let ready = self.harness.gen_range(0u32..4) < ready_of_4;
            let issued = self.gen.step(&mut |_| Fetch::Stall, ready).map(|req| {
                let gen_time = self.gen.tags[req.tag as usize].expect("just issued");
                (req.tag, gen_time, req.addr)
            });
            let clock = self.reference.clock + 1;
            assert_eq!(issued, self.reference.step(ready), "cycle {clock}");
            if let Some((tag, gen_time, _)) = issued {
                self.in_flight.push(tag);
                self.issued_across_the_wrap +=
                    u64::from(gen_time < 1 << 32 && clock >= 1 << 32);
            }
            assert_eq!(self.gen.stats.latency, self.reference.stats.latency, "cycle {clock}");
            // Encoding walks the whole backlog: every cycle while that is
            // short, every 1009th once it is not.
            if self.gen.queue_len() < 64 || clock.is_multiple_of(1009) {
                let same = encoded(&self.gen) == self.reference.encode_state();
                assert!(same, "encodings differ at cycle {clock}");
            }
        }
    }

    #[test]
    fn a_queue_entry_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Queued>(), 8);
    }

    #[test]
    fn packed_backlog_matches_wide_entries_past_saturation() {
        // Load 0.9 against a port that is free every other cycle: the
        // backlog grows by ≈ 0.4 entries a cycle and never drains.
        let mut pair = Lockstep::new(0.9, 64, 21);
        for cycle in 0..50_000 {
            if cycle == 1_000 {
                pair.start_measuring();
            }
            pair.cycle(2, 2);
        }
        assert!(pair.gen.queue_len() > 15_000, "backlog {}", pair.gen.queue_len());
        let measured = pair.gen.stats().latency.count();
        assert!(measured > 10_000, "{measured} latencies");
        assert!(encoded(&pair.gen) == pair.reference.encode_state());
    }

    #[test]
    fn packed_backlog_matches_wide_entries_through_bursts_and_the_drain() {
        // A port blocked for 1 000 cycles of every 3 000 builds a backlog
        // of ≈ 450 that the open 2 000 drain to nothing: the cursor walks
        // the stream behind the arrivals and is set back on it again and
        // again.
        let mut pair = Lockstep::new(0.45, 16, 22);
        pair.start_measuring();
        let (mut emptied, mut deepest) = (0, 0);
        for cycle in 0..50_000u64 {
            if cycle == 45_000 {
                pair.stop();
            }
            let was_empty = pair.gen.queue_len() == 0;
            pair.cycle(2, if cycle % 3_000 < 1_000 { 0 } else { 4 });
            emptied += u64::from(!was_empty && pair.gen.queue_len() == 0);
            deepest = deepest.max(pair.gen.queue_len());
        }
        assert!(deepest > 300 && emptied > 15, "deepest {deepest}, emptied {emptied} times");
        assert!(pair.gen.done());
        assert_eq!(pair.gen.stats().generated, pair.gen.stats().completed);
    }

    #[test]
    fn packed_backlog_survives_the_clock_passing_two_to_the_32() {
        let mut pair = Lockstep::new(0.9, 64, 23);
        pair.start_measuring();
        for _ in 0..3_000 {
            pair.cycle(2, 2);
        }
        // Both continue from the reference's bytes 500 cycles short of 2³².
        pair.reference.shift_clock((1 << 32) - 500 - pair.reference.clock);
        pair.gen = decoded(&pair.reference.encode_state(), 64).expect("a valid state");
        let waiting = pair.gen.queue_len();
        assert!(waiting > 1_000, "backlog {waiting}");
        for _ in 0..3_000 {
            pair.cycle(2, 2);
        }
        assert!(pair.gen.clock > 1 << 32);
        // Everything that waited at the restore left the queue after the
        // wrap, with its generation cycle from before it.
        assert!(
            pair.issued_across_the_wrap > 1_000,
            "{} issues spanned the wrap",
            pair.issued_across_the_wrap
        );
        assert!(encoded(&pair.gen) == pair.reference.encode_state());
    }

    /// The patterns besides `Uniform`, each drawing its own numbers per
    /// address: one or two (`PLocal`'s choice of region, then a word), one
    /// (`HotSpot`), two (`Permutation`'s row and bank).
    fn other_patterns() -> [Pattern; 3] {
        [
            Pattern::PLocal { p_local: 0.3 },
            Pattern::HotSpot { base: 4096, bytes: 1024 },
            Pattern::Permutation(Permutation::Tornado),
        ]
    }

    #[test]
    fn every_pattern_redraws_its_backlog_past_saturation() {
        for (seed, pattern) in (41..).zip(other_patterns()) {
            let mut pair = Lockstep::of(pattern, 0.9, 64, seed);
            for cycle in 0..20_000 {
                if cycle == 1_000 {
                    pair.start_measuring();
                }
                pair.cycle(2, 2);
            }
            assert!(pair.gen.queue_len() > 6_000, "{pattern:?}: backlog {}", pair.gen.queue_len());
            assert!(encoded(&pair.gen) == pair.reference.encode_state(), "{pattern:?}");
        }
    }

    #[test]
    fn every_pattern_redraws_its_backlog_through_bursts_stop_and_the_drain() {
        for (seed, pattern) in (51..).zip(other_patterns()) {
            let mut pair = Lockstep::of(pattern, 0.45, 16, seed);
            pair.start_measuring();
            let mut emptied = 0;
            for cycle in 0..20_000u64 {
                if cycle == 15_500 {
                    // Mid-burst: the stop leaves a backlog to drain.
                    pair.stop();
                }
                let was_empty = pair.gen.queue_len() == 0;
                pair.cycle(2, if cycle % 3_000 < 1_000 { 0 } else { 4 });
                emptied += u64::from(!was_empty && pair.gen.queue_len() == 0);
            }
            assert!(emptied > 5, "{pattern:?}: emptied {emptied} times");
            assert!(pair.gen.done(), "{pattern:?}");
            assert_eq!(pair.gen.stats().generated, pair.gen.stats().completed);
        }
    }

    #[test]
    fn every_pattern_redraws_new_arrivals_behind_a_restored_backlog() {
        for (seed, pattern) in (61..).zip([Pattern::Uniform].into_iter().chain(other_patterns())) {
            let mut pair = Lockstep::of(pattern, 0.9, 64, seed);
            pair.start_measuring();
            for _ in 0..3_000 {
                pair.cycle(2, 2);
            }
            pair.restore();
            let waiting = pair.gen.restored.len();
            assert!(waiting > 1_000 && pair.gen.owed == 0, "{pattern:?}: backlog {waiting}");
            // The restored prefix drains at ≈ 0.5 a cycle while new
            // arrivals queue behind it; the encodings walk both.
            let mut both = 0;
            while !pair.gen.restored.is_empty() {
                both += u64::from(pair.gen.owed > 0);
                pair.cycle(2, 2);
                if pair.gen.clock.is_multiple_of(101) {
                    assert!(encoded(&pair.gen) == pair.reference.encode_state(), "{pattern:?}");
                }
            }
            assert!(both > 1_000, "{pattern:?}: {both} cycles held both");
            for _ in 0..1_000 {
                pair.cycle(2, 2);
            }
            assert!(pair.gen.owed > 1_000, "{pattern:?}: {} owed", pair.gen.owed);
            assert!(encoded(&pair.gen) == pair.reference.encode_state(), "{pattern:?}");
        }
    }

    /// A backlogged generator's state at `clock`, and the offsets of its
    /// first and last queue entry and of its first in-flight tag's cycle.
    fn backlogged_state(clock: u64) -> (Vec<u8>, usize, usize, usize) {
        let mut reference = WideGen::new(Pattern::Uniform, 0.9, 8, 31);
        for cycle in 0..400 {
            if let Some((tag, ..)) = reference.step(cycle % 2 == 0) {
                if tag >= 4 {
                    reference.deliver(tag);
                }
            }
        }
        reference.shift_clock(clock - reference.clock);
        let bytes = reference.encode_state();
        let waiting = reference.queue.len();
        assert!(waiting > 50 && reference.tags[0].is_some());
        // rng, count, 12-byte entries, tag count, then tag 0's flag.
        (bytes, 16, 16 + 12 * (waiting - 1), 16 + 12 * waiting + 8 + 1)
    }

    fn patched(bytes: &[u8], at: usize, cycle: u64) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        bytes[at..at + 8].copy_from_slice(&cycle.to_le_bytes());
        bytes
    }

    #[test]
    fn restore_rejects_generation_cycles_the_clock_cannot_have_seen() {
        use mempool::SnapshotError::Corrupt;
        let clock = (1 << 32) + 10_000;
        let (bytes, first, last, tag0) = backlogged_state(clock);
        assert!(encoded(&decoded(&bytes, 8).expect("unpatched")) == bytes);
        let rejected = |bytes: &[u8]| decoded(bytes, 8).err();
        // After the clock: the latency of such a request would underflow.
        let queued = Some(Corrupt("queued generation cycle"));
        assert_eq!(rejected(&patched(&bytes, last, clock + 1)), queued);
        assert_eq!(
            rejected(&patched(&bytes, tag0, clock + 1)),
            Some(Corrupt("in-flight generation cycle"))
        );
        assert!(decoded(&patched(&bytes, last, clock), 8).is_ok());
        assert!(decoded(&patched(&bytes, tag0, clock), 8).is_ok());
        // 2³² cycles before it: no 32-bit form; one cycle younger has one.
        assert_eq!(rejected(&patched(&bytes, first, clock - (1 << 32))), queued);
        let oldest = patched(&bytes, first, clock - u64::from(u32::MAX));
        assert!(encoded(&decoded(&oldest, 8).expect("representable")) == oldest);
        // Out of generation order: the front would not be the oldest.
        assert_eq!(rejected(&patched(&bytes, first, clock)), queued);
    }

    #[test]
    fn a_corrupt_queue_length_reserves_no_more_than_the_bytes_could_fill() {
        let (mut bytes, ..) = backlogged_state(5_000);
        bytes.truncate(16 + 12 * 5);
        bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let mut gen = TrafficGen::new(0.9, Pattern::Uniform, space(), 8, 0);
        let mut reader = mempool::ByteReader::new(&bytes);
        assert_eq!(
            mempool::snapshot::load(&mut reader, &mut gen),
            Err(mempool::SnapshotError::Truncated)
        );
        assert!(gen.restored.capacity() <= 8, "reserved {}", gen.restored.capacity());
    }

    #[test]
    fn issues_match_a_reference_that_scans_the_tags() {
        // 64 tags fill one mask word exactly, 200 need four; the load is
        // past what the harness drains, so the tags run out and free up in
        // no particular order.
        for (outstanding, seed) in [(64usize, 11u64), (200, 12), (1, 13)] {
            let mut pair = Lockstep::new(0.9, outstanding, seed);
            for step in 0..10_000 {
                if step == 5_000 {
                    // A checkpoint restore rebuilds the mask from the tags.
                    pair.gen = decoded(&encoded(&pair.gen), outstanding).expect("own snapshot");
                }
                pair.cycle(4, 3);
            }
            let issued = pair.gen.stats().injected;
            assert!(issued > 1_000, "{outstanding} tags: only {issued} issues");
            assert!(
                pair.gen.queue_len() > 0,
                "{outstanding} tags: never back-pressured"
            );
        }
    }

    #[test]
    fn backpressure_defers_injection() {
        let mut gen = TrafficGen::new(1.0, Pattern::Uniform, space(), 8, 7);
        for _ in 0..100 {
            let req = gen.step(&mut |_| Fetch::Stall, false);
            assert!(req.is_none());
        }
        assert!(gen.stats().generated > 50);
        assert_eq!(gen.stats().injected, 0);
        assert!(gen.queue_len() > 50);
    }
}
