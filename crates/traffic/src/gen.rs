//! The synthetic traffic generator of §V-A: each core is replaced by a
//! generator producing new requests following a Poisson process, with
//! uniformly distributed destination banks (optionally biased into the
//! local tile's sequential region, §V-B).

use mempool::{Core, LatencyStats};
use mempool_riscv::LoadOp;
use mempool_snitch::{DataRequest, DataRequestKind, DataResponse, Fetch};
use mempool_rng::StdRng;
use mempool_rng::{Rng, SeedableRng};
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
    /// `exp(-rate)`, the stopping threshold of every arrival draw.
    arrival_floor: f64,
    pattern: Pattern,
    space: AddressSpace,
    rng: StdRng,
    /// Generated-but-not-injected requests: (generation cycle, address).
    queue: VecDeque<(u64, u32)>,
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
        TrafficGen {
            rate,
            arrival_floor: (-rate).exp(),
            pattern,
            space,
            rng: StdRng::seed_from_u64(seed),
            queue: VecDeque::new(),
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
        self.queue.len()
    }

    /// Samples the number of Poisson arrivals this cycle (Knuth's method —
    /// rates of interest are well below 1).
    fn arrivals(&mut self) -> u32 {
        if self.rate <= 0.0 || self.stopped {
            return 0;
        }
        let l = self.arrival_floor;
        let mut k = 0;
        let mut p = 1.0;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    fn pick_address(&mut self) -> u32 {
        let word = match self.pattern {
            Pattern::Uniform => self.rng.gen_range(0..self.space.l1_bytes / 4),
            Pattern::PLocal { p_local } => {
                if self.space.seq_bytes > 0 && self.rng.gen::<f64>() < p_local {
                    let off = self.rng.gen_range(0..self.space.seq_bytes / 4);
                    return self.space.seq_base + off * 4;
                }
                // Outside the sequential regions: uniform over the
                // interleaved remainder.
                let lo = self.space.seq_total / 4;
                let hi = self.space.l1_bytes / 4;
                self.rng.gen_range(lo..hi)
            }
            Pattern::HotSpot { base, bytes } => {
                let off = self.rng.gen_range(0..bytes.max(4) / 4);
                return base + off * 4;
            }
            Pattern::Permutation(perm) => {
                // A uniform word inside the destination tile under the
                // interleaved map: word = (row * tiles + dest) * banks + bank.
                let dest = perm.dest_tile(self.space.tile, self.space.num_tiles);
                let banks = self.space.banks_per_tile;
                let rows = self.space.l1_bytes / 4 / self.space.num_tiles / banks;
                let row = self.rng.gen_range(0..rows);
                let bank = self.rng.gen_range(0..banks);
                (row * self.space.num_tiles + dest) * banks + bank
            }
        };
        word * 4
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

impl mempool::CoreState for TrafficGen {
    fn encode_state(&self, out: &mut dyn mempool::StateSink) {
        out.put_u64(self.rng.state());
        out.put_u64(self.queue.len() as u64);
        for &(cycle, addr) in &self.queue {
            out.put_u64(cycle);
            out.put_u32(addr);
        }
        out.put_u64(self.tags.len() as u64);
        for tag in &self.tags {
            match tag {
                None => out.put_bool(false),
                Some(gen_time) => {
                    out.put_bool(true);
                    out.put_u64(*gen_time);
                }
            }
        }
        out.put_u64(self.in_flight as u64);
        out.put_u64(self.clock);
        match self.measure_from {
            None => out.put_bool(false),
            Some(from) => {
                out.put_bool(true);
                out.put_u64(from);
            }
        }
        out.put_bool(self.stopped);
        out.put_u64(self.stats.generated);
        out.put_u64(self.stats.injected);
        out.put_u64(self.stats.completed);
        self.stats.latency.save_state(out);
    }

    fn decode_state(
        &mut self,
        r: &mut mempool::ByteReader<'_>,
    ) -> Result<(), mempool::SnapshotError> {
        use mempool::SnapshotError;
        self.rng = StdRng::seed_from_u64(r.take_u64()?);
        let nq = r.take_u64()? as usize;
        self.queue.clear();
        for _ in 0..nq {
            let cycle = r.take_u64()?;
            let addr = r.take_u32()?;
            self.queue.push_back((cycle, addr));
        }
        let nt = r.take_u64()? as usize;
        if nt != self.tags.len() {
            return Err(SnapshotError::Corrupt("outstanding tag count"));
        }
        for tag in &mut self.tags {
            *tag = if r.take_bool()? { Some(r.take_u64()?) } else { None };
        }
        self.free_tags = free_mask(self.tags.len(), |t| self.tags[t].is_none());
        let free: u32 = self.free_tags.iter().map(|w| w.count_ones()).sum();
        self.in_flight = r.take_u64()? as usize;
        if self.in_flight != self.tags.len() - free as usize {
            return Err(SnapshotError::Corrupt("in-flight count"));
        }
        self.clock = r.take_u64()?;
        self.measure_from = if r.take_bool()? { Some(r.take_u64()?) } else { None };
        self.stopped = r.take_bool()?;
        self.stats.generated = r.take_u64()?;
        self.stats.injected = r.take_u64()?;
        self.stats.completed = r.take_u64()?;
        self.stats.latency.load_state(r)?;
        Ok(())
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
        _fetch: &mut dyn FnMut(u32) -> Fetch,
        request_ready: bool,
    ) -> Option<DataRequest> {
        self.clock += 1;
        let n = self.arrivals();
        for _ in 0..n {
            let addr = self.pick_address();
            self.queue.push_back((self.clock, addr));
            self.stats.generated += 1;
        }
        if !request_ready || self.queue.is_empty() {
            return None;
        }
        // The lowest free tag: what a scan of `tags` for `None` finds.
        let word = self.free_tags.iter().position(|&w| w != 0)?;
        let tag = word * 64 + self.free_tags[word].trailing_zeros() as usize;
        self.free_tags[word] &= self.free_tags[word] - 1;
        let (gen_time, addr) = self.queue.pop_front().expect("nonempty");
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
        self.stopped && self.queue.is_empty() && self.in_flight == 0
    }

    fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("generated", self.stats.generated),
            ("injected", self.stats.injected),
            ("completed", self.stats.completed),
            ("queue_len", self.queue.len() as u64),
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
            let addr = gen.pick_address();
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
            let addr = gen.pick_address();
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
            let addr = gen.pick_address();
            assert!(addr >= space().seq_total);
        }
    }

    #[test]
    fn addresses_are_word_aligned_and_in_range() {
        let mut gen = TrafficGen::new(1.0, Pattern::Uniform, space(), 64, 5);
        for _ in 0..1000 {
            let addr = gen.pick_address();
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

    /// The generator's issue path before the free-tag mask and the stored
    /// arrival threshold: `exp` per cycle, a scan of `tags` per issue.
    /// Uniform pattern only.
    struct ScanningGen {
        rate: f64,
        l1_words: u32,
        rng: StdRng,
        queue: VecDeque<u32>,
        tags: Vec<bool>,
    }

    impl ScanningGen {
        fn step(&mut self, request_ready: bool) -> Option<(u8, u32)> {
            let l = (-self.rate).exp();
            let (mut p, mut arrivals) = (self.rng.gen::<f64>(), 0);
            while p > l {
                p *= self.rng.gen::<f64>();
                arrivals += 1;
            }
            for _ in 0..arrivals {
                self.queue
                    .push_back(self.rng.gen_range(0..self.l1_words) * 4);
            }
            if !request_ready || self.queue.is_empty() {
                return None;
            }
            let tag = self.tags.iter().position(|&busy| !busy)?;
            self.tags[tag] = true;
            Some((tag as u8, self.queue.pop_front().expect("nonempty")))
        }
    }

    #[test]
    fn issues_match_a_reference_that_scans_the_tags() {
        use mempool::CoreState;
        // 64 tags fill one mask word exactly, 200 need four; the load is
        // past what the harness drains, so the tags run out and free up in
        // no particular order.
        for (outstanding, seed) in [(64usize, 11u64), (200, 12), (1, 13)] {
            let mut gen = TrafficGen::new(0.9, Pattern::Uniform, space(), outstanding, seed);
            let mut reference = ScanningGen {
                rate: 0.9,
                l1_words: space().l1_bytes / 4,
                rng: StdRng::seed_from_u64(seed),
                queue: VecDeque::new(),
                tags: vec![false; outstanding],
            };
            let mut harness = StdRng::seed_from_u64(seed ^ 0xbac4);
            let mut in_flight: Vec<u8> = Vec::new();
            let mut issued = 0;
            for step in 0..10_000 {
                // Responses come back late and out of order.
                while !in_flight.is_empty() && harness.gen_range(0u32..4) == 0 {
                    let tag = in_flight.swap_remove(harness.gen_range(0..in_flight.len()));
                    gen.deliver(DataResponse { tag, data: 0 });
                    reference.tags[tag as usize] = false;
                }
                if step == 5_000 {
                    // A checkpoint restore rebuilds the mask from the tags.
                    let mut bytes = Vec::new();
                    gen.encode_state(&mut bytes);
                    gen = TrafficGen::new(0.9, Pattern::Uniform, space(), outstanding, 0);
                    gen.decode_state(&mut mempool::ByteReader::new(&bytes))
                        .expect("own snapshot decodes");
                }
                let ready = harness.gen_range(0u32..3) != 0;
                let got = gen.step(&mut |_| Fetch::Stall, ready);
                let got = got.map(|req| (req.tag, req.addr));
                assert_eq!(
                    got,
                    reference.step(ready),
                    "{outstanding} tags, step {step}"
                );
                if let Some((tag, _)) = got {
                    in_flight.push(tag);
                    issued += 1;
                }
            }
            assert!(issued > 1_000, "{outstanding} tags: only {issued} issues");
            assert!(
                gen.queue_len() > 0,
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
