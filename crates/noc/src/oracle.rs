//! Test-only reference implementations: the two-`VecDeque` elastic buffer
//! and the list-collecting `Fabric::resolve` that the allocation-free
//! versions replaced, kept verbatim so seeded random traffic can pin the
//! new code to the old behaviour — grants, delivery order, round-robin
//! pointers, grant counters and buffer contents — rather than to its own
//! self-consistency.

use crate::{ElasticBuffer, Fabric, Hop, Offer, RoundRobin};
use mempool_rng::{Rng, SeedableRng, StdRng};
use std::collections::VecDeque;

/// The former `ElasticBuffer`: separate stored and arrival queues.
struct VecDequeBuffer<T> {
    stored: VecDeque<T>,
    arrivals: VecDeque<T>,
    capacity: usize,
    stalled: bool,
    pushes: u64,
}

impl<T> VecDequeBuffer<T> {
    fn new(capacity: usize) -> Self {
        VecDequeBuffer {
            stored: VecDeque::with_capacity(capacity),
            arrivals: VecDeque::with_capacity(capacity),
            capacity,
            stalled: false,
            pushes: 0,
        }
    }

    fn len(&self) -> usize {
        self.stored.len() + self.arrivals.len()
    }

    fn can_push(&self) -> bool {
        !self.stalled && self.len() < self.capacity
    }

    fn push(&mut self, item: T) {
        assert!(self.can_push(), "push into full elastic buffer");
        self.pushes += 1;
        self.arrivals.push_back(item);
    }

    fn head(&self) -> Option<&T> {
        if self.stalled {
            return None;
        }
        self.stored.front()
    }

    fn pop(&mut self) -> Option<T> {
        if self.stalled {
            return None;
        }
        self.stored.pop_front()
    }

    fn drop_head(&mut self) -> Option<T> {
        self.stored.pop_front()
    }

    fn head_mut(&mut self) -> Option<&mut T> {
        self.stored.front_mut()
    }

    fn commit(&mut self) {
        self.stored.append(&mut self.arrivals);
    }

    fn clear(&mut self) {
        self.stored.clear();
        self.arrivals.clear();
        self.stalled = false;
    }

    fn load(&mut self, stored: Vec<T>, arrivals: Vec<T>, stalled: bool) {
        self.stored = stored.into();
        self.arrivals = arrivals.into();
        assert!(
            self.len() <= self.capacity,
            "loaded state exceeds buffer capacity"
        );
        self.stalled = stalled;
    }
}

/// The former `RoundRobin::peek`.
fn peek_reference(arb: &RoundRobin, requests: &[usize]) -> Option<usize> {
    let n = arb.lines();
    let mut best: Option<(usize, usize)> = None; // (distance, line)
    for &line in requests {
        assert!(line < n, "request line {line} out of range");
        let distance = (line + n - arb.pointer()) % n;
        match best {
            Some((d, _)) if d <= distance => {}
            _ => best = Some((distance, line)),
        }
    }
    best.map(|(_, line)| line)
}

/// The former `Fabric`: nested path and arbiter tables, per-port contender
/// lists, a collected request vector per contended port.
struct ReferenceFabric {
    n_out: usize,
    n_layers: usize,
    paths: Vec<Vec<Hop>>,
    landing: Vec<usize>,
    arbiters: Vec<Vec<RoundRobin>>,
    scratch_contenders: Vec<Vec<(usize, u32)>>,
    scratch_touched: Vec<u32>,
}

impl ReferenceFabric {
    /// Copies `fabric`'s geometry through its public accessors.
    fn mirror(fabric: &Fabric) -> Self {
        let (n_in, n_out) = (fabric.n_in(), fabric.n_out());
        // Every layer has as many switch outputs as the fabric has outputs.
        let layer_ports = n_out;
        let pairs = (0..n_in).flat_map(|i| (0..n_out).map(move |d| (i, d)));
        let lines = n_in.max(layer_ports);
        ReferenceFabric {
            n_out,
            n_layers: fabric.n_layers(),
            paths: pairs
                .clone()
                .map(|(i, d)| fabric.path(i, d).to_vec())
                .collect(),
            landing: pairs.map(|(i, d)| fabric.output_port(i, d)).collect(),
            arbiters: (0..fabric.n_layers())
                .map(|_| (0..layer_ports).map(|_| RoundRobin::new(lines)).collect())
                .collect(),
            scratch_contenders: vec![Vec::new(); layer_ports],
            scratch_touched: Vec::new(),
        }
    }

    fn resolve(&mut self, offers: &[Offer], out_ready: &mut dyn FnMut(usize) -> bool) -> Vec<bool> {
        let mut alive = vec![true; offers.len()];
        for layer in 0..self.n_layers {
            self.scratch_touched.clear();
            for (idx, offer) in offers.iter().enumerate() {
                if !alive[idx] {
                    continue;
                }
                let hop = self.paths[offer.input * self.n_out + offer.dest][layer];
                let port = hop.out_port as usize;
                if self.scratch_contenders[port].is_empty() {
                    self.scratch_touched.push(hop.out_port);
                }
                self.scratch_contenders[port].push((idx, hop.in_port));
            }
            for t in 0..self.scratch_touched.len() {
                let port = self.scratch_touched[t] as usize;
                let contenders = &mut self.scratch_contenders[port];
                if contenders.len() > 1 {
                    let requests: Vec<usize> =
                        contenders.iter().map(|&(_, inp)| inp as usize).collect();
                    let winner_in = peek_reference(&self.arbiters[layer][port], &requests)
                        .expect("nonempty contenders");
                    for &(idx, inp) in contenders.iter() {
                        if inp as usize != winner_in {
                            alive[idx] = false;
                        }
                    }
                }
                contenders.clear();
            }
        }
        for (idx, offer) in offers.iter().enumerate() {
            if alive[idx] && !out_ready(self.landing[offer.input * self.n_out + offer.dest]) {
                alive[idx] = false;
            }
        }
        for (idx, offer) in offers.iter().enumerate() {
            if !alive[idx] {
                continue;
            }
            for hop in &self.paths[offer.input * self.n_out + offer.dest] {
                self.arbiters[hop.layer as usize][hop.out_port as usize]
                    .advance_past(hop.in_port as usize);
            }
        }
        alive
    }

    fn arbiter_pointers(&self) -> Vec<usize> {
        self.arbiters
            .iter()
            .flatten()
            .map(RoundRobin::pointer)
            .collect()
    }

    fn arbiter_grants(&self) -> Vec<u64> {
        self.arbiters
            .iter()
            .flatten()
            .map(RoundRobin::grants)
            .collect()
    }
}

/// Drives `fabric` and its mirror with `rounds` of seeded random offers
/// (a quarter to all of the inputs) and random terminal readiness. Two
/// rounds in three go through [`Fabric::route`], as the cluster's hops do;
/// the third through the `resolve`/`resolve_into` adapter.
fn assert_matches_reference(name: &str, mut fabric: Fabric, rounds: usize) {
    let mut reference = ReferenceFabric::mirror(&fabric);
    let seed = name.bytes().fold(0xfab0_0ac1e, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut granted = Vec::new();
    for round in 0..rounds {
        let density = rng.gen_range(1u32..5);
        let offers: Vec<Offer> = (0..fabric.n_in())
            .filter_map(|input| {
                let dest = rng.gen_range(0..fabric.n_out());
                (rng.gen_range(0u32..4) < density).then_some(Offer { input, dest })
            })
            .collect();
        let ready: Vec<bool> = (0..fabric.n_out())
            .map(|_| rng.gen_range(0u32..4) != 0)
            .collect();
        // The terminal must be probed for the same offers in the same order.
        let mut ref_probes = Vec::new();
        let want = reference.resolve(&offers, &mut |port| {
            ref_probes.push(port);
            ready[port]
        });
        let probes = std::cell::RefCell::new(Vec::new());
        let probe = |port: usize| {
            probes.borrow_mut().push(port);
            ready[port]
        };
        let got = match round % 6 {
            4 => {
                fabric.resolve_into(&offers, probe, &mut granted);
                granted.clone()
            }
            5 => fabric.resolve(&offers, &mut { probe }),
            _ => {
                // The packets sit in latches, one per input; a delivery
                // empties its latch and records where the packet went.
                let mut latches = vec![None; fabric.n_in()];
                for offer in &offers {
                    latches[offer.input] = Some(offer.dest);
                }
                let mut state = (latches, Vec::new());
                fabric.route(
                    &mut state,
                    |(latches, _), wanted| {
                        for (input, dest) in latches.iter().enumerate() {
                            if let Some(dest) = dest {
                                wanted.add(input, *dest);
                            }
                        }
                    },
                    |(_, delivered), port| {
                        assert!(delivered.is_empty(), "{name}: sampled after a move");
                        probe(port)
                    },
                    |(latches, delivered), input, port| {
                        let dest = latches[input].take().expect("delivered once");
                        delivered.push((input, port, dest));
                    },
                );
                let (latches, delivered) = state;
                // Input order, each on the port the path table names.
                let expected: Vec<_> = offers
                    .iter()
                    .zip(&want)
                    .filter(|(_, &won)| won)
                    .map(|(o, _)| (o.input, fabric.output_port(o.input, o.dest), o.dest))
                    .collect();
                assert_eq!(delivered, expected, "{name} round {round}: deliveries");
                offers.iter().map(|o| latches[o.input].is_none()).collect()
            }
        };
        assert_eq!(got, want, "{name} round {round}: grants");
        assert_eq!(
            probes.into_inner(),
            ref_probes,
            "{name} round {round}: terminal probes"
        );
        let arbiters = fabric.arbiters().iter();
        let pointers: Vec<usize> = arbiters.clone().map(RoundRobin::pointer).collect();
        assert_eq!(pointers, reference.arbiter_pointers(), "{name} round {round}");
        let grants: Vec<u64> = arbiters.map(RoundRobin::grants).collect();
        assert_eq!(grants, reference.arbiter_grants(), "{name} round {round}");
    }
}

#[test]
fn route_matches_the_collecting_reference() {
    // The crossbars the cluster builds (tile request and response, port
    // router, group-local), and one whose request masks take two words.
    for (m, n) in [
        (8, 16),
        (16, 8),
        (4, 4),
        (16, 16),
        (4, 16),
        (20, 16),
        (128, 8),
    ] {
        let xbar = Fabric::crossbar(m, n).unwrap();
        assert_matches_reference(&format!("crossbar {m}x{n}"), xbar, 10_000);
    }
    // Whole butterflies; 256 ports take four mask words.
    for (ports, radix) in [(16, 4), (64, 4), (256, 4), (16, 2), (64, 2)] {
        let name = format!("butterfly {ports} radix {radix}");
        assert_matches_reference(&name, Fabric::butterfly(ports, radix).unwrap(), 10_000);
    }
    // Split networks, as the pipelined Top1/Top4 butterflies use them
    // (0..2 and 2..3 are the two halves of the 64-port one). An interior or
    // final segment sees arbitrary (input, dest) pairs here — more than
    // real traffic can produce, which only widens the check.
    for (first, last) in [(0, 2), (2, 3), (0, 1), (1, 3)] {
        let name = format!("butterfly 64 radix 4 segment {first}..{last}");
        let segment = Fabric::butterfly_segment(64, 4, first, last).unwrap();
        assert_matches_reference(&name, segment, 10_000);
    }
    let segment = Fabric::butterfly_segment(16, 2, 1, 3).unwrap();
    assert_matches_reference("butterfly 16 radix 2 segment 1..3", segment, 10_000);
}

#[test]
fn inline_ring_matches_the_vecdeque_buffer() {
    for capacity in [1usize, 2, 4] {
        for case in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(0xe1a5_71c0 ^ case ^ (capacity as u64) << 32);
            let mut new = ElasticBuffer::<u32>::new(capacity);
            let mut old = VecDequeBuffer::<u32>::new(capacity);
            let mut next = 0u32;
            for step in 0..2_000 {
                let at = format!("capacity {capacity} case {case} step {step}");
                match rng.gen_range(0u32..16) {
                    0..=4 => {
                        assert_eq!(new.can_push(), old.can_push(), "{at}");
                        if old.can_push() {
                            new.push(next);
                            old.push(next);
                            next += 1;
                        }
                    }
                    5..=8 => assert_eq!(new.pop(), old.pop(), "{at}"),
                    9..=11 => {
                        new.commit();
                        old.commit();
                    }
                    12 => {
                        let stalled = rng.gen::<bool>();
                        new.set_stalled(stalled);
                        old.stalled = stalled;
                    }
                    13 => assert_eq!(new.drop_head(), old.drop_head(), "{at}"),
                    14 => {
                        if let Some(item) = old.head_mut() {
                            *item ^= 0x8000_0000;
                        }
                        if let Some(item) = new.head_mut() {
                            *item ^= 0x8000_0000;
                        }
                    }
                    _ if rng.gen_range(0u32..8) == 0 => {
                        new.clear();
                        old.clear();
                    }
                    _ => {
                        // Checkpoint round trip through a rotated ring.
                        let stored: Vec<u32> = new.iter().copied().collect();
                        let arrivals: Vec<u32> = new.iter_arrivals().copied().collect();
                        let stalled = new.is_stalled();
                        new.load(stored.clone(), arrivals.clone(), stalled);
                        old.load(stored, arrivals, stalled);
                    }
                }
                assert_eq!(new.head(), old.head(), "{at}");
                assert_eq!(new.len(), old.len(), "{at}");
                assert_eq!(new.staged(), old.arrivals.len(), "{at}");
                assert_eq!(new.is_empty(), old.len() == 0, "{at}");
                assert_eq!(new.can_push(), old.can_push(), "{at}");
                assert_eq!(new.is_stalled(), old.stalled, "{at}");
                assert_eq!(new.pushes(), old.pushes, "{at}");
                assert!(new.iter().eq(old.stored.iter()), "{at}: stored contents");
                assert!(
                    new.iter_arrivals().eq(old.arrivals.iter()),
                    "{at}: staged contents"
                );
            }
        }
    }
}
