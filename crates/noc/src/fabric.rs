//! Combinational switching fabrics with per-output round-robin arbitration.
//!
//! A [`Fabric`] is everything between two register boundaries of the MemPool
//! interconnect: one or more layers of single-stage switches that a packet
//! traverses *within a single cycle*, provided it wins arbitration at every
//! switch output along its (unique, oblivious) path and the terminal is
//! ready. The paper's building blocks map onto fabrics as:
//!
//! * an *m×n fully-connected crossbar* — one layer, one arbiter per output;
//! * a *radix-4 butterfly* — `log4(n)` layers of 4×4 switches (this crate
//!   uses the omega wiring, a topologically equivalent delta network);
//! * a *pipelined butterfly* — two fabrics produced by
//!   [`Fabric::butterfly_segment`], joined by a row of
//!   [`ElasticBuffer`](crate::ElasticBuffer) registers.

use crate::RoundRobin;
use std::fmt;

/// One switch-output traversal on a packet's path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Layer index within the fabric.
    pub layer: u16,
    /// Layer-global input port the packet arrives on.
    pub in_port: u32,
    /// Layer-global output port the packet leaves on (the arbitrated
    /// resource).
    pub out_port: u32,
}

/// A packet presented to [`Fabric::resolve`]: which fabric input it sits on
/// and which fabric output it wants to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// Fabric input port (0..`n_in`).
    pub input: usize,
    /// Fabric output port (0..`n_out`).
    pub dest: usize,
}

/// Error returned by fabric constructors on invalid geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildFabricError {
    msg: String,
}

impl fmt::Display for BuildFabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for BuildFabricError {}

fn build_err(msg: impl Into<String>) -> BuildFabricError {
    BuildFabricError { msg: msg.into() }
}

/// A combinational multi-layer switching fabric.
///
/// Routing is oblivious (a single path per master/slave pair, as in the
/// paper): a crossbar's one hop is `input -> dest`, a butterfly's hops
/// follow from the destination's digits and the shuffle wiring. Arbitration
/// state is one [`RoundRobin`] per `(layer, output port)`.
///
/// # Examples
///
/// A 4×2 crossbar where two inputs contend for output 0:
///
/// ```
/// use mempool_noc::{Fabric, Offer};
///
/// let mut xbar = Fabric::crossbar(4, 2)?;
/// let offers = [Offer { input: 0, dest: 0 }, Offer { input: 3, dest: 0 }];
/// let granted = xbar.resolve(&offers, &mut |_out| true);
/// assert_eq!(granted.iter().filter(|&&g| g).count(), 1);
/// # Ok::<(), mempool_noc::BuildFabricError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    wiring: Wiring,
    /// `arbiters[layer * n_out + out_port]`.
    arbiters: Vec<RoundRobin>,
    /// `u64` words per request mask: one bit per arbiter line, so a fabric
    /// of any width arbitrates the same way (one word up to 64 lines).
    words: usize,
    /// `want[(layer * n_out + out_port) * words..][..words]`: the input
    /// lines of that layer requesting `out_port`. All zero between
    /// arbitrations.
    want: Vec<u64>,
    /// The packets still in contention, in the order they were entered;
    /// empty between arbitrations, never more than one per input.
    packets: Vec<Packet>,
    /// `won[input * (n_layers - 1) + layer]`: the arbiter the packet on
    /// `input` won in `layer` and the line it won on, for every layer but
    /// the last, so an accepted packet advances exactly those arbiters
    /// without walking its path again. Empty on a one-layer fabric.
    won: Vec<(u32, u32)>,
}

/// One contender on its way through the layers.
#[derive(Debug, Clone, Copy)]
struct Packet {
    /// The fabric input it was entered on and the output it is bound for.
    input: u32,
    dest: u32,
    /// The input line it stands on in the layer under arbitration.
    line: u32,
    /// The output port it requests there; once it has won every layer, the
    /// port it lands on.
    out: u32,
}

/// Where packets go: every layer has `n_out` switch output ports.
#[derive(Debug, Clone)]
struct Wiring {
    n_in: usize,
    n_out: usize,
    n_layers: usize,
    /// `None` for a crossbar, whose one hop is `input -> dest`.
    butterfly: Option<Butterfly>,
}

/// Consecutive layers of an omega network.
#[derive(Debug, Clone)]
struct Butterfly {
    /// The first output port of the switch each input line enters.
    switch: Vec<u32>,
    /// `digit[layer * n_out + dest]`: the output, within its switch, that a
    /// packet for `dest` takes in `layer`.
    digit: Vec<u32>,
    /// The perfect shuffle: the next layer's input line behind each output
    /// port.
    shuffle: Vec<u32>,
    /// Interior segments land on the *shuffled* final out port (the next
    /// layer's input row); see [`Fabric::butterfly_segment`].
    shuffled_terminal: bool,
}

impl Wiring {
    /// The output port a packet standing on input `line` of `layer` and
    /// bound for `dest` requests there.
    #[inline]
    fn out_port(&self, layer: usize, line: usize, dest: usize) -> usize {
        match &self.butterfly {
            None => dest,
            Some(b) => (b.switch[line] + b.digit[layer * self.n_out + dest]) as usize,
        }
    }

    /// The input line of the next layer (or, past the last one, of the
    /// next segment) wired to `out_port`.
    #[inline]
    fn line_behind(&self, out_port: usize) -> usize {
        match &self.butterfly {
            None => out_port,
            Some(b) => b.shuffle[out_port] as usize,
        }
    }

    /// Where a packet leaving the last layer on `out_port` lands.
    #[inline]
    fn landing(&self, out_port: usize) -> usize {
        match &self.butterfly {
            Some(b) if b.shuffled_terminal => b.shuffle[out_port] as usize,
            _ => out_port,
        }
    }

    /// The hops of a packet entering at `input` bound for `dest`, one per
    /// layer.
    #[inline]
    fn hops(&self, input: usize, dest: usize) -> impl Iterator<Item = Hop> + '_ {
        let mut line = input;
        (0..self.n_layers).map(move |layer| {
            let out_port = self.out_port(layer, line, dest);
            let hop = Hop {
                layer: layer as u16,
                in_port: line as u32,
                out_port: out_port as u32,
            };
            line = self.line_behind(out_port);
            hop
        })
    }
}

/// The contenders of one [`Fabric::route`] call, filled in by its caller.
#[derive(Debug)]
pub struct Requests<'a>(&'a mut Fabric);

impl Requests<'_> {
    /// The packet on fabric input `input` asks for fabric output `dest`.
    ///
    /// # Panics
    ///
    /// Panics if a port is out of range, or (debug builds) if `input`
    /// already has a request.
    #[inline]
    pub fn add(&mut self, input: usize, dest: usize) {
        self.0.request(input, dest);
    }
}

impl Fabric {
    /// Builds a fully-connected `m`×`n` crossbar (one layer).
    ///
    /// # Errors
    ///
    /// Returns an error if `m` or `n` is zero.
    pub fn crossbar(m: usize, n: usize) -> Result<Fabric, BuildFabricError> {
        if m == 0 || n == 0 {
            return Err(build_err("crossbar dimensions must be nonzero"));
        }
        Ok(Fabric::from_parts(m, n, 1, None))
    }

    /// Builds an `ports`×`ports` radix-`radix` butterfly (omega wiring,
    /// destination-digit routing), fully combinational.
    ///
    /// # Errors
    ///
    /// Returns an error unless `ports` is a power of `radix` with at least
    /// one layer and `radix >= 2`.
    pub fn butterfly(ports: usize, radix: usize) -> Result<Fabric, BuildFabricError> {
        let layers = butterfly_layers(ports, radix)?;
        Fabric::butterfly_segment(ports, radix, 0, layers)
    }

    /// Builds layers `first..last` of a `ports`×`ports` radix-`radix`
    /// butterfly.
    ///
    /// Splitting a butterfly into segments and joining them with a register
    /// row models the paper's "single pipeline stage midway through its
    /// `log4(64) = 3` layers". The segment's inputs are the layer-`first`
    /// switch inputs; its outputs are the layer-`last` inputs (or the final
    /// destinations when `last` is the layer count).
    ///
    /// # Errors
    ///
    /// Returns an error on invalid geometry or an empty/out-of-range layer
    /// range.
    pub fn butterfly_segment(
        ports: usize,
        radix: usize,
        first: usize,
        last: usize,
    ) -> Result<Fabric, BuildFabricError> {
        let total_layers = butterfly_layers(ports, radix)?;
        if first >= last || last > total_layers {
            return Err(build_err(format!(
                "invalid butterfly segment {first}..{last} of {total_layers} layers"
            )));
        }
        // Layer `l` routes on destination digit `total_layers - 1 - l`.
        let digit_of = |layer: usize, dest: usize| {
            (dest / radix.pow((total_layers - 1 - layer) as u32) % radix) as u32
        };
        let butterfly = Butterfly {
            switch: (0..ports)
                .map(|line| (line / radix * radix) as u32)
                .collect(),
            digit: (first..last)
                .flat_map(|layer| (0..ports).map(move |dest| digit_of(layer, dest)))
                .collect(),
            shuffle: (0..ports)
                .map(|port| shuffle(port, ports, radix) as u32)
                .collect(),
            // The final segment delivers on the last layer's out ports
            // directly; earlier segments deliver on the *next layer's in
            // ports* (the register row), i.e. the shuffled final out port.
            shuffled_terminal: last < total_layers,
        };
        Ok(Fabric::from_parts(
            ports,
            ports,
            last - first,
            Some(butterfly),
        ))
    }

    fn from_parts(
        n_in: usize,
        n_out: usize,
        n_layers: usize,
        butterfly: Option<Butterfly>,
    ) -> Fabric {
        let lines = n_in.max(n_out);
        let words = lines.div_ceil(64);
        Fabric {
            wiring: Wiring {
                n_in,
                n_out,
                n_layers,
                butterfly,
            },
            arbiters: vec![RoundRobin::new(lines); n_layers * n_out],
            words,
            want: vec![0; n_layers * n_out * words],
            packets: Vec::with_capacity(n_in),
            won: vec![(0, 0); n_in * (n_layers - 1)],
        }
    }

    /// Number of fabric input ports.
    pub fn n_in(&self) -> usize {
        self.wiring.n_in
    }

    /// Number of fabric output ports.
    pub fn n_out(&self) -> usize {
        self.wiring.n_out
    }

    /// Number of switch layers a packet traverses.
    pub fn n_layers(&self) -> usize {
        self.wiring.n_layers
    }

    /// The path for a given input/destination pair.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `dest` is out of range.
    pub fn path(&self, input: usize, dest: usize) -> Vec<Hop> {
        assert!(
            input < self.n_in() && dest < self.n_out(),
            "port out of range"
        );
        self.wiring.hops(input, dest).collect()
    }

    /// The fabric output port where a packet entering at `input` with
    /// destination `dest` lands. For interior butterfly segments this is the
    /// register-row index feeding the next segment.
    pub fn output_port(&self, input: usize, dest: usize) -> usize {
        let last = self.path(input, dest).pop().expect("at least one layer");
        self.wiring.landing(last.out_port as usize)
    }

    /// One arbitrated hop: the whole cycle of this fabric.
    ///
    /// `offers` names the contenders — it calls [`Requests::add`] once per
    /// fabric input that holds a packet. Each packet either wins
    /// arbitration at *every* switch output along its path **and** finds
    /// its terminal ready (`ready`, asked about the landing port
    /// [`output_port`](Fabric::output_port) gives) — in which case it is
    /// handed to `deliver(state, input, landing port)`, which must move it
    /// — or it stays put. Losing at an internal switch blocks the packet
    /// even if the winner itself later stalls, matching non-reselecting
    /// combinational arbitration. `state` is whatever the three closures
    /// share: the source registers and the sinks of this hop.
    ///
    /// Every terminal is sampled before any packet moves, packets are
    /// delivered in the order they were added, and round-robin pointers
    /// advance only on committed transfers. Nothing is allocated.
    ///
    /// # Panics
    ///
    /// As [`Requests::add`].
    #[inline]
    pub fn route<S>(
        &mut self,
        state: &mut S,
        offers: impl FnOnce(&S, &mut Requests<'_>),
        ready: impl Fn(&S, usize) -> bool,
        mut deliver: impl FnMut(&mut S, usize, usize),
    ) {
        offers(state, &mut Requests(self));
        if self.packets.is_empty() {
            // Most calls of a tile-local workload: nobody wants this hop.
            return;
        }
        self.arbitrate(|port| ready(state, port));
        for packet in &self.packets {
            deliver(state, packet.input as usize, packet.out as usize);
        }
        self.packets.clear();
    }

    /// Resolves one cycle of offered packets: [`route`](Fabric::route) for
    /// callers that keep their packets in a list. An offer's slot in the
    /// returned vector is `true` if it won every switch output along its
    /// path and `out_ready` accepted its landing port; the caller must then
    /// move the packet.
    ///
    /// This is [`resolve_into`](Fabric::resolve_into) with a freshly
    /// allocated result.
    ///
    /// # Panics
    ///
    /// Panics if an offer's ports are out of range, or (debug builds) if
    /// two offers share the same input port.
    pub fn resolve(
        &mut self,
        offers: &[Offer],
        out_ready: &mut dyn FnMut(usize) -> bool,
    ) -> Vec<bool> {
        let mut granted = Vec::new();
        self.resolve_into(offers, out_ready, &mut granted);
        granted
    }

    /// [`resolve`](Fabric::resolve) without heap allocation: `granted` is
    /// cleared and refilled with one flag per offer.
    ///
    /// # Panics
    ///
    /// As [`resolve`](Fabric::resolve).
    pub fn resolve_into(
        &mut self,
        offers: &[Offer],
        out_ready: impl FnMut(usize) -> bool,
        granted: &mut Vec<bool>,
    ) {
        for offer in offers {
            self.request(offer.input, offer.dest);
        }
        self.arbitrate(out_ready);
        // What is left of the packets is a subsequence of the offers.
        let mut won = self.packets.iter().peekable();
        let is_next = |offer: &Offer| won.next_if(|p| p.input as usize == offer.input).is_some();
        granted.clear();
        granted.extend(offers.iter().map(is_next));
        self.packets.clear();
    }

    /// Enters the packet on `input`, bound for `dest`, into the first
    /// layer's request masks.
    #[inline]
    fn request(&mut self, input: usize, dest: usize) {
        let wiring = &self.wiring;
        assert!(
            input < wiring.n_in && dest < wiring.n_out,
            "port out of range"
        );
        debug_assert!(
            self.packets.iter().all(|p| p.input as usize != input),
            "two offers share an input port"
        );
        let out = wiring.out_port(0, input, dest);
        set_bit(&mut self.want[out * self.words..], input);
        self.packets.push(Packet {
            input: input as u32,
            dest: dest as u32,
            line: input as u32,
            out: out as u32,
        });
    }

    /// Arbitrates the packets entered so far, one pass over them per
    /// layer. A packet stays in contention if its line is the requester
    /// closest to the round-robin pointer of the output it asks for; it
    /// then clears that output's mask — so the output's other requesters,
    /// whichever side of it they are on in the list, find themselves
    /// either outranked or alone with an empty mask — records the arbiter
    /// it won, and enters its line behind the switch in the next layer's.
    /// A packet that wins the last layer has its terminal sampled through
    /// `ready`; if accepted, the arbiters it won advance past it (no later
    /// pick of this arbitration reads them). What remains in `packets` is
    /// granted. On a one-layer fabric — every crossbar — this is a single
    /// pass that records nothing: pick, clear, probe, advance.
    #[inline]
    fn arbitrate(&mut self, mut ready: impl FnMut(usize) -> bool) {
        let Fabric {
            wiring,
            arbiters,
            words,
            want,
            packets,
            won,
        } = self;
        let (words, ports, last) = (*words, wiring.n_out, wiring.n_layers - 1);
        for layer in 0..=last {
            let (here, ahead) = want[layer * ports * words..].split_at_mut(ports * words);
            // Compact the survivors to the front, in order.
            let mut kept = 0;
            for i in 0..packets.len() {
                let mut packet = packets[i];
                let (line, out) = (packet.line as usize, packet.out as usize);
                let arbiter = layer * ports + out;
                let mask = &mut here[out * words..][..words];
                if arbiters[arbiter].pick(mask) != Some(line) {
                    continue;
                }
                mask.fill(0);
                let path = packet.input as usize * last;
                if layer < last {
                    won[path + layer] = (arbiter as u32, line as u32);
                    let line = wiring.line_behind(out);
                    let out = wiring.out_port(layer + 1, line, packet.dest as usize);
                    set_bit(&mut ahead[out * words..], line);
                    (packet.line, packet.out) = (line as u32, out as u32);
                } else {
                    let landing = wiring.landing(out);
                    if !ready(landing) {
                        continue;
                    }
                    packet.out = landing as u32;
                    for &(arbiter, line) in &won[path..path + last] {
                        arbiters[arbiter as usize].advance_past(line as usize);
                    }
                    arbiters[arbiter].advance_past(line);
                }
                packets[kept] = packet;
                kept += 1;
            }
            packets.truncate(kept);
        }
    }

    /// Every arbiter, flattened layer by layer, then in output-port order
    /// (checkpointing).
    pub fn arbiters(&self) -> &[RoundRobin] {
        &self.arbiters
    }

    /// Every arbiter, writable (checkpoint restore).
    pub fn arbiters_mut(&mut self) -> &mut [RoundRobin] {
        &mut self.arbiters
    }

    /// Total committed switch-output traversals across all arbiters — the
    /// fabric-utilization counter of the observability layer.
    pub fn total_grants(&self) -> u64 {
        self.arbiters.iter().map(RoundRobin::grants).sum()
    }
}

/// Sets bit `i` of a multi-word mask.
#[inline]
fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// Validates butterfly geometry and returns the layer count `log_radix(ports)`.
fn butterfly_layers(ports: usize, radix: usize) -> Result<usize, BuildFabricError> {
    if radix < 2 {
        return Err(build_err("butterfly radix must be at least 2"));
    }
    let mut p = ports;
    let mut layers = 0;
    while p > 1 {
        if !p.is_multiple_of(radix) {
            return Err(build_err(format!(
                "{ports} ports is not a power of radix {radix}"
            )));
        }
        p /= radix;
        layers += 1;
    }
    if layers == 0 {
        return Err(build_err("butterfly needs at least one layer"));
    }
    Ok(layers)
}

/// Perfect shuffle: rotate the base-`radix` representation of `port` left by
/// one digit (the inter-layer wiring of an omega network).
pub(crate) fn shuffle(port: usize, ports: usize, radix: usize) -> usize {
    (port * radix) % ports + (port * radix) / ports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_routes_everywhere() {
        let mut xbar = Fabric::crossbar(4, 16).unwrap();
        for input in 0..4 {
            for dest in 0..16 {
                let granted = xbar.resolve(&[Offer { input, dest }], &mut |p| {
                    assert_eq!(p, dest);
                    true
                });
                assert_eq!(granted, vec![true]);
            }
        }
    }

    #[test]
    fn butterfly_all_pairs_reach_destination() {
        for (ports, radix) in [(16, 4), (64, 4), (16, 2), (8, 2)] {
            let mut net = Fabric::butterfly(ports, radix).unwrap();
            for src in 0..ports {
                for dest in 0..ports {
                    assert_eq!(
                        net.output_port(src, dest),
                        dest,
                        "{ports}x{ports} radix-{radix}, {src}->{dest}"
                    );
                    let granted = net.resolve(&[Offer { input: src, dest }], &mut |_| true);
                    assert!(granted[0]);
                }
            }
        }
    }

    #[test]
    fn butterfly_layer_count() {
        assert_eq!(Fabric::butterfly(64, 4).unwrap().n_layers(), 3);
        assert_eq!(Fabric::butterfly(16, 4).unwrap().n_layers(), 2);
        assert_eq!(Fabric::butterfly(16, 2).unwrap().n_layers(), 4);
        assert!(Fabric::butterfly(12, 4).is_err());
        assert!(Fabric::butterfly(16, 1).is_err());
    }

    #[test]
    fn butterfly_segments_compose() {
        // Splitting 64x64 radix-4 after layer 2 and chaining segment outputs
        // into segment inputs must reach the same destination as the full
        // network, for all pairs.
        let seg_a = Fabric::butterfly_segment(64, 4, 0, 2).unwrap();
        let seg_b = Fabric::butterfly_segment(64, 4, 2, 3).unwrap();
        for src in 0..64 {
            for dest in 0..64 {
                let mid = seg_a.output_port(src, dest);
                assert_eq!(
                    seg_b.output_port(mid, dest),
                    dest,
                    "{src}->{dest} via {mid}"
                );
            }
        }
    }

    #[test]
    fn conflicting_offers_grant_exactly_one() {
        let mut net = Fabric::butterfly(16, 4).unwrap();
        // All sixteen inputs target output 0: exactly one can win.
        let offers: Vec<Offer> = (0..16).map(|input| Offer { input, dest: 0 }).collect();
        let granted = net.resolve(&offers, &mut |_| true);
        assert_eq!(granted.iter().filter(|&&g| g).count(), 1);
    }

    #[test]
    fn distinct_destinations_all_grant_in_crossbar() {
        // A full crossbar is non-blocking: a permutation commits entirely.
        let mut xbar = Fabric::crossbar(8, 8).unwrap();
        let offers: Vec<Offer> = (0..8)
            .map(|input| Offer {
                input,
                dest: (input + 3) % 8,
            })
            .collect();
        let granted = xbar.resolve(&offers, &mut |_| true);
        assert!(granted.iter().all(|&g| g));
    }

    #[test]
    fn butterfly_blocks_some_permutations() {
        // A butterfly is blocking: the bit-reversal-like permutation causes
        // internal conflicts, so not every offer can commit in one cycle.
        let mut net = Fabric::butterfly(16, 4).unwrap();
        // Identity permutation: inputs 0..4 share the first layer-0 switch
        // and all target destinations with high digit 0, so they contend for
        // the same layer-0 output port.
        let offers: Vec<Offer> = (0..16).map(|input| Offer { input, dest: input }).collect();
        let granted = net.resolve(&offers, &mut |_| true);
        let wins = granted.iter().filter(|&&g| g).count();
        assert!(
            wins < 16,
            "blocking network granted a hard permutation fully"
        );
        assert!(wins >= 1);
    }

    #[test]
    fn terminal_backpressure_blocks() {
        let mut xbar = Fabric::crossbar(2, 2).unwrap();
        let granted = xbar.resolve(&[Offer { input: 0, dest: 1 }], &mut |_| false);
        assert_eq!(granted, vec![false]);
    }

    #[test]
    fn round_robin_alternates_between_contenders() {
        let mut xbar = Fabric::crossbar(2, 1).unwrap();
        let offers = [Offer { input: 0, dest: 0 }, Offer { input: 1, dest: 0 }];
        let mut winners = Vec::new();
        for _ in 0..4 {
            let granted = xbar.resolve(&offers, &mut |_| true);
            winners.push(granted.iter().position(|&g| g).unwrap());
        }
        assert_eq!(winners, vec![0, 1, 0, 1]);
    }

    #[test]
    fn loser_blocked_even_if_winner_stalls() {
        // Input 0 wins arbitration for output 0 but the terminal is not
        // ready; input 1 must not sneak through (non-reselecting grant).
        let mut xbar = Fabric::crossbar(2, 1).unwrap();
        let offers = [Offer { input: 0, dest: 0 }, Offer { input: 1, dest: 0 }];
        let granted = xbar.resolve(&offers, &mut |_| false);
        assert_eq!(granted, vec![false, false]);
    }
}
