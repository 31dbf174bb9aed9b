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
/// Paths are precomputed per `(input, dest)` pair — routing is oblivious
/// (single path per master/slave pair, as in the paper). Arbitration state
/// is one [`RoundRobin`] per `(layer, output port)`.
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
    n_in: usize,
    /// Switch output ports per layer (the same in every layer).
    layer_ports: usize,
    paths: Paths,
    /// `arbiters[layer * layer_ports + out_port]`.
    arbiters: Vec<RoundRobin>,
    /// Scratch: per layer-local out port, the contender closest to the
    /// arbiter's pointer in arbitration round `round`.
    lead: Vec<Lead>,
    round: u64,
    /// Interior butterfly segments land on the *shuffled* final out port
    /// (the next layer's input row); see [`Fabric::butterfly_segment`].
    shuffled_terminal: bool,
    radix: usize,
}

/// The leading contender for one switch output. An entry from an earlier
/// round is stale, so the table never needs clearing.
#[derive(Debug, Clone, Copy, Default)]
struct Lead {
    round: u64,
    distance: usize,
    offer: usize,
}

/// The precomputed routes: one hop per layer for every `(input, dest)`.
#[derive(Debug, Clone)]
struct Paths {
    /// `hops[(input * n_out + dest) * n_layers + layer]`.
    hops: Vec<Hop>,
    n_out: usize,
    n_layers: usize,
    /// Whether every path is the single hop `input -> dest` (a crossbar):
    /// its hops are then read off the offer, never from the table.
    direct: bool,
}

impl Paths {
    /// The `(in_port, out_port)` an offer crosses in `layer`.
    #[inline]
    fn hop(&self, offer: &Offer, layer: usize) -> (usize, usize) {
        if self.direct {
            return (offer.input, offer.dest);
        }
        let hop = self.hops[(offer.input * self.n_out + offer.dest) * self.n_layers + layer];
        (hop.in_port as usize, hop.out_port as usize)
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
        let mut paths = Vec::with_capacity(m * n);
        for input in 0..m {
            for dest in 0..n {
                paths.push(Hop {
                    layer: 0,
                    in_port: input as u32,
                    out_port: dest as u32,
                });
            }
        }
        Ok(Fabric::from_parts(m, n, 1, n, paths))
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
        let k = total_layers;
        let mut paths = Vec::with_capacity(ports * ports * (last - first));
        for entry in 0..ports {
            for dest in 0..ports {
                let mut in_port = entry;
                for layer in first..last {
                    let digit_index = k - 1 - layer;
                    let digit = (dest / radix.pow(digit_index as u32)) % radix;
                    let out_port = (in_port / radix) * radix + digit;
                    paths.push(Hop {
                        layer: (layer - first) as u16,
                        in_port: in_port as u32,
                        out_port: out_port as u32,
                    });
                    in_port = shuffle(out_port, ports, radix);
                }
            }
        }
        let mut fabric = Fabric::from_parts(ports, ports, last - first, ports, paths);
        // The final segment delivers on the last layer's out ports directly;
        // earlier segments deliver on the *next layer's in ports* (the
        // register row), i.e. the shuffled final out port. `output_port`
        // applies the shuffle on demand.
        if last < total_layers {
            fabric.shuffled_terminal = true;
            fabric.radix = radix;
        }
        Ok(fabric)
    }

    fn from_parts(
        n_in: usize,
        n_out: usize,
        n_layers: usize,
        layer_ports: usize,
        paths: Vec<Hop>,
    ) -> Fabric {
        let lines = n_in.max(layer_ports);
        let direct = n_layers == 1
            && paths.iter().enumerate().all(|(i, hop)| {
                (hop.in_port as usize, hop.out_port as usize) == (i / n_out, i % n_out)
            });
        Fabric {
            n_in,
            layer_ports,
            paths: Paths {
                hops: paths,
                n_out,
                n_layers,
                direct,
            },
            arbiters: vec![RoundRobin::new(lines); n_layers * layer_ports],
            lead: vec![Lead::default(); layer_ports],
            round: 0,
            shuffled_terminal: false,
            radix: 0,
        }
    }

    /// Number of fabric input ports.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of fabric output ports.
    pub fn n_out(&self) -> usize {
        self.paths.n_out
    }

    /// Number of switch layers a packet traverses.
    pub fn n_layers(&self) -> usize {
        self.paths.n_layers
    }

    /// The path for a given input/destination pair.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `dest` is out of range.
    pub fn path(&self, input: usize, dest: usize) -> &[Hop] {
        assert!(
            input < self.n_in && dest < self.n_out(),
            "port out of range"
        );
        let layers = self.n_layers();
        &self.paths.hops[(input * self.n_out() + dest) * layers..][..layers]
    }

    /// The fabric output port where a packet entering at `input` with
    /// destination `dest` lands. For interior butterfly segments this is the
    /// register-row index feeding the next segment.
    pub fn output_port(&self, input: usize, dest: usize) -> usize {
        assert!(
            input < self.n_in && dest < self.n_out(),
            "port out of range"
        );
        let (_, out) = self.paths.hop(&Offer { input, dest }, self.n_layers() - 1);
        if self.shuffled_terminal {
            shuffle(out, self.n_out(), self.radix)
        } else {
            out
        }
    }

    /// Resolves one cycle of offered packets.
    ///
    /// Each offer either wins arbitration at *every* switch output along its
    /// path **and** finds its terminal ready (via `out_ready`, called with
    /// the landing port from [`output_port`](Fabric::output_port)) — in
    /// which case its slot in the returned vector is `true` and the caller
    /// must move the packet — or it stays put (`false`). Losing at an
    /// internal switch blocks the packet even if the winner itself later
    /// stalls, matching non-reselecting combinational arbitration.
    ///
    /// Round-robin pointers advance only on committed transfers.
    ///
    /// This is [`resolve_into`](Fabric::resolve_into) with a freshly
    /// allocated result; per-cycle callers should hold a `granted` buffer
    /// and call that instead.
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
    /// cleared and refilled with one flag per offer, and all arbitration
    /// state lives in scratch owned by the fabric.
    ///
    /// # Panics
    ///
    /// As [`resolve`](Fabric::resolve).
    pub fn resolve_into(
        &mut self,
        offers: &[Offer],
        mut out_ready: impl FnMut(usize) -> bool,
        granted: &mut Vec<bool>,
    ) {
        assert!(
            offers
                .iter()
                .all(|o| o.input < self.n_in && o.dest < self.n_out()),
            "port out of range"
        );
        debug_assert!(
            offers
                .iter()
                .enumerate()
                .all(|(i, a)| offers[..i].iter().all(|b| a.input != b.input)),
            "two offers share an input port"
        );
        granted.clear();
        granted.resize(offers.len(), true);
        let ports = self.layer_ports;
        for layer in 0..self.n_layers() {
            self.round += 1;
            let arbiters = &self.arbiters[layer * ports..][..ports];
            arbitrate(
                arbiters,
                &mut self.lead,
                self.round,
                offers,
                granted,
                |offer| self.paths.hop(offer, layer),
            );
        }
        // Terminal readiness, then round-robin pointers advance past the
        // committed packets.
        for (idx, offer) in offers.iter().enumerate() {
            if !granted[idx] {
                continue;
            }
            if !out_ready(self.output_port(offer.input, offer.dest)) {
                granted[idx] = false;
                continue;
            }
            for layer in 0..self.n_layers() {
                let (in_port, out_port) = self.paths.hop(offer, layer);
                self.arbiters[layer * ports + out_port].advance_past(in_port);
            }
        }
    }

    /// The round-robin pointer of every arbiter, flattened layer-by-layer
    /// then output-port order (checkpointing).
    pub fn arbiter_pointers(&self) -> Vec<usize> {
        self.arbiters.iter().map(RoundRobin::pointer).collect()
    }

    /// Restores all arbiter pointers from
    /// [`arbiter_pointers`](Fabric::arbiter_pointers).
    ///
    /// # Panics
    ///
    /// Panics if the slice length disagrees with the arbiter count or any
    /// pointer is out of range.
    pub fn set_arbiter_pointers(&mut self, pointers: &[usize]) {
        assert_eq!(
            pointers.len(),
            self.arbiters.len(),
            "arbiter pointer count mismatch"
        );
        for (arb, &pointer) in self.arbiters.iter_mut().zip(pointers) {
            arb.set_pointer(pointer);
        }
    }

    /// The grant counter of every arbiter, in
    /// [`arbiter_pointers`](Fabric::arbiter_pointers) order (checkpointing
    /// and observability).
    pub fn arbiter_grants(&self) -> Vec<u64> {
        self.arbiters.iter().map(RoundRobin::grants).collect()
    }

    /// Restores all arbiter grant counters from
    /// [`arbiter_grants`](Fabric::arbiter_grants).
    ///
    /// # Panics
    ///
    /// Panics if the slice length disagrees with the arbiter count.
    pub fn set_arbiter_grants(&mut self, grants: &[u64]) {
        assert_eq!(
            grants.len(),
            self.arbiters.len(),
            "arbiter grant count mismatch"
        );
        for (arb, &count) in self.arbiters.iter_mut().zip(grants) {
            arb.set_grants(count);
        }
    }

    /// Total committed switch-output traversals across all arbiters — the
    /// fabric-utilization counter of the observability layer.
    pub fn total_grants(&self) -> u64 {
        self.arbiters.iter().map(RoundRobin::grants).sum()
    }
}

/// One layer of arbitration over the offers still `alive`: per switch
/// output, the contender closest to that output's round-robin pointer stays
/// alive and every other contender is blocked. `hop_of` gives an offer's
/// `(in_port, out_port)` in this layer.
fn arbitrate(
    arbiters: &[RoundRobin],
    lead: &mut [Lead],
    round: u64,
    offers: &[Offer],
    alive: &mut [bool],
    hop_of: impl Fn(&Offer) -> (usize, usize),
) {
    for (idx, offer) in offers.iter().enumerate() {
        if !alive[idx] {
            continue;
        }
        let (in_port, out_port) = hop_of(offer);
        let distance = arbiters[out_port].distance(in_port);
        let best = &mut lead[out_port];
        if best.round != round || distance < best.distance {
            *best = Lead {
                round,
                distance,
                offer: idx,
            };
        }
    }
    for (idx, offer) in offers.iter().enumerate() {
        if alive[idx] {
            alive[idx] = lead[hop_of(offer).1].offer == idx;
        }
    }
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
