//! The global interconnect topologies of §III-C, plus the ideal crossbar
//! baseline of §V-C.
//!
//! [`Net::new`] builds each topology from the same parts: register rows
//! ([`RegRow`]) in link-id order, fabrics, a port map from core latches to
//! master ports, and a request and a response stage list that one walker
//! runs each cycle. A stage is a fabric hop between two ends — a row
//! window, or one port's tile latches — or wiring between two rows. The
//! ideal crossbar has none of these, only one arbiter per bank.
//!
//! Register placement (the source of the paper's 1/3/5-cycle latencies):
//!
//! * every tile has a register boundary at each **master request port** and
//!   each **master response port**;
//! * `Top1`/`Top4` butterflies have a single pipeline register row midway
//!   through their layers (when they have at least two layers);
//! * `TopH` has an additional register boundary at each local group's
//!   master interface (the boundary rows), crossed only by inter-group
//!   traffic;
//! * slave request ports and outbound response ports carry 1-deep wire
//!   latches (the "optional elastic buffer at each switch output" of the
//!   paper) so a blocked packet retries without re-crossing the fabric.

use crate::snapshot::{at, Place, StateIo, Walk, Walked};
use crate::tile::{BankGate, Tile};
use crate::{ClusterConfig, Request, Response, Topology};
use mempool_mem::AddressMap;
use mempool_noc::{ElasticBuffer, Fabric, RoundRobin};

/// Depth of every interconnect register: the classic two-slot skid buffer.
const REG_DEPTH: usize = 2;

/// The positions of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// A row of elastic registers that keeps three things current as packets
/// move, so that every per-cycle visit follows traffic instead of register
/// count: how many items the row holds (`held`, read by the occupancy
/// statistic and by every "anything to do?" test), which registers were
/// pushed this cycle (`dirty`, the only ones [`commit`](RegRow::commit)
/// visits), and which registers show a head (`visible`, the only ones a
/// routing stage looks at).
///
/// All three stay exact as long as every push and pop goes through the
/// row. The cold paths that reach for the registers themselves — fault
/// injection, checkpoint restore — must [`resync`](RegRow::resync) after.
#[derive(Debug, Clone)]
pub(crate) struct RegRow<T> {
    regs: Vec<ElasticBuffer<T>>,
    held: usize,
    /// Registers holding staged arrivals. A register enters on its first
    /// push of the cycle only, so the list never outgrows the row and its
    /// build-time capacity is final.
    dirty: Vec<u32>,
    /// Bit `i % 64` of word `i / 64`: register `i` has a visible head (a
    /// stored item and no stall gate).
    visible: Vec<u64>,
}

impl<T> RegRow<T> {
    pub fn new(len: usize) -> Self {
        RegRow {
            regs: (0..len).map(|_| ElasticBuffer::new(REG_DEPTH)).collect(),
            held: 0,
            dirty: Vec::with_capacity(len),
            visible: vec![0; len.div_ceil(64)],
        }
    }

    pub fn regs(&self) -> &[ElasticBuffer<T>] {
        &self.regs
    }

    /// The registers themselves, for the cold paths; [`resync`] afterwards.
    ///
    /// [`resync`]: RegRow::resync
    pub fn regs_mut(&mut self) -> &mut [ElasticBuffer<T>] {
        &mut self.regs
    }

    /// Re-derives `held`, `dirty` and `visible` from the registers.
    pub fn resync(&mut self) {
        self.held = self.regs.iter().map(ElasticBuffer::len).sum();
        self.dirty.clear();
        let staged = self
            .regs
            .iter()
            .enumerate()
            .filter(|(_, reg)| reg.staged() > 0);
        self.dirty.extend(staged.map(|(i, _)| i as u32));
        self.visible.fill(0);
        let heads = self.regs.iter().enumerate();
        for (i, _) in heads.filter(|(_, reg)| reg.head().is_some()) {
            self.visible[i / 64] |= 1 << (i % 64);
        }
    }

    /// Whether a register has a head.
    fn shows_head(&self, i: usize) -> bool {
        self.visible[i / 64] >> (i % 64) & 1 != 0
    }

    /// Whether the running head bits equal a walk over the registers, as
    /// they must at every cycle boundary.
    pub fn heads_in_sync(&self) -> bool {
        let mut regs = self.regs.iter().enumerate();
        regs.all(|(i, reg)| reg.head().is_some() == self.shows_head(i))
    }

    /// Items held across the row, stored and staged.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Total capacity of the row.
    pub fn slots(&self) -> usize {
        self.regs.len() * REG_DEPTH
    }

    /// The visible head of register `i`; an empty or stalled register
    /// answers from its bit, untouched.
    #[inline]
    pub fn head(&self, i: usize) -> Option<&T> {
        if !self.shows_head(i) {
            return None;
        }
        self.regs[i].head()
    }

    /// Calls `f(i, head)` for every register `i` in `first..first + len`
    /// that shows a head, ascending.
    #[inline]
    pub fn for_each_head(&self, first: usize, len: usize, mut f: impl FnMut(usize, &T)) {
        let end = first + len;
        for w in first / 64..end.div_ceil(64) {
            // The part of word `w` inside the window: bits `lo..hi`.
            let lo = first.max(w * 64) - w * 64;
            let hi = end.min(w * 64 + 64) - w * 64;
            let window = (!0u64 << lo) & (!0u64 >> (64 - hi));
            for i in ones(self.visible[w] & window).map(|bit| w * 64 + bit) {
                f(i, self.regs[i].head().expect("visible head"));
            }
        }
    }

    pub fn can_push(&self, i: usize) -> bool {
        self.regs[i].can_push()
    }

    pub fn push(&mut self, i: usize, item: T) {
        if self.regs[i].staged() == 0 {
            self.dirty.push(i as u32);
        }
        self.regs[i].push(item);
        self.held += 1;
    }

    pub fn pop(&mut self, i: usize) -> Option<T> {
        let item = self.regs[i].pop()?;
        self.held -= 1;
        if self.regs[i].head().is_none() {
            self.visible[i / 64] &= !(1 << (i % 64));
        }
        Some(item)
    }

    /// Pops the visible head of every register (one item each) into `out`.
    pub fn pop_heads_into(&mut self, out: &mut Vec<T>) {
        if self.held == 0 {
            return;
        }
        for w in 0..self.visible.len() {
            for bit in ones(self.visible[w]) {
                out.push(self.pop(w * 64 + bit).expect("visible head"));
            }
        }
    }

    /// Point-to-point wiring into `sink`: every register `i` showing a head
    /// that `to(i)` wires to a register of `sink` with room has one item
    /// moved there, in ascending order of `i`.
    pub fn forward_heads(&mut self, sink: &mut RegRow<T>, to: impl Fn(usize) -> Option<usize>) {
        if self.held == 0 {
            return;
        }
        for w in 0..self.visible.len() {
            for i in ones(self.visible[w]).map(|bit| w * 64 + bit) {
                if let Some(j) = to(i).filter(|&j| sink.can_push(j)) {
                    sink.push(j, self.pop(i).expect("visible head"));
                }
            }
        }
    }

    /// End-of-cycle commit of the registers pushed this cycle: their
    /// arrivals become heads. (A stalled register accepts no push, so a
    /// dirty one is never gated.)
    pub fn commit(&mut self) {
        for i in self.dirty.drain(..) {
            self.regs[i as usize].commit();
            self.visible[i as usize / 64] |= 1 << (i % 64);
        }
    }

    pub fn clear(&mut self) {
        self.regs.iter_mut().for_each(ElasticBuffer::clear);
        self.held = 0;
        self.dirty.clear();
        self.visible.fill(0);
    }
}

/// A borrowed interconnect register stage, handed to the fault injector.
///
/// Request stages only ever suffer stalls and drops — their routing fields
/// are validated at issue and re-checked (`expect`) at every switch, so
/// corrupting them would crash the router rather than model a data fault.
/// Response stages additionally allow payload corruption.
pub(crate) enum LinkRef<'a> {
    /// A request-carrying register stage.
    Req(&'a mut ElasticBuffer<Request>),
    /// A response-carrying register stage.
    Resp(&'a mut ElasticBuffer<Response>),
}

/// Observability counters of one interconnect register stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkStatView {
    /// Items currently held (stored + staged).
    pub occupancy: u64,
    /// Lifetime accepted pushes.
    pub pushes: u64,
    /// Whether this stage carries requests (`false`: responses).
    pub is_req: bool,
}

/// One register row of the global interconnect.
enum Row {
    Req(RegRow<Request>),
    Resp(RegRow<Response>),
}

/// `$body` with `$r` bound to the row, whichever packets it carries.
macro_rules! on_row {
    ($row:expr, $r:ident => $body:expr) => {
        match $row {
            Row::Req($r) => $body,
            Row::Resp($r) => $body,
        }
    };
}

/// The master request and response port rows, `[tile * ports + port]`.
const MASTER_REQ: usize = 0;
const MASTER_RESP: usize = 1;

/// Where a stage meets the network, one line per fabric port.
#[derive(Clone, Copy)]
enum End {
    /// `Row(row, base, stride)`: line `i` is register `base + i * stride`
    /// of row `row`.
    Row(usize, usize, usize),
    /// `Latch(first, port)`: line `i` is tile `first + i`'s latch on port
    /// `port`.
    Latch(usize, usize),
}

/// One step of a stage list.
enum Stage {
    /// `Hop(fabric, from, to, first_dest)`: the fabric moves packets from
    /// its inputs at `from` to its outputs at `to`. Output `o` leads to
    /// tile `first_dest + o`; a packet bound elsewhere is not offered.
    Hop(usize, End, End, usize),
    /// `Wire(from, to, links)`: register `i` of row `from` feeds register
    /// `links[i]` of row `to`, with no arbitration.
    Wire(usize, usize, Vec<Option<usize>>),
}

/// How a tile's core latches reach the master ports, and which port a
/// remote response leaves its tile through.
enum Ports {
    /// The ideal crossbar: no ports; every core latch faces every bank.
    None(IdealNet),
    /// Top1: one port per tile, granted round-robin among the lanes.
    One(Vec<RoundRobin>),
    /// Top4: lane `l` owns port `l`. The per-tile arbiters never grant;
    /// they keep the snapshot layout Top4 shares with Top1.
    PerLane(Vec<RoundRobin>),
    /// TopH: L, N, NE or E by [`group_port`], through a lanes × 4
    /// crossbar per tile.
    ByGroup(Vec<Fabric>),
}

/// Where every core and tile sits: core → tile and lane, tile → group.
/// Built once with the network, so no per-packet routing step divides by
/// the tile width (any of 1..=32) or the group width.
pub(crate) struct Seats {
    /// `(tile, lane)` of every core.
    core: Vec<(u32, u32)>,
    /// The group of every tile.
    group: Vec<u32>,
}

impl Seats {
    fn new(config: &ClusterConfig) -> Seats {
        let (cpt, tpg) = (config.cores_per_tile, config.tiles_per_group());
        let seat = |core| ((core / cpt) as u32, (core % cpt) as u32);
        Seats {
            core: (0..config.num_cores()).map(seat).collect(),
            group: (0..config.num_tiles)
                .map(|tile| (tile / tpg) as u32)
                .collect(),
        }
    }

    /// The tile of `core`.
    #[inline]
    pub fn tile(&self, core: u32) -> usize {
        self.core[core as usize].0 as usize
    }

    /// The group of every tile.
    pub fn groups(&self) -> &[u32] {
        &self.group
    }
}

pub(crate) struct Net {
    ports: Ports,
    cores_per_tile: usize,
    seats: Seats,
    /// In link-id order.
    rows: Vec<Row>,
    /// In snapshot order.
    fabrics: Vec<Fabric>,
    /// The request stages, then the response stages.
    stages: [Vec<Stage>; 2],
}

/// The TopH tile port joining groups `a` and `b` — 0 = L (the same group),
/// 1 = N, 2 = NE, 3 = E — by the XOR pairing of four groups. It is
/// symmetric, so a response travels back on its request's channel.
pub(crate) fn group_port(a: usize, b: usize) -> usize {
    // By `a ^ b`: the same group, then its E, N and NE partners.
    [0, 3, 1, 2][a ^ b]
}

impl Net {
    pub fn new(config: &ClusterConfig) -> Net {
        let (n, cpt) = (config.num_tiles, config.cores_per_tile);
        let arbiters = |count, lines| (0..count).map(|_| RoundRobin::new(lines)).collect();
        let ports = match config.topology {
            Topology::Ideal => Ports::None(IdealNet {
                rr: arbiters(config.num_banks(), config.num_cores()),
                banks_per_tile: config.banks_per_tile,
                contenders: Vec::with_capacity(config.num_cores()),
            }),
            Topology::Top1 => Ports::One(arbiters(n, cpt)),
            Topology::Top4 => Ports::PerLane(arbiters(n, cpt)),
            Topology::TopH => {
                let router = |_| Fabric::crossbar(cpt, 4).expect("validated");
                Ports::ByGroup((0..n).map(router).collect())
            }
        };
        let mut net = Net {
            ports,
            cores_per_tile: cpt,
            seats: Seats::new(config),
            rows: Vec::new(),
            fabrics: Vec::new(),
            stages: [Vec::new(), Vec::new()],
        };
        match config.topology {
            Topology::Ideal => {}
            Topology::Top1 | Topology::Top4 => net.add_butterflies(config),
            Topology::TopH => net.add_groups(config),
        }
        net
    }

    /// Adds `count` request rows, then `count` response rows, of `len`
    /// registers each; returns the index of the first.
    fn add_rows(&mut self, count: usize, len: usize) -> usize {
        let first = self.rows.len();
        let req = (0..count).map(|_| Row::Req(RegRow::new(len)));
        let resp = (0..count).map(|_| Row::Resp(RegRow::new(len)));
        self.rows.extend(req.chain(resp));
        first
    }

    /// Top1/Top4: one butterfly per master port plane, cut by a register
    /// row midway when it has two layers or more.
    fn add_butterflies(&mut self, config: &ClusterConfig) {
        let (n, radix) = (config.num_tiles, config.radix);
        let planes = config.topology.remote_ports(config.cores_per_tile);
        self.add_rows(1, n * planes);
        let layers = Fabric::butterfly(n, radix).expect("validated").n_layers();
        let mut cuts = vec![0, layers.div_ceil(2), layers];
        cuts.dedup();
        // Requests, then responses; each by segment, then by plane.
        for cut in [cuts.windows(2), cuts.windows(2)].into_iter().flatten() {
            for _ in 0..planes {
                let segment = Fabric::butterfly_segment(n, radix, cut[0], cut[1]);
                self.fabrics.push(segment.expect("validated"));
            }
        }
        let segments = cuts.len() - 1;
        let mid = (segments == 2).then(|| self.add_rows(planes, n));
        for (dir, p) in (0..2).flat_map(|dir| (0..planes).map(move |p| (dir, p))) {
            let master = Some(End::Row(MASTER_REQ + dir, p, planes));
            let mid = mid.map(|first| End::Row(first + dir * planes + p, 0, 1));
            let latch = Some(End::Latch(0, p));
            let mut ends: Vec<End> = [master, mid, latch].into_iter().flatten().collect();
            if dir == 1 {
                ends.reverse();
            }
            // The far segment moves first, freeing the mid row.
            for (s, hop) in ends.windows(2).enumerate().rev() {
                let fabric = (dir * segments + s) * planes + p;
                self.stages[dir].push(Stage::Hop(fabric, hop[0], hop[1], 0));
            }
        }
    }

    /// TopH: per group a crossbar behind port L, and per group and
    /// direction (N/NE/E) a boundary row and a butterfly to the partner
    /// group.
    fn add_groups(&mut self, config: &ClusterConfig) {
        let (groups, tpg) = (config.num_groups(), config.tiles_per_group());
        self.add_rows(1, groups * tpg * 4);
        let boundary = self.add_rows(1, groups * 3 * tpg);
        // Request then response crossbars by group, then request and
        // response butterflies by (group, direction).
        let crossbars = (0..2 * groups).map(|_| Fabric::crossbar(tpg, tpg));
        let butterflies = (0..6 * groups).map(|_| Fabric::butterfly(tpg, config.radix));
        let fabrics = crossbars.chain(butterflies);
        self.fabrics.extend(fabrics.map(|f| f.expect("validated")));
        // Boundary register `i` of `(g, d)` is wired to master port `d + 1`
        // of group `g`'s tile `i`.
        let mut to_boundary = vec![None; groups * tpg * 4];
        let mut to_master = vec![None; groups * 3 * tpg];
        for (reg, link) in to_master.iter_mut().enumerate() {
            let (g, d, i) = (reg / (3 * tpg), reg / tpg % 3, reg % tpg);
            let master = (g * tpg + i) * 4 + d + 1;
            (to_boundary[master], *link) = (Some(reg), Some(master));
        }
        self.stages[1].push(Stage::Wire(boundary + 1, MASTER_RESP, to_master));
        // The butterflies of every group, then the crossbars.
        let links = (0..groups).flat_map(|g| (1..4).map(move |port| (g, port)));
        for (g, port) in links.chain((0..groups).map(|g| (g, 0))) {
            let h = (0..groups).find(|&h| group_port(g, h) == port);
            let h = h.expect("a partner group on every port");
            let latch = End::Latch(h * tpg, port);
            for dir in 0..2 {
                let (inner, fabric) = if port == 0 {
                    (End::Row(MASTER_REQ + dir, g * tpg * 4, 4), dir * groups + g)
                } else {
                    let link = g * 3 + port - 1;
                    let fabric = (2 + 3 * dir) * groups + link;
                    (End::Row(boundary + dir, link * tpg, 1), fabric)
                };
                self.stages[dir].push(match dir {
                    0 => Stage::Hop(fabric, inner, latch, h * tpg),
                    _ => Stage::Hop(fabric, latch, inner, g * tpg),
                });
            }
        }
        self.stages[0].push(Stage::Wire(MASTER_REQ, boundary, to_boundary));
    }

    /// The ideal crossbar's bank arbiters, when this is the ideal network.
    pub fn ideal(&mut self) -> Option<&mut IdealNet> {
        match &mut self.ports {
            Ports::None(ideal) => Some(ideal),
            _ => None,
        }
    }

    /// The group of every tile on TopH, whose remote requests are
    /// classified by direction; `None` on the other networks.
    pub fn tile_groups(&self) -> Option<&[u32]> {
        matches!(self.ports, Ports::ByGroup(_)).then(|| self.seats.groups())
    }

    /// The output of `tile`'s response crossbar a response takes: its
    /// core's lane when the core is in `tile`, else `cores_per_tile` plus
    /// the remote port it leaves through.
    #[inline]
    pub fn tile_resp_port(&self, tile: usize, resp: &Response) -> usize {
        let (home, lane) = self.seats.core[resp.core as usize];
        let (home, lane) = (home as usize, lane as usize);
        if home == tile {
            return lane;
        }
        self.cores_per_tile
            + match &self.ports {
                Ports::None(_) | Ports::One(_) => 0,
                Ports::PerLane(_) => lane,
                Ports::ByGroup(_) => {
                    let group = &self.seats.group;
                    group_port(group[tile] as usize, group[home] as usize)
                }
            }
    }

    pub fn deliver_master_resp(&mut self, tiles: &mut [Tile], deliveries: &mut Vec<Response>) {
        match self.rows.get_mut(MASTER_RESP) {
            Some(row) => Response::row_mut(row).pop_heads_into(deliveries),
            // No network: the bank response registers face the cores.
            None => tiles
                .iter_mut()
                .for_each(|tile| tile.bank_resp.pop_heads_into(deliveries)),
        }
    }

    pub fn route_responses(&mut self, tiles: &mut [Tile]) {
        self.walk(1, tiles, |seats, resp: &Response| seats.tile(resp.core));
    }

    pub fn route_longhaul_requests(&mut self, tiles: &mut [Tile], map: &AddressMap) {
        self.walk(0, tiles, |_, req: &Request| {
            map.decode(req.addr).expect("validated").tile as usize
        });
    }

    /// Runs the stage list of direction `dir` (0 for requests, 1 for
    /// responses); `dest` names the tile a packet is bound for.
    fn walk<T: Packet>(
        &mut self,
        dir: usize,
        tiles: &mut [Tile],
        dest: impl Fn(&Seats, &T) -> usize,
    ) {
        let seats = &self.seats;
        let dest = |packet: &T| dest(seats, packet);
        let w = &mut Wires {
            rows: &mut self.rows,
            tiles,
        };
        for stage in &self.stages[dir] {
            match *stage {
                // Nothing to move out of an empty row.
                Stage::Hop(_, End::Row(row, ..), ..) if T::row(&w.rows[row]).held() == 0 => {}
                Stage::Hop(fabric, from, to, first_dest) => {
                    let fabric = &mut self.fabrics[fabric];
                    let (inputs, outputs) = (fabric.n_in(), fabric.n_out());
                    fabric.route(
                        w,
                        |w, want| {
                            from.for_each_head(w, inputs, |i, packet: &T| {
                                let out = dest(packet).wrapping_sub(first_dest);
                                if out < outputs {
                                    want.add(i, out);
                                }
                            });
                        },
                        |w, out| to.has_room::<T>(w, out),
                        |w, i, out| from.carry::<T>(w, i, to, out),
                    );
                }
                Stage::Wire(from, to, ref links) => {
                    let [from, to] = w.rows.get_disjoint_mut([from, to]).expect("two rows");
                    T::row_mut(from).forward_heads(T::row_mut(to), |i| links[i]);
                }
            }
        }
    }

    /// Core latches holding a remote request into their master ports.
    pub fn route_port_requests(&mut self, latches: &mut [Option<Request>], map: &AddressMap) {
        let Some(Row::Req(master)) = self.rows.get_mut(MASTER_REQ) else {
            return;
        };
        let (cpt, groups) = (self.cores_per_tile, self.seats.groups());
        let dest = |req: &Request| map.decode(req.addr).expect("validated").tile as usize;
        for (tile, lanes) in latches.chunks_mut(cpt).enumerate() {
            let leaves = |lane: &Option<Request>| lane.as_ref().is_some_and(|r| dest(r) != tile);
            match &mut self.ports {
                Ports::None(_) => {}
                Ports::One(rrs) => {
                    if !master.can_push(tile) {
                        continue;
                    }
                    let rr = &mut rrs[tile];
                    let remote = (0..cpt).filter(|&lane| leaves(&lanes[lane]));
                    if let Some(winner) = remote.min_by_key(|&lane| rr.distance(lane)) {
                        rr.advance_past(winner);
                        master.push(tile, lanes[winner].take().expect("lane had request"));
                    }
                }
                Ports::PerLane(_) => {
                    for (lane, latch) in lanes.iter_mut().enumerate() {
                        let reg = tile * cpt + lane;
                        if leaves(latch) && master.can_push(reg) {
                            master.push(reg, latch.take().expect("lane had request"));
                        }
                    }
                }
                Ports::ByGroup(routers) => routers[tile].route(
                    &mut (lanes, &mut *master),
                    |(lanes, _), want| {
                        let home = groups[tile] as usize;
                        for (lane, req) in lanes.iter().enumerate() {
                            let dst = req.as_ref().map_or(tile, dest);
                            if dst != tile {
                                want.add(lane, group_port(home, groups[dst] as usize));
                            }
                        }
                    },
                    |(_, master), port| master.can_push(tile * 4 + port),
                    |(lanes, master), lane, port| {
                        let req = lanes[lane].take().expect("lane had request");
                        master.push(tile * 4 + port, req);
                    },
                ),
            }
        }
    }

    /// End-of-cycle commit of the registers pushed this cycle.
    pub fn commit(&mut self) {
        for row in &mut self.rows {
            on_row!(row, r => r.commit());
        }
    }

    /// Hands every register stage, with its stable link id (its place in
    /// row order, so a seeded fault plan addresses the same physical
    /// register every run), to the fault injector, which may stall, drop
    /// or corrupt; the rows' bookkeeping is re-derived behind it.
    pub fn for_each_link(&mut self, f: &mut dyn FnMut(u64, LinkRef<'_>)) {
        let mut ids = 0u64..;
        for row in &mut self.rows {
            match row {
                Row::Req(r) => {
                    let links = r.regs_mut().iter_mut().zip(&mut ids);
                    links.for_each(|(reg, id)| f(id, LinkRef::Req(reg)));
                }
                Row::Resp(r) => {
                    let links = r.regs_mut().iter_mut().zip(&mut ids);
                    links.for_each(|(reg, id)| f(id, LinkRef::Resp(reg)));
                }
            }
            on_row!(row, r => r.resync());
        }
    }

    /// Visits every register stage immutably with its stable link id (the
    /// same ids as [`for_each_link`](Net::for_each_link)) and the
    /// observability counters of that stage. Used to build the
    /// `cluster/link{id}` scopes of the metrics registry.
    pub fn for_each_link_stats(&self, f: &mut dyn FnMut(u64, LinkStatView)) {
        let mut ids = 0u64..;
        for row in &self.rows {
            let is_req = matches!(row, Row::Req(_));
            on_row!(row, r => for (reg, id) in r.regs().iter().zip(&mut ids) {
                let (occupancy, pushes) = (reg.len() as u64, reg.pushes());
                f(id, LinkStatView { occupancy, pushes, is_req });
            });
        }
    }

    /// (occupied, total) register slots across the global interconnect —
    /// the buffer-occupancy congestion metric, from the rows' running
    /// counts.
    pub fn occupancy(&self) -> (u64, u64) {
        let mut counts = (0, 0);
        for row in &self.rows {
            let (held, slots) = on_row!(row, r => (r.held(), r.slots()));
            counts = (counts.0 + held as u64, counts.1 + slots as u64);
        }
        counts
    }

    /// Whether every row's running head bits equal a walk over its
    /// registers, as they must at every cycle boundary.
    pub fn heads_in_sync(&self) -> bool {
        self.rows
            .iter()
            .all(|row| on_row!(row, r => r.heads_in_sync()))
    }

    /// [`occupancy`](Net::occupancy) recounted from the registers: what the
    /// running counts must equal at every cycle boundary.
    pub fn walked_occupancy(&self) -> (u64, u64) {
        let (mut occupied, mut total) = (0, 0);
        self.for_each_link_stats(&mut |_, link| {
            occupied += link.occupancy;
            total += REG_DEPTH as u64;
        });
        (occupied, total)
    }
}

/// What a stage list moves: requests toward the banks, responses toward
/// the cores.
trait Packet: Sized {
    fn row(row: &Row) -> &RegRow<Self>;
    fn row_mut(row: &mut Row) -> &mut RegRow<Self>;
    /// The tile latches the network meets in this direction.
    fn latches(tile: &Tile) -> &[Option<Self>];
    fn latches_mut(tile: &mut Tile) -> &mut [Option<Self>];
}

macro_rules! packet {
    ($packet:ty, $row:ident, $latches:ident) => {
        impl Packet for $packet {
            fn row(row: &Row) -> &RegRow<Self> {
                let Row::$row(row) = row else {
                    unreachable!("a row of the other direction")
                };
                row
            }

            fn row_mut(row: &mut Row) -> &mut RegRow<Self> {
                let Row::$row(row) = row else {
                    unreachable!("a row of the other direction")
                };
                row
            }

            fn latches(tile: &Tile) -> &[Option<Self>] {
                &tile.$latches
            }

            fn latches_mut(tile: &mut Tile) -> &mut [Option<Self>] {
                &mut tile.$latches
            }
        }
    };
}

packet!(Request, Req, slave_req);
packet!(Response, Resp, resp_out);

/// What the stages of one cycle move packets between.
struct Wires<'a> {
    rows: &'a mut [Row],
    tiles: &'a mut [Tile],
}

impl End {
    /// Calls `f(i, head)` for every line `i < len` holding a packet,
    /// ascending.
    fn for_each_head<T: Packet>(self, w: &Wires<'_>, len: usize, mut f: impl FnMut(usize, &T)) {
        match self {
            End::Row(row, base, 1) => {
                T::row(&w.rows[row]).for_each_head(base, len, |reg, x| f(reg - base, x));
            }
            End::Row(row, base, stride) => {
                let row = T::row(&w.rows[row]);
                for i in 0..len {
                    if let Some(x) = row.head(base + i * stride) {
                        f(i, x);
                    }
                }
            }
            End::Latch(first, port) => {
                for (i, tile) in w.tiles[first..first + len].iter().enumerate() {
                    if let Some(x) = &T::latches(tile)[port] {
                        f(i, x);
                    }
                }
            }
        }
    }

    fn has_room<T: Packet>(self, w: &Wires<'_>, i: usize) -> bool {
        match self {
            End::Row(row, base, stride) => T::row(&w.rows[row]).can_push(base + i * stride),
            End::Latch(first, port) => T::latches(&w.tiles[first + i])[port].is_none(),
        }
    }

    /// Moves the packet on line `i` to line `j` of `to`.
    fn carry<T: Packet>(self, w: &mut Wires<'_>, i: usize, to: End, j: usize) {
        let packet = match self {
            End::Row(row, base, stride) => T::row_mut(&mut w.rows[row]).pop(base + i * stride),
            End::Latch(first, port) => T::latches_mut(&mut w.tiles[first + i])[port].take(),
        };
        let packet = packet.expect("a head to carry");
        match to {
            End::Row(row, base, stride) => {
                T::row_mut(&mut w.rows[row]).push(base + j * stride, packet);
            }
            End::Latch(first, port) => {
                T::latches_mut(&mut w.tiles[first + j])[port] = Some(packet);
            }
        }
    }
}

/// The §V-C baseline: all banks reachable in one cycle, no routing
/// conflicts; only bank conflicts serialize (round-robin per bank).
pub(crate) struct IdealNet {
    /// One arbiter per global bank, over all cores.
    rr: Vec<RoundRobin>,
    banks_per_tile: usize,
    /// Scratch: this cycle's `(global bank, core)` contenders.
    contenders: Vec<(usize, usize)>,
}

impl IdealNet {
    /// Resolves all core latches directly against the banks.
    ///
    /// `gate` is the fault-injection view of each (tile, bank) this cycle;
    /// requests granted to a dead bank are discarded and counted in
    /// `dropped`.
    pub fn route_requests(
        &mut self,
        latches: &mut [Option<Request>],
        tiles: &mut [Tile],
        map: &AddressMap,
        tile_accesses: &mut [u64],
        gate: impl Fn(usize, u32) -> BankGate,
        dropped: &mut u64,
    ) -> u64 {
        // Bucket contenders per global bank.
        self.contenders.clear();
        for (core, latch) in latches.iter().enumerate() {
            if let Some(req) = latch {
                let at = map.decode(req.addr).expect("validated at issue");
                let bank = at.tile as usize * self.banks_per_tile + at.bank as usize;
                self.contenders.push((bank, core));
            }
        }
        self.contenders.sort_unstable();
        let mut accesses = 0;
        for group in self.contenders.chunk_by(|a, b| a.0 == b.0) {
            let bank = group[0].0;
            let tile = bank / self.banks_per_tile;
            let bank_in_tile = bank % self.banks_per_tile;
            let state = gate(tile, bank_in_tile as u32);
            if state == BankGate::Stalled
                || (state == BankGate::Ready && !tiles[tile].bank_resp.can_push(bank_in_tile))
            {
                continue;
            }
            let rr = &mut self.rr[bank];
            let cores = group.iter().map(|&(_, core)| core);
            let winner = cores
                .min_by_key(|&core| rr.distance(core))
                .expect("nonempty");
            rr.advance_past(winner);
            let req = latches[winner].take().expect("contender had a request");
            if state == BankGate::Dead {
                *dropped += 1;
                continue;
            }
            let at = map.decode(req.addr).expect("validated");
            let resp = crate::tile::ideal_bank_access(&mut tiles[tile], &req, at);
            tiles[tile].bank_resp.push(bank_in_tile, resp);
            tile_accesses[tile] += 1;
            accesses += 1;
        }
        accesses
    }
}

/// The registers in order; loading re-derives the row's occupancy.
impl<T: Walk + Default + Copy> Walk for RegRow<T> {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.walk(this.at(RegRow::regs, RegRow::regs_mut))?;
        if let Some(row) = this.loading() {
            row.resync();
        }
        Ok(())
    }
}

impl Walk for Row {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        if let Some(row) = at!(this, Row::Req(row) => row) {
            return io.walk(row);
        }
        io.walk(at!(this, Row::Resp(row) => row).expect("a request or a response row"))
    }
}

/// The arbiters ahead of the network: a counted list of the ideal
/// crossbar's or of Top1/Top4's per-tile ones, or TopH's port routers.
impl Walk for Ports {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        if let Some(mut routers) = at!(this, Ports::ByGroup(routers) => routers) {
            return io.walk(routers.at(|v| &v[..], |v| &mut v[..]));
        }
        let rrs = at!(this,
            Ports::None(IdealNet { rr, .. }) | Ports::One(rr) | Ports::PerLane(rr) => rr);
        let mut rrs = rrs.expect("arbiters or routers");
        io.count(rrs.len(), "round-robin arbiter count")?;
        io.walk(rrs.at(|v| &v[..], |v| &mut v[..]))
    }
}

/// The arbiters ahead of the network, the rows in link-id order, then the
/// fabrics.
impl Walk for Net {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.walk(at!(this.ports))?;
        io.walk(at!(this.rows[..]))?;
        io.walk(at!(this.fabrics[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, Topology};

    /// The port a tile takes to reach another at the paper's 16 tiles per
    /// group.
    fn port_for(src: usize, dst: usize) -> usize {
        group_port(src / 16, dst / 16)
    }

    /// Uniform loads at offered load 0.5 over eight tags (the generator of
    /// `tests/no_alloc.rs`).
    struct UniformLoads {
        rng: u64,
        free_tags: u8,
        l1_words: u32,
    }

    impl crate::Core for UniformLoads {
        fn deliver(&mut self, response: mempool_snitch::DataResponse) {
            self.free_tags |= 1 << response.tag;
        }

        fn step(
            &mut self,
            _fetch: &mut impl FnMut(u32) -> mempool_snitch::Fetch,
            ready: bool,
        ) -> Option<mempool_snitch::DataRequest> {
            self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if !ready || self.free_tags == 0 || z & 1 == 0 {
                return None;
            }
            let tag = self.free_tags.trailing_zeros() as u8;
            self.free_tags &= !(1 << tag);
            Some(mempool_snitch::DataRequest {
                tag,
                addr: ((z >> 32) as u32 % self.l1_words) * 4,
                kind: mempool_snitch::DataRequestKind::Load(mempool_riscv::LoadOp::Lw),
            })
        }

        fn done(&self) -> bool {
            false
        }
    }

    impl Walk for UniformLoads {
        fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
            io.walk(at!(this.rng))?;
            io.walk(at!(this.free_tags))
        }
    }

    /// The visible-head bits equal a register walk after every cycle of
    /// the link-fault run of `tests/no_alloc.rs` — stall, drop and corrupt
    /// all reach past the rows — and on both sides of a mid-run checkpoint
    /// restore, which rebuilds the registers behind the rows' backs too.
    #[test]
    fn head_bits_equal_the_register_walk_under_link_faults_and_restore() {
        let spec: crate::FaultSpec = "bank_fail=2,link_stall=0.02,link_drop=0.01,link_corrupt=0.01"
            .parse()
            .expect("valid spec");
        for topology in [Topology::Top1, Topology::Top4, Topology::TopH] {
            let mut config = ClusterConfig::small(topology);
            config.resilience = crate::ResilienceConfig::standard();
            let l1_words = (config.address_map().expect("valid map").size_bytes() / 4) as u32;
            let build = || {
                crate::Cluster::new(config, |loc| UniformLoads {
                    rng: 0x5eed ^ (loc.core as u64) << 20,
                    free_tags: 0xff,
                    l1_words,
                })
                .expect("valid config")
            };
            let mut cluster = build();
            cluster.install_fault_plan(Some(crate::FaultPlan::new(3, spec)));
            let mut stalled_heads = 0;
            for cycle in 1..=600 {
                cluster.cycle();
                assert!(cluster.heads_in_sync(), "{topology} cycle {cycle}");
                for row in &cluster.net.rows {
                    if let Row::Req(row) = row {
                        let gated = row
                            .regs()
                            .iter()
                            .filter(|r| r.is_stalled() && !r.is_empty());
                        stalled_heads += gated.count();
                    }
                }
                if cycle == 300 {
                    let snap = cluster.snapshot();
                    let mut restored = build();
                    restored.restore(&snap).expect("snapshot restores");
                    assert!(restored.heads_in_sync(), "{topology}: restored");
                    cluster = restored;
                }
            }
            // The hard case was met: registers holding a packet behind a
            // stall gate, whose bit must be clear.
            assert!(stalled_heads > 0, "{topology}: no stalled packet");
            assert!(cluster.stats().faults.link_drops > 0, "{topology}");
        }
    }

    #[test]
    fn port_for_is_symmetric_and_total() {
        for src in 0..64 {
            for dst in 0..64 {
                if src == dst {
                    continue;
                }
                let port = port_for(src, dst);
                assert!(port < 4, "{src}->{dst} port {port}");
                // The response travels back on the same channel.
                assert_eq!(port, port_for(dst, src), "{src}<->{dst}");
            }
        }
    }

    #[test]
    fn port_for_matches_group_geometry() {
        // Same group -> L; partner groups by XOR pairing.
        assert_eq!(port_for(0, 15), 0); // L (both in group 0)
        assert_eq!(port_for(0, 32), 1); // N (group 0 <-> 2)
        assert_eq!(port_for(0, 63), 2); // NE (group 0 <-> 3)
        assert_eq!(port_for(0, 16), 3); // E (group 0 <-> 1)
        assert_eq!(port_for(17, 1), 3); // E seen from group 1
    }

    #[test]
    fn occupancy_is_zero_when_idle_and_bounded() {
        for topo in Topology::all() {
            let net = Net::new(&ClusterConfig::paper(topo));
            let (occupied, total) = net.occupancy();
            assert_eq!(occupied, 0, "{topo}: fresh network not empty");
            if topo == Topology::Ideal {
                assert_eq!(total, 0);
            } else {
                assert!(total > 0, "{topo}: no registers counted");
            }
        }
    }

    #[test]
    fn global_net_register_inventory() {
        // Top1: 64 master req + 64 master resp + 2 x 64 mid registers, all
        // depth 2.
        let net = Net::new(&ClusterConfig::paper(Topology::Top1));
        let (_, total) = net.occupancy();
        assert_eq!(total, 2 * (64 + 64 + 64 + 64));
        // Top4 has four of each port-plane.
        let net4 = Net::new(&ClusterConfig::paper(Topology::Top4));
        let (_, total4) = net4.occupancy();
        assert_eq!(total4, 4 * total);
    }

    #[test]
    fn hier_net_register_inventory() {
        // TopH: 64 tiles x 4 master req + 4 master resp, plus 4 groups x 3
        // directions x 16 boundary regs each way, depth 2 each.
        let net = Net::new(&ClusterConfig::paper(Topology::TopH));
        let (_, total) = net.occupancy();
        assert_eq!(total, 2 * (64 * 4 + 64 * 4 + 4 * 3 * 16 + 4 * 3 * 16));
    }
}
