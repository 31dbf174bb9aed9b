//! The three global interconnect topologies of §III-C, plus the ideal
//! crossbar baseline of §V-C.
//!
//! Register placement (the source of the paper's 1/3/5-cycle latencies):
//!
//! * every tile has a register boundary at each **master request port** and
//!   each **master response port**;
//! * `Top1`/`Top4` butterflies have a single pipeline register row midway
//!   through their layers (when they have at least two layers);
//! * `TopH` has an additional register boundary at each local group's
//!   master interface (the `boundary_*` rows), crossed only by inter-group
//!   traffic;
//! * slave request ports and outbound response ports carry 1-deep wire
//!   latches (the "optional elastic buffer at each switch output" of the
//!   paper) so a blocked packet retries without re-crossing the fabric.

use crate::snapshot::{at, Place, StateIo, Walk, Walked};
use crate::tile::{BankGate, Tile};
use crate::{ClusterConfig, Request, Response, Topology};
use mempool_mem::AddressMap;
use mempool_noc::{ElasticBuffer, Fabric, Requests, RoundRobin};

/// Direction indices for TopH ports: L is port 0, then N/NE/E.
const DIR_PARTNER_XOR: [usize; 3] = [2, 3, 1]; // N, NE, E

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
pub(crate) enum Row<Q, P> {
    Req(Q),
    Resp(P),
}

pub(crate) type RowRef<'a> = Row<&'a RegRow<Request>, &'a RegRow<Response>>;
pub(crate) type RowMut<'a> = Row<&'a mut RegRow<Request>, &'a mut RegRow<Response>>;

pub(crate) enum Net {
    Ideal(IdealNet),
    Global(GlobalNet),
    Hier(HierNet),
}

impl Net {
    pub fn new(config: &ClusterConfig) -> Net {
        match config.topology {
            Topology::Ideal => Net::Ideal(IdealNet::new(config)),
            Topology::Top1 => Net::Global(GlobalNet::new(config, 1, true)),
            Topology::Top4 => Net::Global(GlobalNet::new(config, config.cores_per_tile, false)),
            Topology::TopH => Net::Hier(HierNet::new(config)),
        }
    }

    /// The tile response-crossbar output port (0-based among the K remote
    /// ports) a remote response leaves through.
    pub fn resp_port_for(&self, tile: usize, resp: &Response, cores_per_tile: usize) -> usize {
        match self {
            Net::Ideal(_) => 0,
            Net::Global(g) => {
                if g.concentrate {
                    0
                } else {
                    resp.core as usize % cores_per_tile
                }
            }
            Net::Hier(h) => h.port_for(tile, resp.core as usize / cores_per_tile),
        }
    }

    pub fn deliver_master_resp(&mut self, tiles: &mut [Tile], deliveries: &mut Vec<Response>) {
        match self {
            // No network: the bank response registers face the cores.
            Net::Ideal(_) => {
                for tile in tiles {
                    tile.bank_resp.pop_heads_into(deliveries);
                }
            }
            Net::Global(n) => n.master_resp.pop_heads_into(deliveries),
            Net::Hier(n) => n.master_resp.pop_heads_into(deliveries),
        }
    }

    pub fn route_responses(&mut self, tiles: &mut [Tile], cores_per_tile: usize) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => n.route_responses(tiles, cores_per_tile),
            Net::Hier(n) => n.route_responses(tiles, cores_per_tile),
        }
    }

    pub fn route_longhaul_requests(&mut self, tiles: &mut [Tile], map: &AddressMap) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => n.route_longhaul(tiles, map),
            Net::Hier(n) => n.route_longhaul(tiles, map),
        }
    }

    pub fn route_port_requests(&mut self, latches: &mut [Option<Request>], map: &AddressMap) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => n.route_ports(latches, map),
            Net::Hier(n) => n.route_ports(latches, map),
        }
    }

    /// Visits every register row in link-id order (construction order, so a
    /// seeded fault plan addresses the same physical register every run).
    /// The ideal network has no registers.
    pub fn for_each_row(&self, f: &mut dyn FnMut(RowRef<'_>)) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => {
                f(Row::Req(&n.master_req));
                f(Row::Resp(&n.master_resp));
                n.mid_req.iter().for_each(|row| f(Row::Req(row)));
                n.mid_resp.iter().for_each(|row| f(Row::Resp(row)));
            }
            Net::Hier(n) => {
                f(Row::Req(&n.master_req));
                f(Row::Resp(&n.master_resp));
                f(Row::Req(&n.boundary_req));
                f(Row::Resp(&n.boundary_resp));
            }
        }
    }

    /// [`for_each_row`](Net::for_each_row), mutably (same order).
    pub fn for_each_row_mut(&mut self, f: &mut dyn FnMut(RowMut<'_>)) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => {
                f(Row::Req(&mut n.master_req));
                f(Row::Resp(&mut n.master_resp));
                n.mid_req.iter_mut().for_each(|row| f(Row::Req(row)));
                n.mid_resp.iter_mut().for_each(|row| f(Row::Resp(row)));
            }
            Net::Hier(n) => {
                f(Row::Req(&mut n.master_req));
                f(Row::Resp(&mut n.master_resp));
                f(Row::Req(&mut n.boundary_req));
                f(Row::Resp(&mut n.boundary_resp));
            }
        }
    }

    /// End-of-cycle commit of the registers pushed this cycle.
    pub fn commit(&mut self) {
        self.for_each_row_mut(&mut |row| match row {
            Row::Req(row) => row.commit(),
            Row::Resp(row) => row.commit(),
        });
    }

    /// Hands every register stage, with its stable link id, to the fault
    /// injector, which may stall, drop or corrupt; the rows' bookkeeping is
    /// re-derived behind it.
    pub fn for_each_link(&mut self, f: &mut dyn FnMut(u64, LinkRef<'_>)) {
        let mut id = 0u64;
        self.for_each_row_mut(&mut |row| match row {
            Row::Req(row) => {
                for reg in row.regs_mut() {
                    f(id, LinkRef::Req(reg));
                    id += 1;
                }
                row.resync();
            }
            Row::Resp(row) => {
                for reg in row.regs_mut() {
                    f(id, LinkRef::Resp(reg));
                    id += 1;
                }
                row.resync();
            }
        });
    }

    /// Visits every register stage immutably with its stable link id (the
    /// same ids as [`for_each_link`](Net::for_each_link)) and the
    /// observability counters of that stage. Used to build the
    /// `cluster/link{id}` scopes of the metrics registry.
    pub fn for_each_link_stats(&self, f: &mut dyn FnMut(u64, LinkStatView)) {
        fn view<T>(reg: &ElasticBuffer<T>, is_req: bool) -> LinkStatView {
            LinkStatView {
                occupancy: reg.len() as u64,
                pushes: reg.pushes(),
                is_req,
            }
        }
        let mut id = 0u64;
        let mut visit = |stat| {
            f(id, stat);
            id += 1;
        };
        self.for_each_row(&mut |row| match row {
            Row::Req(row) => row.regs().iter().for_each(|reg| visit(view(reg, true))),
            Row::Resp(row) => row.regs().iter().for_each(|reg| visit(view(reg, false))),
        });
    }

    /// (occupied, total) register slots across the global interconnect —
    /// the buffer-occupancy congestion metric, from the rows' running
    /// counts.
    pub fn occupancy(&self) -> (u64, u64) {
        let (mut occupied, mut total) = (0, 0);
        self.for_each_row(&mut |row| {
            let (held, slots) = match row {
                Row::Req(row) => (row.held(), row.slots()),
                Row::Resp(row) => (row.held(), row.slots()),
            };
            occupied += held as u64;
            total += slots as u64;
        });
        (occupied, total)
    }

    /// Whether every row's running head bits equal a walk over its
    /// registers, as they must at every cycle boundary.
    pub fn heads_in_sync(&self) -> bool {
        let mut in_sync = true;
        self.for_each_row(&mut |row| {
            in_sync &= match row {
                Row::Req(row) => row.heads_in_sync(),
                Row::Resp(row) => row.heads_in_sync(),
            }
        });
        in_sync
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

// ---------------------------------------------------------------------------
// Ideal full crossbar (baseline).
// ---------------------------------------------------------------------------

/// The §V-C baseline: all banks reachable in one cycle, no routing
/// conflicts; only bank conflicts serialize (round-robin per bank).
pub(crate) struct IdealNet {
    /// One arbiter per global bank, over all cores.
    pub(crate) rr: Vec<RoundRobin>,
    banks_per_tile: usize,
    /// Scratch: this cycle's `(global bank, core)` contenders.
    contenders: Vec<(usize, usize)>,
}

impl IdealNet {
    fn new(config: &ClusterConfig) -> Self {
        IdealNet {
            rr: (0..config.num_banks())
                .map(|_| RoundRobin::new(config.num_cores()))
                .collect(),
            banks_per_tile: config.banks_per_tile,
            contenders: Vec::with_capacity(config.num_cores()),
        }
    }

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

// ---------------------------------------------------------------------------
// Top1 / Top4: one or four global radix-4 butterflies.
// ---------------------------------------------------------------------------

pub(crate) struct GlobalNet {
    num_tiles: usize,
    cores_per_tile: usize,
    ports: usize,
    /// Top1 concentrates the tile's cores onto one port.
    concentrate: bool,
    pub(crate) rr_concentrator: Vec<RoundRobin>,
    /// `[tile * ports + p]`.
    pub(crate) master_req: RegRow<Request>,
    pub(crate) master_resp: RegRow<Response>,
    /// Per port: request butterfly segment A (or the whole network when it
    /// has a single layer).
    pub(crate) req_a: Vec<Fabric>,
    pub(crate) req_b: Vec<Fabric>,
    /// `[port]` mid-stage pipeline register rows (empty rows when unsplit).
    pub(crate) mid_req: Vec<RegRow<Request>>,
    pub(crate) resp_a: Vec<Fabric>,
    pub(crate) resp_b: Vec<Fabric>,
    pub(crate) mid_resp: Vec<RegRow<Response>>,
    split: bool,
}

fn butterfly_layer_count(ports: usize, radix: usize) -> usize {
    let mut n = ports;
    let mut k = 0;
    while n > 1 {
        n /= radix;
        k += 1;
    }
    k
}

impl GlobalNet {
    fn new(config: &ClusterConfig, ports: usize, concentrate: bool) -> Self {
        let n = config.num_tiles;
        let k = butterfly_layer_count(n, config.radix);
        let split = k >= 2;
        let mid = k.div_ceil(2);
        let segment = |first, last| {
            let build =
                || Fabric::butterfly_segment(n, config.radix, first, last).expect("validated");
            (0..ports).map(|_| build()).collect::<Vec<_>>()
        };
        let mid_len = if split { n } else { 0 };
        GlobalNet {
            num_tiles: n,
            cores_per_tile: config.cores_per_tile,
            ports,
            concentrate,
            rr_concentrator: (0..n)
                .map(|_| RoundRobin::new(config.cores_per_tile))
                .collect(),
            master_req: RegRow::new(n * ports),
            master_resp: RegRow::new(n * ports),
            req_a: segment(0, if split { mid } else { k }),
            req_b: if split { segment(mid, k) } else { Vec::new() },
            mid_req: (0..ports).map(|_| RegRow::new(mid_len)).collect(),
            resp_a: segment(0, if split { mid } else { k }),
            resp_b: if split { segment(mid, k) } else { Vec::new() },
            mid_resp: (0..ports).map(|_| RegRow::new(mid_len)).collect(),
            split,
        }
    }

    fn route_longhaul(&mut self, tiles: &mut [Tile], map: &AddressMap) {
        let dest_tile = |req: &Request| map.decode(req.addr).expect("validated").tile as usize;
        let (n, ports) = (self.num_tiles, self.ports);
        for p in 0..ports {
            if self.split {
                // Segment B: mid registers -> destination tile slave latches.
                self.req_b[p].route(
                    &mut (&mut self.mid_req[p], &mut *tiles),
                    |(mid, _), want| {
                        mid.for_each_head(0, n, |row, req| want.add(row, dest_tile(req)));
                    },
                    |(_, tiles), tile| tiles[tile].slave_req[p].is_none(),
                    |(mid, tiles), row, tile| {
                        tiles[tile].slave_req[p] = Some(mid.pop(row).expect("head existed"));
                    },
                );
            }
            // Segment A (the whole network when it has a single layer):
            // master request registers -> mid registers or slave latches.
            let master_heads = |master: &RegRow<Request>, want: &mut Requests<'_>| {
                for tile in 0..n {
                    if let Some(req) = master.head(tile * ports + p) {
                        want.add(tile, dest_tile(req));
                    }
                }
            };
            if self.split {
                self.req_a[p].route(
                    &mut (&mut self.master_req, &mut self.mid_req[p]),
                    |(master, _), want| master_heads(master, want),
                    |(_, mid), row| mid.can_push(row),
                    |(master, mid), tile, row| {
                        mid.push(row, master.pop(tile * ports + p).expect("head existed"));
                    },
                );
            } else {
                self.req_a[p].route(
                    &mut (&mut self.master_req, &mut *tiles),
                    |(master, _), want| master_heads(master, want),
                    |(_, tiles), tile| tiles[tile].slave_req[p].is_none(),
                    |(master, tiles), src, tile| {
                        let req = master.pop(src * ports + p).expect("head existed");
                        tiles[tile].slave_req[p] = Some(req);
                    },
                );
            }
        }
    }

    fn route_ports(&mut self, latches: &mut [Option<Request>], map: &AddressMap) {
        let cpt = self.cores_per_tile;
        let leaves = |req: &Request, tile: usize| {
            map.decode(req.addr).expect("validated").tile as usize != tile
        };
        for (tile, lanes) in latches.chunks_mut(cpt).enumerate() {
            if self.concentrate {
                if !self.master_req.can_push(tile) {
                    continue;
                }
                let rr = &mut self.rr_concentrator[tile];
                let remote =
                    (0..cpt).filter(|&l| lanes[l].as_ref().is_some_and(|r| leaves(r, tile)));
                if let Some(winner) = remote.min_by_key(|&lane| rr.distance(lane)) {
                    rr.advance_past(winner);
                    self.master_req
                        .push(tile, lanes[winner].take().expect("lane had request"));
                }
            } else {
                for (lane, latch) in lanes.iter_mut().enumerate() {
                    let reg = tile * self.ports + lane;
                    if latch.as_ref().is_some_and(|r| leaves(r, tile))
                        && self.master_req.can_push(reg)
                    {
                        self.master_req
                            .push(reg, latch.take().expect("lane had request"));
                    }
                }
            }
        }
    }

    fn route_responses(&mut self, tiles: &mut [Tile], cores_per_tile: usize) {
        let dest_tile = |resp: &Response| resp.core as usize / cores_per_tile;
        let (n, ports) = (self.num_tiles, self.ports);
        for p in 0..ports {
            if self.split {
                // Segment B': mid response registers -> master response regs.
                self.resp_b[p].route(
                    &mut (&mut self.mid_resp[p], &mut self.master_resp),
                    |(mid, _), want| {
                        mid.for_each_head(0, n, |row, resp| want.add(row, dest_tile(resp)));
                    },
                    |(_, master), tile| master.can_push(tile * ports + p),
                    |(mid, master), row, tile| {
                        master.push(tile * ports + p, mid.pop(row).expect("head existed"));
                    },
                );
            }
            // Segment A' (the whole network when it has a single layer):
            // tile response-out latches -> mid or master response registers.
            let latched = |tiles: &[Tile], want: &mut Requests<'_>| {
                for (tile, resp) in tiles.iter().map(|t| &t.resp_out[p]).enumerate() {
                    if let Some(resp) = resp {
                        want.add(tile, dest_tile(resp));
                    }
                }
            };
            if self.split {
                self.resp_a[p].route(
                    &mut (&mut *tiles, &mut self.mid_resp[p]),
                    |(tiles, _), want| latched(tiles, want),
                    |(_, mid), row| mid.can_push(row),
                    |(tiles, mid), tile, row| {
                        mid.push(row, tiles[tile].resp_out[p].take().expect("latch full"));
                    },
                );
            } else {
                self.resp_a[p].route(
                    &mut (&mut *tiles, &mut self.master_resp),
                    |(tiles, _), want| latched(tiles, want),
                    |(_, master), tile| master.can_push(tile * ports + p),
                    |(tiles, master), src, tile| {
                        let resp = tiles[src].resp_out[p].take().expect("latch full");
                        master.push(tile * ports + p, resp);
                    },
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TopH: hierarchical — local group crossbars + N/NE/E inter-group
// butterflies.
// ---------------------------------------------------------------------------

pub(crate) struct HierNet {
    num_tiles: usize,
    cores_per_tile: usize,
    tiles_per_group: usize,
    /// Per tile: crossbar (cores × 4 ports) routing requests to L/N/NE/E.
    pub(crate) port_router: Vec<Fabric>,
    /// `[tile * 4 + port]`, port 0 = L, 1 = N, 2 = NE, 3 = E.
    pub(crate) master_req: RegRow<Request>,
    pub(crate) master_resp: RegRow<Response>,
    /// Per group: the 16×16 fully-connected local crossbars.
    pub(crate) local_req: Vec<Fabric>,
    pub(crate) local_resp: Vec<Fabric>,
    /// `[(group * 3 + dir) * tiles_per_group + row]`, dir 0 = N, 1 = NE,
    /// 2 = E: the register boundary at the group's master interface.
    pub(crate) boundary_req: RegRow<Request>,
    pub(crate) boundary_resp: RegRow<Response>,
    /// Per (group, dir): the 16×16 radix-4 butterflies.
    pub(crate) inter_req: Vec<Fabric>,
    pub(crate) inter_resp: Vec<Fabric>,
}

#[allow(clippy::needless_range_loop)] // `d` indexes three parallel tables
impl HierNet {
    fn new(config: &ClusterConfig) -> Self {
        let n = config.num_tiles;
        let tpg = config.tiles_per_group();
        let groups = config.num_groups();
        let mk_bfly = || Fabric::butterfly(tpg, config.radix).expect("validated");
        HierNet {
            num_tiles: n,
            cores_per_tile: config.cores_per_tile,
            tiles_per_group: tpg,
            port_router: (0..n)
                .map(|_| Fabric::crossbar(config.cores_per_tile, 4).expect("validated"))
                .collect(),
            master_req: RegRow::new(n * 4),
            master_resp: RegRow::new(n * 4),
            local_req: (0..groups)
                .map(|_| Fabric::crossbar(tpg, tpg).expect("validated"))
                .collect(),
            local_resp: (0..groups)
                .map(|_| Fabric::crossbar(tpg, tpg).expect("validated"))
                .collect(),
            boundary_req: RegRow::new(groups * 3 * tpg),
            boundary_resp: RegRow::new(groups * 3 * tpg),
            inter_req: (0..groups * 3).map(|_| mk_bfly()).collect(),
            inter_resp: (0..groups * 3).map(|_| mk_bfly()).collect(),
        }
    }

    /// The tile port (0 = L, 1 = N, 2 = NE, 3 = E) used to reach `dst` from
    /// `src`. Must not be called for `src == dst` (local-bank traffic skips
    /// the remote ports).
    pub fn port_for(&self, src: usize, dst: usize) -> usize {
        port_between(self.tiles_per_group, src, dst)
    }

    fn route_longhaul(&mut self, tiles: &mut [Tile], map: &AddressMap) {
        let tpg = self.tiles_per_group;
        let groups = self.num_tiles / tpg;
        let dest_row = |req: &Request| map.decode(req.addr).expect("validated").tile as usize % tpg;
        // Stage: group boundary registers -> inter-group butterflies ->
        // partner-tile slave latches.
        for (g, d) in (0..groups).flat_map(|g| (0..3).map(move |d| (g, d))) {
            if self.boundary_req.held() == 0 {
                break;
            }
            let partner = (g ^ DIR_PARTNER_XOR[d]) * tpg;
            let base = (g * 3 + d) * tpg;
            self.inter_req[g * 3 + d].route(
                &mut (&mut self.boundary_req, &mut *tiles),
                |(boundary, _), want| {
                    boundary.for_each_head(base, tpg, |reg, req| {
                        want.add(reg - base, dest_row(req));
                    });
                },
                |(_, tiles), t| tiles[partner + t].slave_req[d + 1].is_none(),
                |(boundary, tiles), i, t| {
                    tiles[partner + t].slave_req[d + 1] =
                        Some(boundary.pop(base + i).expect("head"));
                },
            );
        }
        if self.master_req.held() == 0 {
            return;
        }
        // Stage: local L crossbars (within each group).
        for g in 0..groups {
            let first = g * tpg;
            self.local_req[g].route(
                &mut (&mut self.master_req, &mut *tiles),
                |(master, _), want| {
                    for i in 0..tpg {
                        if let Some(req) = master.head((first + i) * 4) {
                            want.add(i, dest_row(req));
                        }
                    }
                },
                |(_, tiles), t| tiles[first + t].slave_req[0].is_none(),
                |(master, tiles), i, t| {
                    tiles[first + t].slave_req[0] =
                        Some(master.pop((first + i) * 4).expect("head"));
                },
            );
        }
        // Stage: tile master N/NE/E registers -> group boundary registers
        // (point-to-point wiring, no arbitration).
        self.master_req
            .forward_heads(&mut self.boundary_req, |reg| {
                let (tile, port) = (reg / 4, reg % 4);
                (port != 0).then(|| (tile / tpg * 3 + port - 1) * tpg + tile % tpg)
            });
    }

    fn route_ports(&mut self, latches: &mut [Option<Request>], map: &AddressMap) {
        let (cpt, tpg) = (self.cores_per_tile, self.tiles_per_group);
        for (tile, lanes) in latches.chunks_mut(cpt).enumerate() {
            self.port_router[tile].route(
                &mut (lanes, &mut self.master_req),
                |(lanes, _), want| {
                    for (lane, req) in lanes.iter().enumerate() {
                        let Some(req) = req else { continue };
                        let dst = map.decode(req.addr).expect("validated").tile as usize;
                        if dst != tile {
                            want.add(lane, port_between(tpg, tile, dst));
                        }
                    }
                },
                |(_, master), port| master.can_push(tile * 4 + port),
                |(lanes, master), lane, port| {
                    master.push(
                        tile * 4 + port,
                        lanes[lane].take().expect("lane had request"),
                    );
                },
            );
        }
    }

    fn route_responses(&mut self, tiles: &mut [Tile], cores_per_tile: usize) {
        let tpg = self.tiles_per_group;
        let groups = self.num_tiles / tpg;
        let dest_tile = |resp: &Response| resp.core as usize / cores_per_tile;
        // Stage: boundary response registers -> tile master response regs
        // (point-to-point).
        self.boundary_resp
            .forward_heads(&mut self.master_resp, |boundary| {
                let (g, d, i) = (boundary / (3 * tpg), boundary / tpg % 3, boundary % tpg);
                Some((g * tpg + i) * 4 + 1 + d)
            });
        // Stage: partner-tile response-out latches -> inter-group response
        // butterflies -> boundary response registers.
        for g in 0..groups {
            for d in 0..3 {
                let partner = (g ^ DIR_PARTNER_XOR[d]) * tpg;
                let base = (g * 3 + d) * tpg;
                self.inter_resp[g * 3 + d].route(
                    &mut (&mut *tiles, &mut self.boundary_resp),
                    |(tiles, _), want| {
                        for (i, tile) in tiles[partner..partner + tpg].iter().enumerate() {
                            let Some(resp) = &tile.resp_out[d + 1] else {
                                continue;
                            };
                            // Anything else belongs to the other direction
                            // pairing.
                            let dst = dest_tile(resp);
                            if dst / tpg == g {
                                want.add(i, dst % tpg);
                            }
                        }
                    },
                    |(_, boundary), row| boundary.can_push(base + row),
                    |(tiles, boundary), i, row| {
                        let resp = tiles[partner + i].resp_out[d + 1].take().expect("latch");
                        boundary.push(base + row, resp);
                    },
                );
            }
        }
        // Stage: local L response crossbars.
        for g in 0..groups {
            let first = g * tpg;
            self.local_resp[g].route(
                &mut (&mut *tiles, &mut self.master_resp),
                |(tiles, _), want| {
                    for (i, tile) in tiles[first..first + tpg].iter().enumerate() {
                        if let Some(resp) = &tile.resp_out[0] {
                            want.add(i, dest_tile(resp) % tpg);
                        }
                    }
                },
                |(_, master), t| master.can_push((first + t) * 4),
                |(tiles, master), i, t| {
                    master.push(
                        (first + t) * 4,
                        tiles[first + i].resp_out[0].take().expect("latch"),
                    );
                },
            );
        }
    }
}

/// [`HierNet::port_for`] for a hierarchy of `tpg` tiles per group.
fn port_between(tpg: usize, src: usize, dst: usize) -> usize {
    match (src / tpg) ^ (dst / tpg) {
        0 => 0, // L
        2 => 1, // N
        3 => 2, // NE
        1 => 3, // E
        _ => unreachable!("four groups"),
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

/// A counted list of arbiters.
fn rr_list<Io: StateIo>(io: &mut Io, mut rrs: Place<'_, Io, Vec<RoundRobin>>) -> Walked {
    io.count(rrs.len(), "round-robin arbiter count")?;
    io.walk(rrs.at(|v| &v[..], |v| &mut v[..]))
}

/// The arbiters ahead of the register rows, the rows in link-id order,
/// then the fabrics behind them.
impl Walk for Net {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        if let Some(mut net) = at!(this, Net::Ideal(net) => net) {
            return rr_list(io, at!(net.rr));
        }
        if let Some(net) = at!(this, Net::Global(net) => net) {
            return io.walk(net);
        }
        let net = at!(this, Net::Hier(net) => net);
        io.walk(net.expect("one of three topologies"))
    }
}

impl Walk for GlobalNet {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        rr_list(io, at!(this.rr_concentrator))?;
        io.walk(at!(this.master_req))?;
        io.walk(at!(this.master_resp))?;
        io.walk(at!(this.mid_req[..]))?;
        io.walk(at!(this.mid_resp[..]))?;
        io.walk(at!(this.req_a[..]))?;
        io.walk(at!(this.req_b[..]))?;
        io.walk(at!(this.resp_a[..]))?;
        io.walk(at!(this.resp_b[..]))
    }
}

impl Walk for HierNet {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.walk(at!(this.port_router[..]))?;
        io.walk(at!(this.master_req))?;
        io.walk(at!(this.master_resp))?;
        io.walk(at!(this.boundary_req))?;
        io.walk(at!(this.boundary_resp))?;
        io.walk(at!(this.local_req[..]))?;
        io.walk(at!(this.local_resp[..]))?;
        io.walk(at!(this.inter_req[..]))?;
        io.walk(at!(this.inter_resp[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, Topology};

    fn hier() -> HierNet {
        let Net::Hier(h) = Net::new(&ClusterConfig::paper(Topology::TopH)) else {
            panic!("expected the hierarchical network");
        };
        h
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
                cluster.net.for_each_row(&mut |row| {
                    if let Row::Req(row) = row {
                        let gated = row
                            .regs()
                            .iter()
                            .filter(|r| r.is_stalled() && !r.is_empty());
                        stalled_heads += gated.count();
                    }
                });
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
        let h = hier();
        for src in 0..64 {
            for dst in 0..64 {
                if src == dst {
                    continue;
                }
                let port = h.port_for(src, dst);
                assert!(port < 4, "{src}->{dst} port {port}");
                // The response travels back on the same channel.
                assert_eq!(port, h.port_for(dst, src), "{src}<->{dst}");
            }
        }
    }

    #[test]
    fn port_for_matches_group_geometry() {
        let h = hier();
        // Same group -> L; partner groups by XOR pairing.
        assert_eq!(h.port_for(0, 15), 0); // L (both in group 0)
        assert_eq!(h.port_for(0, 32), 1); // N (group 0 <-> 2)
        assert_eq!(h.port_for(0, 63), 2); // NE (group 0 <-> 3)
        assert_eq!(h.port_for(0, 16), 3); // E (group 0 <-> 1)
        assert_eq!(h.port_for(17, 1), 3); // E seen from group 1
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
