//! The MemPool tile: cores' local memory island — 16 SPM banks, the tile
//! request/response crossbars, K remote port latches, and the shared L1
//! instruction cache with its refill port (Figure 2 of the paper).

use crate::net::RegRow;
use crate::snapshot::{at, Place, StateIo, Walk, Walked};
use crate::{ClusterConfig, Request, Response};
use mempool_mem::{AddressMap, BankOp, ICache, SpmBank};
use mempool_noc::Fabric;
use mempool_riscv::{Instr, StoreOp};
use mempool_snitch::{DataRequestKind, Fetch};
use std::collections::VecDeque;

/// The pre-decoded instruction image shared by all tiles (instructions live
/// in a separate address space backed by L2; the tile I-caches model fetch
/// *timing*).
#[derive(Debug, Clone, Default)]
pub struct ProgramImage {
    base: u32,
    instrs: Vec<Instr>,
}

impl ProgramImage {
    /// Pre-decodes an assembled program.
    ///
    /// # Errors
    ///
    /// Returns the decode error of the first malformed word. Data words
    /// embedded in the text section decode as garbage or fail — keep data in
    /// the L1 address space instead.
    pub fn from_program(
        program: &mempool_riscv::Program,
    ) -> Result<Self, mempool_riscv::DecodeError> {
        let instrs = program
            .words()
            .iter()
            .map(|&w| mempool_riscv::decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ProgramImage {
            base: program.base(),
            instrs,
        })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `pc`, if in range and aligned.
    #[inline]
    pub fn at(&self, pc: u32) -> Option<Instr> {
        if pc < self.base || !pc.is_multiple_of(4) {
            return None;
        }
        self.instrs.get(((pc - self.base) / 4) as usize).copied()
    }

    /// FNV-1a digest over the image's base address and decoded
    /// instructions — lets a checkpoint verify it is restored against the
    /// same program it was taken from.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(&self.base.to_le_bytes());
        for instr in &self.instrs {
            mix(format!("{instr:?}").as_bytes());
        }
        hash
    }
}

#[derive(Debug, Clone)]
pub(crate) struct RefillUnit {
    /// Missing lines registered but not yet installed (the MSHRs).
    pub(crate) pending: Vec<u32>,
    /// Misses waiting to enter the refill transport.
    pub(crate) outbox: VecDeque<u32>,
    /// Line in flight on the fixed-latency port and its completion cycle
    /// (unused when the cluster routes refills over the ring).
    pub(crate) in_flight: Option<(u32, u64)>,
    pub(crate) latency: u32,
    pub(crate) refills: u64,
}

/// Per-bank fault gate consulted by the tile request crossbar each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BankGate {
    /// Bank operates normally.
    Ready,
    /// Transient stall: the bank refuses requests this cycle; they wait in
    /// their latches and retry next cycle.
    Stalled,
    /// Permanent failure: requests addressed here are granted and silently
    /// discarded (the timeout/retry layer recovers them). Dropping instead
    /// of stalling keeps dead banks from permanently clogging the
    /// interconnect's elastic buffers.
    Dead,
}

/// One tile: banks, crossbars, remote-port latches, I-cache.
#[derive(Debug, Clone)]
pub(crate) struct Tile {
    pub banks: Vec<SpmBank>,
    /// Per-bank response register (the SPM output register).
    pub bank_resp: RegRow<Response>,
    /// Tile request crossbar: (cores + K remote slaves) × banks.
    pub(crate) req_fabric: Fabric,
    /// Tile response crossbar: banks × (cores + K remote ports).
    pub(crate) resp_fabric: Fabric,
    /// Inbound remote requests (wire latches at the K slave ports).
    pub slave_req: Vec<Option<Request>>,
    /// Outbound remote responses (wire latches at the K response ports).
    pub resp_out: Vec<Option<Response>>,
    pub(crate) icache: ICache,
    pub(crate) refill: RefillUnit,
    cores_per_tile: usize,
}

impl Tile {
    pub fn new(config: &ClusterConfig) -> Self {
        let ports = config.topology.remote_ports(config.cores_per_tile);
        let masters = config.cores_per_tile + ports;
        let banks = config.banks_per_tile;
        Tile {
            banks: (0..banks)
                .map(|_| SpmBank::new(config.rows_per_bank))
                .collect(),
            bank_resp: RegRow::new(banks),
            req_fabric: Fabric::crossbar(masters.max(1), banks).expect("validated geometry"),
            resp_fabric: Fabric::crossbar(banks, masters.max(1)).expect("validated geometry"),
            slave_req: vec![None; ports],
            resp_out: vec![None; ports],
            icache: ICache::new(
                config.icache.size_bytes,
                config.icache.ways,
                config.icache.line_bytes,
            )
            .expect("validated geometry"),
            refill: RefillUnit {
                pending: Vec::new(),
                outbox: VecDeque::new(),
                in_flight: None,
                latency: config.icache.refill_latency,
                refills: 0,
            },
            cores_per_tile: config.cores_per_tile,
        }
    }

    /// I-cache hit/miss statistics.
    pub fn icache_stats(&self) -> mempool_mem::CacheStats {
        self.icache.stats()
    }

    /// Number of completed I-cache refills.
    pub fn refills(&self) -> u64 {
        self.refill.refills
    }

    /// Fixed-latency refill port: completes an in-flight refill and starts
    /// the next queued one. (Ring mode drives refills from the cluster via
    /// [`Tile::take_refill_request`] / [`Tile::complete_refill`] instead.)
    /// Returns whether a line was installed this cycle.
    #[inline]
    pub fn refill_tick(&mut self, now: u64) -> bool {
        let installed = self
            .refill
            .in_flight
            .take_if(|&mut (_, done_at)| done_at <= now);
        if let Some((line, _)) = installed {
            self.complete_refill(line);
        }
        if self.refill.in_flight.is_none() {
            if let Some(line) = self.refill.outbox.pop_front() {
                self.refill.in_flight = Some((line, now + u64::from(self.refill.latency)));
            }
        }
        installed.is_some()
    }

    /// The oldest miss waiting to enter the refill network (peek).
    pub fn peek_refill_request(&self) -> Option<u32> {
        self.refill.outbox.front().copied()
    }

    /// Removes the oldest waiting miss (call after the transport accepted
    /// it).
    pub fn take_refill_request(&mut self) -> Option<u32> {
        self.refill.outbox.pop_front()
    }

    /// Installs a refilled line (transport completion).
    pub fn complete_refill(&mut self, line: u32) {
        self.icache.fill(line);
        self.refill.refills += 1;
        self.refill.pending.retain(|&l| l != line);
    }

    /// One core's instruction fetch this cycle.
    #[inline]
    pub fn fetch(&mut self, pc: u32, image: &ProgramImage) -> Fetch {
        let Some(instr) = image.at(pc) else {
            return Fetch::Fault;
        };
        if self.icache.probe(pc) {
            return Fetch::Ready(instr);
        }
        let line = self.icache.line_base(pc);
        if !self.refill.pending.contains(&line) {
            self.refill.pending.push(line);
            self.refill.outbox.push_back(line);
        }
        Fetch::Stall
    }

    /// Number of I-cache lines requested but not yet installed (outstanding
    /// refill work, however far along the transport it is).
    pub fn pending_refills(&self) -> usize {
        self.refill.pending.len()
    }

    /// Resolves the tile request crossbar and performs the granted bank
    /// accesses. Masters are the tile's cores (their output latches, when
    /// the request targets this tile) and the K slave-port latches.
    ///
    /// `gate` is the fault-injection view of each bank this cycle; requests
    /// granted to a [`BankGate::Dead`] bank are discarded and counted in
    /// `dropped`.
    ///
    /// Returns the number of bank accesses performed.
    pub fn accept_requests(
        &mut self,
        tile_index: usize,
        core_latches: &mut [Option<Request>],
        map: &AddressMap,
        gate: impl Fn(u32) -> BankGate,
        dropped: &mut u64,
    ) -> u64 {
        let cores = self.cores_per_tile;
        debug_assert_eq!(core_latches.len(), cores);
        let mut accesses = 0;
        self.req_fabric.route(
            &mut (
                core_latches,
                &mut self.slave_req,
                &mut self.banks,
                &mut self.bank_resp,
            ),
            |(core, slave, ..), want| {
                for (master, req) in core.iter().chain(slave.iter()).enumerate() {
                    let Some(req) = req else { continue };
                    let at = map
                        .decode(req.addr)
                        .expect("request addresses are validated at issue");
                    debug_assert!(
                        master < cores || at.tile as usize == tile_index,
                        "misrouted request"
                    );
                    if at.tile as usize == tile_index {
                        want.add(master, at.bank as usize);
                    }
                }
            },
            |(.., bank_resp), bank| match gate(bank as u32) {
                BankGate::Ready => bank_resp.can_push(bank),
                BankGate::Stalled => false,
                BankGate::Dead => true, // grants are discarded below
            },
            |(core, slave, banks, bank_resp), master, bank| {
                let latch = if master < cores {
                    &mut core[master]
                } else {
                    &mut slave[master - cores]
                };
                let req = latch.take().expect("granted offer had a request");
                if gate(bank as u32) == BankGate::Dead {
                    *dropped += 1;
                    return;
                }
                let at = map.decode(req.addr).expect("validated above");
                bank_resp.push(bank, bank_access(&mut banks[bank], &req, at.row, at.byte));
                accesses += 1;
            },
        );
        accesses
    }

    /// Resolves the tile response crossbar: bank response registers route to
    /// local cores (delivered into `deliveries`) or to the K outbound
    /// response-port latches. `port_for` maps a remote response to its port.
    pub fn route_responses(
        &mut self,
        tile_index: usize,
        cores_per_tile: usize,
        deliveries: &mut Vec<Response>,
        port_for: impl Fn(&Response) -> usize,
    ) {
        if self.bank_resp.held() == 0 {
            return;
        }
        let banks = self.banks.len();
        self.resp_fabric.route(
            &mut (&mut self.bank_resp, &mut self.resp_out, deliveries),
            |(bank_resp, ..), want| {
                bank_resp.for_each_head(0, banks, |bank, resp| {
                    let port = if resp.core as usize / cores_per_tile == tile_index {
                        resp.core as usize % cores_per_tile
                    } else {
                        cores_per_tile + port_for(resp)
                    };
                    want.add(bank, port);
                });
            },
            // Local cores always sink responses (LSU slot reserved).
            |(_, resp_out, _), port| {
                port < cores_per_tile || resp_out[port - cores_per_tile].is_none()
            },
            |(bank_resp, resp_out, deliveries), bank, port| {
                let resp = bank_resp.pop(bank).expect("head existed");
                if port < cores_per_tile {
                    deliveries.push(resp);
                } else {
                    debug_assert!(resp_out[port - cores_per_tile].is_none());
                    resp_out[port - cores_per_tile] = Some(resp);
                }
            },
        );
    }

    /// End-of-cycle commit of the tile's elastic registers.
    #[inline]
    pub fn commit(&mut self) {
        self.bank_resp.commit();
    }

    /// Clears all transient state (latches, response registers, refill
    /// machinery) while keeping SPM contents and the warm I-cache — used by
    /// [`Cluster::reset`](crate::Cluster::reset) between program phases.
    pub fn clear_transient(&mut self) {
        self.bank_resp.clear();
        self.slave_req.iter_mut().for_each(|l| *l = None);
        self.resp_out.iter_mut().for_each(|l| *l = None);
        self.refill.pending.clear();
        self.refill.outbox.clear();
        self.refill.in_flight = None;
    }
}

/// Bank access entry point for the ideal-crossbar baseline (which bypasses
/// the tile request fabric).
pub(crate) fn ideal_bank_access(
    tile: &mut Tile,
    req: &Request,
    at: mempool_mem::BankAddress,
) -> Response {
    bank_access(&mut tile.banks[at.bank as usize], req, at.row, at.byte)
}

/// Executes one request at a bank and builds its response.
fn bank_access(bank: &mut SpmBank, req: &Request, row: u32, byte: u32) -> Response {
    let op = match req.kind {
        DataRequestKind::Load(_) => BankOp::Load,
        DataRequestKind::Store { op, data } => {
            let (data, strobe) = match op {
                StoreOp::Sw => (data, 0xf),
                StoreOp::Sh => (data << (8 * byte), 0b11 << byte),
                StoreOp::Sb => (data << (8 * byte), 1 << byte),
            };
            BankOp::Store { data, strobe }
        }
        DataRequestKind::Amo { op, operand } => BankOp::Amo { op, operand },
        DataRequestKind::LoadReserved => BankOp::LoadReserved { hart: req.core },
        DataRequestKind::StoreConditional { data } => BankOp::StoreConditional {
            hart: req.core,
            data,
        },
    };
    let data = bank.access(row, op).expect("row decoded within bank");
    Response {
        core: req.core,
        tag: req.tag,
        data,
        issued_at: req.issued_at,
        is_write: req.kind.is_write(),
    }
}

/// Each bank's rows (one bulk run), reservations and access counter, the
/// bank response registers, both crossbars, the remote port latches, then
/// the I-cache and its refill unit.
impl Walk for Tile {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        io.each(at!(this.banks[..]), |io, mut bank| {
            io.count(bank.words().len(), "bank row count")?;
            io.words(bank.at(SpmBank::words, SpmBank::words_mut))?;
            io.walk(bank.at(SpmBank::reservations, SpmBank::reservations_mut))?;
            let set = |bank: &mut SpmBank, accesses| {
                bank.set_accesses(accesses);
                Ok(())
            };
            io.via(bank, SpmBank::accesses, set, u64::walk)
        })?;
        io.walk(at!(this.bank_resp))?;
        io.walk(at!(this.req_fabric))?;
        io.walk(at!(this.resp_fabric))?;
        io.count(this.slave_req.len(), "remote port count")?;
        io.walk(at!(this.slave_req[..]))?;
        io.walk(at!(this.resp_out[..]))?;
        io.walk(at!(this.icache))?;
        io.walk(at!(this.refill.pending))?;
        io.walk(at!(this.refill.outbox))?;
        io.walk(at!(this.refill.in_flight))?;
        io.walk(at!(this.refill.refills))
    }
}
