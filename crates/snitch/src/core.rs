//! The Snitch core model: single-issue, single-stage, register scoreboard,
//! configurable outstanding memory operations.

use crate::profile::CoreProfile;
use crate::{DataRequest, DataRequestKind, DataResponse, Fetch};
use mempool_riscv::{csr, CsrOp, Instr, LoadOp, Reg};

/// Static configuration of one core.
///
/// # Examples
///
/// ```
/// use mempool_snitch::SnitchConfig;
///
/// let cfg = SnitchConfig { hartid: 3, ..SnitchConfig::default() };
/// assert_eq!(cfg.outstanding, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnitchConfig {
    /// The core's hart ID (readable via the `mhartid` CSR).
    pub hartid: u32,
    /// Number of outstanding memory operations (LSU / reorder-buffer slots).
    /// The paper: "Snitch supports a configurable number of outstanding load
    /// instructions, which is useful to hide the SPM access latency."
    pub outstanding: usize,
    /// Latency of the serial divider in cycles (`div`, `divu`, `rem`,
    /// `remu`).
    pub div_latency: u32,
    /// Extra cycles lost on a taken branch or jump (pipeline refetch).
    pub branch_penalty: u32,
}

impl Default for SnitchConfig {
    fn default() -> Self {
        SnitchConfig {
            hartid: 0,
            outstanding: 8,
            div_latency: 18,
            branch_penalty: 1,
        }
    }
}

/// Why the core could not retire an instruction this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// A source or destination register is waiting on an outstanding load.
    Scoreboard,
    /// All LSU slots are in flight.
    LsuFull,
    /// The data port refused the request this cycle (network backpressure).
    PortBusy,
    /// Instruction fetch stalled (I-cache miss).
    Fetch,
    /// A `fence` is draining outstanding memory operations.
    Fence,
    /// The multi-cycle divider (or branch refetch bubble) is busy.
    ExecBusy,
}

/// Retirement and stall counters of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles executed.
    pub cycles: u64,
    /// Loads issued (including LR).
    pub loads: u64,
    /// Stores issued (including SC).
    pub stores: u64,
    /// AMOs issued.
    pub amos: u64,
    /// Integer multiply instructions retired.
    pub muls: u64,
    /// Divide/remainder instructions retired.
    pub divs: u64,
    /// Taken branches and jumps.
    pub taken_branches: u64,
    /// Stall cycles: scoreboard (load-use) hazards.
    pub stall_scoreboard: u64,
    /// Stall cycles: LSU full.
    pub stall_lsu_full: u64,
    /// Stall cycles: data port backpressure.
    pub stall_port: u64,
    /// Stall cycles: instruction fetch.
    pub stall_fetch: u64,
    /// Stall cycles: fence drains.
    pub stall_fence: u64,
    /// Stall cycles: divider / branch bubble.
    pub stall_exec: u64,
    /// Cycles spent halted (after `ecall`/`ebreak`/`wfi` or a fault) while
    /// the cluster clock kept running. Together with `instret` and the
    /// stall counters this accounts for every simulated cycle:
    /// `cycles == instret + total_stalls() + halted_cycles` (in runs
    /// without injected instruction-skip faults).
    pub halted_cycles: u64,
}

impl CoreStats {
    /// Total stall cycles across all causes (halted cycles are not stalls).
    pub fn total_stalls(&self) -> u64 {
        self.stall_scoreboard
            + self.stall_lsu_full
            + self.stall_port
            + self.stall_fetch
            + self.stall_fence
            + self.stall_exec
    }

    /// Every counter as `(name, value)`, in declaration order — the
    /// per-core scope of the observability metrics registry.
    pub fn counters(&self) -> [(&'static str, u64); 15] {
        [
            ("instret", self.instret),
            ("cycles", self.cycles),
            ("loads", self.loads),
            ("stores", self.stores),
            ("amos", self.amos),
            ("muls", self.muls),
            ("divs", self.divs),
            ("taken_branches", self.taken_branches),
            ("stall_scoreboard", self.stall_scoreboard),
            ("stall_lsu_full", self.stall_lsu_full),
            ("stall_port", self.stall_port),
            ("stall_fetch", self.stall_fetch),
            ("stall_fence", self.stall_fence),
            ("stall_exec", self.stall_exec),
            ("halted_cycles", self.halted_cycles),
        ]
    }

    #[inline]
    fn count(&mut self, cause: StallCause) {
        match cause {
            StallCause::Scoreboard => self.stall_scoreboard += 1,
            StallCause::LsuFull => self.stall_lsu_full += 1,
            StallCause::PortBusy => self.stall_port += 1,
            StallCause::Fetch => self.stall_fetch += 1,
            StallCause::Fence => self.stall_fence += 1,
            StallCause::ExecBusy => self.stall_exec += 1,
        }
    }
}

/// One retired instruction in a core's trace ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle at which the instruction retired.
    pub cycle: u64,
    /// Its program counter.
    pub pc: u32,
    /// The instruction.
    pub instr: Instr,
}

#[derive(Debug, Clone, Copy)]
struct LsuSlot {
    dest: Option<Reg>,
    load: Option<LoadOp>,
    byte_offset: u32,
}

/// One in-flight LSU slot in a [`SnitchState`] image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsuSlotState {
    /// Destination register awaiting the response, if any.
    pub dest: Option<Reg>,
    /// The load operation whose sub-word extraction applies on delivery
    /// (`None` for AMO / SC results, delivered verbatim).
    pub load: Option<LoadOp>,
    /// Byte offset within the word for sub-word loads.
    pub byte_offset: u32,
}

/// A plain-data image of a core's complete dynamic state, for
/// checkpoint/restore. Static configuration and the (diagnostic) retirement
/// trace are not part of the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnitchState {
    /// Program counter.
    pub pc: u32,
    /// Architectural register file.
    pub regs: [u32; 32],
    /// Scoreboard bitmask of registers with outstanding load results.
    pub scoreboard: u32,
    /// LSU slots, one per outstanding tag (`None` = free).
    pub lsu: Vec<Option<LsuSlotState>>,
    /// Whether the core has halted.
    pub halted: bool,
    /// Whether the core halted on a fault.
    pub faulted: bool,
    /// Remaining divider / branch-bubble busy cycles.
    pub exec_busy: u32,
    /// Whether a `fence` is draining the LSU.
    pub fencing: bool,
    /// The `mscratch` CSR.
    pub mscratch: u32,
    /// The `mregion` CSR (current profiler region).
    pub region: u32,
    /// Retirement and stall counters.
    pub stats: CoreStats,
    /// The per-PC/per-region profile, when profiling is enabled.
    pub profile: Option<CoreProfile>,
}

/// A cycle-accurate Snitch core (RV32IMA).
///
/// The core is externally clocked: the cluster delivers completed memory
/// responses with [`deliver`](SnitchCore::deliver), then advances the core
/// one cycle with [`step`](SnitchCore::step). Responses delivered in the
/// same cycle unblock dependent instructions immediately, which gives the
/// 1-cycle load-use latency of a local SPM bank.
///
/// # Examples
///
/// Run a register-only program to completion on a perfect fetch port:
///
/// ```
/// use mempool_riscv::{assemble, Reg, Instr};
/// use mempool_snitch::{Fetch, SnitchConfig, SnitchCore};
///
/// let program = assemble("li a0, 6\nli a1, 7\nmul a2, a0, a1\necall\n")?;
/// let image: Vec<Instr> = program
///     .words()
///     .iter()
///     .map(|&w| mempool_riscv::decode(w).unwrap())
///     .collect();
/// let mut core = SnitchCore::new(SnitchConfig::default());
/// while !core.halted() {
///     let fetch = image
///         .get((core.pc() / 4) as usize)
///         .map_or(Fetch::Fault, |&i| Fetch::Ready(i));
///     core.step(fetch, true);
/// }
/// assert_eq!(core.reg(Reg::A2), 42);
/// # Ok::<(), mempool_riscv::AsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SnitchCore {
    config: SnitchConfig,
    pc: u32,
    regs: [u32; 32],
    /// Bit *i* set = register *i* has an outstanding load result pending.
    scoreboard: u32,
    lsu: Vec<Option<LsuSlot>>,
    lsu_in_flight: usize,
    halted: bool,
    faulted: bool,
    /// Remaining busy cycles of the divider or a branch refetch bubble.
    exec_busy: u32,
    /// Set while a `fence` waits for the LSU to drain.
    fencing: bool,
    mscratch: u32,
    /// The `mregion` CSR: current profiler region ID (always writable, so
    /// programs behave identically whether or not profiling is on).
    region: u32,
    stats: CoreStats,
    /// Per-PC/per-region profile (None = profiling off).
    profile: Option<Box<CoreProfile>>,
    /// Retirement trace ring buffer (None = tracing off).
    trace: Option<std::collections::VecDeque<TraceEntry>>,
    trace_depth: usize,
}

impl SnitchCore {
    /// Creates a core with PC 0 and zeroed registers.
    ///
    /// # Panics
    ///
    /// Panics if `config.outstanding` is 0 or exceeds 256 (tags are 8-bit).
    pub fn new(config: SnitchConfig) -> Self {
        assert!(
            (1..=256).contains(&config.outstanding),
            "outstanding slots must be in 1..=256"
        );
        SnitchCore {
            config,
            pc: 0,
            regs: [0; 32],
            scoreboard: 0,
            lsu: vec![None; config.outstanding],
            lsu_in_flight: 0,
            halted: false,
            faulted: false,
            exec_busy: 0,
            fencing: false,
            mscratch: 0,
            region: 0,
            stats: CoreStats::default(),
            profile: None,
            trace: None,
            trace_depth: 0,
        }
    }

    /// Starts per-PC/per-region profiling, attributing every subsequent
    /// cycle (see [`profile`](crate::profile)). `max_pcs` bounds the
    /// distinct (region, PC) pairs tracked; further pairs spill into an
    /// overflow bucket. Off by default and zero-cost while off.
    pub fn enable_profile(&mut self, max_pcs: usize) {
        self.profile = Some(Box::new(CoreProfile::new(max_pcs)));
    }

    /// The recorded profile (None while profiling is off).
    pub fn profile(&self) -> Option<&CoreProfile> {
        self.profile.as_deref()
    }

    /// The current `mregion` CSR value (profiler region ID).
    pub fn region(&self) -> u32 {
        self.region
    }

    /// Starts recording the last `depth` retired instructions (pc +
    /// decoded form + retirement cycle). Costs a ring-buffer push per
    /// retirement; off by default.
    pub fn enable_trace(&mut self, depth: usize) {
        self.trace = Some(std::collections::VecDeque::with_capacity(depth.max(1)));
        self.trace_depth = depth.max(1);
    }

    /// The recorded trace, oldest first (empty when tracing is off).
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.trace.iter().flatten()
    }

    /// The core's configuration.
    pub fn config(&self) -> &SnitchConfig {
        &self.config
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an architectural register.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index() as usize]
    }

    /// Whether the core has executed `ecall`/`ebreak`/`wfi` or faulted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the core halted due to a fault (bad fetch or a memory
    /// request outside L1).
    pub fn faulted(&self) -> bool {
        self.faulted
    }

    /// Halts the core with a fault (used by the cluster when the core
    /// issues an unserviceable memory request).
    pub fn force_fault(&mut self) {
        self.halted = true;
        self.faulted = true;
    }

    /// Fault injection: spuriously retires the instruction at the current
    /// program counter without executing it (the *silent instruction skip*
    /// failure mode). No-op once the core has halted.
    pub fn skip_instruction(&mut self) {
        if self.halted {
            return;
        }
        self.pc = self.pc.wrapping_add(4);
        self.stats.instret += 1;
    }

    /// Whether any memory operations are still in flight.
    pub fn has_outstanding(&self) -> bool {
        self.lsu_in_flight > 0
    }

    /// Whether the core will consume an instruction fetch this cycle.
    ///
    /// `false` while halted, while the divider / branch bubble is busy, or
    /// while a `fence` is draining — cycles in which the front-end does not
    /// access the I-cache.
    #[inline]
    pub fn needs_fetch(&self) -> bool {
        !self.halted
            && self.exec_busy == 0
            && !(self.fencing && self.lsu_in_flight > 0)
    }

    /// Retirement/stall counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Captures the core's complete dynamic state (checkpointing).
    pub fn save_state(&self) -> SnitchState {
        SnitchState {
            pc: self.pc,
            regs: self.regs,
            scoreboard: self.scoreboard,
            lsu: self
                .lsu
                .iter()
                .map(|slot| {
                    slot.map(|s| LsuSlotState {
                        dest: s.dest,
                        load: s.load,
                        byte_offset: s.byte_offset,
                    })
                })
                .collect(),
            halted: self.halted,
            faulted: self.faulted,
            exec_busy: self.exec_busy,
            fencing: self.fencing,
            mscratch: self.mscratch,
            region: self.region,
            stats: self.stats,
            profile: self.profile.as_deref().cloned(),
        }
    }

    /// Restores a state image captured by [`save_state`](SnitchCore::save_state)
    /// onto a core with the same configuration. The retirement trace (a
    /// diagnostic channel) is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the image's LSU depth disagrees with this core's
    /// `outstanding` configuration.
    pub fn restore_state(&mut self, state: &SnitchState) {
        assert_eq!(
            state.lsu.len(),
            self.lsu.len(),
            "LSU depth mismatch: state {} vs core {}",
            state.lsu.len(),
            self.lsu.len()
        );
        self.pc = state.pc;
        self.regs = state.regs;
        self.scoreboard = state.scoreboard;
        for (slot, s) in self.lsu.iter_mut().zip(&state.lsu) {
            *slot = s.map(|s| LsuSlot {
                dest: s.dest,
                load: s.load,
                byte_offset: s.byte_offset,
            });
        }
        self.lsu_in_flight = self.lsu.iter().filter(|s| s.is_some()).count();
        self.halted = state.halted;
        self.faulted = state.faulted;
        self.exec_busy = state.exec_busy;
        self.fencing = state.fencing;
        self.mscratch = state.mscratch;
        self.region = state.region;
        self.stats = state.stats;
        self.profile = state.profile.clone().map(Box::new);
    }

    /// Delivers a completed memory response (call before
    /// [`step`](SnitchCore::step) in the same cycle).
    ///
    /// # Panics
    ///
    /// Panics if the tag does not match an in-flight LSU slot — that would
    /// be a routing bug in the interconnect model.
    #[inline]
    pub fn deliver(&mut self, response: DataResponse) {
        let slot = self.lsu[response.tag as usize]
            .take()
            .expect("response tag matches an in-flight LSU slot");
        self.lsu_in_flight -= 1;
        if let Some(dest) = slot.dest {
            let value = match slot.load {
                Some(op) => op.extract(response.data, slot.byte_offset),
                None => response.data, // AMO old value / SC status
            };
            self.regs[dest.index() as usize] = value;
            self.scoreboard &= !(1 << dest.index());
        }
    }

    /// Advances the core one cycle.
    ///
    /// `fetch` is this cycle's instruction fetch result for [`pc`]
    /// (pre-decoded by the tile's I-cache owner); `request_ready` tells the
    /// core whether its data port accepts a request this cycle. Returns the
    /// memory request issued this cycle, if any.
    ///
    /// [`pc`]: SnitchCore::pc
    #[inline]
    pub fn step(&mut self, fetch: Fetch, request_ready: bool) -> Option<DataRequest> {
        self.step_fetching(|_| fetch, request_ready)
    }

    /// [`step`](SnitchCore::step) with the instruction fetched on demand:
    /// `fetch` is called with [`pc`] in exactly the cycles in which
    /// [`needs_fetch`](SnitchCore::needs_fetch) holds, so a caller whose
    /// fetch has side effects (an I-cache probe) need not ask first.
    ///
    /// [`pc`]: SnitchCore::pc
    #[inline]
    pub fn step_fetching(
        &mut self,
        fetch: impl FnOnce(u32) -> Fetch,
        request_ready: bool,
    ) -> Option<DataRequest> {
        self.stats.cycles += 1;
        if self.halted {
            self.stats.halted_cycles += 1;
            return None;
        }
        if self.exec_busy > 0 {
            self.exec_busy -= 1;
            self.stall(StallCause::ExecBusy);
            return None;
        }
        if self.fencing {
            if self.lsu_in_flight > 0 {
                self.stall(StallCause::Fence);
                return None;
            }
            self.fencing = false;
        }
        let instr = match fetch(self.pc) {
            Fetch::Ready(instr) => instr,
            Fetch::Stall => {
                self.stall(StallCause::Fetch);
                return None;
            }
            Fetch::Fault => {
                self.halted = true;
                self.faulted = true;
                // The faulting cycle retires nothing and stalls on nothing;
                // account it as halted so cycle accounting stays closed.
                self.stats.halted_cycles += 1;
                return None;
            }
        };
        // Scoreboard: all sources and the destination must be free.
        let (hazards, memory) = instr.hazards();
        if self.scoreboard & hazards != 0 {
            self.stall(StallCause::Scoreboard);
            return None;
        }
        if memory {
            if self.lsu_in_flight == self.lsu.len() {
                self.stall(StallCause::LsuFull);
                return None;
            }
            if !request_ready {
                self.stall(StallCause::PortBusy);
                return None;
            }
        }
        if let Some(profile) = &mut self.profile {
            profile.record_retire(self.region, self.pc);
        }
        if let Some(trace) = &mut self.trace {
            if trace.len() == self.trace_depth {
                trace.pop_front();
            }
            trace.push_back(TraceEntry {
                cycle: self.stats.cycles,
                pc: self.pc,
                instr,
            });
        }
        self.execute(instr)
    }

    /// Counts a stall cycle, attributing it to the current PC/region when
    /// profiling is on.
    #[inline]
    fn stall(&mut self, cause: StallCause) {
        self.stats.count(cause);
        if let Some(profile) = &mut self.profile {
            profile.record_stall(self.region, self.pc, cause);
        }
    }

    fn rs(&self, reg: Reg) -> u32 {
        self.regs[reg.index() as usize]
    }

    fn write(&mut self, rd: Reg, value: u32) {
        if !rd.is_zero() {
            self.regs[rd.index() as usize] = value;
        }
    }

    fn retire(&mut self) {
        self.stats.instret += 1;
        self.pc = self.pc.wrapping_add(4);
    }

    fn take_branch(&mut self, target: u32) {
        self.stats.instret += 1;
        self.stats.taken_branches += 1;
        self.pc = target;
        self.exec_busy += self.config.branch_penalty;
    }

    #[inline]
    fn execute(&mut self, instr: Instr) -> Option<DataRequest> {
        match instr {
            Instr::Lui { rd, imm } => {
                self.write(rd, imm);
                self.retire();
            }
            Instr::Auipc { rd, imm } => {
                self.write(rd, self.pc.wrapping_add(imm));
                self.retire();
            }
            Instr::Jal { rd, offset } => {
                let link = self.pc.wrapping_add(4);
                let target = self.pc.wrapping_add(offset as u32);
                self.write(rd, link);
                self.take_branch(target);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let link = self.pc.wrapping_add(4);
                let target = self.rs(rs1).wrapping_add(offset as u32) & !1;
                self.write(rd, link);
                self.take_branch(target);
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                if op.taken(self.rs(rs1), self.rs(rs2)) {
                    let target = self.pc.wrapping_add(offset as u32);
                    self.take_branch(target);
                } else {
                    self.retire();
                }
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let value = alu(op, self.rs(rs1), imm as u32);
                self.write(rd, value);
                self.retire();
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let value = alu(op, self.rs(rs1), self.rs(rs2));
                self.write(rd, value);
                self.retire();
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.rs(rs1);
                let b = self.rs(rs2);
                let value = muldiv(op, a, b);
                self.write(rd, value);
                if op.is_division() {
                    self.stats.divs += 1;
                    self.exec_busy += self.config.div_latency;
                } else {
                    self.stats.muls += 1;
                }
                self.retire();
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.rs(rs1).wrapping_add(offset as u32);
                let req = self.issue_mem(
                    addr,
                    DataRequestKind::Load(op),
                    Some(rd).filter(|r| !r.is_zero()),
                    Some(op),
                    addr & 3,
                );
                self.stats.loads += 1;
                self.retire();
                return req;
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.rs(rs1).wrapping_add(offset as u32);
                let data = self.rs(rs2);
                let req = self.issue_mem(
                    addr,
                    DataRequestKind::Store { op, data },
                    None,
                    None,
                    addr & 3,
                );
                self.stats.stores += 1;
                self.retire();
                return req;
            }
            Instr::Amo { op, rd, rs1, rs2 } => {
                let addr = self.rs(rs1);
                let operand = self.rs(rs2);
                let req = self.issue_mem(
                    addr,
                    DataRequestKind::Amo { op, operand },
                    Some(rd).filter(|r| !r.is_zero()),
                    None,
                    0,
                );
                self.stats.amos += 1;
                self.retire();
                return req;
            }
            Instr::LrW { rd, rs1 } => {
                let addr = self.rs(rs1);
                let req = self.issue_mem(
                    addr,
                    DataRequestKind::LoadReserved,
                    Some(rd).filter(|r| !r.is_zero()),
                    None,
                    0,
                );
                self.stats.loads += 1;
                self.retire();
                return req;
            }
            Instr::ScW { rd, rs1, rs2 } => {
                let addr = self.rs(rs1);
                let data = self.rs(rs2);
                let req = self.issue_mem(
                    addr,
                    DataRequestKind::StoreConditional { data },
                    Some(rd).filter(|r| !r.is_zero()),
                    None,
                    0,
                );
                self.stats.stores += 1;
                self.retire();
                return req;
            }
            Instr::Csr { op, rd, rs1, csr } => {
                let old = self.read_csr(csr);
                let src = self.rs(rs1);
                self.apply_csr(op, csr, src, rs1.is_zero());
                self.write(rd, old);
                self.retire();
            }
            Instr::CsrImm { op, rd, imm, csr } => {
                let old = self.read_csr(csr);
                self.apply_csr(op, csr, u32::from(imm), imm == 0);
                self.write(rd, old);
                self.retire();
            }
            Instr::Fence => {
                self.fencing = true;
                self.retire();
            }
            Instr::FenceI => {
                self.retire();
            }
            Instr::Ecall | Instr::Ebreak | Instr::Wfi => {
                self.stats.instret += 1;
                self.halted = true;
            }
        }
        None
    }

    fn issue_mem(
        &mut self,
        addr: u32,
        kind: DataRequestKind,
        dest: Option<Reg>,
        load: Option<LoadOp>,
        byte_offset: u32,
    ) -> Option<DataRequest> {
        let tag = self
            .lsu
            .iter()
            .position(Option::is_none)
            .expect("caller checked a free LSU slot") as u8;
        self.lsu[tag as usize] = Some(LsuSlot {
            dest,
            load,
            byte_offset,
        });
        self.lsu_in_flight += 1;
        if let Some(dest) = dest {
            self.scoreboard |= 1 << dest.index();
        }
        Some(DataRequest { tag, addr, kind })
    }

    fn read_csr(&self, addr: u16) -> u32 {
        match addr {
            csr::MHARTID => self.config.hartid,
            csr::MCYCLE => self.stats.cycles as u32,
            csr::MCYCLEH => (self.stats.cycles >> 32) as u32,
            csr::MINSTRET => self.stats.instret as u32,
            csr::MINSTRETH => (self.stats.instret >> 32) as u32,
            csr::MSCRATCH => self.mscratch,
            csr::MREGION => self.region,
            _ => 0,
        }
    }

    fn apply_csr(&mut self, op: CsrOp, addr: u16, src: u32, src_is_zero: bool) {
        // Only mscratch and the profiler's mregion are writable in this
        // model; set/clear with a zero source are architectural no-ops.
        let reg = match addr {
            csr::MSCRATCH => &mut self.mscratch,
            csr::MREGION => &mut self.region,
            _ => return,
        };
        match op {
            CsrOp::Rw => *reg = src,
            CsrOp::Rs if !src_is_zero => *reg |= src,
            CsrOp::Rc if !src_is_zero => *reg &= !src,
            _ => {}
        }
    }
}

pub use semantics::{alu, muldiv};

/// Pure RV32IM operation semantics, shared by the cycle-accurate core and
/// any functional (untimed) interpreter built on top of this crate.
pub mod semantics {
    use mempool_riscv::{AluOp, MulOp};

    /// Evaluates an RV32I ALU operation.
    pub fn alu(op: AluOp, a: u32, b: u32) -> u32 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
        }
    }

    /// Evaluates an RV32M multiply/divide with the spec's division-by-zero
    /// and overflow semantics.
    // RISC-V division-by-zero semantics are explicit values, not checked ops.
    #[allow(clippy::manual_is_multiple_of, clippy::manual_checked_ops)]
    pub fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
        match op {
            MulOp::Mul => a.wrapping_mul(b),
            MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            MulOp::Mulhsu => (((a as i32 as i64) * (b as i64)) >> 32) as u32,
            MulOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
            MulOp::Div => {
                if b == 0 {
                    u32::MAX
                } else if a == 0x8000_0000 && b == u32::MAX {
                    a
                } else {
                    ((a as i32) / (b as i32)) as u32
                }
            }
            MulOp::Divu => {
                if b == 0 {
                    u32::MAX
                } else {
                    a / b
                }
            }
            MulOp::Rem => {
                if b == 0 {
                    a
                } else if a == 0x8000_0000 && b == u32::MAX {
                    0
                } else {
                    ((a as i32) % (b as i32)) as u32
                }
            }
            MulOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_riscv::{assemble, decode, MulOp};

    /// A perfect single-cycle memory for unit-testing the core alone.
    struct Harness {
        core: SnitchCore,
        image: Vec<Instr>,
        mem: Vec<u32>,
        pending: Vec<(u64, DataResponse)>,
        latency: u64,
        now: u64,
    }

    impl Harness {
        fn new(source: &str, config: SnitchConfig, latency: u64) -> Self {
            let program = assemble(source).expect("test program assembles");
            let image = program
                .words()
                .iter()
                .map(|&w| decode(w).unwrap_or(Instr::NOP))
                .collect();
            Harness {
                core: SnitchCore::new(config),
                image,
                mem: vec![0u32; 1024],
                pending: Vec::new(),
                latency,
                now: 0,
            }
        }

        fn run(&mut self, max_cycles: u64) {
            while (!self.core.halted() || self.core.has_outstanding()) && self.now < max_cycles {
                self.cycle();
            }
            assert!(self.core.halted(), "program did not halt");
            assert!(!self.core.has_outstanding(), "responses still in flight");
        }

        fn cycle(&mut self) {
            self.now += 1;
            let due: Vec<DataResponse> = {
                let now = self.now;
                let mut due = Vec::new();
                self.pending.retain(|&(at, resp)| {
                    if at <= now {
                        due.push(resp);
                        false
                    } else {
                        true
                    }
                });
                due
            };
            for resp in due {
                self.core.deliver(resp);
            }
            let fetch = self
                .image
                .get((self.core.pc() / 4) as usize)
                .map_or(Fetch::Fault, |&i| Fetch::Ready(i));
            if let Some(req) = self.core.step(fetch, true) {
                let row = (req.addr / 4) as usize;
                let data = match req.kind {
                    DataRequestKind::Load(_) | DataRequestKind::LoadReserved => self.mem[row],
                    DataRequestKind::Store { op, data } => {
                        self.mem[row] = op.merge(self.mem[row], data, req.addr & 3);
                        0
                    }
                    DataRequestKind::Amo { op, operand } => {
                        let old = self.mem[row];
                        self.mem[row] = op.apply(old, operand);
                        old
                    }
                    DataRequestKind::StoreConditional { data } => {
                        self.mem[row] = data;
                        0
                    }
                };
                self.pending.push((
                    self.now + self.latency,
                    DataResponse { tag: req.tag, data },
                ));
            }
        }
    }

    #[test]
    fn arithmetic_program() {
        let mut h = Harness::new(
            "li a0, 6\nli a1, 7\nmul a2, a0, a1\naddi a2, a2, -2\necall\n",
            SnitchConfig::default(),
            1,
        );
        h.run(100);
        assert_eq!(h.core.reg(Reg::A2), 40);
    }

    #[test]
    fn load_use_latency_one_cycle() {
        // With a 1-cycle memory, a load followed by a dependent add costs
        // exactly 2 cycles (issue + use) — no bubble.
        let mut h = Harness::new(
            "lw a0, 16(zero)\naddi a0, a0, 1\necall\n",
            SnitchConfig::default(),
            1,
        );
        h.mem[4] = 99;
        h.run(100);
        assert_eq!(h.core.reg(Reg::A0), 100);
        // 3 instructions, zero stall cycles beyond the in-order flow.
        assert_eq!(h.core.stats().stall_scoreboard, 0);
    }

    #[test]
    fn load_use_hazard_stalls_with_slow_memory() {
        let mut h = Harness::new(
            "lw a0, 16(zero)\naddi a0, a0, 1\necall\n",
            SnitchConfig::default(),
            5,
        );
        h.mem[4] = 10;
        h.run(100);
        assert_eq!(h.core.reg(Reg::A0), 11);
        assert_eq!(h.core.stats().stall_scoreboard, 4);
    }

    #[test]
    fn independent_loads_overlap() {
        // Two independent loads issue back to back; total time is latency +
        // 1, not 2×latency (the point of outstanding loads).
        let src = "lw a0, 16(zero)\nlw a1, 20(zero)\nadd a2, a0, a1\necall\n";
        let mut slow = Harness::new(src, SnitchConfig::default(), 8);
        slow.mem[4] = 3;
        slow.mem[5] = 4;
        slow.run(100);
        assert_eq!(slow.core.reg(Reg::A2), 7);
        let overlapped = slow.core.stats().cycles;

        let mut single = Harness::new(
            src,
            SnitchConfig {
                outstanding: 1,
                ..SnitchConfig::default()
            },
            8,
        );
        single.mem[4] = 3;
        single.mem[5] = 4;
        single.run(100);
        assert_eq!(single.core.reg(Reg::A2), 7);
        assert!(
            overlapped + 6 <= single.core.stats().cycles,
            "outstanding loads did not hide latency: {} vs {}",
            overlapped,
            single.core.stats().cycles
        );
    }

    #[test]
    fn store_then_fence_drains() {
        let mut h = Harness::new(
            "li a0, 42\nsw a0, 32(zero)\nfence\nlw a1, 32(zero)\necall\n",
            SnitchConfig::default(),
            6,
        );
        h.run(200);
        assert_eq!(h.core.reg(Reg::A1), 42);
        assert!(h.core.stats().stall_fence > 0);
    }

    #[test]
    fn amo_returns_old_value() {
        let mut h = Harness::new(
            "li a0, 64\nli a1, 5\namoadd.w a2, a1, (a0)\nfence\nlw a3, 64(zero)\necall\n",
            SnitchConfig::default(),
            2,
        );
        h.mem[16] = 100;
        h.run(200);
        assert_eq!(h.core.reg(Reg::A2), 100);
        assert_eq!(h.core.reg(Reg::A3), 105);
    }

    #[test]
    fn branch_loop_and_penalty() {
        let mut h = Harness::new(
            "li a0, 4\nli a1, 0\nloop: add a1, a1, a0\naddi a0, a0, -1\nbnez a0, loop\necall\n",
            SnitchConfig::default(),
            1,
        );
        h.run(200);
        assert_eq!(h.core.reg(Reg::A1), 4 + 3 + 2 + 1);
        assert_eq!(h.core.stats().taken_branches, 3);
        assert_eq!(h.core.stats().stall_exec, 3); // one bubble per taken branch
    }

    #[test]
    fn divider_is_multi_cycle() {
        let cfg = SnitchConfig {
            div_latency: 10,
            ..SnitchConfig::default()
        };
        let mut h = Harness::new("li a0, 100\nli a1, 7\ndiv a2, a0, a1\necall\n", cfg, 1);
        h.run(100);
        assert_eq!(h.core.reg(Reg::A2), 14);
        assert_eq!(h.core.stats().stall_exec, 10);
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(muldiv(MulOp::Div, 7, 0), u32::MAX);
        assert_eq!(muldiv(MulOp::Divu, 7, 0), u32::MAX);
        assert_eq!(muldiv(MulOp::Rem, 7, 0), 7);
        assert_eq!(muldiv(MulOp::Remu, 7, 0), 7);
        assert_eq!(muldiv(MulOp::Div, 0x8000_0000, u32::MAX), 0x8000_0000);
        assert_eq!(muldiv(MulOp::Rem, 0x8000_0000, u32::MAX), 0);
        assert_eq!(muldiv(MulOp::Mulh, 0x8000_0000, 2), 0xffff_ffff);
        assert_eq!(muldiv(MulOp::Mulhu, 0x8000_0000, 2), 1);
    }

    #[test]
    fn csr_reads() {
        let cfg = SnitchConfig {
            hartid: 77,
            ..SnitchConfig::default()
        };
        let mut h = Harness::new(
            "csrr a0, mhartid\nli a1, 123\ncsrw mscratch, a1\ncsrr a2, mscratch\n\
             csrr a3, mcycle\ncsrr a4, mcycleh\ncsrr a5, minstreth\necall\n",
            cfg,
            1,
        );
        h.run(100);
        assert_eq!(h.core.reg(Reg::A0), 77);
        assert_eq!(h.core.reg(Reg::A2), 123);
        assert!(h.core.reg(Reg::A3) > 0, "cycle counter runs");
        assert_eq!(h.core.reg(Reg::A4), 0, "high halves are zero early on");
        assert_eq!(h.core.reg(Reg::A5), 0);
    }

    #[test]
    fn fetch_fault_halts() {
        let mut h = Harness::new("nop\n", SnitchConfig::default(), 1);
        // After the single nop, pc runs past the image end -> fault.
        for _ in 0..10 {
            h.cycle();
        }
        assert!(h.core.halted());
        assert!(h.core.faulted());
    }

    #[test]
    fn lsu_full_backpressure() {
        let cfg = SnitchConfig {
            outstanding: 2,
            ..SnitchConfig::default()
        };
        // Four independent loads: the 3rd must wait for a slot.
        let mut h = Harness::new(
            "lw a0, 0(zero)\nlw a1, 4(zero)\nlw a2, 8(zero)\nlw a3, 12(zero)\necall\n",
            cfg,
            10,
        );
        h.run(200);
        assert!(h.core.stats().stall_lsu_full > 0);
    }

    #[test]
    fn byte_and_half_loads_extend() {
        let mut h = Harness::new(
            "li a0, 16\nlb a1, 3(a0)\nlbu a2, 3(a0)\nlh a3, 2(a0)\nlhu a4, 2(a0)\necall\n",
            SnitchConfig::default(),
            1,
        );
        h.mem[4] = 0x80f1_0000;
        h.run(100);
        assert_eq!(h.core.reg(Reg::A1), 0xffff_ff80);
        assert_eq!(h.core.reg(Reg::A2), 0x80);
        assert_eq!(h.core.reg(Reg::A3), 0xffff_80f1);
        assert_eq!(h.core.reg(Reg::A4), 0x80f1);
    }

    #[test]
    fn trace_records_retired_instructions_in_order() {
        let mut h = Harness::new(
            "li a0, 1\nli a1, 2\nadd a2, a0, a1\necall\n",
            SnitchConfig::default(),
            1,
        );
        h.core.enable_trace(8);
        h.run(100);
        let trace: Vec<_> = h.core.trace().collect();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0].pc, 0);
        assert_eq!(trace[2].instr.to_string(), "add a2, a0, a1");
        assert!(trace.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn trace_ring_buffer_keeps_newest() {
        let mut h = Harness::new(
            "li a0, 8\nloop: addi a0, a0, -1\nbnez a0, loop\necall\n",
            SnitchConfig::default(),
            1,
        );
        h.core.enable_trace(3);
        h.run(200);
        let trace: Vec<_> = h.core.trace().collect();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[2].instr, Instr::Ecall);
    }

    #[test]
    fn halted_core_ignores_steps() {
        let mut core = SnitchCore::new(SnitchConfig::default());
        core.step(Fetch::Ready(Instr::Ecall), true);
        assert!(core.halted());
        let pc = core.pc();
        core.step(Fetch::Ready(Instr::NOP), true);
        assert_eq!(core.pc(), pc);
        assert_eq!(core.stats().halted_cycles, 1);
    }

    #[test]
    fn every_cycle_is_accounted() {
        let mut h = Harness::new(
            "li a0, 100\nli a1, 7\ndiv a2, a0, a1\nlw a3, 16(zero)\n\
             addi a3, a3, 1\nsw a3, 16(zero)\nfence\necall\n",
            SnitchConfig::default(),
            5,
        );
        h.run(500);
        // Step a halted core a few more times, as the cluster's drain does.
        for _ in 0..3 {
            h.cycle();
        }
        let s = h.core.stats();
        assert_eq!(s.cycles, s.instret + s.total_stalls() + s.halted_cycles);
        assert_eq!(s.halted_cycles, 3);
    }

    #[test]
    fn mregion_csr_reads_back_and_defaults_to_zero() {
        let mut h = Harness::new(
            "csrr a0, mregion\nli a1, 3\ncsrw mregion, a1\ncsrr a2, mregion\necall\n",
            SnitchConfig::default(),
            1,
        );
        h.run(100);
        assert_eq!(h.core.reg(Reg::A0), 0);
        assert_eq!(h.core.reg(Reg::A2), 3);
        assert_eq!(h.core.region(), 3);
    }

    #[test]
    fn profile_attribution_sums_to_the_stat_counters() {
        let mut h = Harness::new(
            "li a0, 1\ncsrw mregion, a0\nlw a1, 16(zero)\naddi a1, a1, 1\n\
             li a0, 2\ncsrw mregion, a0\nsw a1, 20(zero)\nfence\necall\n",
            SnitchConfig::default(),
            6,
        );
        h.core.enable_profile(64);
        h.run(200);
        let p = h.core.profile().expect("profiling on");
        let s = h.core.stats();
        let total = p.total();
        assert_eq!(total.retired, s.instret);
        assert_eq!(total.stall_cycles(), s.total_stalls());
        // The load-use stall landed in region 1, the fence drain in 2.
        assert!(p.regions()[1].stalls[crate::profile::stall_index(StallCause::Scoreboard)] > 0);
        assert!(p.regions()[2].stalls[crate::profile::stall_index(StallCause::Fence)] > 0);
    }

    #[test]
    fn profile_survives_save_restore() {
        let mut h = Harness::new(
            "li a0, 1\ncsrw mregion, a0\nlw a1, 16(zero)\naddi a1, a1, 1\necall\n",
            SnitchConfig::default(),
            4,
        );
        h.core.enable_profile(64);
        h.run(100);
        let state = h.core.save_state();
        let mut other = SnitchCore::new(SnitchConfig::default());
        other.restore_state(&state);
        assert_eq!(other.profile(), h.core.profile());
        assert_eq!(other.region(), h.core.region());
        assert_eq!(other.stats(), h.core.stats());
    }
}
