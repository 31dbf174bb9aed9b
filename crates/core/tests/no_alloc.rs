//! The steady-state cycle allocates nothing.
//!
//! A counting `#[global_allocator]` (one counter per thread, so the other
//! tests of this binary cannot disturb it) watches the cluster step
//! a warmed-up TopH cluster: 2 000 cycles of uniform traffic at load 0.5
//! and of a small matmul must perform **zero** heap allocations — no
//! observers, no fault plan — and so must the matmul with the host phase
//! timer attached. Every offer list, grant vector, dirty list
//! and elastic register the cycle touches is scratch owned by a tile, a
//! network or a fabric, sized when the cluster is built.
//!
//! The same file checks the other half of the bargain: the running
//! occupancy count that replaced the end-of-cycle register walk equals that
//! walk at every cycle, fault injection included.

use mempool::{Cluster, ClusterConfig, Core, FaultPlan, FaultSpec, ResilienceConfig, Topology};
use mempool_riscv::{assemble, LoadOp};
use mempool_snitch::{DataRequest, DataRequestKind, DataResponse, Fetch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down can no longer reach its counter; nothing
    // measured here runs then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation to the system allocator unchanged; the
// only addition is a thread-local counter bump that itself never allocates
// (const-initialised `Cell`, no destructor).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as `dealloc`; the size contract is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const WARMUP: u64 = 500;
const MEASURED: u64 = 2_000;

/// Allocations the calling thread performs while stepping `MEASURED` cycles.
fn allocations_while_stepping<C: Core>(cluster: &mut Cluster<C>) -> u64 {
    cluster.step_cycles(WARMUP);
    let before = ALLOCATIONS.with(Cell::get);
    cluster.step_cycles(MEASURED);
    ALLOCATIONS.with(Cell::get) - before
}

/// A uniform-random load generator at offered load 0.5 with eight
/// outstanding requests: the interconnect of §V-A without an ISS, and
/// without a source queue that could grow (and allocate) past saturation.
struct UniformLoads {
    rng: u64,
    free_tags: u8,
    l1_words: u32,
}

impl Core for UniformLoads {
    fn deliver(&mut self, response: DataResponse) {
        self.free_tags |= 1 << response.tag;
    }

    fn step(&mut self, _fetch: &mut impl FnMut(u32) -> Fetch, ready: bool) -> Option<DataRequest> {
        // splitmix64
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
        Some(DataRequest {
            tag,
            addr: ((z >> 32) as u32 % self.l1_words) * 4,
            kind: DataRequestKind::Load(LoadOp::Lw),
        })
    }

    fn done(&self) -> bool {
        false
    }
}

fn traffic_cluster(config: ClusterConfig) -> Cluster<UniformLoads> {
    let l1_words = (config.address_map().expect("valid map").size_bytes() / 4) as u32;
    Cluster::new(config, |loc| UniformLoads {
        rng: 0x5eed ^ (loc.core as u64) << 20,
        free_tags: u8::MAX,
        l1_words,
    })
    .expect("valid config")
}

/// Every core computes four elements of a 16×16 `C = A × B` in the
/// interleaved region, over and over: mostly remote loads, a multiply-add
/// loop, a store per element — and no halt inside the window.
fn matmul_cluster(config: ClusterConfig) -> Cluster<mempool_snitch::SnitchCore> {
    let program = assemble(
        "csrr s0, mhartid\n\
         li   s1, 0x10000\n\
         li   s2, 0x10400\n\
         li   s3, 0x10800\n\
         li   s4, 16\n\
         forever:\n\
         andi t0, s0, 15\n\
         srli t1, s0, 4\n\
         slli t1, t1, 2\n\
         li   t2, 4\n\
         column:\n\
         li   t3, 0\n\
         li   a0, 0\n\
         slli a1, t0, 6\n\
         add  a1, a1, s1\n\
         slli a2, t1, 2\n\
         add  a2, a2, s2\n\
         dot:\n\
         lw   a3, 0(a1)\n\
         lw   a4, 0(a2)\n\
         mul  a5, a3, a4\n\
         add  a0, a0, a5\n\
         addi a1, a1, 4\n\
         addi a2, a2, 64\n\
         addi t3, t3, 1\n\
         blt  t3, s4, dot\n\
         slli a6, t0, 6\n\
         slli a7, t1, 2\n\
         add  a6, a6, a7\n\
         add  a6, a6, s3\n\
         sw   a0, 0(a6)\n\
         addi t1, t1, 1\n\
         addi t2, t2, -1\n\
         bnez t2, column\n\
         j    forever\n",
    )
    .expect("test program assembles");
    let mut cluster = Cluster::snitch(config).expect("valid config");
    cluster.load_program(&program).expect("program loads");
    for word in 0..512 {
        cluster
            .write_word(0x10000 + 4 * word, word.wrapping_mul(2_654_435_761))
            .expect("in L1");
    }
    cluster
}

#[test]
fn uniform_traffic_steady_state_allocates_nothing() {
    let mut cluster = traffic_cluster(ClusterConfig::paper(Topology::TopH));
    assert_eq!(allocations_while_stepping(&mut cluster), 0);
    // The window was not idle: the network ran at saturation.
    let stats = cluster.stats();
    assert!(stats.responses_delivered > 100 * MEASURED, "{stats:?}");
    assert!(stats.remote_requests > stats.local_requests);
}

#[test]
fn matmul_steady_state_allocates_nothing() {
    let mut cluster = matmul_cluster(ClusterConfig::small(Topology::TopH));
    assert_eq!(allocations_while_stepping(&mut cluster), 0);
    let stats = cluster.stats();
    assert!(stats.responses_delivered > 10 * MEASURED, "{stats:?}");
    assert!(
        cluster.cores().iter().all(|core| !core.halted()),
        "a core left the loop"
    );
    assert!(
        cluster.read_word(0x10800 + 4 * 17).is_some_and(|c| c != 0),
        "no C element written"
    );
}

/// The host phase timer reads the clock into counters sized at attach
/// time: a timed cycle allocates nothing either.
#[test]
fn timed_steady_state_allocates_nothing() {
    let mut cluster = matmul_cluster(ClusterConfig::small(Topology::TopH));
    cluster.enable_host_profile();
    assert_eq!(allocations_while_stepping(&mut cluster), 0);
    let host = cluster.host_profile().expect("timer attached");
    assert_eq!(host.cycles(), WARMUP + MEASURED);
}

/// The running `net_occupancy` the statistics integrate equals a walk over
/// every register stage, every cycle — on each registered topology, and
/// with a fault plan stalling, dropping and corrupting packets in flight
/// (the fault injector reaches past the rows' bookkeeping, which must
/// re-derive itself behind it).
#[test]
fn running_occupancy_equals_the_register_walk_every_cycle() {
    let spec: FaultSpec = "bank_fail=2,link_stall=0.02,link_drop=0.01,link_corrupt=0.01"
        .parse()
        .expect("valid spec");
    for topology in [Topology::Top1, Topology::Top4, Topology::TopH] {
        for faulted in [false, true] {
            let mut config = ClusterConfig::small(topology);
            if faulted {
                config.resilience = ResilienceConfig::standard();
            }
            let mut cluster = traffic_cluster(config);
            cluster.install_fault_plan(faulted.then(|| FaultPlan::new(3, spec)));
            let mut integrated = 0;
            let mut peak = 0;
            for cycle in 1..=600 {
                cluster.cycle();
                let registry = cluster.metrics_registry();
                let walked: u64 = registry
                    .scopes()
                    .iter()
                    .filter(|scope| scope.path().starts_with("cluster/link"))
                    .map(|scope| scope.counter("occupancy").expect("link scope"))
                    .sum();
                let running = registry
                    .counter("cluster", "net_occupancy")
                    .expect("cluster scope");
                assert_eq!(
                    running, walked,
                    "{topology} faulted={faulted} cycle {cycle}"
                );
                integrated += walked;
                peak = peak.max(walked);
                assert_eq!(cluster.stats().net_occupancy_sum, integrated);
            }
            assert!(peak > 32, "{topology}: the network never filled ({peak})");
            assert!(!faulted || cluster.stats().faults.link_drops > 0);
        }
    }
}
