//! A waiting request costs the heap nothing.
//!
//! A counting `#[global_allocator]` (live bytes per thread, so the test
//! harness cannot disturb it) watches the 64-core TopH cluster of the
//! campaign smoke at load 0.9 — far past saturation, every source queue
//! growing — and reads what the heap grew by since cycle 0 once 100 000
//! requests wait, and again once 200 000 do. A generator keeps its owed
//! requests as a count and a cursor on its own random stream, and nothing
//! else in a stepping cluster allocates (`crates/core/tests/no_alloc.rs`),
//! so both readings must stay under 4 KiB and the second must be no larger
//! than the first: the backlog doubled, the heap did not move.
//!
//! Read at 4 112 cycles (100 101 waiting) and 8 224 cycles (200 133
//! waiting): **1 536 bytes** both times, 0.02 and 0.01 bytes per waiting
//! request. Storing each waiting request, as the cursor's predecessors did,
//! read 10.49 bytes per request at the first point with 8-byte entries (the
//! 64 `VecDeque`s each at ≈ 1 564 of 2 048 slots), and 20.97 with the
//! 16-byte `(u64, u32)` entries before those.
//!
//! (The 16-core shape of the bench matrix — one core per tile — serves
//! 0.9 requests per core and cycle without a backlog, so it has nothing to
//! measure.)

use mempool::{ClusterConfig, Topology};
use mempool_traffic::{traffic_cluster, Pattern};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    // A thread being torn down can no longer reach its counter; nothing
    // measured here runs then.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: defers every operation to the system allocator unchanged; the
// only addition is a thread-local counter update that itself never
// allocates (const-initialised `Cell`, no destructor).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: as `dealloc`; the size contract is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_waiting_request_costs_less_than_fifteen_bytes_of_heap() {
    let config = ClusterConfig::small(Topology::TopH);
    let mut cluster = traffic_cluster(config, Pattern::Uniform, 0.9, 24).expect("valid config");
    let at_cycle_0 = LIVE_BYTES.with(Cell::get);
    let waiting = |cluster: &mempool::Cluster<_>| -> usize {
        cluster.cores().iter().map(mempool_traffic::TrafficGen::queue_len).sum()
    };
    // Nothing is printed until both are read: the harness captures output
    // in a buffer on this thread's heap.
    let mut grown_at = |backlog: usize| -> (isize, u64, usize) {
        while waiting(&cluster) < backlog {
            cluster.step_cycles(16);
            assert!(cluster.now() < 20_000, "load 0.9 does not saturate this cluster");
        }
        let grown = LIVE_BYTES.with(Cell::get) - at_cycle_0;
        (grown, cluster.now(), waiting(&cluster))
    };
    let readings = [grown_at(100_000), grown_at(200_000)];
    for (grown, cycle, waiting) in readings {
        println!("cycle {cycle}: {waiting} waiting, heap grew {grown} bytes");
    }
    let [(first, ..), (second, ..)] = readings;
    assert!(first < 4096 && second < 4096, "heap grew {first}, then {second} bytes");
    assert!(second <= first, "heap grew {first}, then {second} bytes with the backlog");
}
