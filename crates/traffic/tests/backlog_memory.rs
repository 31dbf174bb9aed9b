//! A waiting request costs the heap what it holds.
//!
//! A counting `#[global_allocator]` (live bytes per thread, so the test
//! harness cannot disturb it) watches the 64-core TopH cluster of the
//! campaign smoke at load 0.9 — far past saturation, every source queue
//! growing — until 100 000 requests wait, and divides what the heap grew by
//! since cycle 0 by the requests waiting. Nothing else in a stepping cluster
//! allocates (`crates/core/tests/no_alloc.rs`), so the quotient is the cost
//! of one queue entry under `VecDeque`'s doubling: between 1× and 2× the
//! entry.
//!
//! Read at the 4 112 cycles this takes: **10.49 bytes** per waiting request
//! with 8-byte entries — the 64 queues fill at one rate, so they all hold
//! ≈ 1 564 of 2 048 slots. The 16-byte `(u64, u32)` entries before them read
//! 20.97 there and could never read below 16, whatever the cycle count;
//! 8-byte entries read 15 or more only in the few cycles after the queues
//! double, which 100 000 waiting requests are 500 cycles past.
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
    while waiting(&cluster) < 100_000 {
        cluster.step_cycles(16);
        assert!(cluster.now() < 20_000, "load 0.9 does not saturate this cluster");
    }
    let grown = LIVE_BYTES.with(Cell::get) - at_cycle_0;
    let per_request = grown as f64 / waiting(&cluster) as f64;
    println!(
        "cycle {}: {} waiting, heap grew {grown} bytes, {per_request:.2} per request",
        cluster.now(),
        waiting(&cluster)
    );
    assert!(
        (8.0..15.0).contains(&per_request),
        "{per_request:.2} heap bytes per waiting request at cycle {}",
        cluster.now()
    );
}
