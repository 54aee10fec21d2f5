//! Heap-allocation budget of the functional flow's steady state.
//!
//! A counting global allocator tallies every allocation made on the test
//! thread while a warm, serial gemm runs. Each output row may allocate a
//! handful of times (result buffers), but nothing may allocate per dot
//! product: the multiplier planes, adder-tree levels, bus legs and row
//! moves all reuse per-lane scratch.

use pim_device::flow::DeviceFlow;
use pim_device::Parallelism;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only bumps a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded with the caller's pointer and layouts.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_serial_gemm_allocates_at_most_four_times_per_output_row() {
    const M: usize = 64;
    const K: usize = 32;
    const N: usize = 32;
    let a: Vec<u8> = (0..M * K).map(|i| (i * 13 + 7) as u8).collect();
    let b: Vec<u8> = (0..K * N).map(|i| (i * 29 + 3) as u8).collect();
    let mut flow = DeviceFlow::new(8).expect("flow builds");
    let cold = flow
        .gemm(&a, &b, M, K, N, Parallelism::Serial)
        .expect("gemm");
    let mut warm = Vec::new();
    let count = allocations_during(|| {
        warm = flow
            .gemm(&a, &b, M, K, N, Parallelism::Serial)
            .expect("gemm");
    });
    assert_eq!(warm, cold, "a warm run computes the same products");
    assert!(
        count <= 4 * M as u64,
        "warm 64x32x32 gemm made {count} allocations, budget {} (4 per output row)",
        4 * M
    );
}
