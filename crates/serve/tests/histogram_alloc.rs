//! Recording a latency and reading a quantile allocate nothing: the
//! histogram behind serve's shed decisions and the gateway's hedge
//! trigger works in place.

use gpp_serve::metrics::{Histogram, Metrics};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Duration;

/// Counts this thread's allocations, then defers to the system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the count is a const-initialized thread-local
// `Cell`, whose access never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn record_and_quantile_allocate_nothing() {
    let mut histogram = Histogram::new(256);
    let metrics = Metrics::default();
    let before = allocations();
    // Several windows, so the halvings run too; samples up to 60 s.
    for i in 0..10_000u64 {
        let us = i.wrapping_mul(7919) % 60_000_000;
        histogram.record(us);
        black_box(histogram.quantile(50));
        black_box(histogram.quantile(99));
        metrics.record_latency(Duration::from_micros(i), Duration::from_micros(us));
        black_box(metrics.compute_p50_us());
    }
    assert_eq!(allocations() - before, 0);
    // The counter does see this thread's allocations.
    black_box(vec![0u8; 16]);
    assert_eq!(allocations() - before, 1);
}
