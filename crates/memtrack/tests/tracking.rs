//! The allocator's counters, checked in a test binary of their own.
//!
//! The counters are process-global. Another test in the same process
//! frees memory on its own thread (its body, and the harness's cleanup
//! after it, which no lock inside a test can cover) and can land between
//! a reading and the allocation it brackets, breaking the bounds below.
//! This file therefore holds exactly one test.

use gcx_memtrack::{live_bytes, peak_bytes, reset_peak, total_allocs, total_bytes};

#[global_allocator]
static ALLOC: gcx_memtrack::TrackingAllocator = gcx_memtrack::TrackingAllocator::new();

#[test]
fn tracks_allocations() {
    // Peak rises with a large allocation.
    reset_peak();
    let before = live_bytes();
    let v = vec![0u8; 1 << 20];
    assert!(peak_bytes() >= before + (1 << 20));
    assert!(live_bytes() >= before + (1 << 20));
    drop(v);
    assert!(live_bytes() < before + (1 << 20));

    // Total only ever grows.
    let t0 = total_bytes();
    let v2 = vec![1u8; 4096];
    assert!(total_bytes() >= t0 + 4096);
    drop(v2);
    assert!(total_bytes() >= t0 + 4096);

    // Allocation events are counted.
    let a0 = total_allocs();
    let v3 = vec![0u8; 64];
    assert!(total_allocs() > a0);
    drop(v3);

    // Realloc paths (Vec growth) keep live consistent.
    let mut grow = Vec::new();
    for i in 0..10_000u32 {
        grow.push(i);
    }
    let live_with = live_bytes();
    drop(grow);
    assert!(live_bytes() < live_with);
}
