//! A counting global allocator, switched on only in the traced run.
//!
//! Every allocation (including `realloc` and `alloc_zeroed`) made while
//! counting is on is attributed to one of two buckets: *inside* a
//! `run_node` call or *outside* it. The benchmark's timing backend flips
//! [`enter_node`]/[`leave_node`] around each `run_node`; worker threads
//! only run while the submitting thread is blocked inside `run_node`, so
//! a single process-wide flag attributes their allocations correctly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The benchmark binary's global allocator.
pub struct Counting;

// The counters and flags publish no other data; `Relaxed` suffices.
// Workers read the flags after the pool hand-off (a mutex/condvar
// pair), which orders them after the submitting thread's stores.
static ENABLED: AtomicBool = AtomicBool::new(false);
static IN_NODE: AtomicBool = AtomicBool::new(false);
static INSIDE_COUNT: AtomicU64 = AtomicU64::new(0);
static INSIDE_BYTES: AtomicU64 = AtomicU64::new(0);
static OUTSIDE_COUNT: AtomicU64 = AtomicU64::new(0);
static OUTSIDE_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let (n, b) = if IN_NODE.load(Ordering::Relaxed) {
        (&INSIDE_COUNT, &INSIDE_BYTES)
    } else {
        (&OUTSIDE_COUNT, &OUTSIDE_BYTES)
    };
    n.fetch_add(1, Ordering::Relaxed);
    b.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments unchanged, so `System`'s guarantees carry over; counting
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation counts of one bucket.
#[derive(Clone, Copy)]
pub struct Bucket {
    pub count: u64,
    pub bytes: u64,
}

/// Turns counting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Marks the start of a `run_node` call.
pub fn enter_node() {
    IN_NODE.store(true, Ordering::Relaxed);
}

/// Marks the end of a `run_node` call.
pub fn leave_node() {
    IN_NODE.store(false, Ordering::Relaxed);
}

/// Totals so far: (inside `run_node`, outside it).
pub fn totals() -> (Bucket, Bucket) {
    let read = |n: &AtomicU64, b: &AtomicU64| Bucket {
        count: n.load(Ordering::Relaxed),
        bytes: b.load(Ordering::Relaxed),
    };
    (
        read(&INSIDE_COUNT, &INSIDE_BYTES),
        read(&OUTSIDE_COUNT, &OUTSIDE_BYTES),
    )
}
