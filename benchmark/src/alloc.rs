//! Allocation counter installed as the benchmark's global allocator.
//!
//! Counts heap acquisitions and tracks live bytes, so the traced run
//! can report allocations per layer call and the bytes a built `Dag`
//! keeps. `fastsched::counting_alloc` counts acquisitions only; the
//! live-byte total is what `dag.heap_bytes_per_edge` needs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Counting wrapper around the system allocator.
pub struct Counting {
    allocs: AtomicU64,
    live: AtomicI64,
}

impl Counting {
    pub const fn new() -> Self {
        Self {
            allocs: AtomicU64::new(0),
            live: AtomicI64::new(0),
        }
    }

    /// Heap acquisitions (`alloc`, `alloc_zeroed`, `realloc`) so far.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> i64 {
        self.live.load(Ordering::Relaxed)
    }
}

// SAFETY: every call delegates to `System` with the caller's arguments
// unchanged; the counters are statistics that never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.live
            .fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}
