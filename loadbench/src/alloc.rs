//! A counting global allocator: per-thread allocation counts, switched
//! on only for traced runs so untraced runs pay one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting allocations (including
/// reallocations) on the calling thread while counting is enabled.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(&self) {
        if ACTIVE.load(Ordering::Relaxed) {
            // `try_with`: allocations during thread teardown, after the
            // counter is gone, go uncounted instead of aborting.
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local that
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on or off for every thread.
pub fn set_counting(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Allocations counted so far on the calling thread.
pub fn thread_allocs() -> u64 {
    COUNT.with(Cell::get)
}
