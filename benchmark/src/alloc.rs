//! A counting wrapper around the system allocator. The `layers` binary
//! installs it as its `#[global_allocator]`; it counts only on a thread that
//! armed it, and only between [`arm`] and [`disarm`], so everything outside
//! a probe span runs with two thread-local loads of overhead per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when they can no longer be reached.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only `Cell`s of
// const-initialised thread-locals, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above; `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting this thread's allocations from zero.
pub fn arm() {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
}

/// Stops counting; returns `(allocations, bytes)` since [`arm`]. Both are 0
/// in a binary that did not install [`CountingAlloc`].
pub fn disarm() -> (u64, u64) {
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
