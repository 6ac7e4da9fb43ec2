//! The allocation-counting global allocator behind the steady-state
//! allocation probes (`tests/alloc_probe.rs`, the repo benchmark).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);
static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

/// One allocator call asking for `size` bytes.
#[cfg(debug_assertions)]
fn count(size: usize) {
    HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
    HEAP_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// A counting wrapper around the system allocator for steady-state
/// allocation probes.
///
/// Install as the `#[global_allocator]` of a *dedicated* test binary (so
/// no concurrently running test pollutes the counter); every `alloc`,
/// `alloc_zeroed` and `realloc` call bumps the process-global counters read
/// via [`CountingAlloc::allocations`] and [`CountingAlloc::bytes`]. Counting
/// is compiled in only under `debug_assertions` — release builds get a
/// transparent pass-through, so installing the wrapper in a bench binary
/// costs nothing; probes should skip their assertions when
/// [`CountingAlloc::enabled`] is false.
#[derive(Debug)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A counting allocator (counter shared process-wide).
    pub const fn new() -> Self {
        CountingAlloc
    }

    /// Whether allocation counting is compiled in (debug builds only).
    pub fn enabled(&self) -> bool {
        cfg!(debug_assertions)
    }

    /// Total allocation calls (`alloc` + `alloc_zeroed` + `realloc`)
    /// since process start. Always 0 when counting is disabled.
    pub fn allocations(&self) -> u64 {
        HEAP_ALLOCS.load(Ordering::Relaxed)
    }

    /// Total bytes those calls asked for (the new size, for a `realloc`).
    /// Always 0 when counting is disabled.
    pub fn bytes(&self) -> u64 {
        HEAP_BYTES.load(Ordering::Relaxed)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        #[cfg(debug_assertions)]
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        #[cfg(debug_assertions)]
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        #[cfg(debug_assertions)]
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
