//! A counting global allocator that works in release builds.
//!
//! `fd_bench::micro::CountingAlloc` is a pass-through outside debug builds,
//! so it cannot feed a release-mode benchmark. This one forwards to
//! [`System`] and keeps three process-wide tallies: live bytes, the peak
//! of live bytes, and the number of allocator calls that obtained memory
//! (`alloc`, `alloc_zeroed`, `realloc`). For a single-threaded run the
//! tallies are exact and a pure function of the program's behaviour — two
//! passes over one batch read byte-identical peaks — which is what makes
//! `heap_peak_mb` comparable commit over commit, unlike `VmHWM`.
//!
//! Declare it in the binary that wants the counts:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: fd_benchmark::alloc::Counting = fd_benchmark::alloc::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// Statistics only: no other memory is published through these, so
// `Relaxed` is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

#[inline]
fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping touches only
// the atomics above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// One reading of the allocator tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated.
    pub live: usize,
    /// Largest value `live` has had since the last [`reset_peak`].
    pub peak: usize,
    /// Allocator calls that obtained memory since process start.
    pub calls: u64,
}

/// Reads the tallies. All zero unless [`Counting`] is the global allocator.
pub fn stats() -> AllocStats {
    AllocStats {
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
    }
}

/// Restarts peak tracking from the current live size, so set-up garbage
/// (expectation parse trees, generator scratch) does not mask the peak of
/// the measured repetitions.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
