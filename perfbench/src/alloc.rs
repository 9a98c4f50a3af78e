//! The benchmark binary's one counting global allocator.
//!
//! It wraps `System` and keeps four relaxed counters: allocation
//! calls, bytes requested, live bytes and the live-byte peak. They
//! feed `peak_heap_mb` and the `alloc.*` per-layer metrics. The
//! counters publish no other data, so `Relaxed` is enough; the
//! benchmark runs on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` plus allocation counters. Install with
/// `#[global_allocator]` in the binary (tests run without it and
/// read zeros).
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest live-byte count since the last [`reset_peak`].
    pub peak: u64,
}

impl AllocStats {
    /// Calls and bytes since `earlier` (the peak is this reading's).
    pub fn since(self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            peak: self.peak,
        }
    }
}

/// Read the counters.
pub fn stats() -> AllocStats {
    AllocStats {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}

/// Restart the peak from the current live-byte count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Put the peak back to an earlier reading, forgetting a stretch
/// whose allocations are not the measured program's (they must all
/// have been freed again).
pub fn set_peak(peak: u64) {
    PEAK.store(peak, Ordering::Relaxed);
}
