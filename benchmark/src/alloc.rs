//! A counting global allocator for the traced run.
//!
//! Only `artisan-benchmark-trace` installs [`CountingAlloc`]; in the
//! untraced binary the counters stay at zero and allocation costs
//! nothing extra.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and allocated bytes counted so far (both 0 unless
/// [`CountingAlloc`] is the global allocator).
pub fn counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations and bytes counted since `before` (a [`counts`] snapshot).
pub fn since(before: (u64, u64)) -> (u64, u64) {
    let now = counts();
    (
        now.0.saturating_sub(before.0),
        now.1.saturating_sub(before.1),
    )
}
