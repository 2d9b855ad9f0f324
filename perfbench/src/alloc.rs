//! A counting global allocator.
//!
//! Every allocation of the benchmark process goes through [`Counting`],
//! which forwards to the system allocator. While counting is on (traced
//! runs only, see [`enable`]), it also keeps per-thread counters:
//! allocation events, bytes requested, live bytes and the peak of live
//! bytes. Around a layer call, [`measure`] turns the calling thread's
//! counters into exact per-call figures that repeat bit for bit for one
//! seed, whatever other threads do meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The system allocator with counters.
pub struct Counting;

// A plain switch that publishes no other data, so `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Clone, Copy)]
struct Counters {
    allocs: u64,
    bytes: u64,
    /// Bytes allocated minus bytes freed by this thread; memory freed by
    /// another thread than the one that allocated it makes this drift,
    /// which only matters across, never within, a single-threaded call.
    live: i64,
    peak: i64,
}

thread_local! {
    // Const-initialized and free of destructors, so reading it never
    // allocates and stays valid until the thread is gone.
    static COUNTERS: Cell<Counters> = const {
        Cell::new(Counters { allocs: 0, bytes: 0, live: 0, peak: 0 })
    };
}

/// Turns counting on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

fn record(alloc: usize, free: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = COUNTERS.try_with(|cell| {
        let mut c = cell.get();
        if alloc > 0 {
            c.allocs += 1;
            c.bytes += alloc as u64;
        }
        c.live += alloc as i64 - free as i64;
        c.peak = c.peak.max(c.live);
        cell.set(c);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters never touch the
// memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record(layout.size(), 0);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record(layout.size(), 0);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        record(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // A reallocation counts as one allocation event of the new size.
            record(new_size, layout.size());
        }
        new
    }
}

/// What one call allocated.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocDelta {
    /// Allocation events (`alloc`, `alloc_zeroed` and `realloc`).
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
    /// Highest live heap during the call, above the live heap at its start.
    pub peak_bytes: u64,
}

/// Runs `f` and reports what it allocated on the calling thread. All zero
/// unless counting is on.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocDelta) {
    let start = COUNTERS.with(|cell| {
        let mut c = cell.get();
        c.peak = c.live;
        cell.set(c);
        c
    });
    let result = f();
    let end = COUNTERS.with(Cell::get);
    let delta = AllocDelta {
        allocs: end.allocs - start.allocs,
        bytes: end.bytes - start.bytes,
        peak_bytes: (end.peak - start.live).max(0) as u64,
    };
    (result, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_one_call_exactly() {
        enable();
        let (v, delta) = measure(|| {
            let mut v: Vec<u64> = Vec::with_capacity(4);
            v.extend(std::hint::black_box([1, 2, 3, 4, 5]));
            drop(std::hint::black_box(vec![0u8; 1000]));
            v
        });
        assert_eq!(v.len(), 5);
        // One allocation, one growth, one zeroed buffer.
        assert_eq!(delta.allocs, 3);
        assert!(delta.peak_bytes >= 1000);
    }
}
