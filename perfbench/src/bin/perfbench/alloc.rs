//! A counting global allocator (std only).
//!
//! Off by default, when it costs one relaxed load per call. Switched on
//! for the traced run, it charges every allocation and free to the layer
//! of the innermost open span on the calling thread (see
//! [`crate::trace`]), or to no layer when no span is open.

use crate::trace::LAYERS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Slot for allocations made while no span is open.
pub const UNATTRIBUTED: usize = LAYERS;
const SLOTS: usize = LAYERS + 1;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static FREED: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

thread_local! {
    /// Layer index of the innermost open span on this thread.
    static CURRENT: Cell<usize> = const { Cell::new(UNATTRIBUTED) };
}

/// Allocation totals of one layer slot.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCounts {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes freed (the old size of a `realloc` counts as freed).
    pub freed: u64,
}

impl AllocCounts {
    /// Bytes requested minus bytes freed while this slot was current.
    pub fn net_bytes(&self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }

    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
        }
    }
}

/// Per-slot counts: one entry per layer, then [`UNATTRIBUTED`].
pub type Ledger = [AllocCounts; SLOTS];

/// Adds `after - before`, slot by slot, to `acc`.
pub fn accumulate(acc: &mut Ledger, before: &Ledger, after: &Ledger) {
    for i in 0..SLOTS {
        let d = after[i].since(&before[i]);
        acc[i].allocs += d.allocs;
        acc[i].bytes += d.bytes;
        acc[i].freed += d.freed;
    }
}

/// `after - before`, slot by slot.
pub fn delta(before: &Ledger, after: &Ledger) -> Ledger {
    std::array::from_fn(|i| after[i].since(&before[i]))
}

/// Turns counting on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Makes `slot` the layer charged for this thread's allocations and
/// returns the previous one.
pub fn set_current(slot: usize) -> usize {
    CURRENT.with(|c| c.replace(slot))
}

/// Totals per slot so far.
pub fn snapshot() -> Ledger {
    std::array::from_fn(|i| AllocCounts {
        allocs: ALLOCS[i].load(Ordering::Relaxed),
        bytes: BYTES[i].load(Ordering::Relaxed),
        freed: FREED[i].load(Ordering::Relaxed),
    })
}

fn charge_alloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let slot = CURRENT.with(Cell::get);
        ALLOCS[slot].fetch_add(1, Ordering::Relaxed);
        BYTES[slot].fetch_add(size as u64, Ordering::Relaxed);
    }
}

fn charge_free(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let slot = CURRENT.with(Cell::get);
        FREED[slot].fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// The benchmark binary's allocator: [`System`] plus the counters above.
pub struct Counting;

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged; the counters touch only atomics and a
// const-initialised thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge_free(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge_free(layout.size());
        charge_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
