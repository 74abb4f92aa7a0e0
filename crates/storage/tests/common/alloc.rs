//! A tracking allocator for the tests that hand out cost receipts in
//! allocations and bytes instead of time. A test binary that wants it
//! installs it (`#[global_allocator] static A: TrackingAlloc =
//! TrackingAlloc;`) and measures with the functions below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks the calling thread's allocations: how many it made, the
/// requested bytes it holds and their high-water mark. Per thread, so
/// other tests' and the engine's own threads never show up in a
/// measurement.
pub struct TrackingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<isize> = const { Cell::new(0) };
    static LARGE_LIVE: Cell<isize> = const { Cell::new(0) };
    static LARGE_PEAK: Cell<isize> = const { Cell::new(0) };
    static LARGE_MOVED: Cell<usize> = const { Cell::new(0) };
}

/// Blocks at least this large are what a `malloc` whose mmap threshold
/// is fixed there (the benchmark fixes it at 256 KiB) maps afresh: pages
/// a process did not hold before, where smaller blocks reuse its heap.
pub const LARGE: usize = 256 << 10;

/// A block of `old` bytes (0: none) became one of `new` (0: freed).
fn note_large(old: usize, new: usize) {
    let size = |n: usize| if n >= LARGE { n as isize } else { 0 };
    let change = size(new) - size(old);
    if change == 0 {
        return;
    }
    let _ = LARGE_LIVE.try_with(|live| {
        live.set(live.get() + change);
        let _ = LARGE_PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// `allocated`: a call that hands out memory (not a free).
fn note(allocated: bool, bytes: isize, blocks: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if allocated {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE_BLOCKS.try_with(|n| n.set(n.get() + blocks));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local `Cell`s with
// const initializers, so touching them neither allocates nor re-enters.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as isize, 1);
        note_large(0, layout.size());
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -(layout.size() as isize), -1);
        note_large(layout.size(), 0);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size as isize - layout.size() as isize, 0);
        note_large(layout.size(), new_size);
        if layout.size() >= LARGE {
            let _ = LARGE_MOVED.try_with(|moved| moved.set(moved.get() + layout.size()));
        }
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and reallocations `f` made.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Bytes `f` held at its high-water mark beyond what it still holds
/// when it returns.
pub fn transient_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(LIVE.with(Cell::get)));
    let out = f();
    let over = PEAK.with(Cell::get) - LIVE.with(Cell::get);
    (out, over.max(0) as usize)
}

/// What `f` left on the heap when it returned: requested bytes and
/// allocations, each net of what `f` freed.
pub fn retained_by<T>(f: impl FnOnce() -> T) -> (T, isize, isize) {
    let (bytes, blocks) = (LIVE.with(Cell::get), LIVE_BLOCKS.with(Cell::get));
    let out = f();
    let retained = LIVE.with(Cell::get) - bytes;
    (out, retained, LIVE_BLOCKS.with(Cell::get) - blocks)
}

/// Bytes `f` held at its high-water mark in blocks of at least
/// [`LARGE`] bytes, beyond those held when it started.
pub fn large_peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LARGE_LIVE.with(Cell::get);
    LARGE_PEAK.with(|p| p.set(start));
    let out = f();
    (out, (LARGE_PEAK.with(Cell::get) - start).max(0) as usize)
}

/// Bytes of blocks of at least [`LARGE`] bytes that `f` reallocated: what
/// an allocator that cannot grow a block in place copies.
pub fn large_moved_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LARGE_MOVED.with(Cell::get);
    let out = f();
    (out, LARGE_MOVED.with(Cell::get) - start)
}
