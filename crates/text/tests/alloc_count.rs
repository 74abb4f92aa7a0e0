//! A deterministic cost receipt for document open: allocations counted,
//! not time measured. Opening a document decodes each character row once
//! into presized structures, so the number of allocations must not grow
//! with the number of characters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tendax_text::TextDb;

/// Counts the calling thread's allocations (and reallocations), so other
/// threads never show up in a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a
// const initializer, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A document of `chars` visible characters and as many tombstones.
fn document(tdb: &TextDb, name: &str, chars: usize) -> tendax_text::DocId {
    let user = tdb.user_by_name("u").unwrap();
    let doc = tdb.create_document(name, user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    for _ in 0..chars / 100 {
        h.insert_text(0, &"ab".repeat(100)).unwrap();
        h.delete_range(50, 100).unwrap();
    }
    assert_eq!((h.len(), h.chain_len()), (chars, 2 * chars));
    doc
}

#[test]
fn open_allocates_a_constant_whatever_the_document_size() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("u").unwrap();
    let small = document(&tdb, "small", 500);
    let large = document(&tdb, "large", 4_000);

    let (h, for_small) = allocations_during(|| tdb.open(small, user).unwrap());
    assert_eq!(h.chain_len(), 1_000);
    let (h, for_large) = allocations_during(|| tdb.open(large, user).unwrap());
    assert_eq!(h.chain_len(), 8_000);

    // Presized maps and vectors, a permission check, one read event: a
    // fixed number of allocations (each character used to cost three).
    assert!(
        for_large <= 64,
        "opening 8000 characters made {for_large} allocations"
    );
    assert!(
        for_large <= for_small + 8,
        "allocations grew with the document: {for_small} for 1000 characters, \\
         {for_large} for 8000"
    );
}
