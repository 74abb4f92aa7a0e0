//! Deterministic cost receipts for an open document: allocations and
//! bytes counted, not time measured. Opening a document decodes each
//! character row once into presized structures, so the number of
//! allocations must not grow with the number of characters, and a
//! character's info lives once, in its chain slot. A walk of the whole
//! chain allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tendax_text::TextDb;

/// Counts the calling thread's allocations (and reallocations) and the
/// bytes they hold, so other threads never show up in a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (a block freed
    /// by another thread than the one that allocated it skews both).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since it was last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Count an allocation, or a reallocation, that changed this thread's live
/// bytes by `delta`.
fn note_alloc(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    note_bytes(delta);
}

fn note_bytes(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a
// const initializer, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as isize);
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_bytes(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size as isize - layout.size() as isize);
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

/// What `f` left allocated on this thread, and the most it held at once
/// beyond what was allocated before it ran.
struct Bytes {
    resident: usize,
    peak: usize,
}

fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, Bytes) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    let bytes = Bytes {
        resident: (LIVE.with(Cell::get) - before).max(0) as usize,
        peak: (PEAK.with(Cell::get) - before) as usize,
    };
    (out, bytes)
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

/// A loaded document holds each character once: its chain slot (the tree
/// node, the `CharInfo` and the successor) and its entry in the one id →
/// slot map. The
/// bound is per character of an 8 000-character chain, half of it
/// tombstones: at most 200 bytes resident and 250 at the peak of the
/// load, which also holds the index lookup's rows and the chain-order
/// walk. (A second map of `CharInfo`s beside the treap cost 281 resident
/// and 345 at the peak.)
#[test]
fn a_loaded_character_is_held_once() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("u").unwrap();
    let doc = document(&tdb, "d", 4_000);

    let (h, bytes) = bytes_during(|| tdb.load(doc, user).unwrap());
    let chars = h.chain_len();
    assert_eq!(chars, 8_000);
    let (resident, peak) = (bytes.resident / chars, bytes.peak / chars);
    println!("per character: {resident} bytes resident, {peak} at the peak of the load");
    assert!(resident <= 200, "{resident} bytes a character resident");
    assert!(peak <= 250, "{peak} bytes a character at the peak");
}

/// Walking a whole document in chain order, what a snapshot, the text and
/// a render are written from, follows each slot's successor and allocates
/// nothing. (The in-order walk of the tree it replaced kept its stack on
/// the heap.)
#[test]
fn walking_the_whole_chain_allocates_nothing() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("u").unwrap();
    let doc = document(&tdb, "d", 4_000);
    let mut h = tdb.open(doc, user).unwrap();
    h.insert_text(2_000, "xyz").unwrap();
    h.insert_text(0, "<").unwrap();

    let mut walked = 0;
    let ((), allocs) = allocations_during(|| h.for_each_char(|_, _| walked += 1));
    assert_eq!(walked, 8_004);
    assert_eq!(allocs, 0, "walking 8 004 characters");
}
