//! The receipt of one collaborative keystroke, counted rather than timed:
//! what a typed character and a backspace cost the storage read path and
//! the allocator, through the editor API on an in-memory database.
//!
//! A keystroke reads no rights from storage — they are memoized between
//! keystrokes and vouched for by the change stamps (DESIGN §5.13) — so an
//! insert makes no point get and no index lookup, and a backspace one
//! point get: the character row it rewrites. The allocations are
//! pinned a little above what the edit path takes today and below what it
//! took while every keystroke loaded its rights; a change that puts that
//! load back fails here and says by how much. Run with `--nocapture` to
//! see the receipt.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tendax_collab::{CollabServer, EditorDoc, Platform};
use tendax_text::TextDb;

/// Counts the calling thread's allocations (and reallocations), so other
/// threads never show up in a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a
// const initializer, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Keystrokes of each kind measured.
const N: u64 = 400;

/// What `N` keystrokes of one kind cost, summed.
#[derive(Debug, Default)]
struct Receipt {
    point_gets: u64,
    index_lookups: u64,
    allocations: u64,
}

impl Receipt {
    fn print(&self, kind: &str) {
        let per = |n: u64| n as f64 / N as f64;
        println!(
            "{kind}: {:.3} point gets, {:.3} index lookups, {:.2} allocations per keystroke",
            per(self.point_gets),
            per(self.index_lookups),
            per(self.allocations),
        );
    }
}

/// Run `keystroke` `N` times and count what storage read and this thread
/// allocated.
fn receipt(tdb: &TextDb, doc: &mut EditorDoc, keystroke: impl Fn(&mut EditorDoc)) -> Receipt {
    let before = tdb.database().stats();
    let allocs = ALLOCS.with(Cell::get);
    for _ in 0..N {
        keystroke(doc);
    }
    let after = tdb.database().stats();
    Receipt {
        point_gets: after.point_gets - before.point_gets,
        index_lookups: after.index_lookups - before.index_lookups,
        allocations: ALLOCS.with(Cell::get) - allocs,
    }
}

#[test]
fn a_keystroke_reads_no_rights_and_allocates_a_pinned_amount() {
    let tdb = TextDb::in_memory();
    let alice = tdb.create_user("alice").unwrap();
    tdb.create_user("bob").unwrap();
    tdb.create_document("doc", alice).unwrap();
    let server = CollabServer::new(tdb.clone());
    let session = server.connect("bob", Platform::Linux).unwrap();
    let mut doc = session.open("doc").unwrap();
    // A document to type into, and one keystroke of each kind so that
    // first-use costs stay out of the receipt.
    doc.type_text(0, &"lorem ipsum ".repeat(40)).unwrap();
    let end = doc.len();
    doc.type_text(end, "x").unwrap();
    doc.delete(end, 1).unwrap();

    let typed = receipt(&tdb, &mut doc, |d| {
        d.type_text(d.len(), "a").unwrap();
    });
    let erased = receipt(&tdb, &mut doc, |d| {
        d.delete(d.len() - 1, 1).unwrap();
    });
    typed.print("type");
    erased.print("backspace");
    assert_eq!(doc.len(), end);

    assert_eq!(typed.point_gets, 0, "an insert reads nothing by id");
    assert_eq!(typed.index_lookups, 0, "an insert looks nothing up");
    // The one row a backspace reads is the character it rewrites.
    assert_eq!(erased.point_gets, N, "a backspace reads its character");
    assert_eq!(erased.index_lookups, 0, "a backspace looks nothing up");
    // Measured 30.71 and 29.52 per keystroke, against 35.71 and 34.52
    // when every keystroke loaded its rights (x86-64 Linux). The pins sit
    // between the two, so a rights load per keystroke still fails, while
    // a toolchain's or hash map's own allocations can shift the count by
    // a few without tripping it. A bump past the pins with no change to
    // the edit path is re-pinned, and the new figures recorded.
    for (kind, r, pinned) in [("type", &typed, 33), ("backspace", &erased, 32)] {
        assert!(
            r.allocations <= pinned * N,
            "{kind}: {} allocations in {N} keystrokes, pinned at {pinned} each",
            r.allocations
        );
    }
}
