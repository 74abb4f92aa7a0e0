//! The receipt of one collaborative keystroke, counted rather than timed:
//! what a typed character and a backspace cost the storage read path, the
//! indexes, the log and the allocator, through the editor API — on an
//! in-memory database and on a logged one (`SimVfs`, `Buffered`).
//!
//! A keystroke reads no rights from storage — they are memoized between
//! keystrokes and vouched for by the change stamps (DESIGN §5.13) — so an
//! insert makes no point get and no index lookup, and a backspace one
//! point get: the character row it rewrites. A keystroke's rows are
//! packed once, where they are built, into the allocation the version
//! store keeps (DESIGN §5.2), and its commit frame is encoded from the
//! transaction's write buffer straight into the log's batch (§5.12): the
//! allocations are pinned a little above what the edit path takes today,
//! and a logged keystroke a few above an in-memory one. A change that
//! puts an intermediate copy back fails here and says by how much. Run
//! with `--nocapture` to see the receipt.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tendax_collab::{CollabServer, EditorDoc, Platform};
use tendax_storage::{Database, DurabilityLevel, Options, SimVfs};
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
    index_inserts: u64,
    log_frames: u64,
    log_bytes: u64,
    allocations: u64,
}

impl Receipt {
    fn print(&self, kind: &str) {
        let per = |n: u64| n as f64 / N as f64;
        println!(
            "{kind}: {:.3} point gets, {:.3} index lookups, {:.3} index inserts, \
             {:.3} log frames, {:.1} log bytes, {:.2} allocations per keystroke",
            per(self.point_gets),
            per(self.index_lookups),
            per(self.index_inserts),
            per(self.log_frames),
            per(self.log_bytes),
            per(self.allocations),
        );
    }
}

/// Run `keystroke` `N` times and count what storage read, inserted and
/// logged, and what this thread allocated.
fn receipt(tdb: &TextDb, doc: &mut EditorDoc, keystroke: impl Fn(&mut EditorDoc)) -> Receipt {
    let db = tdb.database();
    let (before, log_before) = (db.stats(), db.wal_size());
    let allocs = ALLOCS.with(Cell::get);
    for _ in 0..N {
        keystroke(doc);
    }
    let allocations = ALLOCS.with(Cell::get) - allocs;
    let (after, log_after) = (db.stats(), db.wal_size());
    Receipt {
        point_gets: after.point_gets - before.point_gets,
        index_lookups: after.index_lookups - before.index_lookups,
        index_inserts: after.index_inserts - before.index_inserts,
        log_bytes: log_after.0 - log_before.0,
        log_frames: log_after.1 - log_before.1,
        allocations,
    }
}

/// `N` characters typed at the end of a document, then `N` backspaces,
/// by a second editor of it: the receipt of each.
fn typed_and_erased(tdb: TextDb, label: &str) -> [Receipt; 2] {
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
    typed.print(&format!("{label} type"));
    erased.print(&format!("{label} backspace"));
    assert_eq!(doc.len(), end);
    [typed, erased]
}

/// A database logged to a simulated disk at `Buffered`: each keystroke's
/// wait writes its frame, as the benchmark's in-process workload does.
fn logged() -> TextDb {
    let options = Options {
        durability: DurabilityLevel::Buffered,
        vfs: Arc::new(SimVfs::new(1)),
        ..Options::default()
    };
    TextDb::init(Database::open("/sim/keystroke.wal", options).unwrap()).unwrap()
}

#[test]
fn a_keystroke_reads_no_rights_and_allocates_a_pinned_amount() {
    let [typed, erased] = typed_and_erased(TextDb::in_memory(), "in memory");

    assert_eq!(typed.point_gets, 0, "an insert reads nothing by id");
    assert_eq!(typed.index_lookups, 0, "an insert looks nothing up");
    // The one row a backspace reads is the character it rewrites.
    assert_eq!(erased.point_gets, N, "a backspace reads its character");
    assert_eq!(erased.index_lookups, 0, "a backspace looks nothing up");
    // A typed character enters `chars_by_doc`, both `oplog` indexes and
    // `op_effects_by_op`. A backspace's update of its character writes
    // no indexed column, so `chars_by_doc` keeps the entry it has.
    assert_eq!(typed.index_inserts, 4 * N, "a typed character's entries");
    assert_eq!(erased.index_inserts, 3 * N, "a backspace's entries");
    assert_eq!(
        (typed.log_frames, erased.log_frames),
        (0, 0),
        "nothing is logged"
    );
    // Measured 11.70 and 11.52 per keystroke (x86-64 Linux), against
    // 30.71 and 29.52 while each row was built as values and packed
    // twice, and 35.71 and 34.52 when every keystroke also loaded its
    // rights. A bump past the pins with no change to the edit path is
    // re-pinned, and the new figures recorded.
    for (kind, r, pinned) in [("type", &typed, 12), ("backspace", &erased, 12)] {
        assert!(
            r.allocations <= pinned * N,
            "{kind}: {} allocations in {N} keystrokes, pinned at {pinned} each",
            r.allocations
        );
    }
}

#[test]
fn a_logged_keystroke_allocates_at_most_four_more_than_one_in_memory() {
    let in_memory = typed_and_erased(TextDb::in_memory(), "in memory");
    let logged = typed_and_erased(logged(), "logged");
    for ((kind, mem), log) in ["type", "backspace"]
        .into_iter()
        .zip(&in_memory)
        .zip(&logged)
    {
        // One frame a keystroke, written by its own wait.
        assert_eq!(log.log_frames, N, "{kind}: one frame a keystroke");
        assert_eq!(
            (log.point_gets, log.index_lookups, log.index_inserts),
            (mem.point_gets, mem.index_lookups, mem.index_inserts),
            "{kind}: the log changes no read and no index entry"
        );
        // Measured +1.01 and +1.01 (the simulated disk's own copy of each
        // write), against +4.0 and +5.4 while a commit built a log record
        // of its writes and encoded it into a frame of its own.
        assert!(
            log.allocations <= mem.allocations + 4 * N,
            "{kind}: {} allocations logged against {} in memory in {N} keystrokes",
            log.allocations,
            mem.allocations
        );
    }
}
