//! What the incremental services read, counted on `Database::stats()`:
//! nothing for documents no commit touched; for a touched document, no
//! table at all where the service is a fold over the commit stream
//! (`doc_stats`, the lineage graph's paste edges) or where a server's
//! editors hold the document (the search engine's text), and otherwise
//! exactly what a cold computation of that document reads. A query reads
//! the names of the hits it returns and no others. The re-index of a held
//! document is also counted in allocations, by a counting allocator like
//! `tendax-collab`'s `keystroke_receipt`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tendax_collab::{CollabServer, Platform};
use tendax_meta::{
    collect_features, DynamicFolders, FolderRule, FolderSet, LineageGraph, SearchEngine,
    SearchQuery,
};
use tendax_process::ProcessEngine;
use tendax_storage::{Database, Stats};
use tendax_text::{DocId, TextDb, UserId};

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

/// Allocations this thread made in `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const DOCS: usize = 64;

struct Corpus {
    db: Database,
    tdb: TextDb,
    users: [UserId; 2],
    docs: Vec<DocId>,
    /// One watcher per leaf kind, named for the failure messages.
    sets: Vec<(&'static str, FolderSet)>,
}

fn corpus() -> Corpus {
    let db = Database::open_in_memory();
    let tdb = TextDb::init(db.clone()).unwrap();
    ProcessEngine::init(tdb.clone()).unwrap();
    let users = [
        tdb.create_user("alice").unwrap(),
        tdb.create_user("bob").unwrap(),
    ];
    let docs: Vec<DocId> = (0..DOCS)
        .map(|i| {
            let doc = tdb.create_document(&format!("doc{i}"), users[0]).unwrap();
            let mut h = tdb.load(doc, users[i % 2]).unwrap();
            h.insert_text(0, "some lineage to mine").unwrap();
            doc
        })
        .collect();
    let since = tdb.now();
    let folders = DynamicFolders::init(tdb.clone()).unwrap();
    let rules = [
        (
            "ReadBy",
            FolderRule::ReadBy {
                user: users[1].0,
                since,
            },
        ),
        ("AuthoredBy", FolderRule::AuthoredBy { user: users[1].0 }),
        ("CreatedBy", FolderRule::CreatedBy { user: users[0].0 }),
        ("StateIs", FolderRule::StateIs("draft".into())),
        ("NameContains", FolderRule::NameContains("7".into())),
        (
            "ContentContains",
            FolderRule::ContentContains("lineage".into()),
        ),
        ("PastedFrom", FolderRule::PastedFrom { doc: docs[0].0 }),
        ("EditedSince", FolderRule::EditedSince(since)),
        ("MinSize", FolderRule::MinSize(21)),
        ("HasOpenTasks", FolderRule::HasOpenTasks),
    ];
    let sets = rules
        .into_iter()
        .map(|(kind, rule)| {
            let id = folders.create_folder(kind, users[0], rule).unwrap();
            (kind, folders.watch(id).unwrap())
        })
        .collect();
    Corpus {
        db,
        tdb,
        users,
        docs,
        sets,
    }
}

/// `(index_lookups, rows_scanned)` spent by `f`.
fn reads<T>(db: &Database, f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let delta = |a: Stats, b: Stats| {
        (
            b.index_lookups - a.index_lookups,
            b.rows_scanned - a.rows_scanned,
        )
    };
    let before = db.stats();
    let out = f();
    (delta(before, db.stats()), out)
}

/// Point gets spent by `f`.
fn point_gets<T>(db: &Database, f: impl FnOnce() -> T) -> (u64, T) {
    let before = db.stats().point_gets;
    let out = f();
    (db.stats().point_gets - before, out)
}

#[test]
fn an_idle_sweep_reads_the_document_list_and_nothing_else() {
    let mut c = corpus();
    collect_features(&c.tdb).unwrap();

    // Nothing committed since: mining re-lists the documents (one scan
    // of `documents`) and reuses every document's statistics.
    let (cost, features) = reads(&c.db, || collect_features(&c.tdb).unwrap());
    assert_eq!(features.len(), DOCS);
    assert_eq!(cost, (0, DOCS as u64));

    // A folder does not even re-list them: no commit reached `documents`.
    for (kind, set) in &mut c.sets {
        let (cost, changes) = reads(&c.db, || set.refresh().unwrap());
        assert_eq!(cost, (0, 0), "{kind}");
        assert!(changes.is_empty(), "{kind}");
        assert_eq!(set.reevaluated(), (0, DOCS), "{kind}");
    }
}

#[test]
fn three_edited_documents_cost_the_document_list_and_nothing_else() {
    let mut c = corpus();
    collect_features(&c.tdb).unwrap();
    let edited = [c.docs[3], c.docs[17], c.docs[40]];
    for doc in edited {
        let mut h = c.tdb.load(doc, c.users[1]).unwrap();
        h.insert_text(4, "!").unwrap();
    }

    // What one document costs from scratch, on a handle with no folds.
    let cold = TextDb::init(c.db.clone()).unwrap();
    for doc in edited {
        let (lookups, rows) = reads(&c.db, || cold.doc_stats(doc).unwrap()).0;
        assert!(lookups > 0 && rows > 0);
    }

    // The sweep pays for the document list only: the three edits were
    // folded into their documents' statistics as they committed.
    let (cost, features) = reads(&c.db, || collect_features(&c.tdb).unwrap());
    assert_eq!(cost, (0, DOCS as u64));
    let cold_features = collect_features(&cold).unwrap();
    let strip_age = |f: Vec<tendax_meta::DocFeatures>| {
        f.into_iter()
            .map(|mut f| {
                f.features.pop();
                f
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(strip_age(features), strip_age(cold_features));

    // The folders whose rule reads what an edit writes re-run it for
    // those three; the others for none.
    for (kind, set) in &mut c.sets {
        set.refresh().unwrap();
        let expect = match *kind {
            "AuthoredBy" | "ContentContains" | "MinSize" | "EditedSince" => 3,
            _ => 0,
        };
        assert_eq!(set.reevaluated(), (expect, DOCS), "{kind}");
    }
    let min_size = &c
        .sets
        .iter()
        .find(|(kind, _)| *kind == "MinSize")
        .unwrap()
        .1;
    assert_eq!(min_size.contents(), &edited[..]);
}

#[test]
fn a_lineage_build_after_a_paste_reads_no_paste_event() {
    let c = corpus();
    let paste = |into: usize| {
        let clip = c
            .tdb
            .load(c.docs[0], c.users[0])
            .unwrap()
            .copy(0, 4)
            .unwrap();
        let mut h = c.tdb.load(c.docs[into], c.users[1]).unwrap();
        h.paste(0, &clip).unwrap();
    };
    paste(5);
    // The first build reads `paste_events` once, to seed the totals.
    let (cost, first) = reads(&c.db, || LineageGraph::build(&c.tdb).unwrap());
    assert_eq!(cost, (0, DOCS as u64 + 1));
    assert_eq!(first.edges.len(), 1);

    // Every later one lists the documents and nothing else, whatever
    // was pasted in between.
    paste(6);
    paste(5);
    let (cost, graph) = reads(&c.db, || LineageGraph::build(&c.tdb).unwrap());
    assert_eq!(cost, (0, DOCS as u64));
    assert_eq!(
        (graph.edges.iter())
            .map(|e| (e.to.label(), e.chars, e.events))
            .collect::<Vec<_>>(),
        [("doc5".to_string(), 8, 2), ("doc6".to_string(), 4, 1)]
    );
    let cold = TextDb::init(c.db.clone()).unwrap();
    assert_eq!(graph, LineageGraph::build(&cold).unwrap());
}

#[test]
fn a_read_event_re_runs_only_the_rules_that_read_reads() {
    let mut c = corpus();
    // An open commits to `reads` and to nothing else.
    c.tdb.open(c.docs[9], c.users[1]).unwrap();
    for (kind, set) in &mut c.sets {
        let changes = set.refresh().unwrap();
        let expect = usize::from(*kind == "ReadBy");
        assert_eq!(set.reevaluated(), (expect, DOCS), "{kind}");
        assert_eq!(changes.len(), expect, "{kind}");
    }
    // A state change reaches `documents`, for one document.
    c.tdb
        .set_document_state(c.docs[9], "review", c.users[0])
        .unwrap();
    for (kind, set) in &mut c.sets {
        set.refresh().unwrap();
        let expect = match *kind {
            "CreatedBy" | "StateIs" | "NameContains" => 1,
            _ => 0,
        };
        assert_eq!(set.reevaluated(), (expect, DOCS), "{kind}");
    }
}

/// Re-indexing a document an editor holds, after one typed character,
/// reads no table: the engine built over the server's live documents
/// takes the text from the copy. An engine fed by the database loads the
/// document instead — its row and its characters. The re-index allocates
/// for the text, the buffers and the one term new to the corpus, not per
/// token. (Before the engine read copies, every re-index made the point
/// get and the lookup, and this one took 235 allocations: a string per
/// token, a key per token, and the document's load. Six are taken now:
/// the text, the buffers, and the new term's key and postings.)
#[test]
fn re_indexing_a_held_document_reads_no_table() {
    let c = corpus();
    let server = CollabServer::new(c.tdb.clone());
    let mut live = SearchEngine::build_over(server.live().clone()).unwrap();
    let mut cold = SearchEngine::build(&c.tdb).unwrap();
    let doc = c.docs[12];
    let session = server.connect("bob", Platform::Linux).unwrap();
    let mut editor = session.open_id(doc).unwrap();
    editor
        .type_text(0, &"lineage grows with every paste ".repeat(20))
        .unwrap();
    live.update_document(doc).unwrap();
    cold.update_document(doc).unwrap();
    let live_stats = server.live().stats();

    editor.type_text(0, "x").unwrap();
    let (gets, ((lookups, rows), allocs)) = point_gets(&c.db, || {
        reads(&c.db, || {
            allocations(|| live.update_document(doc).unwrap()).0
        })
    });
    println!("held re-index: {gets} point gets, {lookups} lookups, {allocs} allocations");
    assert_eq!((gets, lookups, rows), (0, 0, 0));
    assert!(allocs <= 10, "{allocs} allocations");
    // Not a served snapshot, not a load: the copy was at the frontier.
    assert_eq!(server.live().stats(), live_stats);

    let (gets, ((lookups, rows), ())) = point_gets(&c.db, || {
        reads(&c.db, || cold.update_document(doc).unwrap())
    });
    assert_eq!((gets, lookups, rows), (1, 1, 0));
    let query = SearchQuery::terms("xlineage");
    let hits = live.search(&query).unwrap();
    assert_eq!(hits, cold.search(&query).unwrap());
    assert_eq!(hits.len(), 1);
}

/// A query that keeps ten of its candidates reads ten document names:
/// every candidate is scored from the index, the list is cut to the
/// limit, and only then are names read. (Before, a query read the
/// `documents` row of every candidate, 64 here.)
#[test]
fn a_ten_hit_query_reads_ten_names() {
    let c = corpus();
    let engine = SearchEngine::build(&c.tdb).unwrap();
    let query = SearchQuery::terms("lineage").limit(10);
    let (gets, ((lookups, rows), hits)) =
        point_gets(&c.db, || reads(&c.db, || engine.search(&query).unwrap()));
    assert_eq!(engine.index().lookup("lineage").unwrap().len(), DOCS);
    assert_eq!(hits.len(), 10);
    assert_eq!((gets, lookups, rows), (10, 0, 0));
    // The same ten, in the same order, as the whole ranked list begins.
    let all = engine.search(&query.clone().limit(DOCS)).unwrap();
    assert_eq!(hits[..], all[..10]);
}
