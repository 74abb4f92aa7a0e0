//! A service built over a server's live documents reads a held copy
//! without waiting for the document's lock, and reads it as the services
//! read the database: no rights checked, no read event, no commit, no
//! served snapshot. When the lock is taken — by this thread's own view, or
//! by an edit in flight on another thread — it reads the database. Each
//! test runs under a timeout, so a service that waits fails the test
//! instead of hanging it.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use tendax_collab::{CollabServer, EditorDoc, Platform};
use tendax_meta::{DynamicFolders, FolderChange, FolderRule, FolderSet, SearchEngine, SearchQuery};
use tendax_text::{DocId, TextDb, UserId};

/// Run `test` on a thread of its own; fail if it has not finished in ten
/// seconds (it waits for a lock nobody lets go) or if it panicked.
fn within_a_timeout(test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        test();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => worker.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => panic!("a service waited for a document's lock"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
    }
}

/// A database with one document an editor holds, typed into, and the
/// search engine and a `ContentContains("zeppelin")` folder set over the
/// server's live documents.
struct Held {
    tdb: TextDb,
    server: CollabServer,
    alice: UserId,
    doc: DocId,
    editor: EditorDoc,
    engine: SearchEngine,
    set: FolderSet,
}

fn held() -> Held {
    let tdb = TextDb::in_memory();
    let alice = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("notes", alice).unwrap();
    let server = CollabServer::new(tdb.clone());
    let session = server.connect("alice", Platform::Linux).unwrap();
    let mut editor = session.open_id(doc).unwrap();
    editor.type_text(0, "some lineage notes").unwrap();
    let engine = SearchEngine::build_over(server.live().clone()).unwrap();
    let folders = DynamicFolders::init_over(server.live().clone()).unwrap();
    let folder = folders
        .create_folder(
            "zeppelins",
            alice,
            FolderRule::ContentContains("zeppelin".into()),
        )
        .unwrap();
    let set = folders.watch(folder).unwrap();
    Held {
        tdb,
        server,
        alice,
        doc,
        editor,
        engine,
        set,
    }
}

impl Held {
    /// Re-index the document and refresh the folder, and return what the
    /// re-index read, `(point gets, index lookups)`.
    fn update(&mut self) -> (u64, u64) {
        let db = self.tdb.database();
        let before = db.stats();
        self.engine.update_document(self.doc).unwrap();
        let after = db.stats();
        assert_eq!(self.set.refresh().unwrap(), [FolderChange::Added(self.doc)]);
        (
            after.point_gets - before.point_gets,
            after.index_lookups - before.index_lookups,
        )
    }

    /// The engine finds the typed word, and its snippet.
    fn finds_the_zeppelin(&self) {
        let hits = self.engine.search(&SearchQuery::terms("zeppelin")).unwrap();
        assert_eq!(hits.len(), 1);
        let snippet = self.engine.snippet(self.doc, "zeppelin", 0).unwrap();
        assert_eq!(snippet.as_deref(), Some("zeppelin"));
    }

    /// `(read events, commits)`: what a service must leave as it found it.
    fn trace(&self) -> (usize, u64) {
        let commits = self.tdb.database().stats().commits;
        (self.tdb.read_count(self.doc).unwrap(), commits)
    }
}

/// The document's lock is free: the services read the copy — no table,
/// no load, no snapshot counted, no trace.
#[test]
fn a_free_copy_is_read_in_place() {
    within_a_timeout(|| {
        let mut h = held();
        h.editor.type_text(0, "zeppelin ").unwrap();
        let (live, trace) = (h.server.live().stats(), h.trace());
        assert_eq!(h.update(), (0, 0));
        h.finds_the_zeppelin();
        assert_eq!(h.server.live().stats(), live);
        assert_eq!(h.trace(), trace);
    });
}

/// A commit that bypasses the editors leaves the copy behind the
/// database: the read rebuilds it first — one load, no snapshot — and
/// indexes what the database holds.
#[test]
fn a_stale_copy_is_rebuilt_before_it_is_read() {
    within_a_timeout(|| {
        let mut h = held();
        let mut raw = h.tdb.load(h.doc, h.alice).unwrap();
        raw.insert_text(0, "zeppelin ").unwrap();
        let live = h.server.live().stats();
        h.update();
        h.finds_the_zeppelin();
        let after = h.server.live().stats();
        assert_eq!(
            (after.loads, after.snapshots),
            (live.loads + 1, live.snapshots)
        );
        assert_eq!(h.editor.text(), "zeppelin some lineage notes");
    });
}

/// This thread holds the document's view, so its lock: the re-index and
/// the refresh read the database — the document's row and its characters
/// — and return. (A read that locked the copy would wait for this very
/// thread.)
#[test]
fn a_service_in_the_thread_that_holds_a_view_reads_the_database() {
    within_a_timeout(|| {
        let mut h = held();
        h.editor.type_text(0, "zeppelin ").unwrap();
        let session = h.server.connect("alice", Platform::Linux).unwrap();
        let viewer = session.open_id(h.doc).unwrap();
        let (live, trace) = (h.server.live().stats(), h.trace());
        let view = viewer.handle();
        assert_eq!(h.update(), (1, 1));
        h.finds_the_zeppelin();
        drop(view);
        assert_eq!(h.server.live().stats(), live);
        assert_eq!(h.trace(), trace);
    });
}

/// An edit in flight on another thread holds the lock: the services read
/// the database and return while it is parked.
#[test]
fn a_service_does_not_wait_for_an_edit_in_flight() {
    within_a_timeout(|| {
        let mut h = held();
        h.editor.type_text(0, "zeppelin ").unwrap();
        let session = h.server.connect("alice", Platform::Linux).unwrap();
        let mut typist = session.open_id(h.doc).unwrap();
        let (parked, parking) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let edit = thread::spawn(move || {
            typist
                .with_handle("insert", |doc| {
                    let _ = parked.send(());
                    let _ = released.recv();
                    Ok(((), doc.insert_text(0, "!")?))
                })
                .unwrap();
        });
        parking.recv().unwrap();
        assert_eq!(h.update(), (1, 1));
        h.finds_the_zeppelin();
        release.send(()).unwrap();
        edit.join().unwrap();
        assert_eq!(h.editor.text(), "!zeppelin some lineage notes");
    });
}
