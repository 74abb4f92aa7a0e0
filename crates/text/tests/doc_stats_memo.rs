//! `TextDb::doc_stats` is a fold over the commit stream (DESIGN.md
//! §5.13). Under concurrent writers to two tables every answer must still
//! be a committed state, a thread must read its own commits through it,
//! and once seeded it reads no table; a seed a commit overtook is not
//! kept; and a write over history the cold tier took conflicts, leaving
//! the fold as it was.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tendax_storage::{
    ColdOptions, CommitObserver, Database, Options, Row, Stats, StorageError, Ts, Value, WriteSet,
};
use tendax_text::{DocId, TextDb, UserId};

const EDITS: usize = 400;

/// `(index_lookups, rows_scanned)` the database counted while `f` ran.
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

/// A read event committed straight to `reads`: it reads no table.
fn commit_read(tdb: &TextDb, doc: DocId, user: UserId) {
    let mut txn = tdb.database().begin();
    let row = Row::new(vec![doc.value(), user.value(), Value::Timestamp(tdb.now())]);
    txn.insert(tdb.tables().reads, row).unwrap();
    txn.commit().unwrap();
}

#[test]
fn a_reader_beside_a_writer_sees_committed_states_and_the_writer_its_own() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let other = tdb.create_user("bob").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let mut handle = tdb.open(doc, user).unwrap();
    // The typist's first answer seeds the fold.
    tdb.doc_stats(doc).unwrap();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Another user's opens commit `reads` rows for the same document
        // while the typist commits `chars` and `oplog`: commits to
        // disjoint tables run side by side, so the observer hears of them
        // out of timestamp order.
        let opener = s.spawn(|| {
            for _ in 0..EDITS {
                commit_read(&tdb, doc, other);
                std::thread::yield_now();
            }
        });
        let reader = s.spawn(|| {
            // Every edit below adds one character and one operation in
            // one transaction: a state in which the two counts differ
            // was never committed.
            let (mut size, mut readers) = (0, 0);
            let mut answers = 0usize;
            while !done.load(Ordering::Acquire) {
                let stats = tdb.doc_stats(doc).unwrap();
                assert_eq!(stats.size, stats.ops, "a state nobody committed");
                assert_eq!(stats.size, stats.tuples);
                assert!(stats.size >= size, "the fold went back in time");
                assert!(stats.readers.len() >= readers, "a reader was lost");
                (size, readers) = (stats.size, stats.readers.len());
                answers += 1;
            }
            answers
        });

        for i in 0..EDITS {
            handle.insert_text(i, "x").unwrap();
            // `commit()` has returned on this thread: the fold may not
            // answer from before it, and it reads no table to answer.
            let (cost, stats) = reads(tdb.database(), || tdb.doc_stats(doc).unwrap());
            assert_eq!((stats.size, stats.ops), (i + 1, i + 1));
            assert_eq!(cost, (0, 0), "edit {i} was read back from the tables");
        }
        opener.join().unwrap();
        done.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0);
    });
    let stats = tdb.doc_stats(doc).unwrap();
    assert_eq!(stats.readers, vec![user, other]);
    assert_eq!(
        stats,
        TextDb::init(tdb.database().clone())
            .unwrap()
            .doc_stats(doc)
            .unwrap()
    );
}

#[test]
fn a_second_init_starts_cold_and_agrees() {
    let db = Database::open_in_memory();
    let warm = TextDb::init(db.clone()).unwrap();
    let user = warm.create_user("alice").unwrap();
    let doc = warm.create_document("d", user).unwrap();
    let mut handle = warm.open(doc, user).unwrap();
    handle.insert_text(0, "hello world").unwrap();
    let before = warm.doc_stats(doc).unwrap();

    // Commits the warm handle's fold has to take in: an edit, a delete,
    // a read event, a purge of the tombstones.
    handle.delete_range(0, 6).unwrap();
    let cold = TextDb::init(db.clone()).unwrap();
    assert_eq!(warm.doc_stats(doc).unwrap(), cold.doc_stats(doc).unwrap());
    let other = warm.create_user("bob").unwrap();
    warm.open(doc, other).unwrap();
    assert_eq!(warm.doc_stats(doc).unwrap().readers, vec![user, other]);
    warm.purge_tombstones(doc, warm.now()).unwrap();
    let after = warm.doc_stats(doc).unwrap();
    assert_eq!(after, TextDb::init(db).unwrap().doc_stats(doc).unwrap());
    assert_eq!((before.tuples, after.tuples, after.size), (11, 5, 5));

    // Nothing committed: the second answer reads no table.
    let reads = warm.database().stats();
    assert_eq!(warm.doc_stats(doc).unwrap(), after);
    let idle = warm.database().stats();
    assert_eq!(idle.index_lookups, reads.index_lookups);
    assert_eq!(idle.rows_scanned, reads.rows_scanned);
}

/// Parks the commit it is armed for inside its observer call: the commit
/// is applied and folded, and no snapshot contains it yet. Registered
/// after the `TextDb`, so the fold has heard of the commit first.
struct Gate {
    armed: AtomicBool,
    parked: Mutex<Sender<Ts>>,
    release: Mutex<Receiver<()>>,
}

impl CommitObserver for Gate {
    fn committed(&self, commit_ts: Ts, _: &WriteSet<'_>) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.parked.lock().unwrap().send(commit_ts).unwrap();
            // A dropped sender releases the commit too: a test that
            // fails while the commit is parked does not hang.
            let _ = self.release.lock().unwrap().recv();
        }
    }
}

/// A gate on `db`, armed for the next commit, with its two ends.
fn gate(db: &Database) -> (Arc<dyn CommitObserver>, Receiver<Ts>, Sender<()>) {
    let (parked, on_park) = channel();
    let (release, on_release) = channel();
    let gate: Arc<dyn CommitObserver> = Arc::new(Gate {
        armed: AtomicBool::new(true),
        parked: Mutex::new(parked),
        release: Mutex::new(on_release),
    });
    db.observe_commits(&gate);
    (gate, on_park, release)
}

/// A document Alice typed into and opened, and Bob.
fn one_document() -> (TextDb, DocId, UserId, UserId) {
    let tdb = TextDb::in_memory();
    let alice = tdb.create_user("alice").unwrap();
    let bob = tdb.create_user("bob").unwrap();
    let doc = tdb.create_document("d", alice).unwrap();
    tdb.open(doc, alice).unwrap().insert_text(0, "abc").unwrap();
    (tdb, doc, alice, bob)
}

#[test]
fn a_commit_in_flight_is_not_in_the_answer_and_costs_no_read() {
    let (tdb, doc, alice, bob) = one_document();
    assert_eq!(tdb.doc_stats(doc).unwrap().readers, vec![alice]);
    let (_gate, parked, release) = gate(tdb.database());

    std::thread::scope(|s| {
        let release = release;
        let opener = s.spawn(|| commit_read(&tdb, doc, bob));
        let commit_ts = parked.recv().unwrap();
        // Bob's read is folded, but no snapshot contains it: a reader
        // is answered at its own snapshot, from the fold.
        let (cost, stats) = reads(tdb.database(), || tdb.doc_stats(doc).unwrap());
        assert!(tdb.database().last_commit_ts() < commit_ts);
        assert_eq!((cost, stats.readers), ((0, 0), vec![alice]));
        release.send(()).unwrap();
        opener.join().unwrap();
    });
    let (cost, stats) = reads(tdb.database(), || tdb.doc_stats(doc).unwrap());
    assert_eq!((cost, stats.readers), ((0, 0), vec![alice, bob]));
}

#[test]
fn a_seed_a_commit_overtook_is_not_kept() {
    let (tdb, doc, alice, bob) = one_document();
    let db = tdb.database().clone();
    let (_gate, parked, release) = gate(&db);

    std::thread::scope(|s| {
        let release = release;
        let opener = s.spawn(|| commit_read(&tdb, doc, bob));
        parked.recv().unwrap();
        // A first reader seeds below Bob's parked read: it takes its
        // snapshot, reads `chars`, and waits for the `reads` table the
        // parked commit holds.
        let lookups = db.stats().index_lookups;
        let seeder = s.spawn(|| tdb.doc_stats(doc).unwrap());
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.stats().index_lookups == lookups {
            assert!(Instant::now() < deadline, "the seed never started");
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        opener.join().unwrap();
        // Its answer is the state at its snapshot ...
        assert_eq!(seeder.join().unwrap().readers, vec![alice]);
    });
    // ... and the fold it computed was not kept: Bob's read reached no
    // fold when it committed.
    let stats = tdb.doc_stats(doc).unwrap();
    assert_eq!(stats.readers, vec![alice, bob]);
    assert_eq!(stats, TextDb::init(db).unwrap().doc_stats(doc).unwrap());
}

/// A scratch directory, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn after_the_cold_tier_took_the_history_the_fold_equals_a_cold_init() {
    let dir = TempDir::new("tendax-doc-stats-cold");
    let options = Options {
        cold_storage: Some(ColdOptions::default()),
        ..Default::default()
    };
    let db = Database::open(dir.0.join("cold.wal"), options).unwrap();
    let warm = TextDb::init(db.clone()).unwrap();
    let user = warm.create_user("alice").unwrap();
    let doc = warm.create_document("d", user).unwrap();
    let mut handle = warm.open(doc, user).unwrap();
    handle.insert_text(0, "hello cold world").unwrap();
    handle.delete_range(0, 6).unwrap();
    assert_eq!(warm.doc_stats(doc).unwrap().tuples, 16);
    let cold_stats = |db: &Database| TextDb::init(db.clone()).unwrap().doc_stats(doc).unwrap();

    // The demoting vacuum sends the tombstones' earlier versions to a
    // cold run; the purge deletes the tombstones, and the next vacuum
    // sends the purged rows' last versions after them.
    assert!(db.vacuum() > 0);
    let before_purge = db.last_commit_ts();
    let t = *warm.tables();
    let purged: Vec<_> = (db.begin())
        .index_lookup(t.chars, "chars_by_doc", &[doc.value()])
        .unwrap()
        .into_iter()
        .filter(|(_, row)| row.cols([7])[0].as_bool() == Some(true))
        .map(|(rid, _)| rid)
        .collect();
    assert_eq!(purged.len(), 6);
    warm.purge_tombstones(doc, warm.now()).unwrap();
    assert!(db.vacuum() > 0);
    assert_eq!(warm.doc_stats(doc).unwrap(), cold_stats(&db));
    assert_eq!(warm.doc_stats(doc).unwrap().tuples, 10);

    // A transaction pinned below the purge still reads a purged row, from
    // the cold tier, but may not write it back: the purge is newer than
    // its snapshot. Nothing commits, and the fold still answers.
    let before = warm.doc_stats(doc).unwrap();
    let mut pinned = db.begin_at(before_purge).unwrap();
    assert!(pinned.get(t.chars, purged[0]).unwrap().is_some());
    pinned
        .set(t.chars, purged[0], &[("deleted", Value::Bool(false))])
        .unwrap();
    let err = pinned.commit().unwrap_err();
    assert!(matches!(err, StorageError::WriteConflict { .. }), "{err}");
    let (cost, stats) = reads(&db, || warm.doc_stats(doc).unwrap());
    assert_eq!(cost.0, 0, "answered from the fold");
    assert_eq!(stats, before);
    assert_eq!(stats, cold_stats(&db));
}

#[test]
fn a_fold_nobody_reads_is_dropped_at_its_bound() {
    // `stamps::MAX_QUEUED`: changes a fold holds for readers to come.
    const BOUND: usize = 1024;
    let (tdb, doc, alice, bob) = one_document();
    tdb.doc_stats(doc).unwrap();
    for _ in 0..BOUND {
        commit_read(&tdb, doc, bob);
    }
    // A thousand and twenty-four queued reads are still answered from
    // the fold, and reading it empties the queue ...
    let (cost, stats) = reads(tdb.database(), || tdb.doc_stats(doc).unwrap());
    assert_eq!((cost, stats.readers), ((0, 0), vec![alice, bob]));
    // ... one more than that, and the fold is gone: the next answer
    // comes from the tables.
    for _ in 0..=BOUND {
        commit_read(&tdb, doc, alice);
    }
    let (cost, stats) = reads(tdb.database(), || tdb.doc_stats(doc).unwrap());
    assert!(cost.0 > 0);
    assert_eq!(
        stats,
        TextDb::init(tdb.database().clone())
            .unwrap()
            .doc_stats(doc)
            .unwrap()
    );
    let (cost, _) = reads(tdb.database(), || tdb.doc_stats(doc).unwrap());
    assert_eq!(cost, (0, 0), "the answer from the tables seeded a new fold");
}
