//! `TextDb::doc_stats` is a memo under the change stamps (DESIGN.md
//! §5.13). Under a concurrent writer every answer must still be a
//! committed state, and a thread must read its own commits through it.

use std::sync::atomic::{AtomicBool, Ordering};

use tendax_storage::Database;
use tendax_text::TextDb;

const EDITS: usize = 400;

#[test]
fn a_reader_beside_a_writer_sees_committed_states_and_the_writer_its_own() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            // Every edit below adds one character and one operation in
            // one transaction: a state in which the two counts differ
            // was never committed.
            let mut last = 0;
            let mut answers = 0usize;
            while !done.load(Ordering::Acquire) {
                let stats = tdb.doc_stats(doc).unwrap();
                assert_eq!(stats.size, stats.ops, "a state nobody committed");
                assert_eq!(stats.size, stats.tuples);
                assert!(stats.size >= last, "the memo went back in time");
                last = stats.size;
                answers += 1;
            }
            answers
        });

        let mut handle = tdb.open(doc, user).unwrap();
        for i in 0..EDITS {
            handle.insert_text(i, "x").unwrap();
            // `commit()` has returned on this thread: the memo may not
            // answer from before it.
            let stats = tdb.doc_stats(doc).unwrap();
            assert_eq!((stats.size, stats.ops), (i + 1, i + 1));
        }
        done.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0);
    });
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

    // Commits the warm handle's memo has to notice: an edit, a delete,
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
