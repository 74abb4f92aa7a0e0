//! The document order anchors fix. A character's row names its anchor —
//! its left neighbour when it was inserted — and is never rewritten, but
//! by a tombstone purge. A load walks the anchor tree in preorder, newer
//! siblings first (DESIGN.md §5.7). The model here knows nothing of
//! trees: a list of character ids into which each committed insert goes
//! right after its anchor (at the front for none), and from which a purge
//! only removes. Three handles that refresh only when a step tells them
//! to type, delete and purge; after every step a fresh load's order,
//! tombstones included, equals the model's.
//!
//! Beside it, deterministic tests run two commits from overlapping
//! snapshots — two inserts on one anchor, an insert and a purge — and
//! check that they do not both commit where that would break the order.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the sequence.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use tendax_storage::{
    CommitObserver, DataType, Database, Options, Row, TableDef, Ts, Value, WriteSet,
};
use tendax_text::{CharId, DocHandle, DocId, Effect, TextDb, TextError, UserId};

const HANDLES: usize = 3;

#[derive(Debug, Clone)]
enum Step {
    Type { h: usize, at: usize, text: String },
    Delete { h: usize, at: usize, len: usize },
    Refresh { h: usize },
    Purge,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let h = || 0..HANDLES;
    prop_oneof![
        6 => (h(), any::<usize>(), "[a-z]{1,4}").prop_map(|(h, at, text)| Step::Type { h, at, text }),
        3 => (h(), any::<usize>(), 1usize..4).prop_map(|(h, at, len)| Step::Delete { h, at, len }),
        2 => h().prop_map(|h| Step::Refresh { h }),
        1 => Just(Step::Purge),
    ]
}

/// The model: every character in document order, and when each
/// tombstone was made.
#[derive(Default)]
struct Model {
    order: Vec<CharId>,
    deleted_at: BTreeMap<CharId, i64>,
}

impl Model {
    fn commit(&mut self, effects: &[Effect]) {
        for e in effects {
            match e {
                Effect::Insert { char, prev, .. } => {
                    let at = match prev {
                        None => 0,
                        Some(p) => {
                            1 + (self.order.iter().position(|c| c == p))
                                .expect("an insert's anchor is in the document")
                        }
                    };
                    self.order.insert(at, *char);
                }
                Effect::Delete { char, ts, .. } => {
                    self.deleted_at.entry(*char).or_insert(*ts);
                }
                other => panic!("no step makes {other:?}"),
            }
        }
    }

    fn purge(&mut self, before: i64) {
        let gone = |c: &CharId| self.deleted_at.get(c).is_some_and(|&ts| ts < before);
        self.order.retain(|c| !gone(c));
        self.deleted_at.retain(|_, ts| *ts >= before);
    }
}

fn loaded_order(tdb: &TextDb, doc: DocId) -> Vec<CharId> {
    let mut order = Vec::new();
    (tdb.load(doc, UserId::NONE).unwrap()).for_each_char(|id, _| order.push(id));
    order
}

/// Run one step; a refused edit leaves the model alone and refreshes its
/// handle. Only a retryable refusal — the anchor was purged since the
/// handle last looked — or one about a character the handle still shows
/// but a purge removed is expected.
fn run(step: &Step, tdb: &TextDb, doc: DocId, handles: &mut [DocHandle], model: &mut Model) {
    let within = |h: &DocHandle, at: usize| at % (h.len() + 1);
    let done = match step {
        Step::Type { h, at, text } => {
            let handle = &mut handles[*h];
            (*h, handle.insert_text(within(handle, *at), text))
        }
        Step::Delete { h, at, len } => {
            let handle = &mut handles[*h];
            let at = within(handle, *at);
            (*h, handle.delete_range(at, (*len).min(handle.len() - at)))
        }
        Step::Refresh { h } => {
            handles[*h].refresh().unwrap();
            return;
        }
        Step::Purge => {
            let before = tdb.now();
            tdb.purge_tombstones(doc, before).unwrap();
            model.purge(before);
            return;
        }
    };
    match done {
        (_, Ok(receipt)) => model.commit(&receipt.effects),
        (h, Err(e)) => {
            assert!(
                e.is_retryable() || matches!(e, TextError::Storage(_)),
                "{step:?}: {e}"
            );
            handles[h].refresh().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_load_orders_every_insert_right_after_its_anchor(
        steps in proptest::collection::vec(arb_step(), 1..48),
    ) {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let mut handles: Vec<DocHandle> =
            (0..HANDLES).map(|_| tdb.open(doc, user).unwrap()).collect();
        let mut model = Model::default();
        for (i, step) in steps.iter().enumerate() {
            run(step, &tdb, doc, &mut handles, &mut model);
            prop_assert_eq!(loaded_order(&tdb, doc), model.order.clone(), "after step {}: {:?}", i, step);
        }
    }
}

/// A handle that missed a purge types after a character the purge
/// removed: the commit depends on the anchor row, so it fails retryably
/// and writes nothing; after a refresh the same keystroke lands.
#[test]
fn an_insert_after_a_purged_anchor_fails_retryably() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    h.insert_text(0, "abc").unwrap();
    let mut stale = tdb.open(doc, user).unwrap();
    h.delete_range(1, 1).unwrap();
    tdb.purge_tombstones(doc, tdb.now()).unwrap();
    let chars = tdb.database().table_stats();
    // `stale` still shows "b" and types after it.
    let err = stale.insert_text(2, "X").unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert_eq!(tdb.database().table_stats(), chars, "nothing was written");
    stale.refresh().unwrap();
    stale.insert_text(1, "X").unwrap();
    assert_eq!(tdb.load(doc, user).unwrap().text(), "aXc");
}

/// Reports every commit, and parks the first one inside its observer
/// call until released: applied, and in no snapshot yet.
struct Park {
    armed: AtomicBool,
    seen: Mutex<Sender<Ts>>,
    release: Mutex<Receiver<()>>,
}

impl CommitObserver for Park {
    fn committed(&self, commit_ts: Ts, _: &WriteSet<'_>) {
        self.seen.lock().unwrap().send(commit_ts).unwrap();
        if self.armed.swap(false, Ordering::SeqCst) {
            // A dropped sender releases the commit too: a test that fails
            // while it is parked does not hang.
            let _ = self.release.lock().unwrap().recv();
        }
    }
}

/// Runs `first` until its commit is applied and parked in a commit
/// observer, then `second` until it has taken its snapshot, which
/// cannot contain the parked commit; then lets that commit go and
/// returns both results. Commits run one at a time, so `second`
/// commits, or fails, only after `first` has.
fn overlapping<A: Send, B: Send>(
    tdb: &TextDb,
    first: impl FnOnce() -> A + Send,
    second: impl FnOnce() -> B + Send,
) -> (A, B) {
    let (seen, commits) = channel();
    let (release, on_release) = channel();
    let park: Arc<dyn CommitObserver> = Arc::new(Park {
        armed: AtomicBool::new(true),
        seen: Mutex::new(seen),
        release: Mutex::new(on_release),
    });
    let db = tdb.database();
    db.observe_commits(&park);
    std::thread::scope(|s| {
        let release = release;
        let first = s.spawn(first);
        let parked = commits.recv_timeout(Duration::from_secs(10));
        assert!(parked.is_ok(), "the first commit is applied");
        // `txns_begun` moves once a transaction holds its snapshot.
        let begun = db.stats().txns_begun;
        let second = s.spawn(second);
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.stats().txns_begun == begun {
            assert!(Instant::now() < deadline, "the second never began");
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        (first.join().unwrap(), second.join().unwrap())
    })
}

/// A purge whose snapshot misses an insert after one of its tombstones —
/// made by a handle that still showed the character — cannot remove that
/// tombstone: the insert depends on it, so the purge conflicts and the
/// document stays whole. The next purge keeps the now anchoring
/// tombstone's place.
#[test]
fn a_purge_that_missed_an_insert_on_its_tombstone_conflicts() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    h.insert_text(0, "abc").unwrap();
    let mut stale = tdb.open(doc, user).unwrap();
    h.delete_range(1, 1).unwrap();
    let before = tdb.now();
    let (typed, purged) = overlapping(
        &tdb,
        // `stale` still shows "b" and types after it.
        || stale.insert_text(2, "X").map(|r| r.effects.len()),
        || tdb.purge_tombstones(doc, before),
    );
    assert_eq!(typed.unwrap(), 1);
    let err = purged.unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert_eq!(tdb.load(doc, user).unwrap().text(), "aXc");
    assert_eq!(tdb.purge_tombstones(doc, before).unwrap().purged_chars, 1);
    assert_eq!(tdb.load(doc, user).unwrap().text(), "aXc");
}

/// A purge that re-anchors a survivor gives the new anchor a child, as
/// an insert does: an insert on that anchor from a snapshot without the
/// purge fails retryably, and lands after a refresh.
#[test]
fn a_purge_and_an_insert_that_hang_a_child_on_one_anchor_do_not_both_commit() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    h.insert_text(0, "abc").unwrap();
    h.delete_range(1, 1).unwrap();
    let before = tdb.now();
    let (purged, typed) = overlapping(
        &tdb,
        // "c" is re-anchored on "a".
        || tdb.purge_tombstones(doc, before).map(|p| p.relinked),
        || h.insert_text(1, "X").map(|_| ()),
    );
    assert_eq!(purged.unwrap(), 1);
    let err = typed.unwrap_err();
    assert!(err.is_retryable(), "{err}");
    h.refresh().unwrap();
    h.insert_text(1, "X").unwrap();
    assert_eq!(tdb.load(doc, user).unwrap().text(), "aXc");
}

/// Two inserts that hang from one anchor — a character, or the head —
/// from snapshots that overlap do not both commit: the second fails
/// retryably, and after a refresh lands in front of the first. So a
/// newer sibling always began after the older one committed, and its id
/// is the higher one, which is what a load orders siblings by.
#[test]
fn inserts_on_one_anchor_from_overlapping_snapshots_do_not_both_commit() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let (mut h1, mut h2) = (tdb.open(doc, user).unwrap(), tdb.open(doc, user).unwrap());
    for (at, text) in [(0, "base"), (2, "..")] {
        let (first, second) = overlapping(
            &tdb,
            || h1.insert_text(at, "A").map(|_| ()),
            || h2.insert_text(at, "B").map(|_| ()),
        );
        first.unwrap();
        let err = second.unwrap_err();
        assert!(err.is_retryable(), "{err}");
        h2.refresh().unwrap();
        h2.insert_text(at, "B").unwrap();
        h1.refresh().unwrap();
        h1.insert_text(0, text).unwrap();
        h2.refresh().unwrap();
    }
    assert_eq!(tdb.load(doc, user).unwrap().text(), "..baBAseBA");
}

/// Inserting writes exactly one `chars` version per new character —
/// typed runs, mid-text and head inserts, pastes and an object — and no
/// version of any character already there.
#[test]
fn chars_versions_per_inserted_character_are_one() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let other = tdb.create_document("e", user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    let mut src = tdb.open(other, user).unwrap();
    src.insert_text(0, "copied text").unwrap();
    let clip = src.copy(0, 6).unwrap();
    let versions = || {
        let stats = tdb.database().table_stats();
        stats.iter().find(|t| t.name == "chars").unwrap().versions
    };
    let before = versions();
    let mut inserted = 0;
    for (at, text) in [(0, "hello"), (5, " world"), (0, ">"), (6, ","), (3, "l")] {
        inserted += h.insert_text(at, text).unwrap().effects.len();
    }
    inserted += h.paste(4, &clip).unwrap().effects.len();
    inserted += h
        .paste_external(0, "web", "elsewhere")
        .unwrap()
        .effects
        .len();
    h.insert_object(2, "picture", "p.png", vec![1, 2, 3])
        .unwrap();
    inserted += 1;
    let per_char = (versions() - before) as f64 / inserted as f64;
    assert_eq!(per_char, 1.00, "{inserted} characters inserted");
}

/// A database whose `chars` rows still have `prev`/`next` links (what
/// every release before anchors wrote) is refused, typed, before anything
/// is written to it.
#[test]
fn a_catalog_with_linked_characters_is_refused_and_left_untouched() {
    let dir = std::env::temp_dir().join(format!("tendax-anchor-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.wal");
    {
        let db = Database::open(&path, Options::default()).unwrap();
        let linked = TableDef::new("chars")
            .column("doc", DataType::Id)
            .nullable_column("prev", DataType::Id)
            .nullable_column("next", DataType::Id)
            .column("ch", DataType::Text)
            .index("chars_by_doc", &["doc"]);
        let chars = db.create_table(linked).unwrap();
        let mut txn = db.begin();
        let row = vec![
            Value::Id(1),
            Value::Null,
            Value::Null,
            Value::Text("x".into()),
        ];
        txn.insert(chars, Row::new(row)).unwrap();
        txn.commit().unwrap();
        db.checkpoint().unwrap();
    }
    let files = || -> Vec<(PathBuf, Vec<u8>)> {
        let mut out: Vec<_> = (std::fs::read_dir(&dir).unwrap())
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(p).unwrap()))
            .collect();
        out.sort();
        out
    };
    let before = files();
    match TextDb::init(Database::open(&path, Options::default()).unwrap()) {
        Err(TextError::SchemaMismatch {
            table,
            found,
            expected,
        }) => {
            assert_eq!(table, "chars");
            assert!(found.contains("prev Id?, next Id?"), "{found}");
            assert!(
                expected.contains("doc Id, anchor Id?, ch Text"),
                "{expected}"
            );
        }
        other => panic!("a linked chars layout was not refused: {other:?}"),
    }
    assert_eq!(files(), before, "a refused database was written to");
    let db = Database::open(&path, Options::default()).unwrap();
    assert_eq!(db.table_names(), ["chars"]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
