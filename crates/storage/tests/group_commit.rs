//! Group-commit and crash-recovery integration tests: torn WAL tails
//! repaired on reopen, concurrent committers at both durability levels,
//! and fsync amortization under contention.

use std::path::PathBuf;

use tendax_storage::wal::{segment_path, WalIter};
use tendax_storage::{
    DataType, Database, DurabilityLevel, Options, Predicate, Row, RowId, StorageError, TableDef,
    Value,
};

mod common;
use common::TestDir;

fn tmp(name: &str) -> (TestDir, PathBuf) {
    let dir = TestDir::new("tendax-group-it");
    let p = dir.file(name);
    (dir, p)
}

fn opts(durability: DurabilityLevel) -> Options {
    Options {
        durability,
        ..Options::default()
    }
}

fn seq_table() -> TableDef {
    TableDef::new("t")
        .column("writer", DataType::Id)
        .column("seq", DataType::Int)
        .index("by_writer", &["writer"])
}

fn insert_seq(db: &Database, t: tendax_storage::TableId, writer: u64, seq: i64) {
    let mut txn = db.begin();
    txn.insert(t, Row::new(vec![Value::Id(writer), Value::Int(seq)]))
        .unwrap();
    txn.commit().unwrap();
}

fn count_rows(db: &Database) -> usize {
    let t = db.table_id("t").unwrap();
    db.begin().count(t, &Predicate::True).unwrap()
}

// ------------------------------------------------------------ torn tails

/// Crash-recovery satellite: a torn tail (partial final frame) must be
/// detected, truncated away on reopen *before* new records are appended,
/// and the repaired log must replay cleanly on a second reopen. A buggy
/// reopen that appends after the torn bytes would turn the tail into
/// mid-log corruption and fail the final replay.
fn torn_tail_roundtrip(durability: DurabilityLevel, name: &str) {
    let (_dir, path) = tmp(name);
    {
        let db = Database::open(&path, opts(durability)).unwrap();
        let t = db.create_table(seq_table()).unwrap();
        for i in 0..5 {
            insert_seq(&db, t, 0, i);
        }
    }
    // Inject a torn tail: a frame header promising 100 payload bytes,
    // followed by only a few — exactly what a crash mid-`write` leaves.
    let mut data = std::fs::read(&path).unwrap();
    let before = data.len();
    data.extend_from_slice(&100u32.to_le_bytes());
    data.extend_from_slice(&0xdead_beefu32.to_le_bytes());
    data.extend_from_slice(&[0xab; 7]);
    std::fs::write(&path, &data).unwrap();

    {
        let db = Database::open(&path, opts(durability)).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            before as u64,
            "the torn tail was not cut at open"
        );
        assert_eq!(count_rows(&db), 5, "torn tail must not eat whole commits");
        let t = db.table_id("t").unwrap();
        insert_seq(&db, t, 0, 5);
    }
    // If the tail was truncated before appending, the file shrank back to
    // `before` and grew by exactly the new commit.
    assert!(
        std::fs::metadata(&path).unwrap().len() >= before as u64,
        "repaired log lost committed data"
    );
    let db = Database::open(&path, opts(durability)).unwrap();
    let t = db.table_id("t").unwrap();
    let rows = db.begin().scan(t, &Predicate::True).unwrap();
    let mut seqs: Vec<i64> = rows
        .iter()
        .map(|(_, r)| r.get(1).unwrap().as_int().unwrap())
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..6).collect::<Vec<_>>());
}

#[test]
fn torn_tail_repaired_then_appendable_buffered() {
    torn_tail_roundtrip(DurabilityLevel::Buffered, "torn-buffered.wal");
}

#[test]
fn torn_tail_repaired_then_appendable_fsync() {
    torn_tail_roundtrip(DurabilityLevel::Fsync, "torn-fsync.wal");
}

// ------------------------------------------------------------ room

fn file_len(path: &PathBuf) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// At `Fsync` the log keeps zeroed room ahead of its last frame while it
/// is open; a clean close gives it back, so the file at rest is exactly
/// the frames written.
#[test]
fn a_clean_close_gives_the_room_back() {
    let (_dir, path) = tmp("room.wal");
    let db = Database::open(&path, opts(DurabilityLevel::Fsync)).unwrap();
    let t = db.create_table(seq_table()).unwrap();
    for i in 0..20 {
        insert_seq(&db, t, 0, i);
    }
    let frames = db.wal_size().0;
    assert!(
        file_len(&path) > frames,
        "no room ahead of {frames} bytes of frames"
    );
    drop(db);
    assert_eq!(file_len(&path), frames);
    let db = Database::open(&path, opts(DurabilityLevel::Fsync)).unwrap();
    assert_eq!(count_rows(&db), 20);
}

/// The names of the files in `dir`, sorted.
fn files_in(dir: &TestDir) -> Vec<String> {
    let mut names: Vec<String> = (std::fs::read_dir(dir.path()).unwrap())
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// A checkpoint leaves the base and one segment of only its format
/// frame, both exact: no room, the segments it covers removed before it
/// returns. Room comes back with the next append, and goes again at the
/// clean close.
#[test]
fn a_checkpoint_image_is_exact_until_the_next_append() {
    let (dir, path) = tmp("room-ckpt.wal");
    let db = Database::open(&path, opts(DurabilityLevel::Fsync)).unwrap();
    let t = db.create_table(seq_table()).unwrap();
    for i in 0..20 {
        insert_seq(&db, t, 0, i);
    }
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    assert_eq!(files_in(&dir), ["room-ckpt.wal", "room-ckpt.wal.seg2"]);
    let segment = segment_path(&path, 2);
    assert_eq!(file_len(&segment), 10, "a segment of its format frame");
    assert_eq!(db.wal_size(), (10, 0));
    let base = std::fs::read(&path).unwrap();
    assert!(WalIter::new(&base).all(|rec| rec.is_ok()));
    insert_seq(&db, t, 0, 20);
    let frames = db.wal_size().0;
    assert!(file_len(&segment) > frames, "the append reserved no room");
    drop(db);
    assert_eq!(file_len(&segment), frames);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        base,
        "the base is not written"
    );
    // Opening holds the base and each sealed segment to ending exactly at
    // a frame: a byte past the base's last frame is corruption.
    let db = Database::open(&path, opts(DurabilityLevel::Fsync)).unwrap();
    assert_eq!(count_rows(&db), 21);
    drop(db);
    std::fs::write(&path, [&base[..], &[0]].concat()).unwrap();
    assert!(matches!(
        Database::open(&path, opts(DurabilityLevel::Fsync)),
        Err(StorageError::WalCorrupt { .. })
    ));
}

/// Zeros past the last frame — room a crash kept from a clean close —
/// are not cut at open: writing resumes at the last frame's end, inside
/// them, at either level, and the clean close gives back what is left.
fn zero_tail_is_room(durability: DurabilityLevel, name: &str) {
    let (_dir, path) = tmp(name);
    {
        let db = Database::open(&path, opts(durability)).unwrap();
        let t = db.create_table(seq_table()).unwrap();
        insert_seq(&db, t, 0, 0);
    }
    let frames = file_len(&path);
    let mut data = std::fs::read(&path).unwrap();
    data.resize(data.len() + 4096, 0);
    std::fs::write(&path, &data).unwrap();
    {
        let db = Database::open(&path, opts(durability)).unwrap();
        assert_eq!(file_len(&path), frames + 4096, "the room was cut at open");
        let t = db.table_id("t").unwrap();
        insert_seq(&db, t, 0, 1);
        assert_eq!(file_len(&path), frames + 4096, "the frame missed the room");
        assert_eq!(count_rows(&db), 2);
        drop(db);
    }
    let after = std::fs::read(&path).unwrap();
    assert_eq!(after[..frames as usize], data[..frames as usize]);
    assert!(after.len() as u64 > frames && after.len() < data.len());
    assert_ne!(after.last(), Some(&0), "room left at rest");
    let db = Database::open(&path, opts(durability)).unwrap();
    assert_eq!(count_rows(&db), 2);
}

#[test]
fn a_zero_tail_is_kept_as_room_buffered() {
    zero_tail_is_room(DurabilityLevel::Buffered, "zeros-buffered.wal");
}

#[test]
fn a_zero_tail_is_kept_as_room_fsync() {
    zero_tail_is_room(DurabilityLevel::Fsync, "zeros-fsync.wal");
}

/// Opening a cleanly closed log moves no bytes and syncs nothing: there
/// is no torn tail to cut.
#[test]
fn reopening_a_clean_log_charges_no_io() {
    for durability in [DurabilityLevel::Buffered, DurabilityLevel::Fsync] {
        let vfs = tendax_storage::SimVfs::new(1);
        let opts = || Options {
            vfs: std::sync::Arc::new(vfs.clone()),
            ..opts(durability)
        };
        {
            let db = Database::open("/sim/clean.wal", opts()).unwrap();
            let t = db.create_table(seq_table()).unwrap();
            insert_seq(&db, t, 0, 0);
        }
        let before = vfs.ops();
        let db = Database::open("/sim/clean.wal", opts()).unwrap();
        assert_eq!(vfs.ops(), before, "{durability:?}");
        assert_eq!(count_rows(&db), 1);
    }
}

/// At `Fsync` a batch that lands inside the log's zeroed room costs one
/// `sync_data` and no `sync_all`: its data blocks, no size change. A
/// batch that outgrows the room costs one `sync_all` more, for the room
/// it writes and sizes first. (A room grown without its `sync_all` fails
/// here.)
#[test]
fn a_batch_in_the_room_syncs_its_data_only() {
    let vfs = tendax_storage::SimVfs::new(1);
    let opts = Options {
        vfs: std::sync::Arc::new(vfs.clone()),
        ..opts(DurabilityLevel::Fsync)
    };
    let db = Database::open("/sim/room.wal", opts).unwrap();
    let t = db.create_table(seq_table()).unwrap();
    let blobs = db
        .create_table(TableDef::new("blobs").column("bytes", DataType::Bytes))
        .unwrap();
    insert_seq(&db, t, 0, 0);
    let cost = |commit: &dyn Fn()| {
        let before = vfs.syncs();
        commit();
        let after = vfs.syncs();
        (after.data - before.data, after.all - before.all)
    };
    for seq in 1..4 {
        assert_eq!(cost(&|| insert_seq(&db, t, 0, seq)), (1, 0), "in the room");
    }
    let grow = || {
        let mut txn = db.begin();
        let row = Row::new(vec![Value::Bytes(vec![7; 80 << 10])]);
        txn.insert(blobs, row).unwrap();
        txn.commit().unwrap();
    };
    assert_eq!(cost(&grow), (1, 1), "past the room");
    assert_eq!(
        cost(&|| insert_seq(&db, t, 0, 4)),
        (1, 0),
        "in the new room"
    );
}

// ------------------------------------------------- concurrent commit stress

/// Stress satellite: N threads mixing disjoint write-sets (must all
/// commit) with single-attempt updates to shared rows (first committer
/// wins; losers surface `WriteConflict` and are counted). Afterwards the
/// engine's books must balance: conflict counter equals observed losses,
/// shared-row values equal observed wins, no leaked active transactions,
/// the vacuum horizon returns to `last_commit_ts` (a second vacuum finds
/// nothing), and a reopen replays exactly the in-memory committed state.
fn stress_level(durability: DurabilityLevel, name: &str) {
    const THREADS: u64 = 4;
    const ROUNDS: i64 = 25;

    let (_dir, path) = tmp(name);
    let db = Database::open(&path, opts(durability)).unwrap();
    let t = db.create_table(seq_table()).unwrap();
    let shared: Vec<RowId> = {
        let mut setup = db.begin();
        let rows = (0..2u64)
            .map(|w| {
                setup
                    .insert(t, Row::new(vec![Value::Id(w), Value::Int(0)]))
                    .unwrap()
            })
            .collect();
        setup.commit().unwrap();
        rows
    };

    let mut handles = Vec::new();
    for w in 0..THREADS {
        let db = db.clone();
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            let mut wins = 0u64;
            let mut losses = 0u64;
            for i in 0..ROUNDS {
                // Disjoint write-set: unique (writer, seq) row, no
                // possible conflict — must always commit.
                insert_seq(&db, t, 100 + w, i);
                // Overlapping write-set: bump a shared row, one attempt.
                let rid = shared[(i as usize) % shared.len()];
                let mut txn = db.begin();
                let cur = txn
                    .get(t, rid)
                    .unwrap()
                    .unwrap()
                    .get(1)
                    .unwrap()
                    .as_int()
                    .unwrap();
                txn.set(t, rid, &[("seq", Value::Int(cur + 1))]).unwrap();
                match txn.commit() {
                    Ok(_) => wins += 1,
                    Err(tendax_storage::StorageError::WriteConflict { .. }) => losses += 1,
                    Err(e) => panic!("unexpected commit error: {e}"),
                }
            }
            (wins, losses)
        }));
    }
    let mut wins = 0u64;
    let mut losses = 0u64;
    for h in handles {
        let (w, l) = h.join().unwrap();
        wins += w;
        losses += l;
    }
    assert_eq!(wins + losses, THREADS * ROUNDS as u64);

    let stats = db.stats();
    assert_eq!(stats.conflicts, losses, "conflict counter out of balance");
    assert_eq!(stats.active_txns, 0, "leaked active transactions");
    // 1 setup + disjoint inserts + shared-row wins.
    assert_eq!(stats.commits, 1 + THREADS * ROUNDS as u64 + wins);

    // Shared-row totals equal the observed wins (no lost updates).
    let reader = db.begin();
    let total: i64 = shared
        .iter()
        .map(|&rid| {
            reader
                .get(t, rid)
                .unwrap()
                .unwrap()
                .get(1)
                .unwrap()
                .as_int()
                .unwrap()
        })
        .sum();
    assert_eq!(total as u64, wins, "lost or phantom increments");
    drop(reader);

    // With no active snapshots the vacuum horizon is last_commit_ts:
    // one pass prunes all superseded versions, a second finds nothing.
    db.vacuum();
    assert_eq!(
        db.vacuum(),
        0,
        "vacuum horizon did not return to last_commit_ts"
    );

    // Reopen: WAL replay must reconstruct the in-memory committed state.
    let mut expect: Vec<(u64, i64)> = db
        .begin()
        .scan(t, &Predicate::True)
        .unwrap()
        .iter()
        .map(|(_, r)| {
            (
                r.get(0).unwrap().as_id().unwrap(),
                r.get(1).unwrap().as_int().unwrap(),
            )
        })
        .collect();
    expect.sort_unstable();
    drop(db);

    let db = Database::open(&path, opts(durability)).unwrap();
    let t = db.table_id("t").unwrap();
    let mut got: Vec<(u64, i64)> = db
        .begin()
        .scan(t, &Predicate::True)
        .unwrap()
        .iter()
        .map(|(_, r)| {
            (
                r.get(0).unwrap().as_id().unwrap(),
                r.get(1).unwrap().as_int().unwrap(),
            )
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect, "replayed state diverges from committed state");
}

#[test]
fn concurrent_commits_balance_books_buffered() {
    stress_level(DurabilityLevel::Buffered, "stress-buffered.wal");
}

#[test]
fn concurrent_commits_balance_books_fsync() {
    stress_level(DurabilityLevel::Fsync, "stress-fsync.wal");
}

// -------------------------------------------------------------- batching

/// With >= 4 committers racing at `Fsync`, flush leaders must absorb
/// followers: the mean batch exceeds one record and at least one fsync
/// is saved versus flush-per-commit. And the log's counters account for
/// the file: every byte it grew by was flushed in a counted batch, one
/// sync each.
#[test]
fn group_commit_batches_under_concurrency() {
    const THREADS: u64 = 4;
    const OPS: i64 = 40;

    let (_dir, path) = tmp("batching.wal");
    let db = Database::open(&path, opts(DurabilityLevel::Fsync)).unwrap();
    let t = db.create_table(seq_table()).unwrap();
    let wal_before = (db.wal_size().0, db.wal_shard_stats()[0]);

    let mut handles = Vec::new();
    for w in 0..THREADS {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..OPS {
                insert_seq(&db, t, w, i);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = db.stats();
    assert!(
        stats.wal_records_flushed >= THREADS * OPS as u64,
        "records unaccounted for: {stats:?}"
    );
    assert!(
        stats.wal_batches_flushed < stats.wal_records_flushed,
        "mean batch size is 1 — group commit never grouped: {stats:?}"
    );
    assert!(stats.wal_fsyncs_saved > 0, "no fsyncs amortized: {stats:?}");
    let wal = db.wal_shard_stats()[0];
    assert_eq!(
        wal.bytes_flushed - wal_before.1.bytes_flushed,
        db.wal_size().0 - wal_before.0,
        "bytes the file grew by that no batch counted"
    );
    assert_eq!(wal.fsyncs, wal.batches_flushed);
    assert_eq!(count_rows(&db), (THREADS * OPS as u64) as usize);
}

// ------------------------------------------------- commit_visible + wait

/// `commit` is `commit_visible` plus the wait for the disk. Between the
/// two the commit is visible to every new snapshot, and a caller that
/// serialises its commits behind a lock of its own — a live document —
/// can let go of the lock first: commits made visible back to back then
/// reach the disk in one flush instead of one each.
#[test]
fn visible_commits_share_the_flush_their_waits_trigger() {
    let (_dir, path) = tmp("visible.wal");
    {
        let db = Database::open(&path, opts(DurabilityLevel::Fsync)).unwrap();
        let t = db.create_table(seq_table()).unwrap();
        let before = db.stats();
        let mut owed = Vec::new();
        for seq in 0..3 {
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Id(7), Value::Int(seq)]))
                .unwrap();
            let (ts, durability) = txn.commit_visible().unwrap();
            // Visible before it is durable, to a snapshot taken now.
            assert!(db.begin().snapshot_ts() >= ts);
            assert_eq!(count_rows(&db), seq as usize + 1);
            owed.push(durability);
        }
        for durability in owed {
            durability.wait().unwrap();
        }
        let after = db.stats();
        assert_eq!(after.commits - before.commits, 3);
        assert_eq!(after.wal_records_flushed - before.wal_records_flushed, 3);
        assert_eq!(
            after.wal_batches_flushed - before.wal_batches_flushed,
            1,
            "the first wait flushes what all three staged"
        );
    }
    let db = Database::open(&path, opts(DurabilityLevel::Fsync)).unwrap();
    assert_eq!(count_rows(&db), 3);
}
