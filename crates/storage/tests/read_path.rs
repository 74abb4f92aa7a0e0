//! Read-path tests: zero-copy row sharing, pushed-down predicate
//! accounting, and readers scanning concurrently with committing writers.
//!
//! The counters asserted here (`rows_scanned`, `rows_skipped_by_predicate`,
//! `point_gets`, `index_lookups`) are the observable contract of predicate
//! pushdown: a scan must examine every visible row exactly once and must
//! never materialize a row the predicate rejects.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tendax_storage::{
    DataType, Database, DurabilityLevel, Options, Predicate, Row, SharedRow, TableDef, Value,
};

fn doc_table() -> TableDef {
    TableDef::new("chars")
        .column("doc", DataType::Id)
        .column("seq", DataType::Int)
        .column("text", DataType::Text)
        .index("by_doc", &["doc"])
}

mod common;
use common::TestDir;

fn tmp(name: &str) -> (TestDir, PathBuf) {
    let dir = TestDir::new("tendax-readpath");
    let p = dir.file(name);
    (dir, p)
}

fn seed(db: &Database, docs: u64, per_doc: i64) -> tendax_storage::TableId {
    let t = db.create_table(doc_table()).unwrap();
    let mut txn = db.begin();
    for d in 0..docs {
        for i in 0..per_doc {
            txn.insert(
                t,
                Row::new(vec![
                    Value::Id(d),
                    Value::Int(i),
                    Value::Text(format!("doc{d}-{i}")),
                ]),
            )
            .unwrap();
        }
    }
    txn.commit().unwrap();
    t
}

// ------------------------------------------------------------ row sharing

#[test]
fn point_gets_share_one_committed_allocation() {
    let db = Database::open_in_memory();
    let t = seed(&db, 1, 1);
    let txn = db.begin();
    let rows = txn.scan(t, &Predicate::True).unwrap();
    let (rid, from_scan) = rows.into_iter().next().unwrap();

    let a = txn.get(t, rid).unwrap().unwrap();
    let b = txn.get(t, rid).unwrap().unwrap();
    assert!(
        SharedRow::ptr_eq(&a, &b),
        "two gets must share one allocation"
    );
    assert!(
        SharedRow::ptr_eq(&a, &from_scan),
        "scan and get must hand out the same committed version"
    );
}

#[test]
fn shared_row_survives_later_commits_and_vacuum() {
    let db = Database::open_in_memory();
    let t = seed(&db, 1, 1);
    let reader = db.begin();
    let (rid, before) = reader
        .scan(t, &Predicate::True)
        .unwrap()
        .into_iter()
        .next()
        .unwrap();

    // Overwrite the row and vacuum away old versions; the handle the
    // reader already holds must keep its original contents.
    let mut w = db.begin();
    w.set(t, rid, &[("text", Value::Text("rewritten".into()))])
        .unwrap();
    w.commit().unwrap();
    drop(reader); // snapshot released; vacuum may now reclaim the chain
    db.vacuum();

    assert_eq!(before.get(2).unwrap().as_text(), Some("doc0-0"));
    let after = db.begin().get(t, rid).unwrap().unwrap();
    assert_eq!(after.get(2).unwrap().as_text(), Some("rewritten"));
}

// ------------------------------------------------------- counter accounting

#[test]
fn scan_counters_balance_scanned_equals_returned_plus_skipped() {
    let db = Database::open_in_memory();
    let t = seed(&db, 4, 25); // 100 rows, 25 per doc
    let base = db.stats();

    let txn = db.begin();
    let hits = txn
        .scan(t, &Predicate::Eq("doc".into(), Value::Id(2)))
        .unwrap();
    assert_eq!(hits.len(), 25);

    let s = db.stats();
    let scanned = s.rows_scanned - base.rows_scanned;
    let skipped = s.rows_skipped_by_predicate - base.rows_skipped_by_predicate;
    assert_eq!(
        scanned,
        hits.len() as u64 + skipped,
        "every scanned row is either returned or skipped"
    );
    assert!(scanned >= hits.len() as u64);
}

#[test]
fn full_scan_skips_nothing_and_counts_every_row() {
    let db = Database::open_in_memory();
    let t = seed(&db, 2, 10);
    let base = db.stats();

    let txn = db.begin();
    let rows = txn.scan(t, &Predicate::True).unwrap();
    assert_eq!(rows.len(), 20);

    let s = db.stats();
    assert_eq!(s.rows_scanned - base.rows_scanned, 20);
    assert_eq!(s.rows_skipped_by_predicate, base.rows_skipped_by_predicate);
}

#[test]
fn point_get_and_index_counters_tick() {
    let db = Database::open_in_memory();
    let t = seed(&db, 2, 5);
    let base = db.stats();

    let txn = db.begin();
    let rows = txn.index_lookup(t, "by_doc", &[Value::Id(1)]).unwrap();
    assert_eq!(rows.len(), 5);
    for (rid, _) in &rows {
        assert!(txn.get(t, *rid).unwrap().is_some());
    }

    let s = db.stats();
    assert_eq!(s.index_lookups - base.index_lookups, 1);
    assert_eq!(s.point_gets - base.point_gets, 5);
}

// --------------------------------------------- concurrent readers + writers

/// Readers repeatedly full-scan while writers append in ascending `seq`
/// order. Snapshot isolation means each scan must see a consistent prefix
/// of every writer's stream: per writer, exactly the values `0..n` for
/// some n, never a gap. Runs in memory (`None`) and at both durability
/// levels.
fn readers_see_consistent_prefixes(durability: Option<DurabilityLevel>, name: &str) {
    let (db, _dir) = match durability {
        None => (Database::open_in_memory(), None),
        Some(durability) => {
            let opts = Options {
                durability,
                ..common::options()
            };
            let (dir, path) = tmp(name);
            (Database::open(path, opts).unwrap(), Some(dir))
        }
    };
    let t = db.create_table(doc_table()).unwrap();

    const WRITERS: u64 = 2;
    const READERS: usize = 4;
    const OPS: i64 = if cfg!(debug_assertions) { 120 } else { 400 };

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let db = db.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin();
                let rows = txn.scan(t, &Predicate::True).unwrap();
                let mut seqs: Vec<Vec<i64>> = vec![Vec::new(); WRITERS as usize];
                for (_, r) in &rows {
                    let w = r.get(0).unwrap().as_id().unwrap() as usize;
                    seqs[w].push(r.get(1).unwrap().as_int().unwrap());
                }
                for (w, s) in seqs.iter().enumerate() {
                    // Writers insert in order inside one txn each, so a
                    // snapshot sees a prefix 0..n of writer w's stream.
                    let want: Vec<i64> = (0..s.len() as i64).collect();
                    assert_eq!(*s, want, "writer {w}: scan saw a gap");
                }
                scans += 1;
            }
            scans
        }));
    }

    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let db = db.clone();
        writers.push(std::thread::spawn(move || {
            for i in 0..OPS {
                let mut txn = db.begin();
                txn.insert(
                    t,
                    Row::new(vec![
                        Value::Id(w),
                        Value::Int(i),
                        Value::Text("x".repeat(16)),
                    ]),
                )
                .unwrap();
                txn.commit().unwrap();
            }
        }));
    }
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total_scans: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_scans > 0, "readers never completed a scan");

    let final_rows = db.begin().scan(t, &Predicate::True).unwrap();
    assert_eq!(final_rows.len() as i64, WRITERS as i64 * OPS);

    // Full-scan counters must balance globally: with Predicate::True
    // nothing is ever skipped, and the final scan alone examined every
    // committed row. (Taken after that scan: the racing readers may all
    // have scanned before the first commit landed.)
    let s = db.stats();
    assert_eq!(s.rows_skipped_by_predicate, 0);
    assert!(s.rows_scanned >= final_rows.len() as u64);
}

#[test]
fn concurrent_scans_consistent_prefix_in_memory() {
    readers_see_consistent_prefixes(None, "");
}

#[test]
fn concurrent_scans_consistent_prefix_buffered() {
    readers_see_consistent_prefixes(Some(DurabilityLevel::Buffered), "prefix-buffered.wal");
}

#[test]
fn concurrent_scans_consistent_prefix_fsync() {
    readers_see_consistent_prefixes(Some(DurabilityLevel::Fsync), "prefix-fsync.wal");
}

/// A filtered scan racing writers still balances its per-scan accounting:
/// scanned = returned + skipped for the delta of a single transaction
/// (measured single-threadedly after the race to keep deltas exact).
#[test]
fn filtered_scan_accounting_after_concurrent_load() {
    let db = Database::open_in_memory();
    let t = seed(&db, 3, 40);

    let base = db.stats();
    let txn = db.begin();
    let hits = txn
        .scan(t, &Predicate::Eq("doc".into(), Value::Id(0)))
        .unwrap();
    let s = db.stats();
    assert_eq!(
        s.rows_scanned - base.rows_scanned,
        hits.len() as u64 + (s.rows_skipped_by_predicate - base.rows_skipped_by_predicate)
    );
}

// --------------------------------- index reads vs. a brute-force scan filter

/// The equivalence the one-pass index read owes its callers: on any
/// schedule, `index_lookup`, `index_range` and `count` return what
/// filtering a full scan returns — same rows, same order — whether the
/// read takes the direct index walk (no own writes, snapshot at or above
/// the cold floor) or the materialize-and-merge path (own uncommitted
/// writes, or a `begin_at` snapshot below the floor).
mod index_reads_match_scan {
    use std::ops::Bound;

    use proptest::prelude::*;
    use tendax_storage::{
        ColdOptions, DataType, Database, Options, Predicate, Row, RowId, TableDef, TableId,
        Transaction, Ts, Value,
    };

    use super::tmp;

    /// Small domains, so keys collide and updates move rows between keys
    /// (leaving the stale entries that make the index a strict superset).
    const KEYS: u64 = 4;
    const GROUPS: i64 = 3;

    #[derive(Debug, Clone)]
    enum Write {
        Insert {
            k: u64,
            g: i64,
        },
        /// Re-key the `pick`-th visible row (if any).
        Rekey {
            pick: usize,
            k: u64,
            g: i64,
        },
        Delete {
            pick: usize,
        },
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// One committed transaction.
        Commit(Vec<Write>),
        Vacuum,
        /// Compare every index read with the scan filter: in a fresh
        /// transaction or one pinned at the `at`-th earlier commit, after
        /// buffering `own` uncommitted writes.
        Check {
            at: Option<usize>,
            own: Vec<Write>,
            k: u64,
            lo: (u64, i64),
            hi: (u64, i64),
        },
    }

    fn arb_write() -> impl Strategy<Value = Write> {
        prop_oneof![
            3 => (0..KEYS, 0..GROUPS).prop_map(|(k, g)| Write::Insert { k, g }),
            3 => (any::<usize>(), 0..KEYS, 0..GROUPS)
                .prop_map(|(pick, k, g)| Write::Rekey { pick, k, g }),
            1 => any::<usize>().prop_map(|pick| Write::Delete { pick }),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let key = || (0..KEYS, 0..GROUPS);
        prop_oneof![
            6 => proptest::collection::vec(arb_write(), 1..4).prop_map(Step::Commit),
            1 => Just(Step::Vacuum),
            3 => (
                proptest::option::of(any::<usize>()),
                proptest::collection::vec(arb_write(), 0..3),
                0..KEYS,
                key(),
                key(),
            )
                .prop_map(|(at, own, k, lo, hi)| Step::Check { at, own, k, lo, hi }),
        ]
    }

    fn table() -> TableDef {
        TableDef::new("t")
            .column("k", DataType::Id)
            .column("g", DataType::Int)
            .column("v", DataType::Text)
            .index("by_k", &["k"])
            .index("by_k_g", &["k", "g"])
    }

    fn apply(txn: &mut Transaction, t: TableId, w: &Write, serial: &mut u64) {
        *serial += 1;
        let row = |k: u64, g: i64| {
            Row::new(vec![
                Value::Id(k),
                Value::Int(g),
                Value::Text(format!("v{serial}")),
            ])
        };
        let visible = |txn: &Transaction| txn.scan(t, &Predicate::True).unwrap();
        match *w {
            Write::Insert { k, g } => {
                txn.insert(t, row(k, g)).unwrap();
            }
            Write::Rekey { pick, k, g } => {
                let rows = visible(txn);
                if !rows.is_empty() {
                    txn.update(t, rows[pick % rows.len()].0, row(k, g)).unwrap();
                }
            }
            Write::Delete { pick } => {
                let rows = visible(txn);
                if !rows.is_empty() {
                    txn.delete(t, rows[pick % rows.len()].0).unwrap();
                }
            }
        }
    }

    type Rows = Vec<(RowId, Vec<Value>)>;

    fn plain(rows: Vec<(RowId, tendax_storage::SharedRow)>) -> Rows {
        rows.into_iter()
            .map(|(rid, row)| (rid, row.values().to_vec()))
            .collect()
    }

    /// The reference: every row the transaction sees, filtered by its key
    /// under `cols`, in (key, row id) order.
    fn brute(
        txn: &Transaction,
        t: TableId,
        cols: &[usize],
        keep: impl Fn(&[Value]) -> bool,
    ) -> Rows {
        let mut keyed: Vec<(Vec<Value>, RowId, Vec<Value>)> =
            plain(txn.scan(t, &Predicate::True).unwrap())
                .into_iter()
                .map(|(rid, values)| {
                    let key: Vec<Value> = cols.iter().map(|&c| values[c].clone()).collect();
                    (key, rid, values)
                })
                .filter(|(key, ..)| keep(key))
                .collect();
        keyed.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        keyed.into_iter().map(|(_, rid, v)| (rid, v)).collect()
    }

    fn check(txn: &Transaction, t: TableId, k: u64, lo: (u64, i64), hi: (u64, i64)) {
        let key = vec![Value::Id(k)];
        assert_eq!(
            plain(txn.index_lookup(t, "by_k", &key).unwrap()),
            brute(txn, t, &[0], |found| found == key.as_slice()),
            "index_lookup(by_k, {k})"
        );

        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let lo = vec![Value::Id(lo.0), Value::Int(lo.1)];
        let hi = vec![Value::Id(hi.0), Value::Int(hi.1)];
        assert_eq!(
            plain(
                txn.index_range(t, "by_k_g", Bound::Included(&lo), Bound::Excluded(&hi))
                    .unwrap()
            ),
            brute(txn, t, &[0, 1], |found| found >= lo.as_slice()
                && found < hi.as_slice()),
            "index_range(by_k_g, {lo:?}..{hi:?})"
        );
        assert_eq!(
            plain(
                txn.index_range(t, "by_k_g", Bound::Unbounded, Bound::Included(&hi))
                    .unwrap()
            ),
            brute(txn, t, &[0, 1], |found| found <= hi.as_slice()),
            "index_range(by_k_g, ..={hi:?})"
        );

        // A prefix of `by_k_g` (deduplicating walk), a whole key (one
        // row-id set) and a full scan.
        let by_k = Predicate::Eq("k".into(), Value::Id(k));
        let by_k_g = by_k.clone().and(Predicate::Eq("g".into(), hi[1].clone()));
        for pred in [by_k, by_k_g, Predicate::True] {
            assert_eq!(
                txn.count(t, &pred).unwrap(),
                txn.scan(t, &pred).unwrap().len(),
                "count({pred:?})"
            );
        }
    }

    fn run(db: &Database, steps: &[Step]) {
        let t = db.create_table(table()).unwrap();
        let mut serial = 0u64;
        let mut commits: Vec<Ts> = Vec::new();
        for step in steps {
            match step {
                Step::Commit(writes) => {
                    let mut txn = db.begin();
                    for w in writes {
                        apply(&mut txn, t, w, &mut serial);
                    }
                    commits.push(txn.commit().unwrap());
                }
                Step::Vacuum => {
                    db.vacuum();
                }
                Step::Check { at, own, k, lo, hi } => {
                    let pinned = at
                        .filter(|_| !commits.is_empty())
                        .map(|at| commits[at % commits.len()]);
                    let mut txn = match pinned {
                        None => db.begin(),
                        // Pruned past the pinned snapshot: nothing to compare.
                        Some(ts) => match db.begin_at(ts) {
                            Ok(txn) => txn,
                            Err(_) => continue,
                        },
                    };
                    for w in own {
                        apply(&mut txn, t, w, &mut serial);
                    }
                    check(&txn, t, *k, *lo, *hi);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// RAM only: vacuum prunes, so a stale pin is `SnapshotTooOld`.
        #[test]
        fn on_the_hot_tier(steps in proptest::collection::vec(arb_step(), 1..40)) {
            run(&Database::open_in_memory(), &steps);
        }

        /// Cold tier on with a tiny budget: every vacuum demotes, so pinned
        /// snapshots below the floor read through the merged tiers.
        #[test]
        fn across_cold_demotion(steps in proptest::collection::vec(arb_step(), 1..40)) {
            let (_dir, path) = tmp("equivalence.wal");
            let options = Options {
                cold_storage: Some(ColdOptions {
                    memtable_version_budget: 4,
                    block_bytes: 256,
                    bloom_bits_per_key: 10,
                    compact_min_runs: 2,
                }),
                ..Options::default()
            };
            run(&Database::open(&path, options).unwrap(), &steps);
        }
    }
}
