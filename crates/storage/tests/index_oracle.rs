//! The index oracle (DESIGN.md §5.1, "Recovery"): recovery replays the
//! log into the row slots only and builds each index once, and vacuum
//! rebuilds with the same builder, so neither ever inserts an entry the
//! way a commit does. Random histories — inserts, patches, deletes,
//! vacuums, a checkpoint at a random point with a tail of commits after
//! it, a table created after the base — are reopened at random points.
//!
//! * After every step that builds or rebuilds (a vacuum, a reopen),
//!   `Database::check_indexes` holds: each index equals, entry for
//!   entry, a fresh build over the versions RAM holds. Before
//!   any vacuum it compares the trees commits grew one insert at a time
//!   with the builder.
//! * A reopen reads, through every index, what the database it replaced
//!   read: the same entries whose row's newest version carries their key.
//! * Vacuumed to their newest versions, the database that was closed and
//!   the one reopened hold the same entries, entry for entry. (Before
//!   that they differ by design: a checkpoint's base keeps no history,
//!   and a vacuum is not logged.)
//!
//! A patch inserts its row only into the indexes over a column it wrote
//! (DESIGN.md §5.2): in any other the entry of the version below, the
//! row's newest until then, carries its key. The histories patch an
//! unindexed column alone as well as indexed ones, and run once more with
//! the cold tier on, where a vacuum demotes the superseded versions
//! before it prunes them: each index must still equal a fresh build.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the history.

mod common;

use std::collections::BTreeMap;

use common::TestDir;
use proptest::prelude::*;
use tendax_storage::index::KeyLayout;
use tendax_storage::{
    ColdOptions, DataType, Database, Options, Row, RowId, SharedRow, TableDef, TableId, Value,
    ValueRef,
};

/// The table every history starts with: an index of each slot width (one
/// word pair, three words, four words, boxed), nullable and `Bool`
/// columns so that entries are not word-aligned.
fn notes_def() -> TableDef {
    TableDef::new("notes")
        .column("doc", DataType::Id)
        .column("seq", DataType::Int)
        .nullable_column("tag", DataType::Text)
        .nullable_column("at", DataType::Timestamp)
        .column("flag", DataType::Bool)
        .index("by_doc", &["doc"])
        .index("by_flag_doc", &["flag", "doc"])
        .index("by_doc_at", &["doc", "at"])
        .index("by_tag", &["tag"])
}

/// The table a history creates later, after a checkpoint if it took one.
fn late_def() -> TableDef {
    TableDef::new("late")
        .column("k", DataType::Id)
        .column("v", DataType::Int)
        .index("by_k", &["k"])
}

#[derive(Debug, Clone)]
enum Step {
    /// A transaction of `rows` inserts into the notes (or the late table).
    Insert {
        late: bool,
        rows: u64,
    },
    /// A patch of the `pick`-th live row's `seq`, which no index covers,
    /// and of `flag` and `doc` as `indexed` says (0 none, 1 `flag`, 2
    /// both).
    Patch {
        pick: u64,
        indexed: u8,
    },
    /// A delete of the `pick`-th live row.
    Delete {
        late: bool,
        pick: u64,
    },
    Vacuum,
    Checkpoint,
    CreateLate,
    Reopen,
}

#[derive(Debug)]
struct History {
    steps: Vec<Step>,
    seed: u64,
}

struct Histories;

impl Strategy for Histories {
    type Value = History;

    fn generate(&self, rng: &mut TestRng) -> History {
        let steps = (0..8 + rng.below(40))
            .map(|_| match rng.below(20) {
                0..=6 => Step::Insert {
                    late: rng.below(3) == 0,
                    rows: 1 + rng.below(6),
                },
                7..=9 => Step::Patch {
                    pick: rng.next_u64(),
                    indexed: rng.below(3) as u8,
                },
                10..=11 => Step::Delete {
                    late: rng.below(3) == 0,
                    pick: rng.next_u64(),
                },
                12..=13 => Step::Vacuum,
                14..=15 => Step::Checkpoint,
                16 => Step::CreateLate,
                _ => Step::Reopen,
            })
            .collect();
        History {
            steps,
            seed: rng.next_u64(),
        }
    }
}

/// A notes row from a few random bits: few docs and tags, so keys
/// repeat, and NULLs often.
fn note(rng: &mut TestRng, seq: i64) -> Row {
    let tags = ["", "a", "a\0", "b", "\u{10FFFF}"];
    let tag = match rng.below(3) {
        0 => Value::Null,
        _ => Value::Text(tags[rng.below(tags.len() as u64) as usize].into()),
    };
    let at = match rng.below(3) {
        0 => Value::Null,
        _ => Value::Timestamp(rng.below(5) as i64 - 2),
    };
    Row::new(vec![
        Value::Id(rng.below(4)),
        Value::Int(seq),
        tag,
        at,
        Value::Bool(rng.below(2) == 1),
    ])
}

/// Entries of one index: packed key and row id.
type Listed = Vec<(Vec<u8>, RowId)>;

/// Every index's entries (all of them, and the visible ones), by table
/// and index name.
#[derive(Debug, PartialEq)]
struct Entries {
    all: BTreeMap<(String, String), Listed>,
    /// Those whose row's newest version carries their key.
    visible: BTreeMap<(String, String), Listed>,
}

fn entries(db: &Database) -> Entries {
    let txn = db.begin();
    let (mut all, mut visible) = (BTreeMap::new(), BTreeMap::new());
    for name in db.table_names() {
        let table = db.table_id(&name).unwrap();
        let def = db.table_def(table).unwrap();
        for index in &def.indexes {
            let layout = KeyLayout::new(index.columns.iter().map(|&pos| {
                let col = &def.columns[pos];
                (col.ty, col.nullable)
            }));
            let key_of = |row: &SharedRow| -> Vec<u8> {
                let key: Vec<Value> = (index.columns.iter())
                    .map(|&pos| row.get(pos).map_or(Value::Null, ValueRef::to_value))
                    .collect();
                layout.encode(&key).expect("a stored row's key packs")
            };
            let got = db.index_entries(table, &index.name).unwrap();
            let live: Listed = (got.iter())
                .filter(|(key, rid)| {
                    let row = txn.get(table, *rid).unwrap();
                    row.is_some_and(|row| key_of(&row) == *key)
                })
                .cloned()
                .collect();
            let name = (name.clone(), index.name.clone());
            visible.insert(name.clone(), live);
            all.insert(name, got);
        }
    }
    Entries { all, visible }
}

/// Live row ids of a table, in insertion order, minus the deleted.
fn pick(rows: &[RowId], n: u64) -> Option<(usize, RowId)> {
    (!rows.is_empty()).then(|| {
        let at = (n % rows.len() as u64) as usize;
        (at, rows[at])
    })
}

/// Run `history`, with the cold tier on if `cold`.
fn run(history: &History, cold: bool) -> Result<(), TestCaseError> {
    let dir = TestDir::new("tendax-index-oracle");
    let path = dir.file("db.wal");
    let mut rng = TestRng::seed_from_u64(history.seed);
    let options = || Options {
        cold_storage: cold.then(ColdOptions::default),
        ..Options::default()
    };
    let mut db = Database::open(&path, options()).unwrap();
    let notes = db.create_table(notes_def()).unwrap();
    let mut late: Option<TableId> = None;
    let (mut note_rows, mut late_rows) = (Vec::new(), Vec::new());
    let mut seq = 0;
    for (i, step) in history.steps.iter().enumerate() {
        match *step {
            Step::Insert {
                late: into_late,
                rows,
            } => {
                let mut txn = db.begin();
                for _ in 0..rows {
                    seq += 1;
                    match late.filter(|_| into_late) {
                        Some(t) => {
                            let row = Row::new(vec![Value::Id(rng.below(3)), Value::Int(seq)]);
                            late_rows.push(txn.insert(t, row).unwrap());
                        }
                        None => note_rows.push(txn.insert(notes, note(&mut rng, seq)).unwrap()),
                    }
                }
                txn.commit().unwrap();
            }
            Step::Patch { pick: n, indexed } => {
                let Some((_, rid)) = pick(&note_rows, n) else {
                    continue;
                };
                seq += 1;
                let mut fields = vec![("seq", Value::Int(seq))];
                if indexed > 0 {
                    fields.push(("flag", Value::Bool(rng.below(2) == 1)));
                }
                if indexed > 1 {
                    fields.push(("doc", Value::Id(rng.below(4))));
                }
                let mut txn = db.begin();
                txn.set(notes, rid, &fields).unwrap();
                txn.commit().unwrap();
            }
            Step::Delete {
                late: from_late,
                pick: n,
            } => {
                let (table, rows) = match late.filter(|_| from_late) {
                    Some(t) => (t, &mut late_rows),
                    None => (notes, &mut note_rows),
                };
                let Some((at, rid)) = pick(rows, n) else {
                    continue;
                };
                rows.remove(at);
                let mut txn = db.begin();
                txn.delete(table, rid).unwrap();
                txn.commit().unwrap();
            }
            Step::Vacuum => {
                db.vacuum();
            }
            Step::Checkpoint => db.checkpoint().unwrap(),
            Step::CreateLate => {
                if late.is_none() {
                    late = Some(db.create_table(late_def()).unwrap());
                }
            }
            Step::Reopen => {
                let before = entries(&db);
                db.vacuum();
                let vacuumed = entries(&db).all;
                prop_assert!(db.check_indexes().is_ok(), "step {}: before the reopen", i);
                drop(db);
                db = Database::open(&path, options()).unwrap();
                let check = db.check_indexes();
                prop_assert!(check.is_ok(), "step {}: after the reopen: {:?}", i, check);
                let after = entries(&db);
                prop_assert_eq!(&after.visible, &before.visible, "step {}: read", i);
                db.vacuum();
                prop_assert_eq!(entries(&db).all, vacuumed, "step {}: vacuumed", i);
            }
        }
        let check = db.check_indexes();
        prop_assert!(check.is_ok(), "step {} ({:?}): {:?}", i, step, check);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_index_equals_a_fresh_build_across_reopens(history in Histories) {
        run(&history, false)?;
    }

    #[test]
    fn patches_vacuums_and_demotions_keep_every_index_a_fresh_build(history in Histories) {
        run(&history, true)?;
    }
}

#[test]
fn a_reopen_builds_each_index_of_a_base_and_its_tail() {
    // One fixed history through every step kind, so the oracle runs
    // over a base, a tail and the late table whatever the seeds draw.
    let steps = [
        Step::Insert {
            late: false,
            rows: 6,
        },
        Step::Patch {
            pick: 1,
            indexed: 2,
        },
        Step::Checkpoint,
        Step::CreateLate,
        Step::Insert {
            late: true,
            rows: 4,
        },
        Step::Insert {
            late: false,
            rows: 3,
        },
        Step::Patch {
            pick: 4,
            indexed: 0,
        },
        Step::Delete {
            late: false,
            pick: 2,
        },
        Step::Delete {
            late: true,
            pick: 0,
        },
        Step::Reopen,
        Step::Vacuum,
        Step::Insert {
            late: true,
            rows: 2,
        },
        Step::Reopen,
    ];
    run(
        &History {
            steps: steps.to_vec(),
            seed: 7,
        },
        false,
    )
    .unwrap();
}

#[test]
fn a_patch_of_unindexed_columns_survives_a_demoting_vacuum() {
    // Each row's newest version is a patch that inserted no entry: the
    // vacuums demote and prune the versions whose entries it relied on,
    // and the rebuild stages the patch's own.
    let patch = |pick, indexed| Step::Patch { pick, indexed };
    let steps = [
        Step::Insert {
            late: false,
            rows: 5,
        },
        patch(0, 0),
        patch(1, 0),
        Step::Vacuum,
        patch(0, 0),
        patch(2, 1),
        Step::Checkpoint,
        patch(1, 0),
        Step::Vacuum,
        patch(3, 2),
        patch(3, 0),
        Step::Reopen,
        patch(0, 0),
        Step::Vacuum,
        Step::Reopen,
    ];
    for cold in [false, true] {
        run(
            &History {
                steps: steps.to_vec(),
                seed: 11,
            },
            cold,
        )
        .unwrap();
    }
}
