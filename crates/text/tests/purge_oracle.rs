//! The purge oracle. `purge_tombstones` has no index by character to
//! find the effect rows of what it removes: it reaches them through the
//! document's own operations (`oplog_by_doc_ts`, then
//! `op_effects_by_op`), which is sound because an effect row names a row
//! of its op's document (DESIGN.md §5.12). The reference here finds them
//! the obvious way — a full `scan(op_effects)` filtered on the purged
//! ids — and predicts the `PurgeStats`, the surviving `op_effects` rows
//! and every op's `undone` flag. On random schedules of typing, deletes,
//! undo, redo, internal and external pastes and styling over three
//! documents, purging each document at a random horizon, the two agree.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the sequence.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use tendax_storage::{Predicate, RowId, Transaction, Value};
use tendax_text::{DocHandle, DocId, PurgeStats, StyleId, TextDb};

const DOCS: usize = 3;

#[derive(Debug, Clone)]
enum Step {
    Type {
        doc: usize,
        at: usize,
        text: String,
    },
    Delete {
        doc: usize,
        at: usize,
        len: usize,
    },
    Undo {
        doc: usize,
    },
    Redo {
        doc: usize,
    },
    /// Copy `len` characters of `from` at `at` into `to` at `to_at`.
    Paste {
        from: usize,
        to: usize,
        at: usize,
        len: usize,
        to_at: usize,
    },
    External {
        doc: usize,
        at: usize,
    },
    Style {
        doc: usize,
        at: usize,
        len: usize,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let doc = || 0..DOCS;
    prop_oneof![
        5 => (doc(), any::<usize>(), "[a-z ]{1,6}")
            .prop_map(|(doc, at, text)| Step::Type { doc, at, text }),
        4 => (doc(), any::<usize>(), 1usize..5)
            .prop_map(|(doc, at, len)| Step::Delete { doc, at, len }),
        2 => doc().prop_map(|doc| Step::Undo { doc }),
        1 => doc().prop_map(|doc| Step::Redo { doc }),
        2 => (doc(), doc(), any::<usize>(), 1usize..5, any::<usize>())
            .prop_map(|(from, to, at, len, to_at)| Step::Paste { from, to, at, len, to_at }),
        1 => (doc(), any::<usize>()).prop_map(|(doc, at)| Step::External { doc, at }),
        1 => (doc(), any::<usize>(), 1usize..4)
            .prop_map(|(doc, at, len)| Step::Style { doc, at, len }),
    ]
}

/// Run one step. Steps the document refuses (nothing to undo, a range
/// past its end) are part of a random schedule, not failures.
fn run(step: &Step, handles: &mut [DocHandle], style: StyleId) {
    let within = |h: &DocHandle, at: usize| at % (h.len() + 1);
    let _ = match step {
        Step::Type { doc, at, text } => {
            let h = &mut handles[*doc];
            h.insert_text(within(h, *at), text).map(drop)
        }
        Step::Delete { doc, at, len } => {
            let h = &mut handles[*doc];
            let at = within(h, *at);
            h.delete_range(at, (*len).min(h.len() - at)).map(drop)
        }
        Step::Undo { doc } => handles[*doc].undo().map(drop),
        Step::Redo { doc } => handles[*doc].redo().map(drop),
        Step::Paste {
            from,
            to,
            at,
            len,
            to_at,
        } => {
            let src = &handles[*from];
            let at = within(src, *at);
            match src.copy(at, (*len).min(src.len() - at)) {
                Ok(clip) => {
                    let h = &mut handles[*to];
                    h.paste(within(h, *to_at), &clip).map(drop)
                }
                Err(e) => Err(e),
            }
        }
        Step::External { doc, at } => {
            let h = &mut handles[*doc];
            h.paste_external(within(h, *at), "web", "https://example.org")
                .map(drop)
        }
        Step::Style { doc, at, len } => {
            let h = &mut handles[*doc];
            let at = within(h, *at);
            h.apply_style(at, (*len).min(h.len() - at), style).map(drop)
        }
    };
}

/// What the purge must do, found by scanning: its stats, the
/// `op_effects` rows left, and each op's `undone` flag.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: PurgeStats,
    effects: Vec<(RowId, Vec<Value>)>,
    undone: BTreeMap<RowId, bool>,
}

fn observed(tdb: &TextDb, stats: PurgeStats) -> Outcome {
    let t = tdb.tables();
    let txn = tdb.database().begin();
    Outcome {
        stats,
        effects: all(&txn, t.op_effects),
        undone: undone_flags(&txn, t.oplog),
    }
}

fn all(txn: &Transaction, table: tendax_storage::TableId) -> Vec<(RowId, Vec<Value>)> {
    (txn.scan(table, &Predicate::True).unwrap().into_iter())
        .map(|(rid, row)| (rid, row.values()))
        .collect()
}

fn undone_flags(txn: &Transaction, oplog: tendax_storage::TableId) -> BTreeMap<RowId, bool> {
    (txn.scan(oplog, &Predicate::True).unwrap().into_iter())
        .map(|(rid, row)| (rid, row.get(5).and_then(|v| v.as_bool()) == Some(true)))
        .collect()
}

/// The reference purge of `doc` at `before`, computed from full scans
/// before anything is written.
fn reference(tdb: &TextDb, doc: DocId, before: i64) -> Outcome {
    let t = tdb.tables();
    let txn = tdb.database().begin();
    // The document's characters: links and whether each goes.
    let mut links: HashMap<u64, (Option<u64>, Option<u64>, bool)> = HashMap::new();
    let mut head = None;
    let in_doc = Predicate::Eq("doc".into(), doc.value());
    for (rid, row) in txn.scan(t.chars, &in_doc).unwrap() {
        let [prev, next, deleted, deleted_at] = row.cols([1, 2, 7, 9]);
        let goes = deleted.as_bool() == Some(true)
            && deleted_at.as_timestamp().is_some_and(|at| at < before);
        if prev.is_null() {
            head = Some(rid.0);
        }
        links.insert(rid.0, (prev.as_id(), next.as_id(), goes));
    }
    let mut order = Vec::new();
    let mut cur = head;
    while let Some(c) = cur {
        order.push(c);
        cur = links[&c].1;
    }
    let purged: BTreeSet<u64> = order.iter().copied().filter(|c| links[c].2).collect();
    let effects = all(&txn, t.op_effects);
    let mut undone = undone_flags(&txn, t.oplog);
    if purged.is_empty() {
        return Outcome {
            stats: PurgeStats::default(),
            effects,
            undone,
        };
    }
    let survivors: Vec<u64> = order.into_iter().filter(|c| !purged.contains(c)).collect();
    let relinked = (0..survivors.len())
        .filter(|&i| {
            let prev = i.checked_sub(1).map(|p| survivors[p]);
            let next = survivors.get(i + 1).copied();
            let (was_prev, was_next, _) = links[&survivors[i]];
            (was_prev, was_next) != (prev, next)
        })
        .count();
    let mut sealed = BTreeSet::new();
    let effects: Vec<(RowId, Vec<Value>)> = effects
        .into_iter()
        .filter(|(_, row)| {
            let hit = row[3].as_id().is_some_and(|c| purged.contains(&c));
            if hit {
                sealed.insert(row[0].as_id().expect("an effect names its op"));
            }
            !hit
        })
        .collect();
    for op in &sealed {
        if let Some(flag) = undone.get_mut(&RowId(*op)) {
            *flag = true;
        }
    }
    Outcome {
        stats: PurgeStats {
            purged_chars: purged.len(),
            relinked,
            sealed_ops: sealed.len(),
        },
        effects,
        undone,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn purge_finds_what_a_scan_of_every_effect_finds(
        steps in proptest::collection::vec(arb_step(), 1..40),
        horizon in any::<usize>(),
        first in 0..DOCS,
    ) {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let style = tdb.define_style("bold", "b", user).unwrap();
        let docs: Vec<DocId> = (0..DOCS)
            .map(|i| tdb.create_document(&format!("d{i}"), user).unwrap())
            .collect();
        let mut handles: Vec<DocHandle> =
            docs.iter().map(|&d| tdb.open(d, user).unwrap()).collect();
        // A horizon between two steps (or past the last).
        let mut marks = vec![tdb.now()];
        for step in &steps {
            run(step, &mut handles, style);
            marks.push(tdb.now());
        }
        let before = marks[horizon % marks.len()];
        for i in 0..DOCS {
            let doc = docs[(first + i) % DOCS];
            let want = reference(&tdb, doc, before);
            let stats = tdb.purge_tombstones(doc, before).unwrap();
            prop_assert_eq!(observed(&tdb, stats), want, "purging {} at {}", doc, before);
        }
    }
}
