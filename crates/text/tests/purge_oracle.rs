//! The purge oracle. `purge_tombstones` has no index by character to
//! find the effect rows of what it removes: it reaches them through the
//! document's own operations (`oplog_by_doc_ts`, then
//! `op_effects_by_op`), which is sound because an effect row names a row
//! of its op's document (DESIGN.md §5.12). An effect row is a range of
//! consecutive ids, and the purge cuts the purged ones out of it. The
//! reference here finds them the obvious way — a full `scan(op_effects)`,
//! every range expanded to one effect per character, filtered on the
//! purged ids — and predicts the `PurgeStats`, the order a fresh load
//! gives the characters left (derived from the anchors by a walk of its
//! own), the surviving effects (expanded, in order) and every op's
//! `undone` flag. On random schedules
//! of typing, deletes, undo, redo, internal and external pastes and
//! styling over three documents, purging each document at a random
//! horizon, the two agree.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the sequence.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use tendax_storage::{Predicate, RowId, TableId, Transaction, ValueRef};
use tendax_text::{DocHandle, DocId, Effect, OpId, PurgeStats, StyleId, TextDb, UserId};

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

/// One character's effect: kind, id, old and new value.
type CharEffect = (String, u64, Option<String>, Option<String>);

/// What the purge must do, found by scanning: its stats, the order of
/// the characters left (tombstones included), every op's effects left
/// (expanded to one per character), and each op's `undone` flag.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: PurgeStats,
    order: Vec<u64>,
    effects: BTreeMap<u64, Vec<CharEffect>>,
    undone: BTreeMap<RowId, bool>,
}

fn observed(tdb: &TextDb, doc: DocId, stats: PurgeStats) -> Outcome {
    let t = tdb.tables();
    let txn = tdb.database().begin();
    let mut order = Vec::new();
    (tdb.load(doc, UserId::NONE).unwrap()).for_each_char(|id, _| order.push(id.0));
    Outcome {
        stats,
        order,
        effects: expanded(&txn, t.op_effects),
        undone: undone_flags(&txn, t.oplog),
    }
}

/// Every op's effects, one per character: each `(op, kind, first,
/// count, old_val, new_val)` range expanded in ascending id order, an
/// op's ranges in row-id order (a scan's order).
fn expanded(txn: &Transaction, op_effects: TableId) -> BTreeMap<u64, Vec<CharEffect>> {
    let mut out: BTreeMap<u64, Vec<CharEffect>> = BTreeMap::new();
    for (_, row) in txn.scan(op_effects, &Predicate::True).unwrap() {
        let [op, kind, first, count, old, new] = row.cols([0, 1, 2, 3, 4, 5]);
        let (first, count) = (first.as_id().unwrap(), count.as_int().unwrap() as u64);
        let text = |v: ValueRef<'_>| v.as_text().map(str::to_owned);
        let kind = kind.as_text().unwrap().to_owned();
        (out.entry(op.as_id().unwrap()).or_default())
            .extend((first..first + count).map(|c| (kind.clone(), c, text(old), text(new))));
    }
    out
}

fn undone_flags(txn: &Transaction, oplog: TableId) -> BTreeMap<RowId, bool> {
    (txn.scan(oplog, &Predicate::True).unwrap().into_iter())
        .map(|(rid, row)| (rid, row.get(5).and_then(|v| v.as_bool()) == Some(true)))
        .collect()
}

/// The document order its anchors fix, derived here by its own code: a
/// depth-first walk from the head, children of one anchor newest (highest
/// id) first, each character's whole subtree before its older siblings.
fn order_by_anchors(anchors: &BTreeMap<u64, Option<u64>>) -> Vec<u64> {
    let mut children: HashMap<Option<u64>, Vec<u64>> = HashMap::new();
    for (&id, &anchor) in anchors {
        children.entry(anchor).or_default().push(id);
    }
    let mut order = Vec::with_capacity(anchors.len());
    let mut stack: Vec<u64> = children.get(&None).cloned().unwrap_or_default();
    // Ascending ids on the stack: the newest is popped first.
    while let Some(id) = stack.pop() {
        order.push(id);
        stack.extend(children.get(&Some(id)).into_iter().flatten());
    }
    assert_eq!(order.len(), anchors.len(), "every character is reachable");
    order
}

/// The reference purge of `doc` at `before`, computed from full scans
/// before anything is written.
fn reference(tdb: &TextDb, doc: DocId, before: i64) -> Outcome {
    let t = tdb.tables();
    let txn = tdb.database().begin();
    // The document's characters: anchors and whether each goes.
    let mut anchors = BTreeMap::new();
    let mut purged = BTreeSet::new();
    let in_doc = Predicate::Eq("doc".into(), doc.value());
    for (rid, row) in txn.scan(t.chars, &in_doc).unwrap() {
        let [anchor, deleted, deleted_at] = row.cols([1, 6, 8]);
        if deleted.as_bool() == Some(true)
            && deleted_at.as_timestamp().is_some_and(|at| at < before)
        {
            purged.insert(rid.0);
        }
        anchors.insert(rid.0, anchor.as_id());
    }
    let order = order_by_anchors(&anchors);
    let mut effects = expanded(&txn, t.op_effects);
    let mut undone = undone_flags(&txn, t.oplog);
    let survivors: Vec<u64> = order.into_iter().filter(|c| !purged.contains(c)).collect();
    if purged.is_empty() {
        return Outcome {
            stats: PurgeStats::default(),
            order: survivors,
            effects,
            undone,
        };
    }
    // A survivor is re-anchored unless its anchor is already the
    // survivor before it.
    let relinked = (0..survivors.len())
        .filter(|&i| anchors[&survivors[i]] != i.checked_sub(1).map(|p| survivors[p]))
        .count();
    // A character effect on a purged id goes and seals its op; a
    // structure element's or note's id is another table's row id.
    let mut sealed = BTreeSet::new();
    for (op, list) in &mut effects {
        let before = list.len();
        list.retain(|(kind, c, ..)| {
            !(matches!(kind.as_str(), "ins" | "del" | "sty") && purged.contains(c))
        });
        if list.len() < before {
            sealed.insert(*op);
        }
    }
    effects.retain(|_, list| !list.is_empty());
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
        order: survivors,
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
            prop_assert_eq!(observed(&tdb, doc, stats), want, "purging {} at {}", doc, before);
        }
    }
}

/// Purging the middle of ranges: the insert of "abcdefgh" is one row,
/// an `em` over "abcdef" two (`ab` was bold, the rest plain); with "cde"
/// purged the insert keeps `ab` and `fgh`, the style `ab` and `f`, in
/// that order, and the reference agrees on everything else.
#[test]
fn purging_the_middle_of_a_range_splits_it() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let bold = tdb.define_style("bold", "b", user).unwrap();
    let em = tdb.define_style("em", "i", user).unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    let typed = h.insert_text(0, "abcdefgh").unwrap();
    let ids: Vec<u64> = (typed.effects.iter())
        .map(|e| match e {
            Effect::Insert { char, .. } => char.0,
            other => panic!("an insert receipt holds {other:?}"),
        })
        .collect();
    h.apply_style(0, 2, bold).unwrap();
    let styled = h.apply_style(0, 6, em).unwrap();
    h.delete_range(2, 3).unwrap();
    let before = tdb.now();
    let want = reference(&tdb, doc, before);
    let stats = tdb.purge_tombstones(doc, before).unwrap();
    assert_eq!(
        stats,
        PurgeStats {
            purged_chars: 3,
            // "f" is re-anchored on "b". (With `prev`/`next` links, "b"'s
            // `next` was rewritten too: 2.)
            relinked: 1,
            sealed_ops: 3, // the insert, the `em` and the delete
        }
    );
    assert_eq!(observed(&tdb, doc, stats), want);
    let spans = |op: OpId| -> Vec<(u64, i64)> {
        let txn = tdb.database().begin();
        let rows = txn.index_lookup(tdb.tables().op_effects, "op_effects_by_op", &[op.value()]);
        (rows.unwrap().iter())
            .map(|(_, row)| {
                let [first, count] = row.cols([2, 3]);
                (first.as_id().unwrap(), count.as_int().unwrap())
            })
            .collect()
    };
    assert_eq!(spans(typed.op), [(ids[0], 2), (ids[5], 3)]);
    assert_eq!(spans(styled.op), [(ids[0], 2), (ids[5], 1)]);
    assert_eq!(tdb.open(doc, user).unwrap().text(), "abfgh");
}

/// The hard case: a purged tombstone "T" with a newer sibling "N" and a
/// surviving child "C" newer than "N" ("a", then "T" after it, "N" in
/// between, "C" after "T"). Re-anchoring "C" on "T"'s own anchor would
/// put it in front of "N", the newer sibling; the purge anchors it on the
/// survivor before it instead, and the order stays.
#[test]
fn a_purged_tombstone_with_a_newer_sibling_and_a_child_keeps_the_order() {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    h.insert_text(0, "a").unwrap();
    h.insert_text(1, "T").unwrap();
    h.insert_text(1, "N").unwrap();
    h.insert_text(3, "C").unwrap();
    assert_eq!(h.text(), "aNTC");
    h.delete_range(2, 1).unwrap();
    let before = tdb.now();
    let want = reference(&tdb, doc, before);
    let stats = tdb.purge_tombstones(doc, before).unwrap();
    assert_eq!(
        stats,
        PurgeStats {
            purged_chars: 1,
            relinked: 1,
            sealed_ops: 2, // the insert of "T" and the delete
        }
    );
    assert_eq!(observed(&tdb, doc, stats), want);
    assert_eq!(tdb.open(doc, user).unwrap().text(), "aNC");
}
