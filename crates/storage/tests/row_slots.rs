//! The row slots (DESIGN.md §5.2, "Row slots") against a model: a
//! `BTreeMap` from row id to its versions, oldest first, which is what
//! the table held before row ids indexed pages of slots. Random schedules
//! of `apply` — dense ids, ids on both sides of page boundaries, ids far
//! past every other — and `vacuum(horizon, floor)`, each followed by
//! every read the table answers from its chains: `visible`,
//! `versions_after`, `newest_version_at` and `newest_commit_ts` of rows
//! present and absent (on pages that exist and pages that do not), then
//! `scan_visible`, `newest_versions_at`, `iter_versions`, a full-scan and
//! an index-prefix `count_matching`/`scan_matching` — same rows, same
//! order, same counts — and the page count: a page exists exactly when a
//! row lives in it, so vacuum frees every page it empties.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the schedule.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tendax_storage::query::{plan_access, AccessPath};
use tendax_storage::table::{TableStore, VersionOp, SLOTS_PER_PAGE};
use tendax_storage::{
    DataType, Predicate, Row, RowId, TableDef, TableId, Value, WriteDescriptor, TS_LATEST,
};

const FAR: u64 = 1 << 40;

/// Row ids a schedule writes: dense ones from 1, ids on both sides of
/// the first page boundaries, and ids far past the rest.
fn row_id(rng: &mut TestRng) -> u64 {
    let p = SLOTS_PER_PAGE;
    let edges = [p - 1, p, p + 1, 2 * p - 1, 2 * p, 3 * p];
    let far = [FAR, FAR + 1, FAR + p, 1 << 62, (1 << 62) + 2 * p - 1];
    match rng.below(4) {
        0 | 1 => 1 + rng.below(2 * p + 90),
        2 => edges[rng.below(edges.len() as u64) as usize],
        _ => far[rng.below(far.len() as u64) as usize],
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// A version of `row`: a put of `(doc, tag)`, or a delete.
    Apply {
        row: u64,
        put: Option<(u64, i64)>,
        described: bool,
    },
    /// Vacuum at `horizon` and `floor`, both counted back from now.
    Vacuum { horizon: u64, floor: u64 },
}

#[derive(Debug)]
struct Schedule(Vec<Step>);

struct Schedules;

impl Strategy for Schedules {
    type Value = Schedule;

    fn generate(&self, rng: &mut TestRng) -> Schedule {
        let steps = (0..1 + rng.below(90))
            .map(|_| match rng.below(8) {
                0 => Step::Vacuum {
                    horizon: rng.below(12),
                    floor: rng.below(12),
                },
                n => Step::Apply {
                    row: row_id(rng),
                    put: (n != 1).then(|| (rng.below(4), rng.below(3) as i64)),
                    described: rng.below(2) == 0,
                },
            })
            .collect();
        Schedule(steps)
    }
}

/// One version as the model keeps it.
#[derive(Debug, Clone, PartialEq)]
struct V {
    ts: u64,
    put: Option<(u64, i64)>,
    described: bool,
}

type Model = BTreeMap<u64, Vec<V>>;

fn def() -> TableDef {
    TableDef::new("t")
        .column("doc", DataType::Id)
        .column("tag", DataType::Int)
        .index("by_doc_tag", &["doc", "tag"])
}

fn values(row: &tendax_storage::SharedRow) -> (u64, i64) {
    let [doc, tag] = row.cols([0, 1]);
    (doc.as_id().unwrap(), tag.as_int().unwrap())
}

fn version(ts: u64, op: &VersionOp, described: bool) -> V {
    let put = match op {
        VersionOp::Put(row) => Some(values(row)),
        VersionOp::Delete => None,
    };
    V { ts, put, described }
}

/// What the model says `vacuum(horizon, floor)` leaves, and how many
/// versions it prunes.
fn vacuum_model(model: &mut Model, horizon: u64, floor: u64) -> usize {
    let mut pruned = 0;
    model.retain(|_, chain| {
        for v in chain.iter_mut() {
            v.described &= v.ts > floor;
        }
        let keep_from = chain.iter().rposition(|v| v.ts <= horizon).unwrap_or(0);
        chain.drain(..keep_from);
        pruned += keep_from;
        let sole_dead = matches!(chain.as_slice(), [v] if v.put.is_none() && v.ts <= horizon);
        pruned += usize::from(sole_dead);
        !sole_dead
    });
    pruned
}

fn visible_model(chain: Option<&Vec<V>>, ts: u64) -> Option<(u64, i64)> {
    chain?.iter().rev().find(|v| v.ts <= ts)?.put
}

/// Every read of the table against the model, at snapshot `ts`.
fn check(t: &TableStore, model: &Model, now: u64) -> Result<(), TestCaseError> {
    let versions: usize = model.values().map(Vec::len).sum();
    prop_assert_eq!(t.chain_count(), model.len());
    prop_assert_eq!(t.version_count(), versions);
    let pages: BTreeSet<u64> = model.keys().map(|id| id / SLOTS_PER_PAGE).collect();
    prop_assert_eq!(t.slot_pages(), pages.len(), "pages of {:?}", model.keys());

    let all: Vec<(u64, V)> = (model.iter())
        .flat_map(|(id, chain)| chain.iter().map(move |v| (*id, v.clone())))
        .collect();
    let got: Vec<(u64, V)> = (t.iter_versions())
        .map(|(rid, v)| (rid.0, version(v.commit_ts, &v.op, v.desc.is_some())))
        .collect();
    prop_assert_eq!(got, all);

    // Rows present and absent: a neighbour in the same page, the first
    // and last slot of a page, and pages nothing was written to.
    let mut probes: BTreeSet<u64> = model.keys().flat_map(|&id| [id, id + 1]).collect();
    probes.extend([
        0,
        1,
        SLOTS_PER_PAGE - 1,
        5 * SLOTS_PER_PAGE,
        FAR + 2,
        3 << 40,
    ]);
    for ts in [0, now / 3, now.saturating_sub(2), now, TS_LATEST] {
        for &id in &probes {
            let (row, chain) = (RowId(id), model.get(&id));
            prop_assert_eq!(
                t.visible(row, ts).map(values),
                visible_model(chain, ts),
                "visible({}, {})",
                id,
                ts
            );
            let after: Vec<u64> = t
                .versions_after(row, ts)
                .iter()
                .map(|v| v.commit_ts)
                .collect();
            let want: Vec<u64> = (chain.into_iter().flatten())
                .filter(|v| v.ts > ts)
                .map(|v| v.ts)
                .collect();
            prop_assert_eq!(after, want, "versions_after({}, {})", id, ts);
            let newest = t
                .newest_version_at(row, ts)
                .map(|v| version(v.commit_ts, &v.op, v.desc.is_some()));
            let want = chain.and_then(|c| c.iter().rev().find(|v| v.ts <= ts).cloned());
            prop_assert_eq!(newest, want, "newest_version_at({}, {})", id, ts);
        }
        let scanned: Vec<(u64, (u64, i64))> = (t.scan_visible(ts))
            .map(|(rid, row)| (rid.0, values(row)))
            .collect();
        let want: Vec<(u64, (u64, i64))> = (model.iter())
            .filter_map(|(id, chain)| Some((*id, visible_model(Some(chain), ts)?)))
            .collect();
        prop_assert_eq!(&scanned, &want, "scan_visible({})", ts);
        let newest: Vec<(u64, u64)> = (t.newest_versions_at(ts))
            .map(|(rid, v)| (rid.0, v.commit_ts))
            .collect();
        let want_newest: Vec<(u64, u64)> = (model.iter())
            .filter_map(|(id, chain)| Some((*id, chain.iter().rev().find(|v| v.ts <= ts)?.ts)))
            .collect();
        prop_assert_eq!(newest, want_newest, "newest_versions_at({})", ts);

        prop_assert_eq!(
            t.count_matching(ts, &Predicate::True).unwrap(),
            (want.len() as u64, 0)
        );
        for doc in 0..4 {
            let pred = Predicate::Eq("doc".into(), Value::Id(doc));
            let rows: Vec<u64> = (want.iter())
                .filter(|(_, (d, _))| *d == doc)
                .map(|(id, _)| *id)
                .collect();
            let got: Vec<u64> = (t.scan_matching(ts, &pred).unwrap().rows.iter())
                .map(|(rid, _)| rid.0)
                .collect();
            prop_assert_eq!(&got, &rows, "scan doc = {} at {}", doc, ts);
            let (scanned, skipped) = t.count_matching(ts, &pred).unwrap();
            prop_assert_eq!(scanned - skipped, rows.len() as u64);
        }
    }
    for (&id, chain) in model {
        prop_assert_eq!(t.newest_commit_ts(RowId(id)), chain.last().map(|v| v.ts));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn row_slots_answer_what_a_tree_of_chains_answers(schedule in Schedules) {
        let mut t = TableStore::new(TableId(0), def());
        let mut model = Model::new();
        let mut now = 0;
        for step in &schedule.0 {
            match *step {
                Step::Apply { row, put, described } => {
                    now += 1;
                    let op = match put {
                        Some((doc, tag)) => {
                            let row = Row::new(vec![Value::Id(doc), Value::Int(tag)]);
                            VersionOp::Put(row.into_shared())
                        }
                        None => VersionOp::Delete,
                    };
                    let desc = described.then(|| WriteDescriptor::new(&[row], &[1]));
                    t.apply_described(RowId(row), now, op, desc);
                    model.entry(row).or_default().push(V { ts: now, put, described });
                }
                Step::Vacuum { horizon, floor } => {
                    let (horizon, floor) = (now.saturating_sub(horizon), now.saturating_sub(floor));
                    let pruned = t.vacuum(horizon, floor);
                    prop_assert_eq!(pruned, vacuum_model(&mut model, horizon, floor));
                }
            }
            check(&t, &model, now)?;
        }
    }
}

#[test]
fn a_doc_predicate_is_an_index_prefix_scan() {
    let pred = Predicate::Eq("doc".into(), Value::Id(1));
    assert!(matches!(
        plan_access(&def(), &pred),
        AccessPath::IndexPrefix { index_pos: 0, .. }
    ));
}
