//! Tombstone purging: text-level space reclamation.
//!
//! Deleted characters stay in the chain as tombstones so that undo,
//! lineage and mining keep working — but a long-lived document
//! accumulates them without bound. `purge_tombstones` physically removes
//! tombstones older than a horizon in one transaction: the survivors
//! are re-anchored so that each keeps its place, the purged characters
//! are cut out of the effect ranges, and the operations that reference them are sealed (marked
//! undone) so undo/redo never tries to revive a purged character.
//!
//! Trade-off, stated plainly: purging truncates undo history and
//! character-level provenance chains at the horizon — exactly like a
//! database `VACUUM` truncates time travel. Open handles become stale
//! and recover via their normal refresh path.

use std::collections::HashSet;

use tendax_storage::Value;

use crate::document::AnchorTree;
use crate::error::{Result, TextError};
use crate::ids::{CharId, DocId, OpId};
use crate::ops::EffectRange;
use crate::textdb::TextDb;

/// What a purge did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PurgeStats {
    /// Tombstoned characters physically removed.
    pub purged_chars: usize,
    /// Surviving characters re-anchored on the survivor before them.
    pub relinked: usize,
    /// Operations sealed (their effects referenced purged characters).
    pub sealed_ops: usize,
}

impl TextDb {
    /// Physically remove tombstones of `doc` whose deletion happened
    /// strictly before `before` (engine-clock timestamp). Returns what
    /// was reclaimed.
    pub fn purge_tombstones(&self, doc: DocId, before: i64) -> Result<PurgeStats> {
        let t = *self.tables();
        let mut txn = self.database().begin();
        let rows = txn.index_lookup(t.chars, "chars_by_doc", &[doc.value()])?;
        if rows.is_empty() {
            txn.abort();
            return Ok(PurgeStats::default());
        }

        // The document order, by the walk a load takes, and what to purge.
        let mut tree = AnchorTree::with_capacity(rows.len());
        let mut anchors = Vec::with_capacity(rows.len());
        let mut doomed = HashSet::new();
        for (at, (rid, row)) in rows.iter().enumerate() {
            let id = CharId::from_row(*rid);
            let [anchor, deleted, deleted_at] = row.cols([1, 6, 8]);
            let anchor = CharId::from_value(anchor);
            tree.hang(&rows, at, anchor).map_err(|a| {
                TextError::ChainCorrupt(format!("dangling anchor {a} of {id} in {doc}"))
            })?;
            anchors.push(anchor);
            if deleted.as_bool() == Some(true)
                && deleted_at.as_timestamp().is_some_and(|ts| ts < before)
            {
                doomed.insert(id);
            }
        }
        if doomed.is_empty() {
            txn.abort();
            return Ok(PurgeStats::default());
        }
        let mut order = Vec::with_capacity(rows.len());
        if tree.walk(|i| order.push(i as usize)) < rows.len() {
            return Err(TextError::ChainCorrupt(format!("anchor cycle in {doc}")));
        }

        // Re-anchor every survivor whose anchor is not the survivor before
        // it onto that one: the survivors become a path, which no sibling
        // rule can reorder, so purging changes no survivor's place. A new
        // child of an anchor depends on it like an insert's does, and an
        // insert that anchors on a purged character fails: either commit
        // fails if the other committed since its snapshot.
        let mut relinked = 0;
        let mut prev = CharId::NONE;
        for i in order {
            let id = CharId::from_row(rows[i].0);
            if doomed.contains(&id) {
                continue;
            }
            if anchors[i] != prev {
                self.expect_anchor(&mut txn, doc, (!prev.is_none()).then_some(prev))?;
                txn.set(t.chars, id.row(), &[("anchor", prev.opt_value())])?;
                relinked += 1;
            }
            prev = id;
        }

        // Seal operations whose effects name purged characters and drop
        // those characters from the effect ranges; then drop the
        // characters themselves. An effect names rows of its op's own
        // document, so the document's operations lead to every effect on
        // its characters. A sealed op's ranges are rewritten as their
        // surviving sub-runs, all of them, so that row-id order stays the
        // order the op wrote them in. Reads happen before the bulk
        // writes: index lookups are overlay-aware and would otherwise
        // rescan an ever-growing write set (quadratic).
        let is_doomed =
            |range: &EffectRange, id: &CharId| range.names_chars() && doomed.contains(id);
        let mut sealed = Vec::new();
        for (op_rid, _) in txn.index_lookup(t.oplog, "oplog_by_doc_ts", &[doc.value()])? {
            let op = OpId::from_row(op_rid);
            let ranges = self.effect_ranges(&txn, op)?;
            if (ranges.iter()).any(|range| range.ids().any(|id| is_doomed(range, &id))) {
                sealed.push((op, ranges));
            }
        }
        for (op, ranges) in &sealed {
            for range in ranges {
                txn.delete(t.op_effects, range.row)?;
            }
            for range in ranges {
                let ids: Vec<CharId> = range.ids().filter(|id| !is_doomed(range, id)).collect();
                let olds = range.old.map_or(Vec::new(), |old| vec![old; ids.len()]);
                self.log_effects(&mut txn, *op, &range.kind, &ids, &olds, range.new)?;
            }
        }
        for id in &doomed {
            txn.delete(t.chars, id.row())?;
        }
        for (op, _) in &sealed {
            // The op row may itself be gone in pathological cases; ignore
            // individual misses rather than failing the purge.
            let _ = txn.set(t.oplog, op.row(), &[("undone", Value::Bool(true))]);
        }
        txn.commit()?;
        Ok(PurgeStats {
            purged_chars: doomed.len(),
            relinked,
            sealed_ops: sealed.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TextDb, crate::ids::UserId, DocId) {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("alice").unwrap();
        let d = tdb.create_document("doc", u).unwrap();
        (tdb, u, d)
    }

    #[test]
    fn purge_removes_old_tombstones_and_relinks() {
        let (tdb, u, d) = setup();
        let mut h = tdb.open(d, u).unwrap();
        h.insert_text(0, "hello cruel world").unwrap();
        h.delete_range(5, 6).unwrap(); // " cruel"
        assert_eq!(h.text(), "hello world");
        assert_eq!(h.chain_len(), 17);

        let horizon = tdb.now();
        let stats = tdb.purge_tombstones(d, horizon).unwrap();
        assert_eq!(stats.purged_chars, 6);
        assert!(stats.relinked >= 1);
        assert_eq!(stats.sealed_ops, 2); // the insert op and the delete op

        // A fresh handle sees the same text over a compact chain.
        let h2 = tdb.open(d, u).unwrap();
        assert_eq!(h2.text(), "hello world");
        assert_eq!(h2.chain_len(), 11);
    }

    #[test]
    fn purge_respects_the_horizon() {
        let (tdb, u, d) = setup();
        let mut h = tdb.open(d, u).unwrap();
        h.insert_text(0, "abcdef").unwrap();
        h.delete_range(0, 2).unwrap();
        let mid = tdb.now();
        h.delete_range(0, 2).unwrap(); // deletes "cd" after `mid`
                                       // Only the first deletion is older than `mid`.
        let stats = tdb.purge_tombstones(d, mid).unwrap();
        assert_eq!(stats.purged_chars, 2);
        let h2 = tdb.open(d, u).unwrap();
        assert_eq!(h2.text(), "ef");
        assert_eq!(h2.chain_len(), 4); // "cd" tombstones remain
    }

    #[test]
    fn purge_seals_undo_past_the_horizon() {
        let (tdb, u, d) = setup();
        let mut h = tdb.open(d, u).unwrap();
        h.insert_text(0, "keep ").unwrap();
        h.insert_text(5, "gone").unwrap();
        h.delete_range(5, 4).unwrap();
        tdb.purge_tombstones(d, tdb.now()).unwrap();

        let mut h2 = tdb.open(d, u).unwrap();
        assert_eq!(h2.text(), "keep ");
        // The delete and the purged insert are sealed; undo reaches the
        // surviving first insert instead of failing on missing rows.
        h2.undo().unwrap();
        assert_eq!(h2.text(), "");
        assert!(h2.undo().is_err());
    }

    #[test]
    fn purge_noops_when_nothing_qualifies() {
        let (tdb, u, d) = setup();
        let mut h = tdb.open(d, u).unwrap();
        h.insert_text(0, "live text").unwrap();
        let stats = tdb.purge_tombstones(d, tdb.now()).unwrap();
        assert_eq!(stats, PurgeStats::default());
        // Empty document too.
        let d2 = tdb.create_document("empty", u).unwrap();
        assert_eq!(
            tdb.purge_tombstones(d2, tdb.now()).unwrap(),
            PurgeStats::default()
        );
    }

    #[test]
    fn stale_handle_recovers_after_purge() {
        let (tdb, u, d) = setup();
        let mut h = tdb.open(d, u).unwrap();
        h.insert_text(0, "abcdef").unwrap();
        h.delete_range(2, 2).unwrap();
        let mut stale = tdb.open(d, u).unwrap();
        tdb.purge_tombstones(d, tdb.now()).unwrap();
        // The stale handle still holds the purged tombstones. An edit
        // anchored on one of them fails retryably and lands after a
        // refresh; this one anchors on "b", which survived, and lands.
        let err = stale.insert_text(2, "X");
        if let Err(e) = err {
            assert!(e.is_retryable());
            stale.refresh().unwrap();
            stale.insert_text(2, "X").unwrap();
        }
        let fresh = tdb.open(d, u).unwrap();
        assert_eq!(fresh.text(), "abXef");
    }
}
