//! Local and global undo/redo.
//!
//! Because deletion tombstones keep every character in the chain, undo
//! never has to re-link anything: undoing an insertion tombstones the
//! inserted characters, undoing a deletion revives them, undoing a style
//! change restores the previous style. The inverse of an operation is read
//! from its relational `op_effects` rows and applied as a *new*
//! transaction (which is itself logged — the history is append-only).
//!
//! *Local* undo targets the calling user's most recent not-undone edit,
//! skipping other users' operations — the multi-user semantics of the
//! TeNDaX demo. *Global* undo targets the most recent edit regardless of
//! author.

use tendax_storage::{Transaction, Value};

use crate::document::DocHandle;
use crate::error::{Result, TextError};
use crate::ids::{CharId, OpId, StyleId, UserId};
use crate::ops::{EditReceipt, Effect, EffectRange, EDIT_KINDS};
use crate::security::Permission;

impl DocHandle {
    /// Undo this user's most recent not-yet-undone edit.
    pub fn undo(&mut self) -> Result<EditReceipt> {
        self.undo_impl(Some(self.user))
    }

    /// Undo the most recent edit by *any* user (the demo's global undo).
    pub fn global_undo(&mut self) -> Result<EditReceipt> {
        self.undo_impl(None)
    }

    /// Re-apply this user's most recently undone edit.
    pub fn redo(&mut self) -> Result<EditReceipt> {
        self.redo_impl(Some(self.user))
    }

    /// Re-apply the most recently undone edit by any user.
    pub fn global_redo(&mut self) -> Result<EditReceipt> {
        self.redo_impl(None)
    }

    fn undo_impl(&mut self, scope: Option<UserId>) -> Result<EditReceipt> {
        let mut txn = self.begin();
        self.tdb
            .check_permission_txn(&txn, self.doc, self.user, Permission::Write)?;
        let (target, _) = self
            .newest_op(&txn, scope, |kind, undone| {
                EDIT_KINDS.contains(&kind) && !undone
            })?
            .ok_or(TextError::NothingToUndo)?;
        let ranges = self.tdb.effect_ranges(&txn, target)?;
        let ts = self.tdb.now();
        let effects = self.apply_effect_rows(&mut txn, &ranges, false, ts)?;
        txn.set(
            self.tdb.tables().oplog,
            target.row(),
            &[("undone", Value::Bool(true))],
        )?;
        let op = self.log_op(&mut txn, "undo", target, ts)?;
        let commit_ts = txn.commit()?;
        self.fold_effects(&effects);
        Ok(EditReceipt {
            op,
            commit_ts,
            effects,
        })
    }

    fn redo_impl(&mut self, scope: Option<UserId>) -> Result<EditReceipt> {
        let mut txn = self.begin();
        self.tdb
            .check_permission_txn(&txn, self.doc, self.user, Permission::Write)?;
        let (undo_op, undo_target) = self
            .newest_op(&txn, scope, |kind, undone| kind == "undo" && !undone)?
            .ok_or(TextError::NothingToRedo)?;
        let target = undo_target
            .ok_or_else(|| TextError::ChainCorrupt(format!("undo op {undo_op} has no target")))?;
        let ranges = self.tdb.effect_ranges(&txn, target)?;
        let ts = self.tdb.now();
        let effects = self.apply_effect_rows(&mut txn, &ranges, true, ts)?;
        let t = self.tdb.tables();
        txn.set(t.oplog, target.row(), &[("undone", Value::Bool(false))])?;
        txn.set(t.oplog, undo_op.row(), &[("undone", Value::Bool(true))])?;
        let op = self.log_op(&mut txn, "redo", undo_op, ts)?;
        let commit_ts = txn.commit()?;
        self.fold_effects(&effects);
        Ok(EditReceipt {
            op,
            commit_ts,
            effects,
        })
    }

    /// Fold a committed undo's or redo's own effects — flag flips and
    /// restyles, never an insert — into the chain. A character the chain
    /// does not hold (a stale handle undoing another's edit) is skipped:
    /// the next refresh loads it as committed.
    fn fold_effects(&mut self, effects: &[Effect]) {
        for e in effects {
            match *e {
                Effect::Delete { char, .. } | Effect::Undelete { char } => {
                    if let Some(s) = self.chain.slot_of(char) {
                        self.fold_flag(s, matches!(e, Effect::Delete { .. }));
                    }
                }
                Effect::SetStyle { char, new, .. } => {
                    if let Some(s) = self.chain.slot_of(char) {
                        self.fold_style(s, new);
                    }
                }
                Effect::Insert { .. } => {}
            }
        }
    }

    /// Newest oplog entry of this document matching `pred`, optionally
    /// restricted to one user. Returns `(op, target)`.
    ///
    /// Walks the `(doc[, user], ts)` index newest-first with a descending
    /// cursor, so the cost is proportional to the number of entries
    /// *skipped* (typically zero or a few undone ops), not to the size of
    /// the document's whole operation log.
    fn newest_op(
        &self,
        txn: &Transaction,
        scope: Option<UserId>,
        pred: impl Fn(&str, bool) -> bool,
    ) -> Result<Option<(OpId, Option<OpId>)>> {
        let t = self.tdb.tables();
        let (index, prefix) = match scope {
            Some(user) => ("oplog_by_doc_user_ts", vec![self.doc.value(), user.value()]),
            None => ("oplog_by_doc_ts", vec![self.doc.value()]),
        };
        let mut cursor: Option<tendax_storage::index::IndexKey> = None;
        loop {
            let Some((key, rid, row)) = txn.index_prev(t.oplog, index, &prefix, cursor.as_ref())?
            else {
                return Ok(None);
            };
            let [kind, target, undone] = row.cols([3, 4, 5]);
            if pred(
                kind.as_text().unwrap_or(""),
                undone.as_bool().unwrap_or(false),
            ) {
                let target = Some(OpId::from_value(target)).filter(|t| !t.is_none());
                return Ok(Some((OpId::from_row(rid), target)));
            }
            cursor = Some(key);
        }
    }

    /// Apply effect ranges in `forward` (redo) or inverse (undo)
    /// direction, each range's ids ascending, writing char/structure/note
    /// rows inside `txn` and returning the per-character cache-level
    /// effects for broadcast. A character's `version` moves with the
    /// flags or style in the same write, as every other writer's does.
    fn apply_effect_rows(
        &self,
        txn: &mut Transaction,
        ranges: &[EffectRange],
        forward: bool,
        ts: i64,
    ) -> Result<Vec<Effect>> {
        let t = *self.tdb.tables();
        let version = |id: CharId| {
            let cached = self.chain.info(id).map_or(0, |info| info.version);
            Value::Int(cached + 1)
        };
        let mut out = Vec::with_capacity(ranges.iter().map(|r| r.count as usize).sum());
        for r in ranges {
            for id in r.ids() {
                match (r.kind.as_str(), forward) {
                    // Undo an insertion / redo a deletion: tombstone.
                    ("ins", false) | ("del", true) => {
                        txn.set(
                            t.chars,
                            id.row(),
                            &[
                                ("deleted", Value::Bool(true)),
                                ("deleted_by", self.user.value()),
                                ("deleted_at", Value::Timestamp(ts)),
                                ("version", version(id)),
                            ],
                        )?;
                        out.push(Effect::Delete {
                            char: id,
                            by: self.user,
                            ts,
                        });
                    }
                    // Undo a deletion / redo an insertion: revive.
                    ("ins", true) | ("del", false) => {
                        txn.set(
                            t.chars,
                            id.row(),
                            &[
                                ("deleted", Value::Bool(false)),
                                ("deleted_by", Value::Null),
                                ("deleted_at", Value::Null),
                                ("version", version(id)),
                            ],
                        )?;
                        out.push(Effect::Undelete { char: id });
                    }
                    ("sty", fwd) => {
                        let old = r.old.unwrap_or(StyleId::NONE);
                        let new = r.new.unwrap_or(StyleId::NONE);
                        let (set_to, from) = if fwd { (new, old) } else { (old, new) };
                        txn.set(
                            t.chars,
                            id.row(),
                            &[("style", set_to.opt_value()), ("version", version(id))],
                        )?;
                        out.push(Effect::SetStyle {
                            char: id,
                            old: from,
                            new: set_to,
                        });
                    }
                    // Structure / note rows: the range is the element's row id.
                    ("struct", fwd) => {
                        txn.set(t.structure, id.row(), &[("deleted", Value::Bool(!fwd))])?;
                    }
                    ("note", fwd) => {
                        txn.set(t.notes, id.row(), &[("deleted", Value::Bool(!fwd))])?;
                    }
                    (other, _) => {
                        return Err(TextError::ChainCorrupt(format!(
                            "unknown effect kind `{other}`"
                        )));
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textdb::TextDb;

    fn setup() -> (TextDb, UserId, DocHandle) {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let h = tdb.open(doc, user).unwrap();
        (tdb, user, h)
    }

    #[test]
    fn undo_insert_then_redo() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "hello").unwrap();
        h.insert_text(5, " world").unwrap();
        h.undo().unwrap();
        assert_eq!(h.text(), "hello");
        h.undo().unwrap();
        assert_eq!(h.text(), "");
        h.redo().unwrap();
        assert_eq!(h.text(), "hello");
        h.redo().unwrap();
        assert_eq!(h.text(), "hello world");
        assert!(matches!(h.redo(), Err(TextError::NothingToRedo)));
    }

    #[test]
    fn undo_delete_revives_tombstones() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "hello world").unwrap();
        h.delete_range(0, 6).unwrap();
        assert_eq!(h.text(), "world");
        h.undo().unwrap();
        assert_eq!(h.text(), "hello world");
        // The revived characters keep their original authorship.
        let id = h.char_at(0).unwrap();
        assert!(!h.char_info(id).unwrap().deleted);
    }

    #[test]
    fn nothing_to_undo() {
        let (_tdb, _u, mut h) = setup();
        assert!(matches!(h.undo(), Err(TextError::NothingToUndo)));
        h.insert_text(0, "x").unwrap();
        h.undo().unwrap();
        assert!(matches!(h.undo(), Err(TextError::NothingToUndo)));
    }

    #[test]
    fn local_undo_skips_other_users() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "alice ").unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        hb.insert_text(6, "bob").unwrap();
        // Alice's view is stale, but undo is id-based: her local undo
        // must remove HER text, not Bob's.
        let receipt = ha.undo().unwrap();
        assert_eq!(receipt.effects.len(), 6);
        let fresh = tdb.open(doc, alice).unwrap();
        assert_eq!(fresh.text(), "bob");
    }

    #[test]
    fn global_undo_takes_newest_regardless_of_author() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "alice ").unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        hb.insert_text(6, "bob").unwrap();
        // Alice global-undoes Bob's newest edit.
        ha.refresh().unwrap();
        ha.global_undo().unwrap();
        let fresh = tdb.open(doc, alice).unwrap();
        assert_eq!(fresh.text(), "alice ");
        // And global redo brings it back.
        ha.global_redo().unwrap();
        let fresh = tdb.open(doc, alice).unwrap();
        assert_eq!(fresh.text(), "alice bob");
    }

    #[test]
    fn undo_is_itself_logged() {
        let (tdb, _u, mut h) = setup();
        h.insert_text(0, "x").unwrap();
        h.undo().unwrap();
        let txn = tdb.database().begin();
        let ops = txn
            .scan(tdb.tables().oplog, &tendax_storage::Predicate::True)
            .unwrap();
        let kinds: Vec<&str> = ops
            .iter()
            .filter_map(|(_, r)| r.get(3).and_then(|v| v.as_text()))
            .collect();
        assert!(kinds.contains(&"undo"));
    }

    #[test]
    fn interleaved_undo_redo_cycles() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "a").unwrap();
        h.insert_text(1, "b").unwrap();
        h.insert_text(2, "c").unwrap();
        h.undo().unwrap(); // -c
        h.undo().unwrap(); // -b
        h.redo().unwrap(); // +b
        assert_eq!(h.text(), "ab");
        h.insert_text(2, "d").unwrap();
        assert_eq!(h.text(), "abd");
        h.undo().unwrap();
        assert_eq!(h.text(), "ab");
        h.undo().unwrap();
        assert_eq!(h.text(), "a");
    }

    /// Every writer of a character's flags or style bumps its `version`,
    /// undo and redo included: after each step of a schedule by two
    /// handles, the one that acted and the other, refreshed, show every
    /// visible character's `CharMeta` as a fresh open does.
    #[test]
    fn char_versions_agree_between_mirrors_and_a_fresh_open() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let bold = tdb.define_style("bold", "b", alice).unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        ha.insert_text(0, "abcdef").unwrap();
        hb.refresh().unwrap();
        type Step = fn(&mut DocHandle, StyleId) -> Result<EditReceipt>;
        let steps: [(bool, Step); 8] = [
            (true, |h, _| h.delete_range(1, 2)),
            (true, |h, _| h.undo()),
            (true, |h, _| h.redo()),
            (false, |h, bold| h.apply_style(0, 4, bold)),
            (false, |h, _| h.undo()),
            (false, |h, _| h.global_undo()),
            (true, |h, _| h.global_redo()),
            (false, |h, _| h.global_undo()),
        ];
        for (i, (by_alice, step)) in steps.into_iter().enumerate() {
            let (actor, mirror) = if by_alice {
                (&mut ha, &mut hb)
            } else {
                (&mut hb, &mut ha)
            };
            step(actor, bold).unwrap();
            mirror.refresh().unwrap();
            let fresh = tdb.open(doc, alice).unwrap();
            for h in [&ha, &hb] {
                assert_eq!(h.text(), fresh.text(), "step {i}");
                for pos in 0..fresh.len() {
                    assert_eq!(h.char_meta(pos), fresh.char_meta(pos), "step {i}, {pos}");
                }
            }
        }
    }

    #[test]
    fn paste_is_undoable() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "source").unwrap();
        let clip = h.copy(0, 3).unwrap();
        h.paste(6, &clip).unwrap();
        assert_eq!(h.text(), "sourcesou");
        h.undo().unwrap();
        assert_eq!(h.text(), "source");
    }
}
