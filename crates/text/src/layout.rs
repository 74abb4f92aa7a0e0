//! Collaborative layouting: styles and text structure.
//!
//! Styles are named attribute bundles (defined via
//! [`crate::textdb::TextDb::define_style`]); applying one to a character
//! range is an ordinary logged transaction, so layouting is concurrent,
//! secured and undoable exactly like typing — the subject of the
//! companion paper "Supporting Collaborative Layouting in Word
//! Processing" (Hodel et al., CoopIS 2004).
//!
//! Structure elements (headings, paragraphs, lists) are spans anchored at
//! character ids, stored in the `structure` table.

use tendax_storage::{Row, Value};

use crate::document::DocHandle;
use crate::error::{Result, TextError};
use crate::ids::{CharId, StructId, StyleId, UserId};
use crate::ops::{EditReceipt, Effect};
use crate::security::Permission;

/// A structure element read back from the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureInfo {
    pub id: StructId,
    pub kind: String,
    pub from_char: CharId,
    pub to_char: CharId,
    /// Current visible span, if both anchors are visible.
    pub span: Option<(usize, usize)>,
    pub author: UserId,
    pub ts: i64,
}

impl DocHandle {
    /// Apply `style` to the visible range `[pos, pos + len)`.
    pub fn apply_style(&mut self, pos: usize, len: usize, style: StyleId) -> Result<EditReceipt> {
        self.set_style_range(pos, len, style)
    }

    /// Remove any style from the range.
    pub fn clear_style(&mut self, pos: usize, len: usize) -> Result<EditReceipt> {
        self.set_style_range(pos, len, StyleId::NONE)
    }

    fn set_style_range(&mut self, pos: usize, len: usize, style: StyleId) -> Result<EditReceipt> {
        if len == 0 {
            return Ok(EditReceipt {
                op: crate::ids::OpId::NONE,
                commit_ts: 0,
                effects: Vec::new(),
            });
        }
        self.check_range(pos, len)?;
        let slots = self.chain.visible_slots(pos, len);
        let ids: Vec<_> = slots.iter().map(|&s| self.chain.id_at(s)).collect();
        let t = *self.tdb.tables();
        let mut txn = self.begin();
        let access = self.tdb.access(&txn, self.doc, self.user)?;
        access.require(Permission::Layout)?;
        self.check_protected(&access, Permission::Write, &ids, None)?;
        let ts = self.tdb.now();
        let mut olds = Vec::with_capacity(ids.len());
        for (&s, id) in slots.iter().zip(&ids) {
            let info = self.chain.info_at(s);
            olds.push(info.style);
            let version = info.version + 1;
            txn.set(
                t.chars,
                id.row(),
                &[
                    ("style", style.opt_value()),
                    ("version", Value::Int(version)),
                ],
            )?;
        }
        let op = self.log_op(&mut txn, "style", crate::ids::OpId::NONE, ts)?;
        self.tdb
            .log_effects(&mut txn, op, "sty", &ids, &olds, Some(style))?;
        let commit_ts = txn.commit()?;

        let mut effects = Vec::with_capacity(ids.len());
        for ((s, id), old) in slots.into_iter().zip(ids).zip(olds) {
            self.fold_style(s, style);
            effects.push(Effect::SetStyle {
                char: id,
                old,
                new: style,
            });
        }
        Ok(EditReceipt {
            op,
            commit_ts,
            effects,
        })
    }

    /// Style of the character at `pos`.
    pub fn style_at(&self, pos: usize) -> Option<StyleId> {
        let s = self.chain.slot_at_visible(pos)?;
        Some(self.chain.info_at(s).style)
    }

    /// The document as runs of equal style: `(style, run_length)`.
    pub fn style_runs(&self) -> Vec<(StyleId, usize)> {
        let mut runs: Vec<(StyleId, usize)> = Vec::new();
        self.chain
            .for_each_visible(|_, info| match runs.last_mut() {
                Some((s, n)) if *s == info.style => *n += 1,
                _ => runs.push((info.style, 1)),
            });
        runs
    }

    // ----------------------------------------------------------- structure

    /// Mark `[pos, pos + len)` as a structure element (`heading1`,
    /// `paragraph`, `list_item`, …).
    pub fn set_structure(&mut self, pos: usize, len: usize, kind: &str) -> Result<StructId> {
        if len == 0 {
            return Err(TextError::InvalidPosition {
                pos,
                len,
                doc_len: self.len(),
            });
        }
        self.check_range(pos, len)?;
        let from = self.chain.id_at_visible(pos).expect("range checked above");
        let to = self
            .chain
            .id_at_visible(pos + len - 1)
            .expect("range checked above");
        let t = *self.tdb.tables();
        let mut txn = self.begin();
        self.tdb
            .check_permission_txn(&txn, self.doc, self.user, Permission::Layout)?;
        let ts = self.tdb.now();
        let rid = txn.insert(
            t.structure,
            Row::new(vec![
                self.doc.value(),
                Value::Text(kind.to_owned()),
                from.value(),
                to.value(),
                self.user.value(),
                Value::Timestamp(ts),
                Value::Bool(false),
            ]),
        )?;
        let sid = StructId::from_row(rid);
        let op = self.log_op(&mut txn, "structure", crate::ids::OpId::NONE, ts)?;
        self.tdb
            .log_effects(&mut txn, op, "struct", &[CharId(sid.0)], &[], None)?;
        txn.commit()?;
        Ok(sid)
    }

    /// All live structure elements, with current visible spans.
    pub fn structures(&self) -> Result<Vec<StructureInfo>> {
        let t = self.tdb.tables();
        let txn = self.begin();
        let rows = txn.index_lookup(t.structure, "structure_by_doc", &[self.doc.value()])?;
        let mut out = Vec::new();
        for (rid, row) in rows {
            if row.get(6).and_then(|v| v.as_bool()).unwrap_or(false) {
                continue; // deleted (e.g. undone)
            }
            let from_char = row.get(2).map(CharId::from_value).unwrap_or(CharId::NONE);
            let to_char = row.get(3).map(CharId::from_value).unwrap_or(CharId::NONE);
            let span = match (
                self.chain.visible_rank(from_char),
                self.chain.visible_rank(to_char),
            ) {
                (Some(a), Some(b)) => Some((a, b)),
                _ => None,
            };
            out.push(StructureInfo {
                id: StructId::from_row(rid),
                kind: row
                    .get(1)
                    .and_then(|v| v.as_text())
                    .unwrap_or_default()
                    .to_owned(),
                from_char,
                to_char,
                span,
                author: row.get(4).map(UserId::from_value).unwrap_or(UserId::NONE),
                ts: row.get(5).and_then(|v| v.as_timestamp()).unwrap_or(0),
            });
        }
        out.sort_by_key(|s| s.span.map(|(a, _)| a).unwrap_or(usize::MAX));
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
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "Title and body text").unwrap();
        (tdb, user, h)
    }

    #[test]
    fn apply_and_read_styles() {
        let (tdb, user, mut h) = setup();
        let bold = tdb.define_style("bold", "weight=bold", user).unwrap();
        h.apply_style(0, 5, bold).unwrap();
        assert_eq!(h.style_at(0), Some(bold));
        assert_eq!(h.style_at(4), Some(bold));
        assert_eq!(h.style_at(5), Some(StyleId::NONE));
        let runs = h.style_runs();
        assert_eq!(runs[0], (bold, 5));
        assert_eq!(runs[1].0, StyleId::NONE);
    }

    #[test]
    fn styles_survive_reload() {
        let (tdb, user, mut h) = setup();
        let bold = tdb.define_style("bold", "weight=bold", user).unwrap();
        h.apply_style(6, 3, bold).unwrap();
        let h2 = tdb.open(h.doc(), user).unwrap();
        assert_eq!(h2.style_at(6), Some(bold));
        assert_eq!(h2.style_at(5), Some(StyleId::NONE));
    }

    #[test]
    fn style_change_is_undoable() {
        let (tdb, user, mut h) = setup();
        let bold = tdb.define_style("bold", "weight=bold", user).unwrap();
        let em = tdb.define_style("em", "style=italic", user).unwrap();
        h.apply_style(0, 3, bold).unwrap();
        h.apply_style(0, 3, em).unwrap();
        h.undo().unwrap();
        assert_eq!(h.style_at(0), Some(bold));
        h.undo().unwrap();
        assert_eq!(h.style_at(0), Some(StyleId::NONE));
        h.redo().unwrap();
        assert_eq!(h.style_at(0), Some(bold));
    }

    #[test]
    fn clear_style_resets() {
        let (tdb, user, mut h) = setup();
        let bold = tdb.define_style("bold", "weight=bold", user).unwrap();
        h.apply_style(0, 5, bold).unwrap();
        h.clear_style(0, 5).unwrap();
        assert_eq!(h.style_at(0), Some(StyleId::NONE));
    }

    #[test]
    fn layout_permission_enforced() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "text").unwrap();
        let bold = tdb.define_style("bold", "weight=bold", alice).unwrap();
        tdb.set_access(
            doc,
            alice,
            crate::security::Principal::User(alice),
            Permission::Layout,
            true,
        )
        .unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        assert!(matches!(
            hb.apply_style(0, 2, bold),
            Err(TextError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn structure_elements_track_positions() {
        let (_tdb, _user, mut h) = setup();
        let s = h.set_structure(0, 5, "heading1").unwrap();
        let all = h.structures().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].id, s);
        assert_eq!(all[0].kind, "heading1");
        assert_eq!(all[0].span, Some((0, 4)));
        // Inserting before the heading shifts its span.
        h.insert_text(0, ">> ").unwrap();
        let all = h.structures().unwrap();
        assert_eq!(all[0].span, Some((3, 7)));
    }

    #[test]
    fn structure_is_undoable() {
        let (_tdb, _user, mut h) = setup();
        h.set_structure(0, 5, "heading1").unwrap();
        assert_eq!(h.structures().unwrap().len(), 1);
        h.undo().unwrap();
        assert_eq!(h.structures().unwrap().len(), 0);
        h.redo().unwrap();
        assert_eq!(h.structures().unwrap().len(), 1);
    }

    #[test]
    fn structure_span_hides_when_anchor_deleted() {
        let (_tdb, _user, mut h) = setup();
        h.set_structure(0, 5, "heading1").unwrap();
        h.delete_range(0, 2).unwrap(); // removes the from anchor
        let all = h.structures().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].span, None);
    }
}
