//! Notes: annotations attached to character ranges.

use tendax_storage::{Row, Value};

use crate::document::DocHandle;
use crate::error::{Result, TextError};
use crate::ids::{CharId, NoteId, OpId, UserId};
use crate::security::Permission;

/// A note read back from the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoteInfo {
    pub id: NoteId,
    pub from_char: CharId,
    pub to_char: CharId,
    /// Current visible span, if both anchors are visible.
    pub span: Option<(usize, usize)>,
    pub author: UserId,
    pub ts: i64,
    pub text: String,
}

impl DocHandle {
    /// Attach a note to the visible range `[pos, pos + len)`.
    pub fn add_note(&mut self, pos: usize, len: usize, text: &str) -> Result<NoteId> {
        if len == 0 {
            return Err(TextError::InvalidPosition {
                pos,
                len,
                doc_len: self.len(),
            });
        }
        self.check_range(pos, len)?;
        let from = self.chain.id_at_visible(pos).expect("range checked");
        let to = self
            .chain
            .id_at_visible(pos + len - 1)
            .expect("range checked");
        let t = *self.tdb.tables();
        let mut txn = self.begin();
        self.tdb
            .check_permission_txn(&txn, self.doc, self.user, Permission::Annotate)?;
        let ts = self.tdb.now();
        let rid = txn.insert(
            t.notes,
            Row::new(vec![
                self.doc.value(),
                from.value(),
                to.value(),
                self.user.value(),
                Value::Timestamp(ts),
                Value::Text(text.to_owned()),
                Value::Bool(false),
            ]),
        )?;
        let nid = NoteId::from_row(rid);
        let op = self.log_op(&mut txn, "note", OpId::NONE, ts)?;
        self.tdb
            .log_effects(&mut txn, op, "note", &[CharId(nid.0)], &[], None)?;
        txn.commit()?;
        Ok(nid)
    }

    /// All live notes on this document, ordered by span start.
    pub fn notes(&self) -> Result<Vec<NoteInfo>> {
        let t = self.tdb.tables();
        let txn = self.begin();
        let rows = txn.index_lookup(t.notes, "notes_by_doc", &[self.doc.value()])?;
        let mut out = Vec::new();
        for (rid, row) in rows {
            if row.get(6).and_then(|v| v.as_bool()).unwrap_or(false) {
                continue;
            }
            let from_char = row.get(1).map(CharId::from_value).unwrap_or(CharId::NONE);
            let to_char = row.get(2).map(CharId::from_value).unwrap_or(CharId::NONE);
            let span = match (
                self.chain.visible_rank(from_char),
                self.chain.visible_rank(to_char),
            ) {
                (Some(a), Some(b)) => Some((a, b)),
                _ => None,
            };
            out.push(NoteInfo {
                id: NoteId::from_row(rid),
                from_char,
                to_char,
                span,
                author: row.get(3).map(UserId::from_value).unwrap_or(UserId::NONE),
                ts: row.get(4).and_then(|v| v.as_timestamp()).unwrap_or(0),
                text: row
                    .get(5)
                    .and_then(|v| v.as_text())
                    .unwrap_or_default()
                    .to_owned(),
            });
        }
        out.sort_by_key(|n| n.span.map(|(a, _)| a).unwrap_or(usize::MAX));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textdb::TextDb;

    #[test]
    fn add_and_list_notes() {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "needs review here").unwrap();
        let n = h.add_note(6, 6, "please check").unwrap();
        let notes = h.notes().unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].id, n);
        assert_eq!(notes[0].text, "please check");
        assert_eq!(notes[0].span, Some((6, 11)));
        assert_eq!(notes[0].author, user);
    }

    #[test]
    fn note_is_undoable() {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "text").unwrap();
        h.add_note(0, 4, "nit").unwrap();
        h.undo().unwrap();
        assert!(h.notes().unwrap().is_empty());
        h.redo().unwrap();
        assert_eq!(h.notes().unwrap().len(), 1);
    }

    #[test]
    fn annotate_permission_enforced() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "text").unwrap();
        tdb.set_access(
            doc,
            alice,
            crate::security::Principal::User(alice),
            Permission::Annotate,
            true,
        )
        .unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        assert!(matches!(
            hb.add_note(0, 2, "x"),
            Err(TextError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn empty_note_range_rejected() {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "x").unwrap();
        assert!(matches!(
            h.add_note(0, 0, "empty"),
            Err(TextError::InvalidPosition { .. })
        ));
    }
}
