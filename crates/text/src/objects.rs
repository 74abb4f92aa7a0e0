//! Embedded objects: pictures and tables inside documents.
//!
//! An object is a blob row anchored at an object-replacement character
//! (`U+FFFC`) in the chain. Inserting the anchor and the blob happens in
//! one transaction; deleting the anchor character hides the object, and
//! undo brings both back (the anchor is an ordinary character).

use crate::document::DocHandle;
use crate::error::Result;
use crate::ids::{CharId, ObjectId, UserId};
use crate::ops::{EditReceipt, ObjectPayload};

/// Descriptor of an embedded object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    pub id: ObjectId,
    pub anchor: CharId,
    /// Current visible anchor position (None if the anchor is deleted).
    pub position: Option<usize>,
    pub kind: String,
    pub name: String,
    pub size: usize,
    pub author: UserId,
    pub ts: i64,
}

impl DocHandle {
    /// Embed an object (`kind` is e.g. `"image"` or `"table"`) at `pos`.
    pub fn insert_object(
        &mut self,
        pos: usize,
        kind: &str,
        name: &str,
        data: Vec<u8>,
    ) -> Result<(ObjectId, EditReceipt)> {
        let receipt = self.insert_object_chars(
            pos,
            ObjectPayload {
                kind: kind.to_owned(),
                name: name.to_owned(),
                data,
            },
        )?;
        // The object row was created in the same transaction; find it by
        // its anchor (the single inserted character).
        let anchor = match receipt.effects.first() {
            Some(crate::ops::Effect::Insert { char, .. }) => *char,
            _ => CharId::NONE,
        };
        let t = self.tdb.tables();
        let txn = self.begin();
        let rows = txn.index_lookup(t.objects, "objects_by_doc", &[self.doc.value()])?;
        let id = rows
            .into_iter()
            .find(|(_, row)| row.get(1).map(CharId::from_value) == Some(anchor))
            .map(|(rid, _)| ObjectId::from_row(rid))
            .unwrap_or(ObjectId::NONE);
        Ok((id, receipt))
    }

    /// All objects whose anchor exists in this document (deleted-anchor
    /// objects are listed with `position: None`).
    pub fn objects(&self) -> Result<Vec<ObjectInfo>> {
        let t = self.tdb.tables();
        let txn = self.begin();
        let rows = txn.index_lookup(t.objects, "objects_by_doc", &[self.doc.value()])?;
        let mut out: Vec<ObjectInfo> = rows
            .into_iter()
            .map(|(rid, row)| {
                let anchor = row.get(1).map(CharId::from_value).unwrap_or(CharId::NONE);
                ObjectInfo {
                    id: ObjectId::from_row(rid),
                    anchor,
                    position: self.chain.visible_rank(anchor),
                    kind: row
                        .get(2)
                        .and_then(|v| v.as_text())
                        .unwrap_or_default()
                        .to_owned(),
                    name: row
                        .get(3)
                        .and_then(|v| v.as_text())
                        .unwrap_or_default()
                        .to_owned(),
                    size: row.get(4).and_then(|v| v.as_bytes()).map_or(0, |b| b.len()),
                    author: row.get(5).map(UserId::from_value).unwrap_or(UserId::NONE),
                    ts: row.get(6).and_then(|v| v.as_timestamp()).unwrap_or(0),
                }
            })
            .collect();
        out.sort_by_key(|o| o.position.unwrap_or(usize::MAX));
        Ok(out)
    }

    /// Fetch an object's blob.
    pub fn object_data(&self, id: ObjectId) -> Result<Vec<u8>> {
        let t = self.tdb.tables();
        let txn = self.begin();
        let row = txn
            .get(t.objects, id.row())?
            .ok_or(crate::error::TextError::ChainCorrupt(format!(
                "object {id} missing"
            )))?;
        Ok(row
            .get(4)
            .and_then(|v| v.as_bytes())
            .unwrap_or_default()
            .to_vec())
    }
}

#[cfg(test)]
mod tests {
    use crate::textdb::TextDb;

    #[test]
    fn insert_and_fetch_object() {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "before after").unwrap();
        let (id, receipt) = h
            .insert_object(7, "image", "diagram.png", vec![1, 2, 3, 4])
            .unwrap();
        assert!(!id.is_none());
        assert_eq!(receipt.effects.len(), 1);
        assert_eq!(h.len(), 13); // anchor char counts
        assert_eq!(h.text().chars().nth(7), Some('\u{FFFC}'));

        let objs = h.objects().unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].kind, "image");
        assert_eq!(objs[0].name, "diagram.png");
        assert_eq!(objs[0].position, Some(7));
        assert_eq!(objs[0].size, 4);
        assert_eq!(h.object_data(id).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn deleting_anchor_hides_object_and_undo_restores() {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "x").unwrap();
        h.insert_object(1, "table", "t1", vec![9]).unwrap();
        h.delete_range(1, 1).unwrap();
        assert_eq!(h.objects().unwrap()[0].position, None);
        h.undo().unwrap();
        assert_eq!(h.objects().unwrap()[0].position, Some(1));
        // Undoing the object insertion itself removes the anchor.
        h.undo().unwrap();
        assert_eq!(h.text(), "x");
        assert_eq!(h.objects().unwrap()[0].position, None);
    }

    #[test]
    fn objects_survive_reload() {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_object(0, "image", "pic", vec![7; 128]).unwrap();
        let h2 = tdb.open(doc, user).unwrap();
        let objs = h2.objects().unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].size, 128);
        assert_eq!(objs[0].position, Some(0));
    }
}
