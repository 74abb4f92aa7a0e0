//! Document history: the audit view over the operation log.
//!
//! Every editing action is a logged transaction, so "who did what, when"
//! is a query. This is the data behind the demo's awareness and
//! versioning stories, and the per-document activity feed an editor
//! sidebar would show.

use tendax_storage::index::IndexKey;

use crate::document::DocHandle;
use crate::error::Result;
use crate::ids::{OpId, UserId};

/// One history entry (an `oplog` row, decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    pub op: OpId,
    pub user: UserId,
    pub user_name: String,
    pub ts: i64,
    pub kind: String,
    /// For undo/redo entries: the operation they acted on.
    pub target: Option<OpId>,
    /// Whether the operation is currently undone.
    pub undone: bool,
    /// Number of characters the operation touched.
    pub touched: usize,
}

impl DocHandle {
    /// The newest `limit` operations on this document, newest first.
    ///
    /// Walks the `(doc, ts)` index with a descending cursor, so the cost
    /// is proportional to `limit`, not to the document's full history.
    pub fn history(&self, limit: usize) -> Result<Vec<HistoryEntry>> {
        let t = self.tdb.tables();
        let txn = self.begin();
        let prefix = [self.doc.value()];
        let mut cursor: Option<IndexKey> = None;
        let mut out = Vec::with_capacity(limit.min(64));
        while out.len() < limit {
            let Some((key, rid, row)) =
                txn.index_prev(t.oplog, "oplog_by_doc_ts", &prefix, cursor.as_ref())?
            else {
                break;
            };
            let op = OpId::from_row(rid);
            let [user, ts, kind, target, undone] = row.cols([1, 2, 3, 4, 5]);
            let user = UserId::from_value(user);
            let touched = (self.tdb.effect_ranges(&txn, op)?.iter())
                .map(|range| range.count as usize)
                .sum();
            out.push(HistoryEntry {
                op,
                user,
                user_name: self
                    .tdb
                    .user_name(user)
                    .unwrap_or_else(|_| format!("user#{}", user.0)),
                ts: ts.as_timestamp().unwrap_or(0),
                kind: kind.as_text().unwrap_or_default().to_owned(),
                target: Some(OpId::from_value(target)).filter(|t| !t.is_none()),
                undone: undone.as_bool().unwrap_or(false),
                touched,
            });
            cursor = Some(key);
        }
        Ok(out)
    }

    /// Render the recent history as a human-readable activity feed.
    pub fn history_feed(&self, limit: usize) -> Result<String> {
        let mut out = String::new();
        for e in self.history(limit)? {
            out.push_str(&format!(
                "t={:<6} {:<10} {:<9} {} char(s){}{}\n",
                e.ts,
                e.user_name,
                e.kind,
                e.touched,
                if e.undone { " [undone]" } else { "" },
                e.target
                    .map(|t| format!(" (target op#{})", t.0))
                    .unwrap_or_default(),
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::textdb::TextDb;

    #[test]
    fn history_lists_newest_first() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "hello").unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        hb.insert_text(5, " world").unwrap();
        ha.refresh().unwrap();
        ha.delete_range(0, 2).unwrap();

        let history = ha.history(10).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(history[0].kind, "delete");
        assert_eq!(history[0].user_name, "alice");
        assert_eq!(history[0].touched, 2);
        assert_eq!(history[1].kind, "insert");
        assert_eq!(history[1].user_name, "bob");
        assert_eq!(history[1].touched, 6);
        assert_eq!(history[2].user_name, "alice");
        assert!(history[0].ts > history[1].ts);
    }

    #[test]
    fn history_limit_and_undo_markers() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("u").unwrap();
        let doc = tdb.create_document("d", u).unwrap();
        let mut h = tdb.open(doc, u).unwrap();
        for i in 0..5 {
            h.insert_text(i, "x").unwrap();
        }
        h.undo().unwrap();
        // limit respected
        assert_eq!(h.history(2).unwrap().len(), 2);
        let all = h.history(100).unwrap();
        assert_eq!(all.len(), 6); // 5 inserts + the undo op
        assert_eq!(all[0].kind, "undo");
        assert!(all[0].target.is_some());
        // The undone insert carries the marker.
        let undone: Vec<_> = all.iter().filter(|e| e.undone).collect();
        assert_eq!(undone.len(), 1);
        assert_eq!(undone[0].kind, "insert");

        let feed = h.history_feed(3).unwrap();
        assert!(feed.contains("undo"));
        assert!(feed.lines().count() == 3);
    }

    #[test]
    fn empty_document_has_empty_history() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("u").unwrap();
        let doc = tdb.create_document("d", u).unwrap();
        let h = tdb.open(doc, u).unwrap();
        assert!(h.history(10).unwrap().is_empty());
        assert_eq!(h.history_feed(10).unwrap(), "");
    }
}
