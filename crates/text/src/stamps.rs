//! Change stamps: which commit last touched which document.
//!
//! "During document creation process and use, meta data is gathered
//! automatically" — the database already knows what every transaction
//! wrote, so the services that read metadata need not re-read the corpus
//! to learn what changed. One [`ChangeStamps`] per [`TextDb::init`] sits
//! on the storage engine's commit stream (a
//! [`tendax_storage::CommitObserver`]) and keeps, for every table whose
//! rows name a document, the newest commit timestamp per document, and
//! for every table the newest commit timestamp at all. Nothing else is
//! stored: a document nobody asks about costs one `max` per commit.
//!
//! The rule every consumer uses: a result computed at snapshot `E`
//! answers a reader at snapshot `T` iff `stamp ≤ E ≤ T`, where `stamp`
//! is read *after* `T` was taken. A commit is stamped before it becomes
//! visible, so once `T` is taken every commit at or below it is already
//! in `stamp`; `stamp ≤ E` then says no commit in `(E, T]` touched the
//! document, and the state at `E` is the state at `T`. A stamp from a
//! commit above `T` only makes the answer "recompute" — conservative,
//! never stale.
//!
//! [`TextDb::doc_stats`] is the first such result: it is memoized here,
//! next to the stamps that guard it, so every clone of a `TextDb` shares
//! one memo.
//!
//! [`TextDb::init`]: crate::TextDb::init
//! [`TextDb::doc_stats`]: crate::TextDb::doc_stats

use std::collections::HashMap;

use parking_lot::Mutex;
use tendax_storage::{CommitObserver, CommittedWrite, TableId, Ts};

use crate::ids::DocId;
use crate::meta::DocStats;
use crate::schema::Tables;

/// How a table's rows name their document.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DocKey {
    /// The row *is* the document (`documents`).
    RowId,
    /// An `Id` column holds the document (`chars.doc`, …).
    Column(usize),
}

#[derive(Debug, Default)]
struct TableStamps {
    /// Newest commit that wrote the table.
    newest: Ts,
    /// `None`: rows are not attributed, every document answers `newest`.
    key: Option<DocKey>,
    /// Newest commit whose document could not be read off the row (a
    /// delete whose previous version was not resident), or that
    /// committed before the table was tracked: stamps every document.
    unattributed: Ts,
    docs: HashMap<DocId, Ts>,
}

impl TableStamps {
    fn doc(&self, doc: DocId) -> Ts {
        match self.key {
            None => self.newest,
            Some(_) => (self.docs.get(&doc).copied().unwrap_or(0)).max(self.unattributed),
        }
    }
}

/// The stamp table and the `doc_stats` memo it guards. Holds no
/// database handle: the database refers to it weakly, its `TextDb`s
/// strongly.
#[derive(Debug, Default)]
pub(crate) struct ChangeStamps {
    tables: Mutex<HashMap<TableId, TableStamps>>,
    /// One entry per document: the snapshot it was computed at, and the
    /// statistics.
    doc_stats: Mutex<HashMap<DocId, (Ts, DocStats)>>,
}

impl ChangeStamps {
    /// Stamps for the text schema's own tables.
    pub(crate) fn for_schema(t: &Tables) -> ChangeStamps {
        let stamps = ChangeStamps::default();
        stamps.track(t.documents, DocKey::RowId);
        for table in [t.chars, t.oplog, t.reads, t.paste_events] {
            stamps.track(table, DocKey::Column(0));
        }
        stamps
    }

    /// Attribute `table`'s writes to documents from now on. Whatever was
    /// committed to it so far counts against every document.
    pub(crate) fn track(&self, table: TableId, key: DocKey) {
        let mut tables = self.tables.lock();
        let t = tables.entry(table).or_default();
        if t.key.is_none() {
            t.key = Some(key);
            t.unattributed = t.newest;
        }
    }

    /// Newest commit that touched `doc` in any of `tables`.
    pub(crate) fn doc_stamp(&self, tables: &[TableId], doc: DocId) -> Ts {
        let stamps = self.tables.lock();
        tables
            .iter()
            .filter_map(|t| stamps.get(t))
            .map(|t| t.doc(doc))
            .max()
            .unwrap_or(0)
    }

    /// Newest commit that wrote `table`.
    pub(crate) fn table_stamp(&self, table: TableId) -> Ts {
        self.tables.lock().get(&table).map_or(0, |t| t.newest)
    }

    /// The memoized statistics of `doc`, if they answer a reader at
    /// snapshot `at` given the document's `stamp`.
    pub(crate) fn cached_stats(&self, doc: DocId, stamp: Ts, at: Ts) -> Option<DocStats> {
        let memo = self.doc_stats.lock();
        let (computed_at, stats) = memo.get(&doc)?;
        (stamp <= *computed_at && *computed_at <= at).then(|| stats.clone())
    }

    /// Keep `stats`, computed at snapshot `at`, unless a newer
    /// computation got there first.
    pub(crate) fn store_stats(&self, doc: DocId, at: Ts, stats: DocStats) {
        let mut memo = self.doc_stats.lock();
        if memo.get(&doc).is_none_or(|(newer, _)| *newer <= at) {
            memo.insert(doc, (at, stats));
        }
    }
}

impl CommitObserver for ChangeStamps {
    fn committed(&self, commit_ts: Ts, writes: &[CommittedWrite]) {
        let mut tables = self.tables.lock();
        // A write set is grouped by table: look each table up once.
        for group in writes.chunk_by(|a, b| a.table == b.table) {
            let t = tables.entry(group[0].table).or_default();
            t.newest = t.newest.max(commit_ts);
            let Some(key) = t.key else { continue };
            for w in group {
                let doc = match key {
                    DocKey::RowId => Some(DocId::from_row(w.row)),
                    DocKey::Column(c) => (w.data())
                        .and_then(|row| row.get(c))
                        .and_then(|v| v.as_id())
                        .map(DocId),
                };
                match doc {
                    Some(doc) => {
                        let stamp = t.docs.entry(doc).or_insert(0);
                        *stamp = (*stamp).max(commit_ts);
                    }
                    None => t.unattributed = t.unattributed.max(commit_ts),
                }
            }
        }
    }
}
