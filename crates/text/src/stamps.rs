//! Change stamps, and the metadata folded from the commit stream.
//!
//! "During document creation process and use, meta data is gathered
//! automatically" — the database already knows what every transaction
//! wrote, so the services that read metadata need not re-read the corpus
//! to learn what changed. One [`ChangeStamps`] per [`TextDb::init`] sits
//! on the storage engine's commit stream (a
//! [`tendax_storage::CommitObserver`]) and keeps, for every table whose
//! rows name a document, the newest commit timestamp per document, and
//! for every table the newest commit timestamp at all. A document nobody
//! asks about costs one `max` per commit.
//!
//! The rule every consumer of a stamp uses: a result computed at snapshot
//! `E` answers a reader at snapshot `T` iff `stamp ≤ E ≤ T`, where
//! `stamp` is read *after* `T` was taken. A commit is stamped before it
//! becomes visible, so once `T` is taken every commit at or below it is
//! already in `stamp`; `stamp ≤ E` then says no commit in `(E, T]`
//! touched the document, and the state at `E` is the state at `T`. A
//! stamp from a commit above `T` only makes the answer "recompute" —
//! conservative, never stale.
//!
//! One result is neither recomputed nor folded but *memoized* under the
//! same mutex: each (document, user) pair's edit rights, an [`Access`]
//! loaded at some snapshot `E`. It answers a reader at `T` by the rule
//! above, with the stamps of the three things rights are read from: the
//! document's `documents` row, its `acl` rows (tracked by their `doc`
//! column) and the `user_roles` table (untracked: any commit to it stamps
//! every document). At most [`MAX_RIGHTS`] pairs are kept: a new pair
//! that finds the memo full empties it.
//!
//! Two results are not recomputed but *folded*, under the same mutex as
//! the stamps: each document's [`DocStats`] (from `chars`, `oplog` and
//! `reads`) and the paste-edge totals of [`TextDb::paste_edges`] (from
//! `paste_events`). A fold is seeded by the from-tables computation at a
//! snapshot `E` and kept only if no commit above `E` has touched what it
//! covers by then. From there on every commit hands it what each row
//! contributed before and after — contribution(published) −
//! contribution(replaced) — and the fold queues those changes with their
//! commit timestamps. A reader at `T` applies the queued changes at or
//! below `max(T, at)`, where `at` is the snapshot the fold was last read
//! at, and answers the state there: every commit at or below it has been
//! queued, none above it applied. A write whose replaced version is not
//! resident drops the folds its table feeds, and so does a fold with
//! more than [`MAX_QUEUED`] changes nobody has read.
//!
//! [`TextDb::init`]: crate::TextDb::init
//! [`TextDb::paste_edges`]: crate::TextDb::paste_edges

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tendax_storage::{CommitObserver, SharedRow, TableId, Ts, WriteSet};

use crate::ids::{DocId, UserId};
use crate::meta::{DocStats, PasteAcc, PasteEdge, PastePart, StatsAcc, StatsPart, StatsTable};
use crate::schema::Tables;
use crate::security::Access;

/// Changes a fold queues before it is dropped instead: a bound on what a
/// fold nobody reads can hold.
pub(crate) const MAX_QUEUED: usize = 1024;

/// (Document, user) pairs whose rights are memoized at most.
pub(crate) const MAX_RIGHTS: usize = 1024;

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
    /// write whose previous version was not resident), or that committed
    /// before the table was tracked: stamps every document.
    unattributed: Ts,
    /// The two newest commits that wrote rows of each document, newest
    /// first (0 for none).
    docs: HashMap<DocId, [Ts; 2]>,
}

impl TableStamps {
    /// The two newest commits that stamp `doc`, newest first. Where they
    /// cannot be told apart, both are the newest.
    fn doc(&self, doc: DocId) -> [Ts; 2] {
        if self.key.is_none() {
            return [self.newest; 2];
        }
        let [newest, below] = self.docs.get(&doc).copied().unwrap_or_default();
        match self.unattributed {
            u if u >= newest => [u, newest],
            u => [newest, below.max(u)],
        }
    }

    fn stamp(&mut self, doc: DocId, ts: Ts) {
        let stamps = self.docs.entry(doc).or_default();
        // Observers see commits in timestamp order; one commit may stamp
        // a document more than once.
        debug_assert!(ts >= stamps[0], "commit {ts} observed after {}", stamps[0]);
        if ts > stamps[0] {
            *stamps = [ts, stamps[0]];
        }
    }
}

/// A state kept current by the changes of every commit since its seed.
pub(crate) trait Accumulate {
    /// What one row contributes.
    type Part;
    /// Add `part` (`by` = 1) or take it away (`by` = −1).
    fn apply(&mut self, part: &Self::Part, by: isize);
}

/// `acc` is the state at snapshot `at`; `queued` holds the changes of
/// commits above it, with their timestamps, in no particular order.
#[derive(Debug)]
struct Fold<A: Accumulate> {
    at: Ts,
    acc: A,
    queued: Vec<(Ts, A::Part, isize)>,
}

impl<A: Accumulate> Fold<A> {
    fn seeded(at: Ts, acc: A) -> Fold<A> {
        Fold {
            at,
            acc,
            queued: Vec::new(),
        }
    }

    /// Queue a change; `false` when the fold is full and must go.
    fn queue(&mut self, ts: Ts, part: A::Part, by: isize) -> bool {
        self.queued.push((ts, part, by));
        self.queued.len() <= MAX_QUEUED
    }

    /// The state at `max(at, self.at)`.
    fn read(&mut self, at: Ts) -> &A {
        let Fold {
            at: seen,
            acc,
            queued,
        } = self;
        *seen = (*seen).max(at);
        queued.retain(|(ts, part, by)| {
            let due = *ts <= *seen;
            if due {
                acc.apply(part, *by);
            }
            !due
        });
        acc
    }
}

/// One side of a row's change: the row, and the document it names.
type Side<'a> = Option<(&'a SharedRow, DocId)>;

/// What a table's rows are folded into.
#[derive(Debug, Clone, Copy)]
enum Feed {
    Stats(StatsTable),
    Pastes,
}

/// The folds one [`ChangeStamps`] keeps.
#[derive(Debug, Default)]
struct Folds {
    stats: HashMap<DocId, Fold<StatsAcc>>,
    pastes: Option<Fold<PasteAcc>>,
}

impl Folds {
    /// Fold one row's change — its contribution as published minus its
    /// contribution as replaced — into whatever `feed` keeps. Each side
    /// comes with the document it names.
    fn fold(&mut self, feed: Feed, ts: Ts, old: Side<'_>, new: Side<'_>) {
        match feed {
            Feed::Stats(table) => {
                if let (Some((a, doc)), Some((b, other))) = (old, new) {
                    if doc == other {
                        // A row rewritten with the same contribution (a
                        // purge's new anchor, an operation's flags)
                        // changes nothing.
                        let Some(fold) = self.stats.get_mut(&doc) else {
                            return;
                        };
                        let (was, is) = (StatsPart::of(table, a), StatsPart::of(table, b));
                        if was != is && !(fold.queue(ts, was, -1) && fold.queue(ts, is, 1)) {
                            self.stats.remove(&doc);
                        }
                        return;
                    }
                }
                for (side, by) in [(old, -1), (new, 1)] {
                    let Some((row, doc)) = side else { continue };
                    let Some(fold) = self.stats.get_mut(&doc) else {
                        continue;
                    };
                    if !fold.queue(ts, StatsPart::of(table, row), by) {
                        self.stats.remove(&doc);
                    }
                }
            }
            Feed::Pastes => {
                for (side, by) in [(old, -1), (new, 1)] {
                    let (Some(fold), Some((row, _))) = (&mut self.pastes, side) else {
                        continue;
                    };
                    let Some(part) = PastePart::of(row) else {
                        continue;
                    };
                    if !fold.queue(ts, part, by) {
                        self.pastes = None;
                    }
                }
            }
        }
    }

    /// Forget every fold `feed` keeps.
    fn drop_all(&mut self, feed: Feed) {
        match feed {
            Feed::Stats(_) => self.stats.clear(),
            Feed::Pastes => self.pastes = None,
        }
    }
}

#[derive(Debug, Default)]
struct State {
    tables: HashMap<TableId, TableStamps>,
    folds: Folds,
    /// Each pair's rights, with the snapshot they were loaded at.
    rights: HashMap<(DocId, UserId), (Ts, Arc<Access>)>,
}

impl State {
    fn doc_stamp(&self, tables: &[TableId], doc: DocId) -> Ts {
        (tables.iter())
            .filter_map(|t| self.tables.get(t))
            .map(|t| t.doc(doc)[0])
            .max()
            .unwrap_or(0)
    }
}

/// The stamp table and the folds it guards. Holds no database handle:
/// the database refers to it weakly, its `TextDb`s strongly.
#[derive(Debug)]
pub(crate) struct ChangeStamps {
    state: Mutex<State>,
    /// The tables a document's statistics are folded from, in the
    /// order of [`StatsTable`].
    stats_tables: [TableId; 3],
    paste_events: TableId,
    /// The tables rights are read from: `documents`, `acl`, `user_roles`.
    rights_tables: [TableId; 3],
}

impl ChangeStamps {
    /// Stamps for the text schema's own tables.
    pub(crate) fn for_schema(t: &Tables) -> ChangeStamps {
        let stamps = ChangeStamps {
            state: Mutex::default(),
            stats_tables: [t.chars, t.oplog, t.reads],
            paste_events: t.paste_events,
            rights_tables: [t.documents, t.acl, t.user_roles],
        };
        stamps.track(t.documents, DocKey::RowId);
        for table in [t.chars, t.oplog, t.reads, t.paste_events, t.acl] {
            stamps.track(table, DocKey::Column(0));
        }
        stamps
    }

    fn feed(&self, table: TableId) -> Option<Feed> {
        let [chars, oplog, reads] = self.stats_tables;
        Some(match table {
            _ if table == chars => Feed::Stats(StatsTable::Chars),
            _ if table == oplog => Feed::Stats(StatsTable::Oplog),
            _ if table == reads => Feed::Stats(StatsTable::Reads),
            _ if table == self.paste_events => Feed::Pastes,
            _ => return None,
        })
    }

    /// Attribute `table`'s writes to documents from now on. Whatever was
    /// committed to it so far counts against every document.
    pub(crate) fn track(&self, table: TableId, key: DocKey) {
        let mut state = self.state.lock();
        let t = state.tables.entry(table).or_default();
        if t.key.is_none() {
            t.key = Some(key);
            t.unattributed = t.newest;
        }
    }

    /// Newest commit that touched `doc` in any of `tables`.
    pub(crate) fn doc_stamp(&self, tables: &[TableId], doc: DocId) -> Ts {
        self.state.lock().doc_stamp(tables, doc)
    }

    /// The two newest commits that touched `doc` in `table`, newest
    /// first.
    pub(crate) fn doc_stamps(&self, table: TableId, doc: DocId) -> [Ts; 2] {
        (self.state.lock().tables.get(&table)).map_or([0; 2], |t| t.doc(doc))
    }

    /// Newest commit that wrote `table`.
    pub(crate) fn table_stamp(&self, table: TableId) -> Ts {
        self.state.lock().tables.get(&table).map_or(0, |t| t.newest)
    }

    /// The folded statistics of `doc`, for a reader that took snapshot
    /// `at`, if a fold of them is kept.
    pub(crate) fn doc_stats(&self, doc: DocId, at: Ts) -> Option<DocStats> {
        let mut state = self.state.lock();
        Some(state.folds.stats.get_mut(&doc)?.read(at).stats(doc))
    }

    /// Seed the fold of `doc`'s statistics with `acc`, computed at
    /// snapshot `at` — unless a commit above `at` touched the document
    /// already: its changes were not queued anywhere.
    pub(crate) fn seed_doc_stats(&self, doc: DocId, at: Ts, acc: StatsAcc) {
        let mut state = self.state.lock();
        if state.doc_stamp(&self.stats_tables, doc) <= at {
            state
                .folds
                .stats
                .entry(doc)
                .or_insert(Fold::seeded(at, acc));
        }
    }

    /// `user`'s rights on `doc` for a reader that took snapshot `at`, if
    /// the memo holds them loaded at or below `at` and no commit above
    /// that touched what they were read from.
    pub(crate) fn rights(&self, doc: DocId, user: UserId, at: Ts) -> Option<Arc<Access>> {
        let state = self.state.lock();
        let (loaded, access) = state.rights.get(&(doc, user))?;
        let fresh = *loaded <= at && state.doc_stamp(&self.rights_tables, doc) <= *loaded;
        fresh.then(|| access.clone())
    }

    /// Memoize `user`'s rights on `doc`, loaded at snapshot `at` — unless
    /// a commit above `at` changed them already. A new pair that finds the
    /// memo full empties it first.
    pub(crate) fn keep_rights(&self, doc: DocId, user: UserId, at: Ts, access: Arc<Access>) {
        let mut state = self.state.lock();
        if state.doc_stamp(&self.rights_tables, doc) > at {
            return;
        }
        let key = (doc, user);
        if state.rights.len() >= MAX_RIGHTS && !state.rights.contains_key(&key) {
            state.rights.clear();
        }
        state.rights.insert(key, (at, access));
    }

    /// Pairs whose rights the memo holds.
    #[cfg(test)]
    pub(crate) fn rights_len(&self) -> usize {
        self.state.lock().rights.len()
    }

    /// The folded paste-edge totals, for a reader that took snapshot
    /// `at`, if a fold of them is kept.
    pub(crate) fn paste_edges(&self, at: Ts) -> Option<Vec<PasteEdge>> {
        let mut state = self.state.lock();
        Some(state.folds.pastes.as_mut()?.read(at).edges())
    }

    /// Seed the paste-edge fold, computed at snapshot `at`, unless a
    /// commit above `at` wrote `paste_events` already.
    pub(crate) fn seed_paste_edges(&self, at: Ts, acc: PasteAcc) {
        let mut state = self.state.lock();
        let stamp = state.tables.get(&self.paste_events).map_or(0, |t| t.newest);
        if stamp <= at && state.folds.pastes.is_none() {
            state.folds.pastes = Some(Fold::seeded(at, acc));
        }
    }
}

impl CommitObserver for ChangeStamps {
    fn committed(&self, commit_ts: Ts, writes: &WriteSet<'_>) {
        let mut state = self.state.lock();
        let State { tables, folds, .. } = &mut *state;
        for table in writes.tables() {
            let t = tables.entry(table.table()).or_default();
            t.newest = t.newest.max(commit_ts);
            let Some(key) = t.key else { continue };
            let feed = self.feed(table.table());
            for w in table.rows() {
                let (old, new) = (w.replaced.row(), w.published);
                let (was, is) = match key {
                    DocKey::RowId => (None, Some(DocId::from_row(w.row))),
                    DocKey::Column(c) => {
                        let doc = |row: &SharedRow| row.get(c).and_then(|v| v.as_id()).map(DocId);
                        (old.and_then(doc), new.and_then(doc))
                    }
                };
                for doc in [is, was.filter(|_| was != is)].into_iter().flatten() {
                    t.stamp(doc, commit_ts);
                }
                // A row that names no document stamps every document, and
                // every fold this table feeds is dropped.
                if (was, is) == (None, None) {
                    t.unattributed = t.unattributed.max(commit_ts);
                    if let Some(feed) = feed {
                        folds.drop_all(feed);
                    }
                    continue;
                }
                if let Some(feed) = feed {
                    folds.fold(feed, commit_ts, old.zip(was), new.zip(is));
                }
            }
        }
    }
}
