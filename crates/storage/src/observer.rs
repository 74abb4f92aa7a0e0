//! Commit observers: the database telling its clients what a
//! transaction wrote, as a by-product of committing it.
//!
//! [`Database::observe_commits`](crate::Database::observe_commits)
//! registers a [`CommitObserver`]; the commit path calls it once per
//! non-empty commit, after the versions are applied to the tables and
//! *before* the commit timestamp becomes the snapshot watermark.
//! Whatever an observer records for a commit is therefore in place
//! before any snapshot can contain that commit — a reader that takes a
//! snapshot `T` and then asks an observer "what is the newest commit
//! that touched X" gets an answer that covers every commit at or below
//! `T`, with no lock between reader and writer.
//!
//! The call happens on the committing thread, under the commit lock and
//! the write locks of the tables the commit touched, so observers are
//! called one commit at a time, in timestamp order: a commit's call
//! returns before the next commit validates. An observer does memory
//! work only: it must not call back into the database, cannot fail and
//! must not panic.
//! It is never called for an empty, conflicting or aborted transaction,
//! nor while a log is replayed.
//!
//! What it is handed is a [`WriteSet`]: a view of the write set borrowed
//! from the locked tables for the length of the call. Each row carries
//! the version the commit replaced and the version it published, read
//! from the row's version chain; nothing is copied or collected for it.

use std::collections::BTreeMap;

use parking_lot::RwLockWriteGuard;

use crate::row::{RowId, SharedRow};
use crate::schema::TableId;
use crate::table::{TableStore, Ts, VersionOp};
use crate::txn::WriteOp;

/// A commit's write set, borrowed from the tables it was applied to.
pub struct WriteSet<'a> {
    commit_ts: Ts,
    /// The write-locked tables, among them every table of `writes`.
    stores: &'a BTreeMap<TableId, RwLockWriteGuard<'a, TableStore>>,
    writes: &'a BTreeMap<TableId, BTreeMap<RowId, WriteOp>>,
}

impl<'a> WriteSet<'a> {
    pub(crate) fn new(
        commit_ts: Ts,
        stores: &'a BTreeMap<TableId, RwLockWriteGuard<'a, TableStore>>,
        writes: &'a BTreeMap<TableId, BTreeMap<RowId, WriteOp>>,
    ) -> WriteSet<'a> {
        WriteSet {
            commit_ts,
            stores,
            writes,
        }
    }

    /// The tables the commit wrote, in table-id order.
    pub fn tables(&self) -> impl Iterator<Item = TableWrites<'_>> + '_ {
        self.writes.iter().map(|(&table, rows)| TableWrites {
            set: self,
            table,
            store: &self.stores[&table],
            rows,
        })
    }
}

/// The rows a commit wrote to one table.
pub struct TableWrites<'a> {
    set: &'a WriteSet<'a>,
    table: TableId,
    store: &'a TableStore,
    rows: &'a BTreeMap<RowId, WriteOp>,
}

impl<'a> TableWrites<'a> {
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The rows, in row-id order.
    pub fn rows(&self) -> impl Iterator<Item = CommittedRow<'a>> + 'a {
        let (set, table, store) = (self.set, self.table, self.store);
        self.rows.keys().map(move |&row| {
            // The commit appended the chain's newest version; the one
            // below it is what it replaced. Validation found a chain for
            // every row the transaction did not insert, and vacuum never
            // takes a chain's newest version, so only an inserted row
            // has nothing below.
            let (top, below) = (store.versions(row).split_last())
                .expect("the commit applied a version to every row it wrote");
            debug_assert_eq!(top.commit_ts, set.commit_ts);
            let replaced = match below.last().map(|v| &v.op) {
                Some(VersionOp::Put(r)) => Replaced::Version(r),
                Some(VersionOp::Delete) | None => Replaced::Inserted,
            };
            let published = match &top.op {
                VersionOp::Put(r) => Some(r),
                VersionOp::Delete => None,
            };
            CommittedRow {
                table,
                row,
                replaced,
                published,
            }
        })
    }
}

/// One row a commit wrote.
#[derive(Debug, Clone, Copy)]
pub struct CommittedRow<'a> {
    pub table: TableId,
    pub row: RowId,
    /// What the row was before the commit.
    pub replaced: Replaced<'a>,
    /// The row as published: the written row, or for a column update the
    /// replaced row with those columns changed. `None` for a delete.
    pub published: Option<&'a SharedRow>,
}

/// The version a write replaced.
#[derive(Debug, Clone, Copy)]
pub enum Replaced<'a> {
    /// The commit inserted the row: nothing was there.
    Inserted,
    /// The newest version below the commit's.
    Version(&'a SharedRow),
}

impl<'a> Replaced<'a> {
    /// The replaced row, when it is known and was not a tombstone.
    pub fn row(&self) -> Option<&'a SharedRow> {
        match self {
            Replaced::Version(row) => Some(row),
            Replaced::Inserted => None,
        }
    }
}

/// A listener on the commit stream. See the module documentation for
/// when it is called and what it may do.
pub trait CommitObserver: Send + Sync {
    /// `writes` is the whole write set of the commit at `commit_ts`.
    /// Calls come one at a time, in timestamp order.
    fn committed(&self, commit_ts: Ts, writes: &WriteSet<'_>);
}
