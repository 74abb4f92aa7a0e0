//! Commit observers: the database telling its clients what a
//! transaction wrote, as a by-product of committing it.
//!
//! [`Database::observe_commits`](crate::Database::observe_commits)
//! registers a [`CommitObserver`]; the commit path calls it once per
//! non-empty commit, after the versions are applied to the tables and
//! *before* the commit timestamp is folded into the snapshot watermark.
//! Whatever an observer records for a commit is therefore in place
//! before any snapshot can contain that commit — a reader that takes a
//! snapshot `T` and then asks an observer "what is the newest commit
//! that touched X" gets an answer that covers every commit at or below
//! `T`, with no lock between reader and writer.
//!
//! The call happens on the committing thread, under the write locks of
//! the tables the commit touched. An observer does memory work only: it
//! must not call back into the database, cannot fail and must not panic.
//! It is never called for an empty, conflicting or aborted transaction,
//! nor while a log is replayed.

use crate::row::{RowId, SharedRow};
use crate::schema::TableId;
use crate::table::Ts;

/// One row a commit wrote.
#[derive(Debug, Clone)]
pub struct CommittedWrite {
    pub table: TableId,
    pub row: RowId,
    pub op: CommittedOp,
}

/// What a commit did to a row, with the row's bytes.
#[derive(Debug, Clone)]
pub enum CommittedOp {
    /// The row as published: the written row, or for a patch the row
    /// validation merged it into.
    Put(SharedRow),
    /// The version the delete removed; `None` when it was not resident.
    Delete(Option<SharedRow>),
}

impl CommittedWrite {
    /// The row this write published or removed, when it is known.
    pub fn data(&self) -> Option<&SharedRow> {
        match &self.op {
            CommittedOp::Put(row) => Some(row),
            CommittedOp::Delete(row) => row.as_ref(),
        }
    }
}

/// A listener on the commit stream. See the module documentation for
/// when it is called and what it may do.
pub trait CommitObserver: Send + Sync {
    /// `writes` is the whole write set of the commit at `commit_ts`, in
    /// table-id then row-id order. Commits to disjoint tables call
    /// concurrently and not in timestamp order: fold with `max`.
    fn committed(&self, commit_ts: Ts, writes: &[CommittedWrite]);
}
