//! Write-ahead logging and durability.
//!
//! Every committed transaction appends one [`WalRecord::Commit`] before its
//! effects become visible; on reopen the log is replayed in order. Records
//! are length-prefixed, CRC-32-checked binary (see [`codec`]); a torn tail
//! (partial final record after a crash) is detected and discarded rather
//! than treated as corruption. Every log file starts with a
//! [`WalRecord::Format`] frame naming [`FORMAT_VERSION`]; a file that
//! starts with anything else is refused, not guessed at.

pub mod codec;
mod group;
mod log;

pub use group::{GroupWal, WalShardStats, WalTicket};
pub(crate) use log::CheckpointFrames;
pub use log::{WalFile, WalIter};

use crate::row::{RowId, SharedRow};
use crate::schema::{TableDef, TableId};
use crate::table::Ts;

/// The log format this build reads and writes (DESIGN.md, "On-disk
/// format v3"). There is no migration: any other version is refused with
/// [`crate::StorageError::UnsupportedFormat`]. v3 is v2 with checkpoint
/// rows coded against the row above them; the cold runs, whose values
/// are v2 ops, did not change and keep their own version.
pub const FORMAT_VERSION: u32 = 3;

/// How hard the engine pushes commits toward the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityLevel {
    /// No WAL at all (in-memory database).
    None,
    /// Write to the OS (survives process crash, not power loss).
    Buffered,
    /// `fsync` every commit (survives power loss).
    Fsync,
}

/// One write inside a committed transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct WalWrite {
    pub table: TableId,
    pub row: RowId,
    pub op: WalOp,
}

/// The operation a write performed. Put holds the same shared row the
/// version store publishes, whose bytes are the op's encoding: writing
/// the frame copies them, decoding one checks them and keeps them.
///
/// `Patch` is the log form of a commutative described write: only the
/// columns the transaction actually wrote (by position, with the values
/// the commit published) plus its chain-neighborhood anchors. Replay
/// composes the delta onto the row's then-newest state, so a log that
/// survives only as a commit-order prefix still replays each merge
/// exactly as it published.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    Put(SharedRow),
    Delete,
    Patch {
        fields: Vec<u32>,
        values: Vec<crate::value::Value>,
        anchors: Vec<u64>,
    },
}

/// One row version inside a [`WalRecord::SnapshotRows`] batch, carrying
/// its original commit timestamp. Never a [`WalOp::Patch`]: checkpoints
/// compact to full rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotVersion {
    pub row: RowId,
    pub commit_ts: Ts,
    pub op: WalOp,
}

/// A log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The first frame of every log file: the format the rest of the
    /// file is written in.
    Format { version: u32 },
    /// Engine metadata written at checkpoint time: the next commit
    /// timestamp to hand out and the highest clock value observed.
    Meta { next_ts: Ts, clock: i64 },
    /// DDL: a table (re-)created with a fixed id.
    CreateTable { id: TableId, def: TableDef },
    /// DDL: a table dropped.
    DropTable { id: TableId },
    /// A committed transaction and all of its writes.
    Commit {
        commit_ts: Ts,
        writes: Vec<WalWrite>,
    },
    /// Row versions of one table emitted by a checkpoint (compacted
    /// history), in row-id order — the encoding delta-codes the ids.
    /// A checkpoint cuts a table into batches of about
    /// [`codec::SNAPSHOT_BATCH_BYTES`] of ops.
    SnapshotRows {
        table: TableId,
        rows: Vec<SnapshotVersion>,
    },
    /// Row-id allocator watermark for a table, written at checkpoint time
    /// so compacted-away (deleted) rows can never have their ids reused.
    Watermark { table: TableId, next_row_id: u64 },
}
