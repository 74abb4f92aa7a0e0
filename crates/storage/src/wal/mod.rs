//! Write-ahead logging and durability.
//!
//! Every committed transaction appends one [`WalRecord::Commit`] before its
//! effects become visible; on reopen the log — a checkpoint's base, then
//! the segments written after it — is replayed in order. Records are
//! length-prefixed, CRC-32-checked binary (see [`codec`]); a torn tail
//! (partial final record after a crash) is detected and discarded rather
//! than treated as corruption. Every log file starts with a
//! [`WalRecord::Format`] frame naming [`FORMAT_VERSION`]; a file that
//! starts with anything else is refused, not guessed at.

pub mod codec;
mod group;
mod log;

pub use group::WalShardStats;
pub(crate) use group::{GroupWal, WalTicket};
pub use log::{segment_path, LogEnd, WalFile, WalIter};
pub(crate) use log::{sibling, CheckpointFrames, LogFiles, TORN_MAX};

use crate::row::{RowId, SharedRow};
use crate::schema::{TableDef, TableId};
use crate::table::Ts;

/// The log format this build reads and writes (DESIGN.md, "On-disk
/// format v4"). There is no migration: any other version is refused with
/// [`crate::StorageError::UnsupportedFormat`]. v3 is v2 with checkpoint
/// rows coded against the row above them; v4 is v3 with no anchor list
/// after a patch op's values. The cold runs, whose values are puts and
/// deletes in the v2 op codec, did not change and keep their own version.
pub const FORMAT_VERSION: u32 = 4;

/// How hard the engine pushes commits toward the platter. A database
/// with no log at all is [`crate::Database::open_in_memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityLevel {
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
/// `Patch` is the log form of a column update ([`crate::Transaction::set`]):
/// only the columns the transaction wrote, by position, with the values
/// the commit published. Replay composes them onto the row's then-newest
/// state, which first-committer-wins makes the row the commit replaced.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    Put(SharedRow),
    Delete,
    Patch {
        fields: Vec<u32>,
        values: Vec<crate::value::Value>,
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
    /// The second frame of a base (a checkpoint's image): the segment the
    /// log goes on in.
    Base { segment: u64 },
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
