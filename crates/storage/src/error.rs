//! Error types for the storage engine.

use std::fmt;

use crate::schema::TableId;
use crate::table::Ts;
use crate::txn::TxnId;
use crate::value::DataType;

/// Convenience alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// All failure modes surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The named table does not exist in the catalog.
    UnknownTable(String),
    /// The table id does not exist in the catalog.
    UnknownTableId(TableId),
    /// The named column does not exist in the table schema.
    UnknownColumn { table: String, column: String },
    /// The named index does not exist.
    UnknownIndex { table: String, index: String },
    /// A table with this name already exists.
    TableExists(String),
    /// An index with this name already exists on the table.
    IndexExists { table: String, index: String },
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        column: String,
        expected: DataType,
        actual: DataType,
    },
    /// A `NOT NULL` column received a null value.
    NullViolation { table: String, column: String },
    /// A unique index rejected a duplicate key.
    UniqueViolation { table: String, index: String },
    /// Row arity differs from the table schema.
    ArityMismatch { expected: usize, actual: usize },
    /// A table declared with more than [`crate::schema::MAX_COLUMNS`]
    /// columns.
    TooManyColumns { table: String, columns: usize },
    /// The row id is not visible (or never existed) in this snapshot.
    RowNotFound { table: String },
    /// Write-write conflict: another transaction committed a newer version
    /// of a row this transaction wrote. First committer wins.
    WriteConflict { table: String, txn: TxnId },
    /// `begin_at` asked for a snapshot older than the vacuum floor:
    /// versions it would need to read may already be pruned.
    SnapshotTooOld { requested: Ts, floor: Ts },
    /// The transaction has already been committed or aborted.
    TxnClosed(TxnId),
    /// A rollback to a savepoint whose writes a rollback to an earlier
    /// one discarded, or to another transaction's savepoint.
    StaleSavepoint,
    /// The write-ahead log contained a corrupt record.
    WalCorrupt { offset: u64, reason: String },
    /// A log or cold run written in another on-disk format version.
    /// Nothing was decoded, truncated or repaired; there is no migration.
    UnsupportedFormat { found: u32, expected: u32 },
    /// The log has a `.shard1` sibling: the database was left in the
    /// multi-file layout of the sharded log this build no longer has.
    /// Nothing was decoded, truncated or repaired. The last build that
    /// reads the layout converts it: open it there asking for one shard
    /// and checkpoint twice (the first converges the files, the second
    /// rewrites the barrier-wrapped frames the first one wrote).
    ShardedLayout { sibling: String },
    /// A WAL flush failed after the transaction's versions were already
    /// published; the log is poisoned and the database rejects further
    /// writes. The committed-in-memory state may not be durable.
    WalUnavailable(String),
    /// Underlying I/O failure (message-only so the error stays `Clone + Eq`).
    Io(String),
    /// Catch-all for invariant violations that indicate a bug.
    Internal(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            StorageError::UnknownTableId(id) => write!(f, "unknown table id {id:?}"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            StorageError::UnknownIndex { table, index } => {
                write!(f, "unknown index `{index}` on table `{table}`")
            }
            StorageError::TableExists(name) => write!(f, "table `{name}` already exists"),
            StorageError::IndexExists { table, index } => {
                write!(f, "index `{index}` already exists on table `{table}`")
            }
            StorageError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch for column `{column}`: expected {expected:?}, got {actual:?}"
            ),
            StorageError::NullViolation { table, column } => {
                write!(f, "null value for NOT NULL column `{table}.{column}`")
            }
            StorageError::UniqueViolation { table, index } => {
                write!(f, "unique violation on index `{index}` of table `{table}`")
            }
            StorageError::ArityMismatch { expected, actual } => {
                write!(f, "row has {actual} values, schema expects {expected}")
            }
            StorageError::TooManyColumns { table, columns } => write!(
                f,
                "table `{table}` declares {columns} columns, more than {}",
                crate::schema::MAX_COLUMNS
            ),
            StorageError::RowNotFound { table } => {
                write!(f, "row not found in table `{table}`")
            }
            StorageError::WriteConflict { table, txn } => {
                write!(f, "write-write conflict in table `{table}` (txn {txn:?})")
            }
            StorageError::SnapshotTooOld { requested, floor } => {
                write!(
                    f,
                    "snapshot {requested} is older than the vacuum floor {floor}"
                )
            }
            StorageError::TxnClosed(id) => write!(f, "transaction {id:?} is already closed"),
            StorageError::StaleSavepoint => {
                write!(f, "savepoint is stale or belongs to another transaction")
            }
            StorageError::WalCorrupt { offset, reason } => {
                write!(f, "WAL corrupt at offset {offset}: {reason}")
            }
            StorageError::UnsupportedFormat { found, expected } => write!(
                f,
                "on-disk format v{found} is not readable by this build (v{expected}); no migration"
            ),
            StorageError::ShardedLayout { sibling } => write!(
                f,
                "`{sibling}` exists: the log is in the sharded layout, which this build does not read"
            ),
            StorageError::WalUnavailable(msg) => {
                write!(f, "WAL unavailable (flush failed, log poisoned): {msg}")
            }
            StorageError::Io(msg) => write!(f, "I/O error: {msg}"),
            StorageError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = StorageError::UnknownTable("chars".into());
        assert_eq!(e.to_string(), "unknown table `chars`");
        let e = StorageError::NullViolation {
            table: "docs".into(),
            column: "name".into(),
        };
        assert!(e.to_string().contains("docs.name"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(ref m) if m.contains("boom")));
    }
}
