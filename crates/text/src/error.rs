//! Error types for the text extension.

use std::fmt;

use tendax_storage::StorageError;

use crate::ids::{DocId, UserId};
use crate::security::Permission;

pub type Result<T> = std::result::Result<T, TextError>;

/// Failure modes of the TeNDaX text layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// Underlying storage failure (including write-write conflicts, which
    /// callers may retry).
    Storage(StorageError),
    /// Named user does not exist.
    UnknownUser(String),
    /// User id does not exist.
    UnknownUserId(UserId),
    /// Named role does not exist.
    UnknownRole(String),
    /// Named document does not exist.
    UnknownDocument(String),
    /// Document id does not exist.
    UnknownDocumentId(DocId),
    /// Named style does not exist.
    UnknownStyle(String),
    /// The user lacks a permission on the document.
    PermissionDenied {
        user: UserId,
        doc: DocId,
        perm: Permission,
    },
    /// The edit touches a protected character range.
    RangeProtected { doc: DocId, pos: usize },
    /// Position/length outside the document.
    InvalidPosition {
        pos: usize,
        len: usize,
        doc_len: usize,
    },
    /// Undo requested but no undoable operation exists.
    NothingToUndo,
    /// Redo requested but no redoable operation exists.
    NothingToRedo,
    /// An optimistic edit was retried to its attempt limit and every
    /// attempt hit a transient conflict. Not itself retryable — the
    /// caller should back off at a coarser granularity. `last` carries
    /// the final attempt's underlying error so the caller can see *what*
    /// kept conflicting, not just that something did.
    RetriesExhausted {
        attempts: usize,
        last: Option<Box<TextError>>,
    },
    /// The character chain in the database is inconsistent.
    ChainCorrupt(String),
    /// A name that must be unique already exists.
    NameTaken(String),
    /// Named version snapshot does not exist.
    UnknownVersion(String),
    /// A table of the TeNDaX schema exists with other columns than this
    /// build expects (e.g. `op_effects` as written before range effects).
    /// The database is refused, never misread, and left untouched.
    SchemaMismatch {
        table: String,
        found: String,
        expected: String,
    },
}

impl TextError {
    /// Whether retrying the operation may succeed (optimistic-concurrency
    /// conflicts are transient; everything else is not).
    pub fn is_retryable(&self) -> bool {
        matches!(self, TextError::Storage(StorageError::WriteConflict { .. }))
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextError::Storage(e) => write!(f, "storage error: {e}"),
            TextError::UnknownUser(n) => write!(f, "unknown user `{n}`"),
            TextError::UnknownUserId(id) => write!(f, "unknown user {id}"),
            TextError::UnknownRole(n) => write!(f, "unknown role `{n}`"),
            TextError::UnknownDocument(n) => write!(f, "unknown document `{n}`"),
            TextError::UnknownDocumentId(id) => write!(f, "unknown document {id}"),
            TextError::UnknownStyle(n) => write!(f, "unknown style `{n}`"),
            TextError::PermissionDenied { user, doc, perm } => {
                write!(f, "{user} lacks {perm:?} on {doc}")
            }
            TextError::RangeProtected { doc, pos } => {
                write!(f, "position {pos} of {doc} is write-protected")
            }
            TextError::InvalidPosition { pos, len, doc_len } => {
                write!(f, "range {pos}+{len} outside document of length {doc_len}")
            }
            TextError::NothingToUndo => write!(f, "nothing to undo"),
            TextError::NothingToRedo => write!(f, "nothing to redo"),
            TextError::RetriesExhausted { attempts, last } => {
                write!(f, "edit still conflicting after {attempts} attempts")?;
                if let Some(last) = last {
                    write!(f, " (last: {last})")?;
                }
                Ok(())
            }
            TextError::ChainCorrupt(msg) => write!(f, "character chain corrupt: {msg}"),
            TextError::NameTaken(n) => write!(f, "name `{n}` already taken"),
            TextError::UnknownVersion(n) => write!(f, "unknown version `{n}`"),
            TextError::SchemaMismatch {
                table,
                found,
                expected,
            } => write!(
                f,
                "table `{table}` has columns ({found}), this build expects ({expected})"
            ),
        }
    }
}

impl std::error::Error for TextError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TextError::Storage(e) => Some(e),
            TextError::RetriesExhausted {
                last: Some(last), ..
            } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<StorageError> for TextError {
    fn from(e: StorageError) -> Self {
        TextError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability() {
        let conflict = TextError::Storage(StorageError::WriteConflict {
            table: "chars".into(),
            txn: tendax_storage::TxnId(1),
        });
        assert!(conflict.is_retryable());
        assert!(!TextError::RetriesExhausted {
            attempts: 16,
            last: None
        }
        .is_retryable());
        assert!(!TextError::NothingToUndo.is_retryable());
        assert!(!TextError::Storage(StorageError::UnknownTable("x".into())).is_retryable());
    }

    #[test]
    fn display() {
        let e = TextError::PermissionDenied {
            user: UserId(1),
            doc: DocId(2),
            perm: Permission::Write,
        };
        assert!(e.to_string().contains("Write"));
    }
}
