//! Typed identifiers for the text extension.
//!
//! Every entity in TeNDaX is a database row; these newtypes wrap the row
//! ids so that a `CharId` can never be confused with a `UserId` at compile
//! time. `0` is reserved as "none" for nullable references stored in the
//! database.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use tendax_storage::{RowId, Value, ValueRef};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// The sentinel "no reference" id.
            pub const NONE: $name = $name(0);

            pub fn is_none(self) -> bool {
                self.0 == 0
            }

            pub fn from_row(row: RowId) -> Self {
                $name(row.0)
            }

            pub fn row(self) -> RowId {
                RowId(self.0)
            }

            /// As a database value (`Id`).
            pub fn value(self) -> Value {
                Value::Id(self.0)
            }

            /// As a nullable database value (`Null` when none).
            pub fn opt_value(self) -> Value {
                self.opt_view().to_value()
            }

            /// As a borrowed database value (`Id`).
            pub fn view(self) -> ValueRef<'static> {
                ValueRef::Id(self.0)
            }

            /// As a borrowed nullable database value (`Null` when none).
            pub fn opt_view(self) -> ValueRef<'static> {
                if self.is_none() {
                    ValueRef::Null
                } else {
                    ValueRef::Id(self.0)
                }
            }

            /// From a (possibly null) database value.
            pub fn from_value(v: ValueRef<'_>) -> Self {
                match v {
                    ValueRef::Id(x) => $name(x),
                    _ => $name::NONE,
                }
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// A document.
    DocId
);
id_type!(
    /// A single character tuple.
    CharId
);

/// Hasher for maps keyed by [`CharId`]: one multiplication.
///
/// Character ids are row ids the server allocates sequentially, never
/// values a peer chooses, so the default hasher's protection against
/// crafted collisions buys nothing here while costing most of a map
/// operation. The odd multiplier is a bijection on every low-bit window
/// (sequential ids land in distinct buckets) and scatters the high bits
/// the table uses as its per-slot tag.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CharIdHasher(u64);

impl Hasher for CharIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        // `CharId` hashes through `write_u64`; this keeps the hasher
        // correct for any other key shape.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// A map keyed by [`CharId`] (see [`CharIdHasher`]).
pub(crate) type CharMap<V> = HashMap<CharId, V, BuildHasherDefault<CharIdHasher>>;

id_type!(
    /// A registered user.
    UserId
);
id_type!(
    /// A role (group of users).
    RoleId
);
id_type!(
    /// A named layout style.
    StyleId
);
id_type!(
    /// A note attached to a character range.
    NoteId
);
id_type!(
    /// An embedded object (picture, table).
    ObjectId
);
id_type!(
    /// An entry in the operation log.
    OpId
);
id_type!(
    /// A structure element (heading, paragraph, list, …).
    StructId
);
id_type!(
    /// A named document version snapshot.
    VersionId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_roundtrips_through_nullable_value() {
        assert!(CharId::NONE.is_none());
        assert_eq!(CharId::NONE.opt_value(), Value::Null);
        assert_eq!(CharId::from_value(ValueRef::Null), CharId::NONE);
        assert_eq!(CharId::from_value(ValueRef::Id(5)), CharId(5));
        assert_eq!(CharId(5).opt_value(), Value::Id(5));
    }

    #[test]
    fn row_conversion() {
        let id = DocId::from_row(RowId(7));
        assert_eq!(id, DocId(7));
        assert_eq!(id.row(), RowId(7));
        assert_eq!(id.value(), Value::Id(7));
    }

    #[test]
    fn display_includes_type() {
        assert_eq!(UserId(3).to_string(), "UserId(3)");
    }
}
