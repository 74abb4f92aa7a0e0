//! # tendax-text
//!
//! The **Text Native Database eXtension** — the primary contribution of
//! "TeNDaX, a Collaborative Database-Based Real-Time Editor System"
//! (Leone et al., EDBT 2006), reproduced on top of [`tendax_storage`].
//!
//! Text is stored *natively* in the database: every character is a tuple
//! in a doubly-linked chain, and every editing action (typing, deleting,
//! copy–paste, layouting, annotating, embedding objects, undo/redo,
//! access-right changes) is one or more ACID transactions. Deleted
//! characters remain as tombstones carrying their full metadata, which is
//! what makes character-granular undo, versioning, lineage and mining
//! possible.
//!
//! ## Quick example
//!
//! ```
//! use tendax_text::TextDb;
//!
//! let tdb = TextDb::in_memory();
//! let alice = tdb.create_user("alice").unwrap();
//! let doc = tdb.create_document("report", alice).unwrap();
//!
//! let mut h = tdb.open(doc, alice).unwrap();
//! h.insert_text(0, "Hello, TeNDaX!").unwrap();
//! h.delete_range(0, 7).unwrap();
//! assert_eq!(h.text(), "TeNDaX!");
//! h.undo().unwrap();
//! assert_eq!(h.text(), "Hello, TeNDaX!");
//! ```

pub mod chain;
pub mod document;
pub mod error;
pub mod history;
pub mod ids;
pub mod layout;
pub mod meta;
pub mod notes;
pub mod objects;
pub mod ops;
pub mod render;
pub mod schema;
pub mod security;
mod stamps;
pub mod template;
pub mod textdb;
pub mod undo;
pub mod vacuum;
pub mod version;

pub use chain::Chain;
pub use document::{CharInfo, DocHandle, TextSource};
pub use error::{Result, TextError};
pub use history::HistoryEntry;
pub use ids::{
    CharId, DocId, NoteId, ObjectId, OpId, RoleId, StructId, StyleId, UserId, VersionId,
};
pub use layout::StructureInfo;
pub use meta::{CharMeta, DocStats, PasteEdge, PasteSource, Provenance};
pub use notes::NoteInfo;
pub use objects::ObjectInfo;
pub use ops::{Clip, EditReceipt, Effect};
pub use schema::Tables;
pub use security::{AclRule, Permission, Principal};
pub use template::{TemplateId, TemplateInfo};
pub use textdb::{DocInfo, TextDb};
pub use vacuum::PurgeStats;
pub use version::VersionInfo;
