//! # tendax-storage
//!
//! The DBMS substrate for the TeNDaX reproduction: an embedded,
//! multi-user, multi-versioned storage engine.
//!
//! TeNDaX ("Text Native Database eXtension", Leone et al., EDBT 2006)
//! stores every character of every document as a database tuple, and turns
//! every editing action into ACID transactions. This crate provides the
//! database those transactions run against:
//!
//! * typed rows and schemas ([`value`], [`schema`], [`mod@row`])
//! * multi-versioned tables with secondary indexes ([`table`], [`index`])
//! * snapshot-isolation transactions with first-committer-wins conflict
//!   detection ([`txn`], [`db`])
//! * a typed predicate/query layer with an index-aware planner ([`query`])
//! * a CRC-checked binary write-ahead log with crash recovery and
//!   checkpoint compaction ([`wal`])
//!
//! ## Quick example
//!
//! ```
//! use tendax_storage::{Database, TableDef, DataType, Predicate, Value, row};
//!
//! let db = Database::open_in_memory();
//! let docs = db
//!     .create_table(
//!         TableDef::new("docs")
//!             .column("name", DataType::Text)
//!             .column("author", DataType::Id)
//!             .index("docs_by_author", &["author"]),
//!     )
//!     .unwrap();
//!
//! let mut txn = db.begin();
//! txn.insert(docs, row!["report", 42u64]).unwrap();
//! txn.commit().unwrap();
//!
//! let reader = db.begin();
//! let hits = reader
//!     .scan(docs, &Predicate::Eq("author".into(), Value::Id(42)))
//!     .unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

pub mod aggregate;
pub mod clock;
pub mod cold;
pub(crate) mod commit;
pub mod db;
pub mod error;
pub mod index;
pub mod maintenance;
pub mod observer;
pub mod query;
pub mod row;
pub mod schema;
pub mod table;
pub mod txn;
pub mod util;
pub mod value;
pub mod vfs;
pub mod wal;

pub use aggregate::Aggregate;
pub use cold::ColdOptions;
pub use db::{Database, Options, Stats, TableStats};
pub use error::{Result, StorageError};
pub use maintenance::MaintenanceOptions;
pub use observer::{CommitObserver, CommittedRow, Replaced, TableWrites, WriteSet};
pub use query::{explain, plan_access, AccessPath, Predicate};
pub use row::{Columns, Row, RowId, SharedRow};
pub use schema::{ColumnDef, IndexDef, TableDef, TableId};
pub use table::{ResidentBytes, Ts, TS_LATEST};
pub use txn::{Durability, Transaction, TxnId};
pub use value::{DataType, Value, ValueRef};
pub use vfs::{os_vfs, OsVfs, SimVfs, Vfs, VfsFile};
pub use wal::{DurabilityLevel, WalShardStats};
