//! # tendax-core
//!
//! The public API facade of the **TeNDaX** reproduction — "TeNDaX, a
//! Collaborative Database-Based Real-Time Editor System" (Leone,
//! Hodel-Widmer, Böhlen, Dittrich, EDBT 2006).
//!
//! A [`Tendax`] instance bundles the whole system:
//!
//! * the storage engine and the Text Native eXtension ([`tendax_text`]),
//! * the collaboration server with sessions, awareness, one shared copy
//!   of each open document and the bus edits are published on
//!   ([`tendax_collab`]),
//! * dynamic in-document business processes ([`tendax_process`]),
//! * metadata services: dynamic folders, data lineage, search & ranking,
//!   visual/text mining ([`tendax_meta`]).
//!
//! ## Quick example
//!
//! ```
//! use tendax_core::{Platform, Tendax};
//!
//! let tx = Tendax::in_memory().unwrap();
//! let alice = tx.create_user("alice").unwrap();
//! tx.create_user("bob").unwrap();
//! tx.create_document("minutes", alice).unwrap();
//!
//! // Two editors, different platforms, one document.
//! let sa = tx.connect("alice", Platform::WindowsXp).unwrap();
//! let sb = tx.connect("bob", Platform::Linux).unwrap();
//! let mut da = sa.open("minutes").unwrap();
//! let db = sb.open("minutes").unwrap();
//!
//! da.type_text(0, "Agenda: demo").unwrap();
//! assert_eq!(db.text(), "Agenda: demo");
//! ```

use std::path::Path;

use tendax_collab::CollabServer;
use tendax_process::ProcessEngine;
use tendax_storage::Database;
use tendax_text::TextDb;

// Re-export the full public surface under one roof.
pub use tendax_collab::{
    AwarenessRegistry, DocEvent, EditorDoc, EditorSession, LanBus, Platform, Presence, SessionId,
    TransportStats,
};
pub use tendax_meta::{
    activity_timeline, char_provenance, collaboration_graph, top_terms, DocFeatures, DocumentSpace,
    DynamicFolders, Folder, FolderChange, FolderId, FolderRule, FolderSet, InvertedIndex,
    LineageEdge, LineageGraph, LineageNode, ProvenanceHop, RankBy, SearchEngine, SearchFilter,
    SearchHit, SearchQuery, SpacePoint, TermMode, WorkspaceReport, FEATURE_NAMES,
};
pub use tendax_process::{Assignee, Task, TaskId, TaskLogEntry, TaskSpec, TaskState};
pub use tendax_storage::{DurabilityLevel, Options, Stats};
pub use tendax_text::{
    CharId, CharMeta, Clip, DocHandle, DocId, DocInfo, DocStats, EditReceipt, Effect, NoteId,
    ObjectId, OpId, Permission, Principal, Provenance, Result, RoleId, StructId, StyleId,
    TextError, UserId, VersionId,
};

/// The assembled TeNDaX system.
#[derive(Debug, Clone)]
pub struct Tendax {
    tdb: TextDb,
    server: CollabServer,
    process: ProcessEngine,
    folders: DynamicFolders,
}

impl Tendax {
    /// A fresh in-memory instance (demos, tests, benches).
    pub fn in_memory() -> Result<Tendax> {
        Self::from_database(Database::open_in_memory())
    }

    /// A durable instance whose write-ahead log lives at `path`.
    pub fn open(path: impl AsRef<Path>, options: Options) -> Result<Tendax> {
        Self::from_database(Database::open(path, options)?)
    }

    /// Assemble the system on an existing database (installs all schemas
    /// idempotently — reopening a durable database adopts its tables).
    pub fn from_database(db: Database) -> Result<Tendax> {
        let tdb = TextDb::init(db)?;
        let process = ProcessEngine::init(tdb.clone())?;
        // The services read the texts the server's editors hold.
        let server = CollabServer::new(tdb.clone());
        let folders = DynamicFolders::init_over(server.live().clone())?;
        Ok(Tendax {
            tdb,
            server,
            process,
            folders,
        })
    }

    // ------------------------------------------------------------- access

    /// The text extension (documents, users, editing, security).
    pub fn textdb(&self) -> &TextDb {
        &self.tdb
    }

    /// The collaboration server (sessions, awareness, bus).
    pub fn server(&self) -> &CollabServer {
        &self.server
    }

    /// The in-document workflow engine.
    pub fn process(&self) -> &ProcessEngine {
        &self.process
    }

    /// The dynamic-folder engine. A `ContentContains` leaf reads the
    /// copies of the documents the server's editors hold.
    pub fn folders(&self) -> &DynamicFolders {
        &self.folders
    }

    /// Build a content+metadata search engine over the current corpus,
    /// reading the copies of the documents the server's editors hold.
    pub fn search(&self) -> Result<SearchEngine> {
        SearchEngine::build_over(self.server.live().clone())
    }

    /// Build the data-lineage graph (Figure 1 of the paper).
    pub fn lineage(&self) -> Result<LineageGraph> {
        LineageGraph::build(&self.tdb)
    }

    /// Build the visual-mining document space (Figure 2 of the paper).
    pub fn document_space(&self, clusters: usize) -> Result<DocumentSpace> {
        DocumentSpace::build(&self.tdb, clusters)
    }

    /// Build the workspace management report.
    pub fn report(&self) -> Result<WorkspaceReport> {
        WorkspaceReport::build(&self.tdb)
    }

    /// Storage-engine statistics.
    pub fn stats(&self) -> Stats {
        self.tdb.database().stats()
    }

    // -------------------------------------------------------- conveniences

    pub fn create_user(&self, name: &str) -> Result<UserId> {
        self.tdb.create_user(name)
    }

    pub fn create_document(&self, name: &str, creator: UserId) -> Result<DocId> {
        self.tdb.create_document(name, creator)
    }

    /// Connect an editor session for an existing user.
    pub fn connect(&self, user_name: &str, platform: Platform) -> Result<EditorSession> {
        self.server.connect(user_name, platform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stack_assembles() {
        let tx = Tendax::in_memory().unwrap();
        let alice = tx.create_user("alice").unwrap();
        let doc = tx.create_document("d", alice).unwrap();
        let session = tx.connect("alice", Platform::MacOsX).unwrap();
        let mut ed = session.open("d").unwrap();
        ed.type_text(0, "hello").unwrap();
        assert_eq!(ed.text(), "hello");

        // Workflow on the same document.
        let task = tx
            .process()
            .define_task(doc, alice, TaskSpec::new("review", Assignee::User(alice)))
            .unwrap();
        tx.process().complete(task, alice, "ok").unwrap();

        // Metadata services see the document.
        let hits = tx
            .search()
            .unwrap()
            .search(&SearchQuery::terms("hello"))
            .unwrap();
        assert_eq!(hits.len(), 1);
        let space = tx.document_space(1).unwrap();
        assert_eq!(space.points.len(), 1);
        assert!(tx.stats().commits > 0);
    }

    #[test]
    fn durable_instance_reopens() {
        let dir = std::env::temp_dir().join(format!("tendax-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("core-reopen.wal");
        let _ = std::fs::remove_file(&path);
        {
            let tx = Tendax::open(&path, Options::default()).unwrap();
            let u = tx.create_user("alice").unwrap();
            tx.create_document("persisted", u).unwrap();
            let s = tx.connect("alice", Platform::Linux).unwrap();
            let mut d = s.open("persisted").unwrap();
            d.type_text(0, "durable text").unwrap();
        }
        let tx = Tendax::open(&path, Options::default()).unwrap();
        let u = tx.textdb().user_by_name("alice").unwrap();
        let doc = tx.textdb().document_by_name("persisted").unwrap();
        let h = tx.textdb().open(doc, u).unwrap();
        assert_eq!(h.text(), "durable text");
    }
}
