//! # tendax-meta
//!
//! Metadata services of the TeNDaX reproduction — everything the demo
//! builds **on top of** automatically gathered creation-process metadata:
//!
//! * [`folders`] — dynamic folders: virtual folders defined by metadata
//!   predicates whose contents are "fluent and may change within seconds";
//! * [`lineage`] — data lineage: the copy-paste provenance graph and its
//!   renderings (Figure 1 of the paper);
//! * [`search`] — content/structure/metadata search with ranking options
//!   ("most cited", "newest", "most read", relevance);
//! * [`mining`] — visual mining (the 2-D document-space overview of
//!   Figure 2) and text mining (characteristic terms).
//!
//! The services recompute only what a commit touched (DESIGN.md §5.13).
//! Search and a folder's `ContentContains` read a document's text through
//! a [`tendax_text::TextSource`]: the database, or — as `tendax-core`
//! wires them — a collaboration server's live documents, which hand over
//! the copy an editor holds without waiting for its lock, and read the
//! database for the rest.

pub mod folders;
pub mod json;
pub mod lineage;
pub mod mining;
pub mod report;
pub mod search;

pub use folders::{DynamicFolders, Folder, FolderChange, FolderId, FolderRule, FolderSet};
pub use lineage::{char_provenance, LineageEdge, LineageGraph, LineageNode, ProvenanceHop};
pub use mining::{
    activity_timeline, collaboration_graph, collect_features, kmeans, normalize, pca_2d, top_terms,
    DocFeatures, DocumentSpace, SpacePoint, FEATURE_NAMES,
};
pub use report::{DocLine, WorkspaceReport};
pub use search::{
    tokenize, InvertedIndex, RankBy, SearchEngine, SearchFilter, SearchHit, SearchQuery, TermMode,
};
