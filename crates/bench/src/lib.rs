//! # tendax-bench
//!
//! The micro-benchmarks of the TeNDaX reproduction. One Criterion bench
//! per experiment id in `DESIGN.md` §4 (D1–D6, P1–P2, A1–A3), the
//! multi-thread storage benches (commit throughput and scaling, hot
//! documents, maintenance, version history, the read path's scans and
//! concurrent readers), plus two binaries that regenerate the paper's
//! figures:
//!
//! * `figure1_lineage` — the data-lineage visualization (Figure 1),
//! * `figure2_mining` — the visual-mining document space (Figure 2).
//!
//! The end-to-end keystroke benchmark is not here: it is the stand-alone
//! `benchmark/` package. [`workload`] holds the deterministic synthetic
//! generators that stand in for the demo's live documents (see the
//! substitution table in `DESIGN.md` §3), and [`stats`] is the shared
//! latency/JSON helper the benches report through.

pub mod stats;
pub mod workload;

pub use stats::{JsonValue, LatencyHistogram, LatencySummary};
pub use workload::{add_paste_web, build_corpus, edit_documents, shared_document, Corpus};
