//! # tendax-bench
//!
//! The benchmark harness of the TeNDaX reproduction. One Criterion bench
//! per experiment id in `DESIGN.md` §4 (D1–D6, P1–P2, A1–A2), plus two
//! binaries that regenerate the paper's figures:
//!
//! * `figure1_lineage` — the data-lineage visualization (Figure 1),
//! * `figure2_mining` — the visual-mining document space (Figure 2).
//!
//! [`workload`] holds the deterministic synthetic generators that stand
//! in for the demo's live documents (see the substitution table in
//! `DESIGN.md` §3). [`lanparty`] is the macro-workload engine behind
//! the `lan_party` scoreboard bench (`DESIGN.md` §5.9), and [`stats`]
//! is the shared latency/JSON observability layer every bench reports
//! through.

pub mod lanparty;
pub mod stats;
pub mod workload;

pub use lanparty::{OpClass, OpMix, RunReport, Schedule, WorkloadConfig, WorkloadOp};
pub use stats::{ClassRecorder, JsonValue, LatencyHistogram, LatencySummary};
pub use workload::{
    add_paste_web, build_corpus, edit_documents, shared_document, text_of_words, Corpus,
};
