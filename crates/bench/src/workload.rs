//! Synthetic workload generators for the TeNDaX bench harness.
//!
//! The paper demoed on live documents; we have none, so these generators
//! build corpora whose *shape* matters for the experiments: documents of
//! controlled size, multi-user authorship, read histories, and copy-paste
//! graphs with chains and fan-out (the inputs to lineage, folders, search
//! and mining). Deterministic under a fixed seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tendax_core::{DocId, Platform, Tendax, UserId};

/// A small vocabulary so search/mining have realistic term statistics.
const WORDS: [&str; 24] = [
    "database",
    "document",
    "editor",
    "transaction",
    "metadata",
    "character",
    "collaboration",
    "workflow",
    "security",
    "undo",
    "paste",
    "lineage",
    "folder",
    "search",
    "mining",
    "text",
    "revenue",
    "contract",
    "review",
    "draft",
    "server",
    "client",
    "index",
    "snapshot",
];

/// Generate `n` words of pseudo-text.
fn text_of_words(rng: &mut SmallRng, n: usize) -> String {
    let mut out = String::with_capacity(n * 8);
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    out
}

/// A generated corpus handle.
pub struct Corpus {
    pub tendax: Tendax,
    pub users: Vec<UserId>,
    pub user_names: Vec<String>,
    pub docs: Vec<DocId>,
}

/// Build a corpus: `n_users` users, `n_docs` documents of roughly
/// `words_per_doc` words each, written by round-robin authors, with read
/// events sprinkled in.
pub fn build_corpus(n_users: usize, n_docs: usize, words_per_doc: usize, seed: u64) -> Corpus {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tendax = Tendax::in_memory().expect("in-memory instance");
    let mut users = Vec::with_capacity(n_users);
    let mut user_names = Vec::with_capacity(n_users);
    for i in 0..n_users {
        let name = format!("user{i}");
        users.push(tendax.create_user(&name).expect("fresh user"));
        user_names.push(name);
    }
    let mut docs = Vec::with_capacity(n_docs);
    for d in 0..n_docs {
        let creator = users[d % n_users];
        let doc = tendax
            .create_document(&format!("doc{d:04}"), creator)
            .expect("fresh doc");
        let mut h = tendax.textdb().open(doc, creator).expect("open");
        // A couple of edit bursts by different authors.
        let bursts = 1 + d % 3;
        for b in 0..bursts {
            let author = users[(d + b) % n_users];
            let mut ha = if author == creator && b == 0 {
                std::mem::replace(&mut h, tendax.textdb().open(doc, creator).expect("reopen"))
            } else {
                tendax.textdb().open(doc, author).expect("open as author")
            };
            let words = words_per_doc / bursts;
            let text = text_of_words(&mut rng, words.max(1));
            let pos = rng.gen_range(0..=ha.len());
            ha.insert_text(pos, &text).expect("insert burst");
        }
        // Read events by random users.
        for _ in 0..rng.gen_range(0..4) {
            let reader = users[rng.gen_range(0..n_users)];
            let _ = tendax.textdb().open(doc, reader);
        }
        docs.push(doc);
    }
    Corpus {
        tendax,
        users,
        user_names,
        docs,
    }
}

/// Overlay a copy-paste web on a corpus: `n_pastes` pastes whose source
/// is a random earlier document (chains + fan-out) and occasionally an
/// external source.
pub fn add_paste_web(corpus: &Corpus, n_pastes: usize, external_every: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tdb = corpus.tendax.textdb();
    for i in 0..n_pastes {
        let dst_idx = rng.gen_range(0..corpus.docs.len());
        let dst = corpus.docs[dst_idx];
        let user = corpus.users[rng.gen_range(0..corpus.users.len())];
        let mut hd = tdb.open(dst, user).expect("open dst");
        if external_every > 0 && i % external_every == 0 {
            let pos = rng.gen_range(0..=hd.len());
            hd.paste_external(
                pos,
                "externally sourced text",
                &format!("https://source{}.example", i % 5),
            )
            .expect("external paste");
            continue;
        }
        // Prefer an earlier doc as source (builds chains).
        let src_idx = rng.gen_range(0..corpus.docs.len());
        if src_idx == dst_idx {
            continue;
        }
        let src = corpus.docs[src_idx];
        let hs = tdb.open(src, user).expect("open src");
        if hs.len() < 4 {
            continue;
        }
        let start = rng.gen_range(0..hs.len() - 3);
        let len = rng.gen_range(3..=12.min(hs.len() - start));
        let clip = hs.copy(start, len).expect("copy");
        let pos = rng.gen_range(0..=hd.len());
        hd.paste(pos, &clip).expect("paste");
    }
}

/// Type one character into each of `k` documents, starting at document
/// `from` and wrapping: the churn between two sweeps of a steady-state
/// service ("k of n documents edited").
pub fn edit_documents(corpus: &Corpus, from: usize, k: usize) {
    let tdb = corpus.tendax.textdb();
    for i in 0..k {
        let doc = corpus.docs[(from + i) % corpus.docs.len()];
        let mut h = tdb.load(doc, corpus.users[0]).expect("load");
        h.insert_text(0, "x").expect("edit");
    }
}

/// Spin up `n` connected editor sessions on one shared document.
pub fn shared_document(n_users: usize) -> (Tendax, Vec<tendax_core::EditorSession>, DocId) {
    let tendax = Tendax::in_memory().expect("instance");
    let mut names = Vec::new();
    for i in 0..n_users {
        let name = format!("user{i}");
        tendax.create_user(&name).expect("user");
        names.push(name);
    }
    let creator = tendax.textdb().user_by_name("user0").expect("creator");
    let doc = tendax.create_document("shared", creator).expect("doc");
    let sessions = names
        .iter()
        .map(|n| tendax.connect(n, Platform::Linux).expect("connect session"))
        .collect();
    (tendax, sessions, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = build_corpus(3, 5, 20, 42);
        let b = build_corpus(3, 5, 20, 42);
        for (da, db) in a.docs.iter().zip(&b.docs) {
            let ha = a.tendax.textdb().open(*da, a.users[0]).unwrap();
            let hb = b.tendax.textdb().open(*db, b.users[0]).unwrap();
            assert_eq!(ha.text(), hb.text());
        }
    }

    #[test]
    fn corpus_has_expected_shape() {
        let c = build_corpus(4, 8, 30, 7);
        assert_eq!(c.docs.len(), 8);
        assert_eq!(c.users.len(), 4);
        let stats = c.tendax.textdb().doc_stats(c.docs[0]).unwrap();
        assert!(stats.size > 0);
    }

    #[test]
    fn paste_web_creates_lineage() {
        let c = build_corpus(3, 6, 25, 11);
        add_paste_web(&c, 20, 5, 13);
        let g = c.tendax.lineage().unwrap();
        assert!(!g.edges.is_empty());
        // External sources present.
        assert!(g
            .nodes
            .iter()
            .any(|n| matches!(n, tendax_core::LineageNode::External { .. })));
    }

    #[test]
    fn shared_document_sessions_work() {
        let (_tendax, sessions, _doc) = shared_document(3);
        assert_eq!(sessions.len(), 3);
        let mut d = sessions[0].open("shared").unwrap();
        d.type_text(0, "x").unwrap();
        assert_eq!(d.text(), "x");
    }
}
