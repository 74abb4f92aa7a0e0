//! Metadata-based search and ranking.
//!
//! "Documents and parts of documents can either be found based on the
//! document content, or structure, or document creation process meta
//! data. The search result can be ranked according to different ranking
//! options, e.g. 'most cited', 'newest' etc."
//!
//! Content search runs over an inverted index built from the visible
//! text; metadata and structure filters run against the live tables;
//! rankers order by tf-idf relevance, recency, citation count (incoming
//! paste edges — the database analogue of "most cited") or read count.

use std::collections::{BTreeMap, HashMap};

use tendax_storage::Ts;
use tendax_text::{DocId, Result, TextDb, UserId};

/// Lowercased alphanumeric tokens of a text.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .collect()
}

/// The inverted index over document contents.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// term → (doc → term frequency)
    postings: HashMap<String, BTreeMap<DocId, usize>>,
    /// doc → token count
    doc_len: BTreeMap<DocId, usize>,
    /// doc → its distinct terms (for incremental removal)
    doc_terms: BTreeMap<DocId, Vec<String>>,
}

impl InvertedIndex {
    pub fn add_document(&mut self, doc: DocId, text: &str) {
        self.remove_document(doc);
        let tokens = tokenize(text);
        self.doc_len.insert(doc, tokens.len());
        for tok in &tokens {
            *self
                .postings
                .entry(tok.clone())
                .or_default()
                .entry(doc)
                .or_insert(0) += 1;
        }
        let mut distinct = tokens;
        distinct.sort();
        distinct.dedup();
        self.doc_terms.insert(doc, distinct);
    }

    /// Drop one document from the index (incremental maintenance).
    pub fn remove_document(&mut self, doc: DocId) {
        let Some(terms) = self.doc_terms.remove(&doc) else {
            return;
        };
        self.doc_len.remove(&doc);
        for t in terms {
            if let Some(per_doc) = self.postings.get_mut(&t) {
                per_doc.remove(&doc);
                if per_doc.is_empty() {
                    self.postings.remove(&t);
                }
            }
        }
    }

    pub fn doc_count(&self) -> usize {
        self.doc_len.len()
    }

    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Documents containing `term`, with frequencies.
    pub fn lookup(&self, term: &str) -> Option<&BTreeMap<DocId, usize>> {
        self.postings.get(&term.to_lowercase())
    }

    /// tf-idf weight of `term` in `doc`.
    pub fn tf_idf(&self, term: &str, doc: DocId) -> f64 {
        let Some(per_doc) = self.lookup(term) else {
            return 0.0;
        };
        let Some(&tf) = per_doc.get(&doc) else {
            return 0.0;
        };
        let n = self.doc_count() as f64;
        let df = per_doc.len() as f64;
        let len = *self.doc_len.get(&doc).unwrap_or(&1) as f64;
        // Smoothed idf (+1) so a term present in every document still
        // contributes its term frequency instead of scoring exactly zero.
        (tf as f64 / len.max(1.0)) * (((1.0 + n) / (1.0 + df)).ln() + 1.0)
    }
}

/// Metadata filters (creation-process metadata, per the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum SearchFilter {
    /// At least one character authored by this user.
    Author(UserId),
    /// Document created by this user.
    Creator(UserId),
    /// Read at least once by this user.
    ReadBy(UserId),
    /// Workflow state.
    State(String),
    /// Created at or after the timestamp.
    CreatedAfter(i64),
    /// Contains a structure element of this kind (`heading1`, …).
    HasStructure(String),
}

/// Ranking options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// tf-idf relevance of the query terms.
    Relevance,
    /// Most recently created first.
    Newest,
    /// Most incoming paste events ("most cited").
    MostCited,
    /// Most read events.
    MostRead,
}

/// How multiple content terms combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermMode {
    /// Every term must appear (conjunctive).
    All,
    /// Any term suffices (disjunctive).
    Any,
}

/// A search request.
#[derive(Debug, Clone)]
pub struct SearchQuery {
    /// Content terms. Empty = metadata-only search.
    pub terms: Vec<String>,
    /// AND vs OR combination of `terms`.
    pub mode: TermMode,
    /// Exact phrase that must occur in the visible text.
    pub phrase: Option<String>,
    pub filters: Vec<SearchFilter>,
    pub rank: RankBy,
    pub limit: usize,
}

impl SearchQuery {
    /// Conjunctive term query (every word must appear).
    pub fn terms(query: &str) -> Self {
        SearchQuery {
            terms: tokenize(query),
            mode: TermMode::All,
            phrase: None,
            filters: Vec::new(),
            rank: RankBy::Relevance,
            limit: 20,
        }
    }

    /// Disjunctive term query (any word suffices).
    pub fn any_terms(query: &str) -> Self {
        let mut q = Self::terms(query);
        q.mode = TermMode::Any;
        q
    }

    /// Exact-phrase query ("parts of documents can … be found based on
    /// the document content").
    pub fn phrase(phrase: &str) -> Self {
        let mut q = Self::terms(phrase);
        q.phrase = Some(phrase.to_owned());
        q
    }

    pub fn filter(mut self, f: SearchFilter) -> Self {
        self.filters.push(f);
        self
    }

    pub fn rank_by(mut self, r: RankBy) -> Self {
        self.rank = r;
        self
    }

    pub fn limit(mut self, n: usize) -> Self {
        self.limit = n;
        self
    }
}

/// One result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    pub doc: DocId,
    pub name: String,
    pub score: f64,
}

/// The search engine: index + metadata access.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    tdb: TextDb,
    index: InvertedIndex,
    /// The snapshot each document's postings were read at.
    indexed_at: HashMap<DocId, Ts>,
}

impl SearchEngine {
    /// Build the content index over every document. Indexing reads
    /// content without opening it: no read events are recorded.
    pub fn build(tdb: &TextDb) -> Result<SearchEngine> {
        let mut index = InvertedIndex::default();
        let mut indexed_at = HashMap::new();
        // Every text below is read at this snapshot or a later one.
        let at = tdb.database().last_commit_ts();
        for info in tdb.list_documents()? {
            index.add_document(info.id, &tdb.document_text(info.id)?);
            indexed_at.insert(info.id, at);
        }
        Ok(SearchEngine {
            tdb: tdb.clone(),
            index,
            indexed_at,
        })
    }

    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Re-index one document in place after it changed — the incremental
    /// path an editor calls on save instead of rebuilding the corpus.
    /// Returns at once when no commit has touched the document's
    /// characters since it was last indexed (DESIGN.md §5.13).
    pub fn update_document(&mut self, doc: DocId) -> Result<()> {
        // Snapshot first, stamp second.
        let at = self.tdb.database().last_commit_ts();
        let chars = self.tdb.tables().chars;
        if (self.indexed_at.get(&doc))
            .is_some_and(|seen| self.tdb.doc_stamp(&[chars], doc) <= *seen)
        {
            return Ok(());
        }
        self.index.add_document(doc, &self.tdb.document_text(doc)?);
        self.indexed_at.insert(doc, at);
        Ok(())
    }

    /// Drop a document from the index.
    pub fn remove_document(&mut self, doc: DocId) {
        self.index.remove_document(doc);
        self.indexed_at.remove(&doc);
    }

    /// Run a query.
    pub fn search(&self, query: &SearchQuery) -> Result<Vec<SearchHit>> {
        // Candidate set from content terms, or all documents.
        let mut candidates: Vec<DocId> = if query.terms.is_empty() {
            self.tdb
                .list_documents()?
                .into_iter()
                .map(|d| d.id)
                .collect()
        } else {
            match query.mode {
                TermMode::All => {
                    let mut sets: Vec<&BTreeMap<DocId, usize>> = Vec::new();
                    for t in &query.terms {
                        match self.index.lookup(t) {
                            Some(s) => sets.push(s),
                            None => return Ok(Vec::new()),
                        }
                    }
                    sets.sort_by_key(|s| s.len());
                    sets[0]
                        .keys()
                        .filter(|d| sets[1..].iter().all(|s| s.contains_key(d)))
                        .copied()
                        .collect()
                }
                TermMode::Any => {
                    let mut union: std::collections::BTreeSet<DocId> =
                        std::collections::BTreeSet::new();
                    for t in &query.terms {
                        if let Some(s) = self.index.lookup(t) {
                            union.extend(s.keys().copied());
                        }
                    }
                    union.into_iter().collect()
                }
            }
        };

        // Exact phrase verification against the visible text.
        if let Some(phrase) = &query.phrase {
            let needle = phrase.to_lowercase();
            let mut kept = Vec::with_capacity(candidates.len());
            for d in candidates {
                let text = self.tdb.document_text(d)?.to_lowercase();
                if text.contains(&needle) {
                    kept.push(d);
                }
            }
            candidates = kept;
        }

        // Metadata filters.
        for f in &query.filters {
            let mut kept = Vec::with_capacity(candidates.len());
            for d in candidates {
                if self.filter_matches(f, d)? {
                    kept.push(d);
                }
            }
            candidates = kept;
        }

        // Rank.
        let mut hits = Vec::with_capacity(candidates.len());
        for d in candidates {
            let score = self.score(query, d)?;
            let name = self.tdb.document_info(d)?.name;
            hits.push(SearchHit {
                doc: d,
                name,
                score,
            });
        }
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        hits.truncate(query.limit);
        Ok(hits)
    }

    fn filter_matches(&self, f: &SearchFilter, doc: DocId) -> Result<bool> {
        Ok(match f {
            SearchFilter::Author(u) => self.tdb.doc_stats(doc)?.authors.contains(u),
            SearchFilter::Creator(u) => self.tdb.document_info(doc)?.creator == *u,
            SearchFilter::ReadBy(u) => self.tdb.doc_stats(doc)?.readers.contains(u),
            SearchFilter::State(s) => self.tdb.document_info(doc)?.state == *s,
            SearchFilter::CreatedAfter(ts) => self.tdb.document_info(doc)?.created_at >= *ts,
            SearchFilter::HasStructure(kind) => {
                let t = self.tdb.tables();
                let txn = self.tdb.database().begin();
                txn.index_lookup(t.structure, "structure_by_doc", &[doc.value()])?
                    .iter()
                    .any(|(_, row)| {
                        let [row_kind, deleted] = row.cols([1, 6]);
                        row_kind.as_text() == Some(kind) && !deleted.as_bool().unwrap_or(false)
                    })
            }
        })
    }

    fn score(&self, query: &SearchQuery, doc: DocId) -> Result<f64> {
        Ok(match query.rank {
            RankBy::Relevance => query.terms.iter().map(|t| self.index.tf_idf(t, doc)).sum(),
            RankBy::Newest => self.tdb.document_info(doc)?.created_at as f64,
            RankBy::MostCited => {
                let t = self.tdb.tables();
                let txn = self.tdb.database().begin();
                txn.index_lookup(t.paste_events, "paste_events_by_src", &[doc.value()])?
                    .len() as f64
            }
            RankBy::MostRead => self.tdb.read_count(doc)? as f64,
        })
    }

    /// Run a query and attach a context snippet (around the first query
    /// term that occurs) to every hit.
    pub fn search_with_snippets(
        &self,
        query: &SearchQuery,
        context: usize,
    ) -> Result<Vec<(SearchHit, Option<String>)>> {
        let hits = self.search(query)?;
        let mut out = Vec::with_capacity(hits.len());
        for hit in hits {
            let mut snippet = None;
            if let Some(phrase) = &query.phrase {
                snippet = self.snippet(hit.doc, phrase, context)?;
            } else {
                for t in &query.terms {
                    if let Some(s) = self.snippet(hit.doc, t, context)? {
                        snippet = Some(s);
                        break;
                    }
                }
            }
            out.push((hit, snippet));
        }
        Ok(out)
    }

    /// A text snippet around the first occurrence of `term` in `doc`.
    pub fn snippet(&self, doc: DocId, term: &str, context: usize) -> Result<Option<String>> {
        let text = self.tdb.document_text(doc)?;
        let lower = text.to_lowercase();
        let Some(byte) = lower.find(&term.to_lowercase()) else {
            return Ok(None);
        };
        let chars: Vec<char> = text.chars().collect();
        let char_pos = text[..byte].chars().count();
        let start = char_pos.saturating_sub(context);
        let end = (char_pos + term.chars().count() + context).min(chars.len());
        Ok(Some(chars[start..end].iter().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> (TextDb, UserId, UserId, DocId, DocId, DocId) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let d1 = tdb.create_document("report-q1", alice).unwrap();
        let d2 = tdb.create_document("report-q2", alice).unwrap();
        let d3 = tdb.create_document("notes", bob).unwrap();
        let mut h = tdb.open(d1, alice).unwrap();
        h.insert_text(0, "quarterly revenue grew across all regions")
            .unwrap();
        let mut h = tdb.open(d2, alice).unwrap();
        h.insert_text(0, "revenue flat but costs down this quarter")
            .unwrap();
        let mut h = tdb.open(d3, bob).unwrap();
        h.insert_text(0, "meeting notes about the revenue report")
            .unwrap();
        (tdb, alice, bob, d1, d2, d3)
    }

    #[test]
    fn tokenizer_normalizes() {
        assert_eq!(tokenize("Hello, World! x2"), vec!["hello", "world", "x2"]);
        assert!(tokenize("...").is_empty());
    }

    #[test]
    fn term_search_with_and_semantics() {
        let (tdb, ..) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        let hits = engine.search(&SearchQuery::terms("revenue")).unwrap();
        assert_eq!(hits.len(), 3);
        let hits = engine.search(&SearchQuery::terms("revenue grew")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "report-q1");
        let hits = engine.search(&SearchQuery::terms("nonexistent")).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn relevance_prefers_rarer_denser_terms() {
        let (tdb, ..) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        let hits = engine.search(&SearchQuery::terms("quarterly")).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].score > 0.0);
    }

    #[test]
    fn metadata_filters() {
        let (tdb, alice, bob, d1, _d2, d3) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        // Creator filter.
        let hits = engine
            .search(&SearchQuery::terms("").filter(SearchFilter::Creator(bob)))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, d3);
        // Author filter (alice authored d1 and d2 contents).
        let hits = engine
            .search(&SearchQuery::terms("revenue").filter(SearchFilter::Author(alice)))
            .unwrap();
        assert_eq!(hits.len(), 2);
        // State filter.
        tdb.set_document_state(d1, "final", alice).unwrap();
        let hits = engine
            .search(&SearchQuery::terms("").filter(SearchFilter::State("final".into())))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, d1);
    }

    #[test]
    fn structure_filter() {
        let (tdb, alice, _bob, d1, ..) = corpus();
        let mut h = tdb.open(d1, alice).unwrap();
        h.set_structure(0, 9, "heading1").unwrap();
        let engine = SearchEngine::build(&tdb).unwrap();
        let hits = engine
            .search(&SearchQuery::terms("").filter(SearchFilter::HasStructure("heading1".into())))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, d1);
    }

    #[test]
    fn most_cited_ranking_counts_paste_edges() {
        let (tdb, alice, _bob, d1, d2, d3) = corpus();
        // d1 gets cited (pasted from) twice, d2 once.
        let h1 = tdb.open(d1, alice).unwrap();
        let clip = h1.copy(0, 5).unwrap();
        let mut h3 = tdb.open(d3, alice).unwrap();
        h3.paste(0, &clip).unwrap();
        h3.paste(0, &clip).unwrap();
        let h2 = tdb.open(d2, alice).unwrap();
        let clip2 = h2.copy(0, 5).unwrap();
        h3.paste(0, &clip2).unwrap();

        let engine = SearchEngine::build(&tdb).unwrap();
        let hits = engine
            .search(&SearchQuery::terms("").rank_by(RankBy::MostCited))
            .unwrap();
        assert_eq!(hits[0].doc, d1);
        assert_eq!(hits[0].score, 2.0);
        assert_eq!(hits[1].doc, d2);
        assert_eq!(hits[2].score, 0.0);
    }

    #[test]
    fn newest_and_most_read_rankings() {
        let (tdb, alice, bob, d1, _d2, d3) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        let hits = engine
            .search(&SearchQuery::terms("").rank_by(RankBy::Newest))
            .unwrap();
        assert_eq!(hits[0].doc, d3); // created last
                                     // d1 read twice more.
        let _ = tdb.open(d1, bob).unwrap();
        let _ = tdb.open(d1, alice).unwrap();
        let hits = engine
            .search(&SearchQuery::terms("").rank_by(RankBy::MostRead))
            .unwrap();
        assert_eq!(hits[0].doc, d1);
    }

    #[test]
    fn any_terms_is_disjunctive() {
        let (tdb, ..) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        // "quarterly" hits d1 only; "meeting" hits d3 only.
        let hits = engine
            .search(&SearchQuery::any_terms("quarterly meeting"))
            .unwrap();
        assert_eq!(hits.len(), 2);
        // AND over the same terms matches nothing.
        let hits = engine
            .search(&SearchQuery::terms("quarterly meeting"))
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn phrase_search_requires_adjacency() {
        let (tdb, ..) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        let hits = engine.search(&SearchQuery::phrase("revenue grew")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "report-q1");
        // Both words occur in d2 ("revenue flat… this quarter") but not
        // adjacently — the phrase filter rejects it.
        let hits = engine
            .search(&SearchQuery::phrase("revenue quarter"))
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn snippets_attached_to_hits() {
        let (tdb, ..) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        let hits = engine
            .search_with_snippets(&SearchQuery::terms("revenue"), 8)
            .unwrap();
        assert_eq!(hits.len(), 3);
        for (_, snippet) in &hits {
            assert!(snippet.as_deref().unwrap().contains("revenue"));
        }
    }

    #[test]
    fn limit_truncates() {
        let (tdb, ..) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        let hits = engine.search(&SearchQuery::terms("").limit(2)).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn incremental_index_update() {
        let (tdb, alice, _bob, d1, ..) = corpus();
        let mut engine = SearchEngine::build(&tdb).unwrap();
        assert!(engine
            .search(&SearchQuery::terms("zeppelin"))
            .unwrap()
            .is_empty());
        // Edit d1 and re-index just that document.
        let mut h = tdb.open(d1, alice).unwrap();
        h.insert_text(0, "zeppelin ").unwrap();
        engine.update_document(d1).unwrap();
        let hits = engine.search(&SearchQuery::terms("zeppelin")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, d1);
        // Old terms from d1 are still findable exactly once.
        let hits = engine.search(&SearchQuery::terms("quarterly")).unwrap();
        assert_eq!(hits.len(), 1);
        // Removal drops the document entirely.
        engine.remove_document(d1);
        assert!(engine
            .search(&SearchQuery::terms("zeppelin"))
            .unwrap()
            .is_empty());
        assert_eq!(engine.index().doc_count(), 2);
    }

    #[test]
    fn reindexing_is_idempotent() {
        let (tdb, _alice, _bob, d1, ..) = corpus();
        let mut engine = SearchEngine::build(&tdb).unwrap();
        let before = engine.index().term_count();
        engine.update_document(d1).unwrap();
        engine.update_document(d1).unwrap();
        assert_eq!(engine.index().term_count(), before);
        assert_eq!(engine.index().doc_count(), 3);
        let hits = engine.search(&SearchQuery::terms("quarterly")).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn snippet_extraction() {
        let (tdb, _alice, _bob, d1, ..) = corpus();
        let engine = SearchEngine::build(&tdb).unwrap();
        let snip = engine.snippet(d1, "revenue", 5).unwrap().unwrap();
        assert!(snip.contains("revenue"));
        assert!(snip.len() <= "revenue".len() + 10);
        assert!(engine.snippet(d1, "zzz", 5).unwrap().is_none());
    }
}
