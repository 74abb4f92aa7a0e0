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
//!
//! The engine reads every text — to index a document, to verify a phrase,
//! to cut a snippet — through one [`TextSource`]: the database, or a
//! server's live documents, whose copies answer from memory for the
//! documents editors hold (DESIGN.md §5.13). A query ranks its
//! candidates, keeps the first `limit`, and reads the names of those
//! alone.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use tendax_storage::Ts;
use tendax_text::{DocId, Result, TextDb, TextSource, UserId};

/// The alphanumeric words of a text, as written.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
}

/// Lowercased alphanumeric tokens of a text.
pub fn tokenize(text: &str) -> Vec<String> {
    words(text).map(str::to_lowercase).collect()
}

/// `word` lowercased into `into`, as [`str::to_lowercase`] would: an
/// ASCII word without allocating.
fn lowercase_into(word: &str, into: &mut String) {
    into.clear();
    if word.is_ascii() {
        into.push_str(word);
        into.make_ascii_lowercase();
    } else {
        into.push_str(&word.to_lowercase());
    }
}

/// A term's postings: document → term frequency.
type Postings = BTreeMap<DocId, usize>;

/// The inverted index over document contents.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// term → its postings. A key is shared with `doc_terms`.
    postings: HashMap<Arc<str>, Postings>,
    /// doc → token count
    doc_len: BTreeMap<DocId, usize>,
    /// doc → its distinct terms (for incremental removal)
    doc_terms: BTreeMap<DocId, Vec<Arc<str>>>,
}

impl InvertedIndex {
    /// Index `doc`'s text in place of whatever was indexed for it. Each
    /// token is lowercased into one buffer and its postings found by
    /// `&str`, and a term the document had keeps its key until the new
    /// text is counted: only a term new to the corpus allocates one.
    pub fn add_document(&mut self, doc: DocId, text: &str) {
        let old = (self.doc_terms.get_mut(&doc))
            .map(std::mem::take)
            .unwrap_or_default();
        for term in &old {
            if let Some(per_doc) = self.postings.get_mut(term) {
                per_doc.remove(&doc);
            }
        }
        let mut terms = Vec::with_capacity(old.len());
        let mut word = String::new();
        let mut len = 0;
        for token in words(text) {
            len += 1;
            lowercase_into(token, &mut word);
            let first = match self.postings.get_mut(word.as_str()) {
                Some(per_doc) => {
                    let tf = per_doc.entry(doc).or_insert(0);
                    *tf += 1;
                    *tf == 1
                }
                None => {
                    let per_doc = BTreeMap::from([(doc, 1)]);
                    self.postings.insert(Arc::from(word.as_str()), per_doc);
                    true
                }
            };
            if first {
                let (term, _) = (self.postings.get_key_value(word.as_str()))
                    .expect("the term was just counted");
                terms.push(Arc::clone(term));
            }
        }
        for term in &old {
            if self.postings.get(term).is_some_and(BTreeMap::is_empty) {
                self.postings.remove(term);
            }
        }
        self.doc_len.insert(doc, len);
        *self.doc_terms.entry(doc).or_default() = terms;
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
        self.postings.get(term.to_lowercase().as_str())
    }

    /// tf-idf weight of `term` in `doc`.
    pub fn tf_idf(&self, term: &str, doc: DocId) -> f64 {
        self.lookup(term)
            .map_or(0.0, |per_doc| self.weight(per_doc, doc))
    }

    /// tf-idf weight in `doc` of the term whose postings are `per_doc`.
    fn weight(&self, per_doc: &Postings, doc: DocId) -> f64 {
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
    /// Where every text is read.
    texts: Arc<dyn TextSource>,
    index: InvertedIndex,
    /// The snapshot each document's postings hold at: the `at` its text
    /// was read at.
    indexed_at: HashMap<DocId, Ts>,
}

impl SearchEngine {
    /// Build the content index over every document, reading each text
    /// from the database. Indexing reads content without opening it: no
    /// read events are recorded.
    pub fn build(tdb: &TextDb) -> Result<SearchEngine> {
        Self::build_over(Arc::new(tdb.clone()))
    }

    /// [`SearchEngine::build`] reading every text through `texts` — for
    /// the engine's whole life: a server's live documents hand it the
    /// copies their editors hold.
    pub fn build_over(texts: Arc<dyn TextSource>) -> Result<SearchEngine> {
        let mut index = InvertedIndex::default();
        let mut indexed_at = HashMap::new();
        for info in texts.textdb().list_documents()? {
            let (text, at) = texts.visible_text(info.id)?;
            index.add_document(info.id, &text);
            indexed_at.insert(info.id, at);
        }
        Ok(SearchEngine {
            tdb: texts.textdb().clone(),
            texts,
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
    /// characters since the snapshot its postings hold at (DESIGN.md
    /// §5.13).
    pub fn update_document(&mut self, doc: DocId) -> Result<()> {
        let chars = self.tdb.tables().chars;
        if (self.indexed_at.get(&doc))
            .is_some_and(|seen| self.tdb.doc_stamp(&[chars], doc) <= *seen)
        {
            return Ok(());
        }
        let (text, at) = self.texts.visible_text(doc)?;
        self.index.add_document(doc, &text);
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
        // Each term's postings, looked up once for every candidate.
        let postings: Vec<Option<&Postings>> = (query.terms.iter())
            .map(|t| self.index.postings.get(t.to_lowercase().as_str()))
            .collect();
        // Candidate set from content terms, or all documents.
        let mut candidates: Vec<DocId> = if postings.is_empty() {
            self.tdb
                .list_documents()?
                .into_iter()
                .map(|d| d.id)
                .collect()
        } else {
            match query.mode {
                TermMode::All => {
                    let Some(mut sets) = postings.iter().copied().collect::<Option<Vec<_>>>()
                    else {
                        return Ok(Vec::new());
                    };
                    sets.sort_by_key(|s| s.len());
                    sets[0]
                        .keys()
                        .filter(|d| sets[1..].iter().all(|s| s.contains_key(d)))
                        .copied()
                        .collect()
                }
                TermMode::Any => {
                    let union: BTreeSet<DocId> = postings
                        .iter()
                        .flatten()
                        .flat_map(|s| s.keys().copied())
                        .collect();
                    union.into_iter().collect()
                }
            }
        };

        // Exact phrase verification against the visible text.
        if let Some(phrase) = &query.phrase {
            let needle = phrase.to_lowercase();
            let mut kept = Vec::with_capacity(candidates.len());
            for d in candidates {
                let (text, _) = self.texts.visible_text(d)?;
                if text.to_lowercase().contains(&needle) {
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

        // Rank, cut to `limit`, and only then read the names of the hits.
        let mut ranked = Vec::with_capacity(candidates.len());
        for d in candidates {
            ranked.push((self.score(query.rank, &postings, d)?, d));
        }
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        ranked.truncate(query.limit);
        (ranked.into_iter())
            .map(|(score, doc)| {
                let name = self.tdb.document_info(doc)?.name;
                Ok(SearchHit { doc, name, score })
            })
            .collect()
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

    /// `doc`'s score under `rank`, given the postings of the query's
    /// terms.
    fn score(&self, rank: RankBy, postings: &[Option<&Postings>], doc: DocId) -> Result<f64> {
        Ok(match rank {
            RankBy::Relevance => (postings.iter())
                .map(|p| p.map_or(0.0, |per_doc| self.index.weight(per_doc, doc)))
                .sum(),
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

    /// A text snippet around the first occurrence of `term` in `doc`:
    /// `context` characters either side of the match, which is found
    /// regardless of case.
    pub fn snippet(&self, doc: DocId, term: &str, context: usize) -> Result<Option<String>> {
        let (text, _) = self.texts.visible_text(doc)?;
        let Some(byte) = text.to_lowercase().find(&term.to_lowercase()) else {
            return Ok(None);
        };
        // `byte` is an offset into the lowercased text, where a character
        // may take more bytes or fewer than in `text` ("İ" two → three,
        // "ẞ" three → two): count through `text` to the character whose
        // lowercase holds it. (A character's lowercase has the same length
        // alone as within the text: only "Σ" depends on its neighbours, and
        // "σ" and "ς" are both two bytes.)
        let mut lowered = 0;
        let char_pos = (text.chars())
            .position(|c| {
                lowered += c.to_lowercase().map(char::len_utf8).sum::<usize>();
                lowered > byte
            })
            .unwrap_or(0);
        let chars: Vec<char> = text.chars().collect();
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

    /// The match is found in the lowercased text but cut from the text as
    /// written, where a character before it may be a different number of
    /// bytes: "İ" lowercases to three, "ẞ" to two. (When the lowercased
    /// byte offset sliced the original, "lineage" gave "ineage ", "aéb"
    /// gave " aé", and "b" panicked on a char boundary.)
    #[test]
    fn a_snippet_is_cut_at_its_match_when_lowercasing_changes_byte_lengths() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let mut docs = Vec::new();
        for (name, text) in [("longer", "İstanbul lineage notes"), ("shorter", "ẞ aéb")] {
            let doc = tdb.create_document(name, alice).unwrap();
            tdb.load(doc, alice).unwrap().insert_text(0, text).unwrap();
            docs.push(doc);
        }
        let engine = SearchEngine::build(&tdb).unwrap();
        let snip = |doc, term, context| engine.snippet(doc, term, context).unwrap();
        assert_eq!(snip(docs[0], "lineage", 0).as_deref(), Some("lineage"));
        assert_eq!(snip(docs[0], "LINEAGE", 2).as_deref(), Some("l lineage n"));
        assert_eq!(snip(docs[1], "aéb", 0).as_deref(), Some("aéb"));
        assert_eq!(snip(docs[1], "b", 0).as_deref(), Some("b"));
        assert_eq!(snip(docs[1], "b", 3).as_deref(), Some(" aéb"));
        for (doc, term) in [(docs[0], "lineage"), (docs[1], "aéb")] {
            let hits = engine
                .search_with_snippets(&SearchQuery::terms(term), 0)
                .unwrap();
            assert_eq!(hits.len(), 1);
            assert_eq!((hits[0].0.doc, hits[0].1.as_deref()), (doc, Some(term)));
        }
    }
}
