//! Metadata read APIs.
//!
//! "During document creation process and use, meta data is gathered
//! automatically" — this module is where that metadata comes back out:
//! per-character provenance and authorship, document-level statistics,
//! reader histories. The meta crate's dynamic folders, lineage, mining
//! and search are all built on these queries.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use tendax_storage::{Predicate, SharedRow, Transaction, ValueRef};

use crate::document::DocHandle;
use crate::error::Result;
use crate::ids::{CharId, DocId, StyleId, UserId};
use crate::stamps::Accumulate;
use crate::textdb::TextDb;

/// Where a character came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// Typed directly into this document.
    Original,
    /// Pasted from another TeNDaX document.
    CopiedFrom { doc: DocId, char: CharId },
    /// Pasted from outside the system.
    External(String),
}

/// Character-level metadata, as the paper lists it: author, date and
/// time, copy-paste references, version, style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharMeta {
    pub id: CharId,
    pub ch: char,
    pub author: UserId,
    pub created_at: i64,
    pub version: i64,
    pub style: StyleId,
    pub deleted: bool,
    pub provenance: Provenance,
}

impl DocHandle {
    /// Metadata of the visible character at `pos`.
    pub fn char_meta(&self, pos: usize) -> Option<CharMeta> {
        let id = self.char_at(pos)?;
        let info = self.char_info(id)?;
        let provenance = if let Some(src) = &info.external_src {
            Provenance::External(src.clone())
        } else if !info.src_doc.is_none() {
            Provenance::CopiedFrom {
                doc: info.src_doc,
                char: info.src_char,
            }
        } else {
            Provenance::Original
        };
        Some(CharMeta {
            id,
            ch: info.ch,
            author: info.author,
            created_at: info.created_at,
            version: info.version,
            style: info.style,
            deleted: info.deleted,
            provenance,
        })
    }

    /// Distinct authors of visible characters, with character counts,
    /// largest contribution first.
    pub fn attribution(&self) -> Vec<(UserId, usize)> {
        let mut counts: BTreeMap<UserId, usize> = BTreeMap::new();
        self.chain.for_each_visible(|_, info| {
            *counts.entry(info.author).or_default() += 1;
        });
        let mut out: Vec<(UserId, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// Document-level statistics derived from stored metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocStats {
    pub doc: DocId,
    /// Visible characters.
    pub size: usize,
    /// Total character tuples including tombstones.
    pub tuples: usize,
    pub authors: Vec<UserId>,
    pub readers: Vec<UserId>,
    pub ops: usize,
    /// Characters pasted in from other documents.
    pub copied_in: usize,
    /// Characters pasted in from external sources.
    pub external_in: usize,
}

/// A table a document's statistics are folded from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StatsTable {
    Chars,
    Oplog,
    Reads,
}

/// What one row contributes to its document's [`DocStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatsPart {
    Char {
        author: UserId,
        visible: bool,
        copied: bool,
        external: bool,
    },
    Op,
    Read(UserId),
}

impl StatsPart {
    pub(crate) fn of(table: StatsTable, row: &SharedRow) -> StatsPart {
        match table {
            StatsTable::Chars => {
                let [author, deleted, src_doc, external] = row.cols([3, 6, 10, 12]);
                StatsPart::Char {
                    author: UserId::from_value(author),
                    visible: !deleted.as_bool().unwrap_or(false),
                    copied: !matches!(src_doc, ValueRef::Null),
                    external: !matches!(external, ValueRef::Null),
                }
            }
            StatsTable::Oplog => StatsPart::Op,
            StatsTable::Reads => StatsPart::Read(UserId::from_value(row.cols([1])[0])),
        }
    }
}

/// [`DocStats`] as counts: authors and readers are multisets, so a
/// contribution can be taken away again.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsAcc {
    size: usize,
    tuples: usize,
    ops: usize,
    copied_in: usize,
    external_in: usize,
    authors: BTreeMap<UserId, usize>,
    readers: BTreeMap<UserId, usize>,
}

/// `n + by`, for a count a fold only takes back what it gave.
fn shift(n: &mut usize, by: isize) {
    *n = n
        .checked_add_signed(by)
        .expect("a fold takes away only what it added");
}

/// Shift the count of `key` by `by`, keeping no key at zero.
fn shift_key<K: Ord>(counts: &mut BTreeMap<K, usize>, key: K, by: isize) {
    match counts.entry(key) {
        Entry::Occupied(mut e) => {
            shift(e.get_mut(), by);
            if *e.get() == 0 {
                e.remove();
            }
        }
        Entry::Vacant(e) => {
            let mut n = 0;
            shift(&mut n, by);
            e.insert(n);
        }
    }
}

impl Accumulate for StatsAcc {
    type Part = StatsPart;

    fn apply(&mut self, part: &StatsPart, by: isize) {
        match *part {
            StatsPart::Char {
                author,
                visible,
                copied,
                external,
            } => {
                shift(&mut self.tuples, by);
                shift_key(&mut self.authors, author, by);
                for (counted, n) in [
                    (visible, &mut self.size),
                    (copied, &mut self.copied_in),
                    (external, &mut self.external_in),
                ] {
                    if counted {
                        shift(n, by);
                    }
                }
            }
            StatsPart::Op => shift(&mut self.ops, by),
            StatsPart::Read(user) => shift_key(&mut self.readers, user, by),
        }
    }
}

impl StatsAcc {
    pub(crate) fn stats(&self, doc: DocId) -> DocStats {
        DocStats {
            doc,
            size: self.size,
            tuples: self.tuples,
            authors: self.authors.keys().copied().collect(),
            readers: self.readers.keys().copied().collect(),
            ops: self.ops,
            copied_in: self.copied_in,
            external_in: self.external_in,
        }
    }
}

/// Where pasted characters came from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PasteSource {
    Document(DocId),
    /// Outside the system: the source the paste named.
    External(String),
}

/// Every paste into one document from one source, totalled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PasteEdge {
    pub target: DocId,
    pub source: PasteSource,
    /// Characters pasted, over all the events.
    pub chars: usize,
    /// Paste events.
    pub events: usize,
}

/// What one `paste_events` row contributes to the edge totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PastePart {
    target: DocId,
    source: PasteSource,
    chars: usize,
}

impl PastePart {
    /// `None` for a paste with no recorded source.
    pub(crate) fn of(row: &SharedRow) -> Option<PastePart> {
        let [target, src_doc, external, n] = row.cols([0, 3, 4, 5]);
        let src_doc = DocId::from_value(src_doc);
        let source = match external.as_text() {
            Some(src) => PasteSource::External(src.to_owned()),
            None if !src_doc.is_none() => PasteSource::Document(src_doc),
            None => return None,
        };
        Some(PastePart {
            target: DocId::from_value(target),
            source,
            chars: n.as_int().unwrap_or(0) as usize,
        })
    }
}

/// `(source, target) → (chars, events)` over `paste_events`.
#[derive(Debug, Clone, Default)]
pub(crate) struct PasteAcc(BTreeMap<(PasteSource, DocId), (usize, usize)>);

impl Accumulate for PasteAcc {
    type Part = PastePart;

    fn apply(&mut self, part: &PastePart, by: isize) {
        let key = (part.source.clone(), part.target);
        let (chars, events) = self.0.entry(key.clone()).or_default();
        shift(chars, by * part.chars as isize);
        shift(events, by);
        if *events == 0 {
            self.0.remove(&key);
        }
    }
}

impl PasteAcc {
    pub(crate) fn edges(&self) -> Vec<PasteEdge> {
        (self.0.iter())
            .map(|((source, target), &(chars, events))| PasteEdge {
                target: *target,
                source: source.clone(),
                chars,
                events,
            })
            .collect()
    }
}

impl TextDb {
    /// Statistics for one document, folded from the commit stream under
    /// the change stamps of `chars`, `reads` and `oplog` (DESIGN.md
    /// §5.13): the metadata tables are read the first time a document is
    /// asked about, and after that only if its fold had to be dropped.
    pub fn doc_stats(&self, doc: DocId) -> Result<DocStats> {
        // Snapshot first, fold second: see the rules in `stamps`.
        let at = self.database().last_commit_ts();
        if let Some(stats) = self.stamps().doc_stats(doc, at) {
            return Ok(stats);
        }
        let txn = self.database().begin();
        let acc = self.read_doc_stats(&txn, doc)?;
        let stats = acc.stats(doc);
        self.stamps().seed_doc_stats(doc, txn.snapshot_ts(), acc);
        Ok(stats)
    }

    /// [`TextDb::doc_stats`] straight from the metadata tables.
    fn read_doc_stats(&self, txn: &Transaction, doc: DocId) -> Result<StatsAcc> {
        let t = self.tables();
        let mut acc = StatsAcc::default();
        for (_, row) in txn.index_lookup(t.chars, "chars_by_doc", &[doc.value()])? {
            acc.apply(&StatsPart::of(StatsTable::Chars, &row), 1);
        }
        for (_, row) in txn.index_lookup(t.reads, "reads_by_doc", &[doc.value()])? {
            acc.apply(&StatsPart::of(StatsTable::Reads, &row), 1);
        }
        acc.ops = txn.count(t.oplog, &Predicate::Eq("doc".into(), doc.value()))?;
        Ok(acc)
    }

    /// Every paste into a document, totalled by source and target, in
    /// that order (documents before external sources). Folded from the commit stream like
    /// [`TextDb::doc_stats`]: `paste_events` is read the first time, and
    /// after that only if the fold had to be dropped.
    pub fn paste_edges(&self) -> Result<Vec<PasteEdge>> {
        let at = self.database().last_commit_ts();
        if let Some(edges) = self.stamps().paste_edges(at) {
            return Ok(edges);
        }
        let txn = self.database().begin();
        let mut acc = PasteAcc::default();
        for (_, row) in txn.scan(self.tables().paste_events, &Predicate::True)? {
            if let Some(part) = PastePart::of(&row) {
                acc.apply(&part, 1);
            }
        }
        let edges = acc.edges();
        self.stamps().seed_paste_edges(txn.snapshot_ts(), acc);
        Ok(edges)
    }

    /// Documents `user` has read since `since` (engine-clock timestamp),
    /// newest read first — the paper's canonical dynamic-folder example.
    pub fn docs_read_by(&self, user: UserId, since: i64) -> Result<Vec<(DocId, i64)>> {
        let t = self.tables();
        let txn = self.database().begin();
        let mut latest: BTreeMap<DocId, i64> = BTreeMap::new();
        for (_, row) in txn.index_lookup(t.reads, "reads_by_user", &[user.value()])? {
            let [doc, ts] = row.cols([0, 2]);
            let ts = ts.as_timestamp().unwrap_or(0);
            if ts < since {
                continue;
            }
            let doc = DocId::from_value(doc);
            let e = latest.entry(doc).or_insert(ts);
            *e = (*e).max(ts);
        }
        let mut out: Vec<(DocId, i64)> = latest.into_iter().collect();
        out.sort_by_key(|(_, ts)| std::cmp::Reverse(*ts));
        Ok(out)
    }

    /// Total number of read events recorded for a document.
    pub fn read_count(&self, doc: DocId) -> Result<usize> {
        let t = self.tables();
        let txn = self.database().begin();
        Ok(txn
            .index_lookup(t.reads, "reads_by_doc", &[doc.value()])?
            .len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_meta_reports_provenance() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("alice").unwrap();
        let d1 = tdb.create_document("src", u).unwrap();
        let d2 = tdb.create_document("dst", u).unwrap();
        let mut h1 = tdb.open(d1, u).unwrap();
        h1.insert_text(0, "orig").unwrap();
        let clip = h1.copy(0, 4).unwrap();
        let mut h2 = tdb.open(d2, u).unwrap();
        h2.insert_text(0, "t").unwrap();
        h2.paste(1, &clip).unwrap();
        h2.paste_external(5, "ext", "clipboard").unwrap();

        assert_eq!(h2.char_meta(0).unwrap().provenance, Provenance::Original);
        assert!(matches!(
            h2.char_meta(1).unwrap().provenance,
            Provenance::CopiedFrom { doc, .. } if doc == d1
        ));
        assert_eq!(
            h2.char_meta(5).unwrap().provenance,
            Provenance::External("clipboard".into())
        );
        assert!(h2.char_meta(99).is_none());
    }

    #[test]
    fn attribution_counts_by_author() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "aaaa").unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        hb.insert_text(4, "bb").unwrap();
        ha.refresh().unwrap();
        let attr = ha.attribution();
        assert_eq!(attr, vec![(alice, 4), (bob, 2)]);
    }

    #[test]
    fn doc_stats_aggregates_metadata() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let d1 = tdb.create_document("src", alice).unwrap();
        let d2 = tdb.create_document("dst", alice).unwrap();
        let mut h1 = tdb.open(d1, alice).unwrap();
        h1.insert_text(0, "material").unwrap();
        let clip = h1.copy(0, 3).unwrap();
        let mut h2 = tdb.open(d2, alice).unwrap();
        h2.insert_text(0, "xy").unwrap();
        h2.paste(2, &clip).unwrap();
        h2.delete_range(0, 1).unwrap();
        let _rb = tdb.open(d2, bob).unwrap();

        let stats = tdb.doc_stats(d2).unwrap();
        assert_eq!(stats.size, 4); // "y" + "mat"
        assert_eq!(stats.tuples, 5);
        assert_eq!(stats.authors, vec![alice]);
        assert_eq!(stats.readers, vec![alice, bob]);
        assert_eq!(stats.copied_in, 3);
        assert_eq!(stats.external_in, 0);
        assert_eq!(stats.ops, 3); // insert, paste, delete
    }

    #[test]
    fn docs_read_by_respects_time_window() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("alice").unwrap();
        let d1 = tdb.create_document("a", u).unwrap();
        let d2 = tdb.create_document("b", u).unwrap();
        let _h = tdb.open(d1, u).unwrap();
        let cutoff = tdb.now();
        let _h = tdb.open(d2, u).unwrap();
        let recent = tdb.docs_read_by(u, cutoff).unwrap();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].0, d2);
        let all = tdb.docs_read_by(u, 0).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(tdb.read_count(d1).unwrap(), 1);
    }
}
