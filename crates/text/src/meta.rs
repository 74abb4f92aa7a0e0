//! Metadata read APIs.
//!
//! "During document creation process and use, meta data is gathered
//! automatically" — this module is where that metadata comes back out:
//! per-character provenance and authorship, document-level statistics,
//! reader histories. The meta crate's dynamic folders, lineage, mining
//! and search are all built on these queries.

use std::collections::BTreeMap;

use tendax_storage::{Predicate, Transaction};

use crate::document::DocHandle;
use crate::error::Result;
use crate::ids::{CharId, DocId, StyleId, UserId};
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

impl TextDb {
    /// Statistics for one document. Memoized per document under the
    /// change stamps of `chars`, `reads` and `oplog` (DESIGN.md §5.13):
    /// the metadata tables are read only when a commit touched the
    /// document since the statistics were last computed.
    pub fn doc_stats(&self, doc: DocId) -> Result<DocStats> {
        let t = self.tables();
        // Snapshot first, stamp second: see the rule in `stamps`.
        let at = self.database().last_commit_ts();
        let stamp = self.doc_stamp(&[t.chars, t.reads, t.oplog], doc);
        if let Some(stats) = self.stamps().cached_stats(doc, stamp, at) {
            return Ok(stats);
        }
        let txn = self.database().begin();
        let stats = self.read_doc_stats(&txn, doc)?;
        self.stamps()
            .store_stats(doc, txn.snapshot_ts(), stats.clone());
        Ok(stats)
    }

    /// [`TextDb::doc_stats`] straight from the metadata tables.
    fn read_doc_stats(&self, txn: &Transaction, doc: DocId) -> Result<DocStats> {
        let t = self.tables();
        let chars = txn.index_lookup(t.chars, "chars_by_doc", &[doc.value()])?;
        let mut size = 0usize;
        let mut authors: BTreeMap<UserId, ()> = BTreeMap::new();
        let mut copied_in = 0usize;
        let mut external_in = 0usize;
        for (_, row) in &chars {
            let [author, deleted] = row.cols([4, 7]);
            if !deleted.as_bool().unwrap_or(false) {
                size += 1;
            }
            authors.insert(UserId::from_value(author), ());
            if !row.is_null(11) {
                copied_in += 1;
            }
            if !row.is_null(13) {
                external_in += 1;
            }
        }
        let mut readers: Vec<UserId> = txn
            .index_lookup(t.reads, "reads_by_doc", &[doc.value()])?
            .into_iter()
            .filter_map(|(_, row)| row.get(1).map(UserId::from_value))
            .collect();
        readers.sort();
        readers.dedup();
        let ops = txn.count(t.oplog, &Predicate::Eq("doc".into(), doc.value()))?;
        Ok(DocStats {
            doc,
            size,
            tuples: chars.len(),
            authors: authors.into_keys().collect(),
            readers,
            ops,
            copied_in,
            external_in,
        })
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
