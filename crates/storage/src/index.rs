//! Ordered secondary indexes.
//!
//! An index maps composite keys (one [`Value`] per indexed column) to the
//! set of row ids that have **some version** carrying that key. Because the
//! engine is multi-versioned, index entries are a *superset* of what any
//! particular snapshot can see: readers always re-fetch the row through the
//! table's visibility check and re-verify the key. Entries for vacuumed
//! versions are dropped when the table is vacuumed.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use crate::row::{Row, RowId};
use crate::schema::IndexDef;
use crate::value::Value;

/// Composite index key: the indexed column values, in index column order.
pub type IndexKey = Vec<Value>;

/// One secondary index over a table.
#[derive(Debug, Clone)]
pub struct IndexStore {
    def: IndexDef,
    map: BTreeMap<IndexKey, BTreeSet<RowId>>,
    /// Number of (key, row) entries, maintained incrementally.
    entries: usize,
}

impl IndexStore {
    pub fn new(def: IndexDef) -> Self {
        IndexStore {
            def,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    pub fn definition(&self) -> &IndexDef {
        &self.def
    }

    /// Extract this index's key from a full row.
    pub fn key_of(&self, row: &Row) -> IndexKey {
        self.def
            .columns
            .iter()
            .map(|&pos| row.get(pos).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Whether `row` carries exactly `key` (an entry key of this index) in
    /// the indexed columns. Compares in place: the re-verification every
    /// index reader owes the superset, without building a key per row.
    pub fn key_matches(&self, row: &Row, key: &[Value]) -> bool {
        self.def
            .columns
            .iter()
            .zip(key)
            .all(|(&pos, k)| row.get(pos).unwrap_or(&Value::Null) == k)
    }

    /// Record that `row` has a version with `key`.
    pub fn insert(&mut self, key: IndexKey, row: RowId) {
        if self.map.entry(key).or_default().insert(row) {
            self.entries += 1;
        }
    }

    /// Remove the (key, row) entry, if present.
    pub fn remove(&mut self, key: &IndexKey, row: RowId) {
        if let Some(set) = self.map.get_mut(key) {
            if set.remove(&row) {
                self.entries -= 1;
            }
            if set.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Row ids that may carry exactly `key`.
    pub fn lookup(&self, key: &IndexKey) -> impl Iterator<Item = RowId> + '_ {
        self.map.get(key).into_iter().flatten().copied()
    }

    /// The keys within the given bounds (lexicographic over the composite
    /// key), each with its row-id set: iterating keys, then each set, is
    /// `(key, row id)` order.
    pub fn range_sets(
        &self,
        lo: Bound<&[Value]>,
        hi: Bound<&[Value]>,
    ) -> impl Iterator<Item = (&IndexKey, &BTreeSet<RowId>)> + '_ {
        self.map.range::<[Value], _>((lo, hi))
    }

    /// Like [`IndexStore::range`], but iterating from the greatest key
    /// downward (newest-first scans over timestamp-suffixed keys).
    pub fn range_rev(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
    ) -> impl Iterator<Item = (&IndexKey, RowId)> + '_ {
        self.map
            .range::<IndexKey, _>((lo, hi))
            .rev()
            .flat_map(|(k, set)| set.iter().rev().map(move |r| (k, *r)))
    }

    /// All row ids sharing the given key *prefix* (first `prefix.len()`
    /// indexed columns equal).
    pub fn prefix<'a>(
        &'a self,
        prefix: &'a [Value],
    ) -> impl Iterator<Item = (&'a IndexKey, RowId)> + 'a {
        self.range_sets(Bound::Included(prefix), Bound::Unbounded)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .flat_map(|(k, set)| set.iter().map(move |r| (k, *r)))
    }

    /// Number of (key, row) entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Drop everything (used by vacuum rebuild).
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::IndexDef;

    fn idx() -> IndexStore {
        IndexStore::new(IndexDef {
            name: "by_ab".into(),
            columns: vec![0, 1],
            unique: false,
        })
    }

    fn key(a: u64, b: &str) -> IndexKey {
        vec![Value::Id(a), Value::Text(b.into())]
    }

    #[test]
    fn insert_lookup_remove() {
        let mut i = idx();
        i.insert(key(1, "x"), RowId(10));
        i.insert(key(1, "x"), RowId(11));
        i.insert(key(2, "y"), RowId(12));
        assert_eq!(i.entry_count(), 3);
        assert_eq!(i.key_count(), 2);
        let hits: Vec<_> = i.lookup(&key(1, "x")).collect();
        assert_eq!(hits, vec![RowId(10), RowId(11)]);

        // Duplicate insert is idempotent.
        i.insert(key(1, "x"), RowId(10));
        assert_eq!(i.entry_count(), 3);

        i.remove(&key(1, "x"), RowId(10));
        assert_eq!(i.lookup(&key(1, "x")).count(), 1);
        i.remove(&key(1, "x"), RowId(11));
        assert_eq!(i.key_count(), 1);
        // Removing a non-existent entry is a no-op.
        i.remove(&key(9, "z"), RowId(1));
        assert_eq!(i.entry_count(), 1);
    }

    #[test]
    fn key_of_extracts_in_index_order() {
        let i = IndexStore::new(IndexDef {
            name: "rev".into(),
            columns: vec![1, 0],
            unique: false,
        });
        let row = Row::new(vec![Value::Id(7), Value::Text("t".into())]);
        assert_eq!(i.key_of(&row), vec![Value::Text("t".into()), Value::Id(7)]);
    }

    #[test]
    fn range_scans_are_ordered() {
        let mut i = idx();
        for a in 1..=5u64 {
            i.insert(key(a, "k"), RowId(a));
        }
        let lo = key(2, "");
        let hi = key(4, "\u{10FFFF}");
        let got: Vec<u64> = i
            .range_sets(Bound::Included(&lo), Bound::Included(&hi))
            .flat_map(|(_, rids)| rids.iter().map(|r| r.0))
            .collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn reverse_range_scans_descend() {
        let mut i = idx();
        for a in 1..=5u64 {
            i.insert(key(a, "k"), RowId(a));
        }
        let got: Vec<u64> = i
            .range_rev(Bound::Unbounded, Bound::Unbounded)
            .map(|(_, r)| r.0)
            .collect();
        assert_eq!(got, vec![5, 4, 3, 2, 1]);
        let hi = key(3, "\u{10FFFF}");
        let got: Vec<u64> = i
            .range_rev(Bound::Unbounded, Bound::Included(&hi))
            .map(|(_, r)| r.0)
            .collect();
        assert_eq!(got, vec![3, 2, 1]);
    }

    #[test]
    fn prefix_scan_matches_first_columns() {
        let mut i = idx();
        i.insert(key(1, "a"), RowId(1));
        i.insert(key(1, "b"), RowId(2));
        i.insert(key(2, "a"), RowId(3));
        let got: Vec<u64> = i.prefix(&[Value::Id(1)]).map(|(_, r)| r.0).collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(i.prefix(&[Value::Id(9)]).count(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut i = idx();
        i.insert(key(1, "a"), RowId(1));
        i.clear();
        assert_eq!(i.entry_count(), 0);
        assert_eq!(i.key_count(), 0);
    }
}
