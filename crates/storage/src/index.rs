//! Ordered secondary indexes.
//!
//! An index maps composite keys (one [`Value`] per indexed column) to the
//! set of row ids that have **some version** carrying that key. Because the
//! engine is multi-versioned, index entries are a *superset* of what any
//! particular snapshot can see: readers always re-fetch the row through the
//! table's visibility check and re-verify the key. Entries for vacuumed
//! versions are dropped when the table is vacuumed.

use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};
use std::ops::Bound;

use crate::row::{RowId, SharedRow};
use crate::schema::IndexDef;
use crate::util::btree_bytes;
use crate::value::{Value, ValueRef};

/// Composite index key: the indexed column values, in index column order.
pub type IndexKey = Vec<Value>;

/// The rows under one key, in row-id order. Most keys of most indexes
/// name one row (a timestamp-suffixed key, a unique name), and that row
/// id lives in the map's own node; a set is built when a second row
/// arrives, behind a pointer so that either way the node's slot is two
/// words.
#[derive(Debug, Clone)]
pub enum RowSet {
    One(RowId),
    Many(Box<BTreeSet<RowId>>),
}

impl RowSet {
    /// The row ids, ascending.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = RowId> + '_ {
        let (one, many) = match self {
            RowSet::One(r) => (Some(*r), None),
            RowSet::Many(set) => (None, Some(set.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    pub fn len(&self) -> usize {
        match self {
            RowSet::One(_) => 1,
            RowSet::Many(set) => set.len(),
        }
    }

    /// Never: a key with no rows left is removed from its index.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Add `row`; whether it was new.
    fn insert(&mut self, row: RowId) -> bool {
        match self {
            RowSet::One(r) if *r == row => false,
            RowSet::One(r) => {
                *self = RowSet::Many(Box::new(BTreeSet::from([*r, row])));
                true
            }
            RowSet::Many(set) => set.insert(row),
        }
    }
}

/// One secondary index over a table.
#[derive(Debug, Clone)]
pub struct IndexStore {
    def: IndexDef,
    map: BTreeMap<IndexKey, RowSet>,
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
    pub fn key_of(&self, row: &SharedRow) -> IndexKey {
        self.def
            .columns
            .iter()
            .map(|&pos| row.get(pos).map_or(Value::Null, ValueRef::to_value))
            .collect()
    }

    /// Whether `row` carries exactly `key` (an entry key of this index) in
    /// the indexed columns. Compares in place: the re-verification every
    /// index reader owes the superset, without building a key per row.
    pub fn key_matches(&self, row: &SharedRow, key: &[Value]) -> bool {
        self.def
            .columns
            .iter()
            .zip(key)
            .all(|(&pos, k)| row.get(pos).unwrap_or(ValueRef::Null) == *k)
    }

    /// Record that `row` has a version with `key`.
    pub fn insert(&mut self, key: IndexKey, row: RowId) {
        let added = match self.map.entry(key) {
            Entry::Vacant(e) => {
                e.insert(RowSet::One(row));
                true
            }
            Entry::Occupied(mut e) => e.get_mut().insert(row),
        };
        self.entries += usize::from(added);
    }

    /// Remove the (key, row) entry, if present.
    pub fn remove(&mut self, key: &IndexKey, row: RowId) {
        let Some(rows) = self.map.get_mut(key) else {
            return;
        };
        let emptied = match rows {
            RowSet::One(r) if *r == row => true,
            RowSet::One(_) => return,
            RowSet::Many(set) => {
                if !set.remove(&row) {
                    return;
                }
                set.is_empty()
            }
        };
        self.entries -= 1;
        if emptied {
            self.map.remove(key);
        }
    }

    /// Row ids that may carry exactly `key`.
    pub fn lookup(&self, key: &IndexKey) -> impl Iterator<Item = RowId> + '_ {
        self.map.get(key).into_iter().flat_map(RowSet::iter)
    }

    /// The keys within the given bounds (lexicographic over the composite
    /// key), each with its row-id set: iterating keys, then each set, is
    /// `(key, row id)` order.
    pub fn range_sets(
        &self,
        lo: Bound<&[Value]>,
        hi: Bound<&[Value]>,
    ) -> impl Iterator<Item = (&IndexKey, &RowSet)> + '_ {
        self.map.range::<[Value], _>((lo, hi))
    }

    /// Like [`IndexStore::range_sets`], but flattened to `(key, row id)`
    /// pairs and iterating from the greatest downward (newest-first
    /// scans over timestamp-suffixed keys).
    pub fn range_rev(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
    ) -> impl Iterator<Item = (&IndexKey, RowId)> + '_ {
        self.map
            .range::<IndexKey, _>((lo, hi))
            .rev()
            .flat_map(|(k, rows)| rows.iter().rev().map(move |r| (k, r)))
    }

    /// All row ids sharing the given key *prefix* (first `prefix.len()`
    /// indexed columns equal).
    pub fn prefix<'a>(
        &'a self,
        prefix: &'a [Value],
    ) -> impl Iterator<Item = (&'a IndexKey, RowId)> + 'a {
        self.range_sets(Bound::Included(prefix), Bound::Unbounded)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .flat_map(|(k, rows)| rows.iter().map(move |r| (k, r)))
    }

    /// Number of (key, row) entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Heap bytes this index holds: its tree, each key's values and the
    /// sets of the keys that name several rows.
    pub fn resident_bytes(&self) -> usize {
        let slot = std::mem::size_of::<(IndexKey, RowSet)>();
        let entries: usize = self
            .map
            .iter()
            .map(|(key, rows)| {
                let values = key.capacity() * std::mem::size_of::<Value>();
                let payloads: usize = key.iter().map(Value::heap_bytes).sum();
                let set = match rows {
                    RowSet::One(_) => 0,
                    RowSet::Many(set) => {
                        std::mem::size_of::<BTreeSet<RowId>>()
                            + btree_bytes(set.len(), std::mem::size_of::<RowId>())
                    }
                };
                values + payloads + set
            })
            .sum();
        btree_bytes(self.map.len(), slot) + entries
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
    use crate::row::Row;
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
    fn a_key_holds_one_row_inline_and_a_set_from_the_second() {
        let mut i = idx();
        i.insert(key(1, "x"), RowId(10));
        assert!(matches!(i.map[&key(1, "x")], RowSet::One(RowId(10))));
        let one = i.resident_bytes();
        i.insert(key(1, "x"), RowId(7));
        i.insert(key(1, "x"), RowId(12));
        assert!(matches!(&i.map[&key(1, "x")], RowSet::Many(s) if s.len() == 3));
        assert!(i.resident_bytes() > one, "the set is counted");
        // Row-id order forward, and the reverse walk descends.
        let rows: Vec<u64> = i.lookup(&key(1, "x")).map(|r| r.0).collect();
        assert_eq!(rows, [7, 10, 12]);
        let rev: Vec<u64> = i
            .range_rev(Bound::Unbounded, Bound::Unbounded)
            .map(|(_, r)| r.0)
            .collect();
        assert_eq!(rev, [12, 10, 7]);
        // Emptying a set removes its key.
        for r in [7, 10, 12] {
            i.remove(&key(1, "x"), RowId(r));
        }
        assert_eq!((i.key_count(), i.entry_count()), (0, 0));
    }

    #[test]
    fn key_of_extracts_in_index_order() {
        let i = IndexStore::new(IndexDef {
            name: "rev".into(),
            columns: vec![1, 0],
            unique: false,
        });
        let row = Row::new(vec![Value::Id(7), Value::Text("t".into())]).into_shared();
        assert_eq!(i.key_of(&row), vec![Value::Text("t".into()), Value::Id(7)]);
        assert!(i.key_matches(&row, &[Value::Text("t".into()), Value::Id(7)]));
        assert!(!i.key_matches(&row, &[Value::Text("t".into()), Value::Id(8)]));
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
