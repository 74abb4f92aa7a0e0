//! The packed index key (DESIGN.md §5.12, "… and in the indexes"): an
//! index orders its entries by bytes, so the bytes must order as the
//! values do. On random layouts over all seven types, nullable or not,
//! and random keys with the values that break naive encodings (negative
//! numbers, −0.0, NaNs and infinities, empty and `\0`/`0xFF`-laden text
//! and bytes, `\u{10FFFF}`):
//!
//! * byte order of two packed keys is `Vec<Value>` order under
//!   `Value::total_cmp`;
//! * packing a key's leading columns gives a byte prefix of packing it;
//! * unpacking gives the key back, bit for bit;
//! * `index_range` and `index_lookup` with any bounds — values of another
//!   type than their column, NULL where the column admits none, more
//!   values than columns — return what filtering every row by
//!   `Vec<Value>` comparison returns, in `(key, row id)` order;
//! * an index that keeps its entries as big-endian words (every column of
//!   fixed width, an entry of at most 32 bytes) hands them out in the
//!   order of their packed bytes, and its prefixes, bounds and
//!   descending cursor (`index_prev`, the range capped `below` a key)
//!   select what the bytes select.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the sequence.

use std::ops::Bound;

use proptest::prelude::*;
use tendax_storage::index::KeyLayout;
use tendax_storage::{DataType, Database, Predicate, Row, RowId, TableDef, Value};

const TYPES: [DataType; 7] = [
    DataType::Int,
    DataType::Id,
    DataType::Text,
    DataType::Bool,
    DataType::Bytes,
    DataType::Timestamp,
    DataType::Float,
];

/// One value of `ty`, edge values often.
fn value_of(ty: DataType, rng: &mut TestRng) -> Value {
    let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
    match ty {
        DataType::Int | DataType::Timestamp => {
            let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX, -300, 300];
            let x = match rng.below(3) {
                0 => rng.next_u64() as i64,
                _ => edges[pick(rng, edges.len())],
            };
            if ty == DataType::Int {
                Value::Int(x)
            } else {
                Value::Timestamp(x)
            }
        }
        DataType::Id => {
            let edges = [0, 1, 255, 256, u64::MAX - 1, u64::MAX];
            Value::Id(match rng.below(3) {
                0 => rng.next_u64(),
                _ => edges[pick(rng, edges.len())],
            })
        }
        DataType::Float => {
            let edges = [
                0.0,
                -0.0,
                1.0,
                -1.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -f64::NAN,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
            ];
            Value::Float(match rng.below(3) {
                0 => f64::from_bits(rng.next_u64()),
                _ => edges[pick(rng, edges.len())],
            })
        }
        DataType::Bool => Value::Bool(rng.below(2) == 1),
        DataType::Text => {
            // Few letters, short strings: equal strings and prefixes meet.
            let alphabet = ['\0', 'a', 'b', '\u{7f}', 'ÿ', '\u{10FFFF}'];
            let len = pick(rng, 4);
            Value::Text(
                (0..len)
                    .map(|_| alphabet[pick(rng, alphabet.len())])
                    .collect(),
            )
        }
        DataType::Bytes => {
            let alphabet = [0x00, 0x01, 0x61, 0xFE, 0xFF];
            let len = pick(rng, 4);
            Value::Bytes(
                (0..len)
                    .map(|_| alphabet[pick(rng, alphabet.len())])
                    .collect(),
            )
        }
    }
}

/// A layout of one to four columns, and keys that conform to it (some
/// repeated, some sharing leading columns). With `fixed`, every column
/// has a fixed width and an entry (key and row id) fits 32 bytes: the
/// index keeps its entries as words.
#[derive(Clone)]
struct Keys {
    fixed: bool,
}

/// The types of fixed width.
const FIXED: [DataType; 5] = [
    DataType::Int,
    DataType::Id,
    DataType::Bool,
    DataType::Timestamp,
    DataType::Float,
];

#[derive(Debug)]
struct Case {
    columns: Vec<(DataType, bool)>,
    keys: Vec<Vec<Value>>,
    /// Bounds and prefixes to probe with, of any type.
    probes: Vec<Vec<Value>>,
}

impl Strategy for Keys {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let ncols = 1 + rng.below(4) as usize;
        let columns: Vec<(DataType, bool)> = loop {
            let columns: Vec<(DataType, bool)> = (0..ncols)
                .map(|_| match self.fixed {
                    true => (FIXED[rng.below(5) as usize], rng.below(2) == 1),
                    false => (TYPES[rng.below(7) as usize], rng.below(2) == 1),
                })
                .collect();
            let words = KeyLayout::new(columns.iter().copied())
                .fixed_len()
                .is_some_and(|len| len + 8 <= 32);
            if words || !self.fixed {
                break columns;
            }
        };
        let fresh = |rng: &mut TestRng| -> Vec<Value> {
            (columns.iter())
                .map(|&(ty, nullable)| {
                    if nullable && rng.below(4) == 0 {
                        Value::Null
                    } else {
                        value_of(ty, rng)
                    }
                })
                .collect()
        };
        let mut keys: Vec<Vec<Value>> = Vec::new();
        for _ in 0..2 + rng.below(14) {
            let key = match (keys.len(), rng.below(3)) {
                (0, _) | (_, 0) => fresh(rng),
                (n, 1) => keys[rng.below(n as u64) as usize].clone(),
                (n, _) => {
                    // Share a leading run with an earlier key.
                    let mut key = keys[rng.below(n as u64) as usize].clone();
                    let keep = rng.below(ncols as u64) as usize;
                    key.splice(keep.., fresh(rng).split_off(keep));
                    key
                }
            };
            keys.push(key);
        }
        let probes = (0..8)
            .map(|_| {
                let mut probe = keys[rng.below(keys.len() as u64) as usize].clone();
                probe.truncate(rng.below(ncols as u64 + 1) as usize);
                // Now and then a value of any type, NULL or one too many.
                if rng.below(2) == 0 {
                    let any = match rng.below(8) {
                        7 => Value::Null,
                        t => value_of(TYPES[t as usize], rng),
                    };
                    let at = rng.below(probe.len() as u64 + 1) as usize;
                    probe.truncate(at);
                    probe.push(any);
                }
                probe
            })
            .collect();
        Case {
            columns,
            keys,
            probes,
        }
    }
}

fn layout(case: &Case) -> KeyLayout {
    KeyLayout::new(case.columns.iter().copied())
}

/// A table of the case's columns, indexed over all of them, holding
/// each key as a row.
fn table(case: &Case) -> (Database, tendax_storage::TableId, Vec<RowId>) {
    let db = Database::open_in_memory();
    let mut def = TableDef::new("t");
    for (i, &(ty, nullable)) in case.columns.iter().enumerate() {
        def = if nullable {
            def.nullable_column(format!("c{i}"), ty)
        } else {
            def.column(format!("c{i}"), ty)
        };
    }
    let names: Vec<String> = (0..case.columns.len()).map(|i| format!("c{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let t = db.create_table(def.index("by_all", &names)).unwrap();
    let mut txn = db.begin();
    let rids = (case.keys.iter())
        .map(|key| txn.insert(t, Row::new(key.clone())).unwrap())
        .collect();
    txn.commit().unwrap();
    (db, t, rids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_order_is_value_order(case in Keys { fixed: false }) {
        let layout = layout(&case);
        let packed: Vec<Vec<u8>> = (case.keys.iter())
            .map(|k| layout.encode(k).expect("a conforming key packs"))
            .collect();
        for (a, pa) in case.keys.iter().zip(&packed) {
            for (b, pb) in case.keys.iter().zip(&packed) {
                prop_assert_eq!(pa.cmp(pb), a.cmp(b), "{:?} vs {:?}", a, b);
            }
            if let Some(len) = layout.fixed_len() {
                prop_assert_eq!(pa.len(), len);
            }
        }
    }

    #[test]
    fn a_prefix_packs_to_a_byte_prefix_and_keys_round_trip(case in Keys { fixed: false }) {
        let layout = layout(&case);
        for key in &case.keys {
            let whole = layout.encode(key).unwrap();
            for n in 0..=key.len() {
                let prefix = layout.encode(&key[..n]).unwrap();
                prop_assert!(whole.starts_with(&prefix), "{:?} at {}", key, n);
            }
            let back = layout.decode(&whole);
            prop_assert_eq!(back.as_ref(), Some(key));
            // Floats bit for bit (`==` on values is total_cmp, which
            // already tells NaN payloads and the two zeros apart).
            prop_assert_eq!(format!("{back:?}"), format!("{:?}", Some(key)));
            prop_assert!(layout.decode(&whole[..whole.len() - 1]).is_none());
        }
    }

    #[test]
    fn ranges_and_prefixes_read_what_value_order_says(case in Keys { fixed: false }) {
        let (db, t, rids) = table(&case);
        let txn = db.begin();
        let mut rows: Vec<(&Vec<Value>, RowId)> = case.keys.iter().zip(rids).collect();
        rows.sort();
        let brute = |keep: &dyn Fn(&[Value]) -> bool| -> Vec<RowId> {
            rows.iter().filter(|(k, _)| keep(k)).map(|(_, rid)| *rid).collect()
        };
        let ids = |got: Vec<(RowId, tendax_storage::SharedRow)>| -> Vec<RowId> {
            got.into_iter().map(|(rid, _)| rid).collect()
        };
        for lo in &case.probes {
            for hi in &case.probes {
                let (lo_s, hi_s) = (lo.as_slice(), hi.as_slice());
                for (lo_b, hi_b) in [
                    (Bound::Included(lo), Bound::Included(hi)),
                    (Bound::Included(lo), Bound::Excluded(hi)),
                    (Bound::Excluded(lo), Bound::Included(hi)),
                    (Bound::Unbounded, Bound::Excluded(hi)),
                    (Bound::Excluded(lo), Bound::Unbounded),
                ] {
                    let keep = |k: &[Value]| {
                        let above = match lo_b {
                            Bound::Included(_) => k >= lo_s,
                            Bound::Excluded(_) => k > lo_s,
                            Bound::Unbounded => true,
                        };
                        let below = match hi_b {
                            Bound::Included(_) => k <= hi_s,
                            Bound::Excluded(_) => k < hi_s,
                            Bound::Unbounded => true,
                        };
                        above && below
                    };
                    prop_assert_eq!(
                        ids(txn.index_range(t, "by_all", lo_b, hi_b).unwrap()),
                        brute(&keep),
                        "{:?} .. {:?}", lo_b, hi_b
                    );
                }
            }
            prop_assert_eq!(
                ids(txn.index_lookup(t, "by_all", lo).unwrap()),
                brute(&|k: &[Value]| k.starts_with(lo)),
                "lookup {:?}", lo
            );
            if let Some(first) = lo.first() {
                let pred = Predicate::Eq("c0".into(), first.clone());
                prop_assert_eq!(
                    txn.count(t, &pred).unwrap(),
                    txn.scan(t, &pred).unwrap().len(),
                    "count {:?}", pred
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An index whose entries are words (fixed-width layouts, entries of
    /// at most 32 bytes, most of them not a whole number of words) keeps
    /// and selects them as their packed bytes order.
    #[test]
    fn word_entries_sort_and_select_as_their_bytes(case in Keys { fixed: true }) {
        let layout = layout(&case);
        let (db, t, rids) = table(&case);
        let txn = db.begin();
        let packed = |key: &[Value]| layout.encode(key).expect("a conforming key packs");
        // The byte form: every row's packed key and id, sorted as bytes.
        let mut bytes: Vec<(Vec<u8>, RowId)> =
            case.keys.iter().map(|k| packed(k)).zip(rids).collect();
        bytes.sort();
        let ids = |got: Vec<(RowId, tendax_storage::SharedRow)>| -> Vec<RowId> {
            got.into_iter().map(|(rid, _)| rid).collect()
        };
        let where_bytes = |keep: &dyn Fn(&[u8]) -> bool| -> Vec<RowId> {
            bytes.iter().filter(|(k, _)| keep(k)).map(|(_, rid)| *rid).collect()
        };

        // Sorted: the entries come back as their bytes sort, and their
        // keys are those bytes.
        prop_assert_eq!(db.index_entries(t, "by_all").unwrap(), bytes.clone());
        let all = txn.index_range(t, "by_all", Bound::Unbounded, Bound::Unbounded).unwrap();
        prop_assert_eq!(ids(all), where_bytes(&|_| true));

        for key in &case.keys {
            for n in 0..=key.len() {
                let prefix = &key[..n];
                let p = packed(prefix);
                let bound = prefix.to_vec();
                // A prefix selects the entries its bytes prefix.
                prop_assert_eq!(
                    ids(txn.index_lookup(t, "by_all", prefix).unwrap()),
                    where_bytes(&|k| k.starts_with(&p)),
                    "lookup {:?}", prefix
                );
                // Bounds at a prefix: an inclusive lower end takes what
                // sorts at or above its bytes, an exclusive upper end
                // what sorts below them.
                prop_assert_eq!(
                    ids(txn.index_range(t, "by_all", Bound::Included(&bound), Bound::Unbounded).unwrap()),
                    where_bytes(&|k| k >= p.as_slice()),
                    "from {:?}", prefix
                );
                prop_assert_eq!(
                    ids(txn.index_range(t, "by_all", Bound::Unbounded, Bound::Excluded(&bound)).unwrap()),
                    where_bytes(&|k| k < p.as_slice()),
                    "until {:?}", prefix
                );
                // Below: a descending cursor under the prefix meets each
                // distinct key once, with its greatest row id.
                let mut want: Vec<(Vec<u8>, RowId)> = Vec::new();
                for (k, rid) in bytes.iter().rev().filter(|(k, _)| k.starts_with(&p)) {
                    if want.last().is_none_or(|(last, _)| last != k) {
                        want.push((k.clone(), *rid));
                    }
                }
                let mut got = Vec::new();
                let mut before = None;
                while let Some((k, rid, _)) =
                    txn.index_prev(t, "by_all", prefix, before.as_ref()).unwrap()
                {
                    got.push((k.as_bytes().to_vec(), rid));
                    before = Some(k);
                }
                prop_assert_eq!(got, want, "below, under {:?}", prefix);
            }
        }
    }
}

#[test]
fn every_key_of_the_tendax_hot_tables_fits_twenty_four_bytes() {
    let id = (DataType::Id, false);
    let ts = (DataType::Timestamp, false);
    for (layout, len) in [
        (KeyLayout::new([id]), 8),
        (KeyLayout::new([id, ts]), 16),
        (KeyLayout::new([id, id, ts]), 24),
        (KeyLayout::new([(DataType::Id, true)]), 9),
    ] {
        assert_eq!(layout.fixed_len(), Some(len));
    }
    let doc_user_ts = KeyLayout::new([id, id, ts]);
    let key = [Value::Id(3), Value::Id(1), Value::Timestamp(-5)];
    assert_eq!(doc_user_ts.encode(&key).unwrap().len(), 24);
    // A value no column holds, or a key too long, packs to nothing.
    assert_eq!(doc_user_ts.encode(&[Value::Int(3)]), None);
    assert_eq!(doc_user_ts.encode(&[Value::Null]), None);
    assert_eq!(doc_user_ts.encode(&vec![Value::Id(1); 4]), None);
    assert_eq!(KeyLayout::new([(DataType::Text, false)]).fixed_len(), None);
}
