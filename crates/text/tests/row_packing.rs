//! One path for a row into a transaction (DESIGN.md §5.2, "packed once,
//! where it is built"): `Transaction::insert_refs` validates borrowed
//! values and packs them straight into the row's allocation, and
//! `Transaction::insert` is a wrapper over the same validator and packer.
//! Over random rows of the three tables a keystroke writes — `chars`,
//! `oplog` and `op_effects`, as the text schema declares them — the two
//! give byte-identical rows, the same bytes `Row::into_shared` packs, and
//! identical errors for a wrong arity, a wrong type and a NULL in a NOT
//! NULL column.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the rows.

use proptest::prelude::*;
use tendax_storage::wal::codec::encode_record;
use tendax_storage::wal::{WalOp, WalRecord, WalWrite};
use tendax_storage::{DataType, Row, RowId, SharedRow, TableDef, TableId, Value};
use tendax_text::TextDb;

/// Which keystroke table a row is for.
const TABLES: [&str; 3] = ["chars", "oplog", "op_effects"];

/// A row for one of [`TABLES`], mostly valid: now and then a value of
/// the wrong type, a NULL where none is allowed, or a column too many or
/// too few.
#[derive(Debug, Clone)]
struct Case {
    table: usize,
    values: Vec<Value>,
}

struct Cases(Vec<TableDef>);

fn value_of(ty: DataType, rng: &mut TestRng) -> Value {
    // Magnitudes across every varint length, and texts of one to a few
    // characters, multi-byte ones among them.
    let n = rng.next_u64() >> rng.below(64);
    match ty {
        DataType::Int => Value::Int(n as i64),
        DataType::Id => Value::Id(n),
        DataType::Timestamp => Value::Timestamp((n as i64).wrapping_neg()),
        DataType::Bool => Value::Bool(rng.below(2) == 1),
        DataType::Float => Value::Float(f64::from_bits(rng.next_u64())),
        DataType::Bytes => Value::Bytes((0..rng.below(4)).map(|_| rng.below(256) as u8).collect()),
        DataType::Text => {
            let glyphs = ["a", "é", "\u{FFFC}", "𝄞", "insert", "del", "7", ""];
            let parts = 1 + rng.below(3);
            Value::Text((0..parts).map(|_| glyphs[rng.below(8) as usize]).collect())
        }
    }
}

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let table = rng.below(TABLES.len() as u64) as usize;
        let def = &self.0[table];
        let types = [DataType::Int, DataType::Id, DataType::Text, DataType::Bool];
        let mut values: Vec<Value> = (def.columns.iter())
            .map(|col| match rng.below(16) {
                0 => Value::Null,
                1 => value_of(types[rng.below(4) as usize], rng),
                _ if col.nullable && rng.below(3) == 0 => Value::Null,
                _ => value_of(col.ty, rng),
            })
            .collect();
        match rng.below(24) {
            0 => {
                values.pop();
            }
            1 => values.push(Value::Int(1)),
            _ => {}
        }
        Case { table, values }
    }
}

/// Rows of the keystroke tables as the text schema declares them.
fn cases() -> Cases {
    let tdb = TextDb::in_memory();
    let db = tdb.database();
    Cases(
        TABLES
            .map(|name| db.table_def(db.table_id(name).unwrap()).unwrap())
            .to_vec(),
    )
}

/// A row's bytes, as a commit record carries them: its op header and
/// body, copied verbatim from the row.
fn bytes_of(table: TableId, row: SharedRow) -> Vec<u8> {
    encode_record(&WalRecord::Commit {
        commit_ts: 1,
        writes: vec![WalWrite {
            table,
            row: RowId(1),
            op: WalOp::Put(row),
        }],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn borrowed_and_owned_values_pack_the_same_row_and_fail_the_same_way(
        case in cases()
    ) {
        let tdb = TextDb::in_memory();
        let db = tdb.database();
        let table = db.table_id(TABLES[case.table]).unwrap();
        let refs: Vec<_> = case.values.iter().map(Value::view).collect();
        let mut owned = db.begin();
        let mut borrowed = db.begin();
        let by_row = owned.insert(table, Row::new(case.values.clone()));
        let by_refs = borrowed.insert_refs(table, &refs);
        match (by_row, by_refs) {
            (Ok(a), Ok(b)) => {
                let a = owned.get(table, a).unwrap().expect("inserted");
                let b = borrowed.get(table, b).unwrap().expect("inserted");
                let packed = Row::new(case.values.clone()).into_shared();
                prop_assert_eq!(bytes_of(table, b.clone()), bytes_of(table, a));
                prop_assert_eq!(bytes_of(table, b.clone()), bytes_of(table, packed));
                prop_assert_eq!(b.values(), case.values.clone());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "insert gave {:?}, insert_refs {:?}", a, b),
        }
    }
}

#[test]
fn each_violation_is_the_same_error_both_ways() {
    let tdb = TextDb::in_memory();
    let db = tdb.database();
    let oplog = db.table_id("oplog").unwrap();
    // doc, user, ts, kind, target, undone
    let good = vec![
        Value::Id(1),
        Value::Id(2),
        Value::Timestamp(3),
        Value::Text("insert".into()),
        Value::Null,
        Value::Bool(false),
    ];
    let arity = good[..5].to_vec();
    let mut typed = good.clone();
    typed[2] = Value::Int(3);
    let mut null = good.clone();
    null[3] = Value::Null;
    for values in [arity, typed, null] {
        let refs: Vec<_> = values.iter().map(Value::view).collect();
        let mut txn = db.begin();
        let by_row = txn.insert(oplog, Row::new(values.clone())).unwrap_err();
        let by_refs = txn.insert_refs(oplog, &refs).unwrap_err();
        assert_eq!(by_row, by_refs, "{values:?}");
        assert_eq!(txn.write_count(), 0, "a refused row is not written");
    }
}
