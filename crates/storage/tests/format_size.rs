//! The exactly-repeating byte counts the on-disk format's claim rests
//! on, pinned: what a checkpoint spends on a row of each of the three
//! tables a keystroke writes, and what one keystroke appends to the
//! WAL. Table shapes and value magnitudes are those of the text layer
//! in the benchmark's typing workloads (`crates/text/src/schema.rs`;
//! logical clock, ids in the tens of thousands). Each pin carries the
//! values earlier formats had, measured with this same code there.

mod common;

use common::TestDir;
use tendax_storage::{DataType, Database, Options, Row, RowId, TableDef, TableId, Value};

fn chars_def() -> TableDef {
    TableDef::new("chars")
        .column("doc", DataType::Id)
        .nullable_column("prev", DataType::Id)
        .nullable_column("next", DataType::Id)
        .column("ch", DataType::Text)
        .column("author", DataType::Id)
        .column("created_at", DataType::Timestamp)
        .column("version", DataType::Int)
        .column("deleted", DataType::Bool)
        .nullable_column("deleted_by", DataType::Id)
        .nullable_column("deleted_at", DataType::Timestamp)
        .nullable_column("style", DataType::Id)
        .nullable_column("src_doc", DataType::Id)
        .nullable_column("src_char", DataType::Id)
        .nullable_column("external_src", DataType::Text)
        .index("chars_by_doc", &["doc"])
}

fn oplog_def() -> TableDef {
    TableDef::new("oplog")
        .column("doc", DataType::Id)
        .column("user", DataType::Id)
        .column("ts", DataType::Timestamp)
        .column("kind", DataType::Text)
        .nullable_column("target", DataType::Id)
        .column("undone", DataType::Bool)
        .index("oplog_by_doc", &["doc"])
}

fn op_effects_def() -> TableDef {
    TableDef::new("op_effects")
        .column("op", DataType::Id)
        .column("kind", DataType::Text)
        .column("first", DataType::Id)
        .column("count", DataType::Int)
        .nullable_column("old_val", DataType::Text)
        .nullable_column("new_val", DataType::Text)
        .index("op_effects_by_op", &["op"])
}

fn chars_row(i: u64) -> Row {
    Row::new(vec![
        Value::Id(3),
        Value::Id(20_000 + i),
        Value::Id(20_002 + i),
        Value::Text("e".into()),
        Value::Id(2),
        Value::Timestamp(80_000 + i as i64),
        Value::Int(1),
        Value::Bool(false),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
    ])
}

fn oplog_row(i: u64) -> Row {
    Row::new(vec![
        Value::Id(3),
        Value::Id(2),
        Value::Timestamp(80_000 + i as i64),
        Value::Text("insert".into()),
        Value::Null,
        Value::Bool(false),
    ])
}

fn op_effects_row(i: u64) -> Row {
    Row::new(vec![
        Value::Id(20_000 + i),
        Value::Text("ins".into()),
        Value::Id(20_001 + i),
        Value::Int(1),
        Value::Null,
        Value::Null,
    ])
}

struct Fixture {
    _dir: TestDir,
    path: std::path::PathBuf,
    db: Database,
    chars: TableId,
    oplog: TableId,
    op_effects: TableId,
}

fn fixture() -> Fixture {
    let dir = TestDir::new("tendax-format-size");
    let path = dir.file("db.wal");
    let db = Database::open(&path, Options::default()).unwrap();
    let chars = db.create_table(chars_def()).unwrap();
    let oplog = db.create_table(oplog_def()).unwrap();
    let op_effects = db.create_table(op_effects_def()).unwrap();
    Fixture {
        _dir: dir,
        path,
        db,
        chars,
        oplog,
        op_effects,
    }
}

const ROWS: u64 = 1_000;

/// What a checkpoint spends on `ROWS` rows of `table`, each committed
/// by a transaction of its own: by the encoder's own account
/// (`TableStats::checkpoint_bytes`), cross-checked against how much the
/// checkpointed log grew (which also sees the table's watermark and the
/// `Meta` record gain a digit).
fn checkpoint_bytes(f: &Fixture, table: TableId, name: &str, row: fn(u64) -> Row) -> u64 {
    f.db.checkpoint().unwrap();
    let empty = std::fs::metadata(&f.path).unwrap().len();
    for i in 0..ROWS {
        let mut txn = f.db.begin();
        txn.insert(table, row(i)).unwrap();
        txn.commit().unwrap();
    }
    f.db.checkpoint().unwrap();
    let grew = std::fs::metadata(&f.path).unwrap().len() - empty;
    let stats = f.db.table_stats();
    let counted = stats
        .iter()
        .find(|t| t.name == name)
        .unwrap()
        .checkpoint_bytes;
    assert!(
        counted <= grew && grew <= counted + 4,
        "{name}: the encoder counts {counted} bytes, the log grew by {grew}"
    );
    counted
}

#[test]
fn checkpoint_bytes_per_row_are_pinned() {
    let f = fixture();
    // v1: 102 000 (102.0 a row: an 8-byte frame and a 21-byte record
    // header around every row, a tag byte per cell, fixed-width ids).
    // v2: 21 885 (every row as RAM holds it). v3: 9.0 a row — id +1,
    // ts +1, the op header, a two-byte bitmap, one header byte and
    // `prev`, `next`, `created_at` one more than above, a byte each.
    assert_eq!(checkpoint_bytes(&f, f.chars, "chars", chars_row), 9_024);
    // v1: 75 000. v2: 18 012. v3: `ts` is the only column that moves.
    assert_eq!(checkpoint_bytes(&f, f.oplog, "oplog", oplog_row), 6_024);
    // v1: 71 000. v2: 17 012. v3: `op` and `first` move.
    let op_effects = checkpoint_bytes(&f, f.op_effects, "op_effects", op_effects_row);
    assert_eq!(op_effects, 7_022);
}

/// One character typed mid-document, as the text layer commits it: the
/// new `chars` row, a one-column update of each neighbour's link, the
/// `oplog` row and its `op_effects` row.
#[test]
fn wal_bytes_of_one_keystroke_are_pinned() {
    let f = fixture();
    let mut txn = f.db.begin();
    let left = txn.insert(f.chars, chars_row(0)).unwrap();
    let right = txn.insert(f.chars, chars_row(1)).unwrap();
    txn.commit().unwrap();

    let before = f.db.wal_size().0;
    let mut txn = f.db.begin();
    txn.insert(f.chars, chars_row(2)).unwrap();
    let link = |txn: &mut tendax_storage::Transaction, row: RowId, col| {
        txn.set(f.chars, row, &[(col, Value::Id(20_500))]).unwrap();
    };
    link(&mut txn, left, "next");
    link(&mut txn, right, "prev");
    txn.insert(f.oplog, oplog_row(2)).unwrap();
    txn.insert(f.op_effects, op_effects_row(2)).unwrap();
    txn.commit().unwrap();
    // v1: 310. v3: 85, each patch ended in an anchor list (a count and
    // one anchor, a byte each). v4 has none.
    assert_eq!(f.db.wal_size().0 - before, 81);
}
