//! Checkpoint rows coded against the row above them (DESIGN.md, "On-disk
//! format v3"): whatever a run of rows does from one row to the next —
//! repeat a column, step a number across `u64::MAX` or `i64::MIN`, flip
//! between NULL, a `Bool` and a value, change a column's type, repeat a
//! text or bring a new one, turn a NaN's payload or `-0.0` over — a batch
//! decodes to exactly the bytes each row had, and so does a checkpoint
//! that cuts its rows into several batches. Three ways of writing a batch agree to the byte: the
//! checkpoint's own frames, [`encode_record`] of the rows they decode
//! to, and the weigher behind `TableStats::checkpoint_bytes`.

mod common;

use proptest::prelude::*;

use common::TestDir;
use tendax_storage::wal::codec::{decode_record, encode_record, SNAPSHOT_BATCH_BYTES};
use tendax_storage::wal::{SnapshotVersion, WalOp, WalRecord, WalWrite};
use tendax_storage::{
    ColdOptions, DataType, Database, Options, Predicate, Row, RowId, SharedRow, TableDef, TableId,
    Value,
};

/// A row's bytes as RAM holds them: a `Put` op's bytes are the row's, and
/// a commit carries the op as it is.
fn packed(row: &SharedRow) -> Vec<u8> {
    encode_record(&WalRecord::Commit {
        commit_ts: 0,
        writes: vec![WalWrite {
            table: TableId(0),
            row: RowId(0),
            op: WalOp::Put(row.clone()),
        }],
    })
}

/// Versions as `(row id, commit ts, packed bytes of a put)`.
type Flat = Vec<(u64, u64, Option<Vec<u8>>)>;

fn flatten<'a>(rows: impl IntoIterator<Item = &'a SnapshotVersion>) -> Flat {
    (rows.into_iter())
        .map(|v| {
            let put = match &v.op {
                WalOp::Put(row) => Some(packed(row)),
                WalOp::Delete => None,
                WalOp::Patch { .. } => panic!("a patch in a snapshot batch"),
            };
            (v.row.0, v.commit_ts, put)
        })
        .collect()
}

// ------------------------------------------------------------ generators

/// The types a column is declared with.
const KINDS: [DataType; 7] = [
    DataType::Int,
    DataType::Id,
    DataType::Timestamp,
    DataType::Float,
    DataType::Text,
    DataType::Bytes,
    DataType::Bool,
];

const TEXTS: [&str; 5] = [
    "insert",
    "delete",
    "e",
    "",
    "\u{1F600} a text longer than a key",
];

/// What one cell does relative to the same column of the row above.
#[derive(Debug, Clone)]
enum Move {
    Same,
    Step(i8),
    Extreme(u8),
    Null,
    Bool(bool),
    Pool(u8),
    /// Any value of any type: in a batch, a column that changes type.
    Any(Value),
}

fn arb_any() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::Id),
        any::<i64>().prop_map(Value::Timestamp),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        ".{0,40}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Value::Bytes),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
    ]
}

fn arb_move() -> impl Strategy<Value = Move> {
    prop_oneof![
        10 => Just(Move::Same),
        6 => (-3i8..=3).prop_map(Move::Step),
        2 => any::<u8>().prop_map(Move::Extreme),
        1 => Just(Move::Null),
        1 => any::<bool>().prop_map(Move::Bool),
        3 => any::<u8>().prop_map(Move::Pool),
        1 => arb_any().prop_map(Move::Any),
    ]
}

/// A value of `kind`, picked by `k`, from the edges of its range.
fn extreme(kind: DataType, k: u8) -> Value {
    let k = usize::from(k % 4);
    match kind {
        DataType::Int => Value::Int([i64::MIN, i64::MAX, -1, 0][k]),
        DataType::Id => Value::Id([u64::MAX, 0, 1 << 63, u64::MAX - 1][k]),
        DataType::Timestamp => Value::Timestamp([i64::MAX, i64::MIN, 0, -1][k]),
        DataType::Float => Value::Float(
            [
                f64::from_bits(0x7FF8_0000_DEAD_BEEF),
                -0.0,
                0.0,
                f64::NEG_INFINITY,
            ][k],
        ),
        DataType::Text => Value::Text(["", "\u{10FFFF}", "x", &"long ".repeat(60)][k].into()),
        DataType::Bytes => Value::Bytes([vec![], vec![0xFF; 9], vec![0], vec![7; 300]][k].clone()),
        DataType::Bool => Value::Bool(k % 2 == 0),
    }
}

/// The cell `m` makes of `above` in a column of `kind`. With `typed`, the
/// result is a value of `kind` or NULL, as a table would hold it.
fn apply(kind: DataType, above: &Value, m: &Move, typed: bool) -> Value {
    let pool = |k: u8| match kind {
        DataType::Text => Value::Text(TEXTS[usize::from(k) % TEXTS.len()].into()),
        DataType::Bytes => Value::Bytes(vec![k % 3; usize::from(k % 4)]),
        DataType::Float => Value::Float(f64::from(k % 3)),
        DataType::Bool => Value::Bool(k.is_multiple_of(2)),
        DataType::Id => Value::Id(u64::from(k)),
        DataType::Int => Value::Int(i64::from(k as i8)),
        DataType::Timestamp => Value::Timestamp(i64::from(k)),
    };
    let v = match m {
        Move::Same => above.clone(),
        Move::Step(d) => match above {
            Value::Int(x) => Value::Int(x.wrapping_add(i64::from(*d))),
            Value::Id(x) => Value::Id(x.wrapping_add_signed(i64::from(*d))),
            Value::Timestamp(x) => Value::Timestamp(x.wrapping_add(i64::from(*d))),
            _ => pool(*d as u8),
        },
        Move::Extreme(k) => extreme(kind, *k),
        Move::Null => Value::Null,
        Move::Bool(b) => Value::Bool(*b),
        Move::Pool(k) => pool(*k),
        Move::Any(v) => v.clone(),
    };
    let fits = matches!(
        (&v, kind),
        (Value::Null, _)
            | (Value::Int(_), DataType::Int)
            | (Value::Id(_), DataType::Id)
            | (Value::Timestamp(_), DataType::Timestamp)
            | (Value::Float(_), DataType::Float)
            | (Value::Text(_), DataType::Text)
            | (Value::Bytes(_), DataType::Bytes)
            | (Value::Bool(_), DataType::Bool)
    );
    if !typed || fits {
        v
    } else {
        above.clone()
    }
}

/// Rows of `kinds` columns, each cell made by its move from the cell
/// above; the first row from the moves' own values.
fn run_rows(kinds: &[DataType], moves: &[Vec<Move>], typed: bool) -> Vec<Vec<Value>> {
    let mut above: Vec<Value> = kinds.iter().map(|&k| extreme(k, 3)).collect();
    let mut rows = Vec::with_capacity(moves.len());
    for row_moves in moves {
        let row: Vec<Value> = (kinds.iter().zip(&above).zip(row_moves))
            .map(|((&kind, above), m)| apply(kind, above, m, typed))
            .collect();
        above = row.clone();
        rows.push(row);
    }
    rows
}

/// True `weight` times in ten.
fn sometimes(weight: u32) -> impl Strategy<Value = bool> {
    (0u32..10).prop_map(move |n| n < weight)
}

/// The most columns a generated batch has.
const MAX_COLS: usize = 12;

/// A batch of versions of up to [`MAX_COLS`] columns: row ids that
/// repeat (several versions of one row), step by one, or jump; commit
/// timestamps that step either way or jump; tombstones among the puts.
fn arb_batch() -> impl Strategy<Value = WalRecord> {
    let version = (
        prop_oneof![3 => Just(1u64), 1 => Just(0u64), 1 => 2u64..9, 1 => any::<u64>()],
        prop_oneof![3 => -4i64..20, 1 => any::<i64>()],
        sometimes(1),
        proptest::collection::vec(arb_move(), MAX_COLS),
    );
    (
        proptest::collection::vec(0..KINDS.len(), 1..MAX_COLS + 1),
        proptest::collection::vec(version, 1..60),
    )
        .prop_map(|(kinds, versions)| {
            let kinds: Vec<DataType> = kinds.into_iter().map(|k| KINDS[k]).collect();
            let moves: Vec<Vec<Move>> = versions.iter().map(|v| v.3.clone()).collect();
            let rows = run_rows(&kinds, &moves, false);
            let (mut row, mut ts) = (0u64, 0u64);
            let rows = (versions.iter().zip(rows))
                .map(|((delta, step, delete, _), values)| {
                    row = row.saturating_add(*delta);
                    ts = ts.wrapping_add_signed(*step);
                    SnapshotVersion {
                        row: RowId(row),
                        commit_ts: ts,
                        op: if *delete {
                            WalOp::Delete
                        } else {
                            WalOp::Put(Row::new(values).into_shared())
                        },
                    }
                })
                .collect();
            WalRecord::SnapshotRows {
                table: TableId(kinds.len() as u32),
                rows,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A batch decodes to the row ids, timestamps and bytes it was made
    /// of, and encodes to itself again.
    #[test]
    fn a_delta_batch_decodes_to_the_bytes_of_its_rows(rec in arb_batch()) {
        let WalRecord::SnapshotRows { rows, .. } = &rec else { unreachable!() };
        let bytes = encode_record(&rec);
        let back = decode_record(&bytes).unwrap();
        let WalRecord::SnapshotRows { rows: got, .. } = &back else {
            panic!("not a batch: {back:?}");
        };
        prop_assert_eq!(flatten(got), flatten(rows));
        prop_assert_eq!(encode_record(&back), bytes);
    }
}

// --------------------------------------------------- through a checkpoint

/// One column of every type, all nullable; the last one a text that some
/// runs make long, so that their rows fill several batches.
fn table_def(kinds: &[DataType]) -> TableDef {
    (kinds.iter().enumerate()).fold(TableDef::new("t"), |def, (i, &kind)| {
        def.nullable_column(format!("c{i}"), kind)
    })
}

/// What a database is asked to do: insert a run of rows (a transaction
/// each, or a few together), then replace and delete some of them.
#[derive(Debug, Clone)]
struct Script {
    moves: Vec<Vec<Move>>,
    per_txn: usize,
    pad: usize,
    /// `(row index, new values' index, delete?)`.
    rewrites: Vec<(usize, usize, bool)>,
    history: bool,
}

fn arb_script() -> impl Strategy<Value = Script> {
    let n = KINDS.len() + 1;
    (
        prop_oneof![
            3 => proptest::collection::vec(proptest::collection::vec(arb_move(), n..=n), 1..200),
            1 => proptest::collection::vec(proptest::collection::vec(arb_move(), n..=n), 900..1_100),
        ],
        1usize..6,
        prop_oneof![Just(0usize), Just(100usize)],
        proptest::collection::vec((any::<usize>(), any::<usize>(), sometimes(3)), 0..40),
        any::<bool>(),
    )
        .prop_map(|(moves, per_txn, pad, rewrites, history)| Script {
            moves,
            per_txn,
            pad,
            rewrites,
            history,
        })
}

/// The payloads of a log file's frames.
fn frames(data: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < data.len() {
        let len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
        out.push(&data[at + 8..at + 8 + len]);
        at += 8 + len;
    }
    out
}

fn run_script(script: &Script) {
    let mut kinds = KINDS.to_vec();
    kinds.push(DataType::Text);
    let dir = TestDir::new("tendax-delta-rows");
    let path = dir.file("db.wal");
    let options = || Options {
        cold_storage: script.history.then(ColdOptions::default),
        ..Options::default()
    };
    let db = Database::open(&path, options()).unwrap();
    // With a cold tier, the first run file cannot be created at first.
    let mut run = path.clone().into_os_string();
    run.push(".cold.run0");
    if script.history {
        std::fs::create_dir(&run).unwrap();
    }
    let t = db.create_table(table_def(&kinds)).unwrap();
    let mut values = run_rows(&kinds, &script.moves, true);
    for row in &mut values {
        if let (Value::Text(text), true) = (&mut row[kinds.len() - 1], script.pad > 0) {
            text.push_str(&"p".repeat(script.pad));
        }
    }
    // Every version committed, as `(row, ts, values)`.
    let mut versions: Vec<(u64, u64, Option<Vec<Value>>)> = Vec::new();
    let mut ids = Vec::new();
    for chunk in values.chunks(script.per_txn) {
        let mut txn = db.begin();
        let rows: Vec<RowId> = (chunk.iter())
            .map(|v| txn.insert(t, Row::new(v.clone())).unwrap())
            .collect();
        let ts = txn.commit().unwrap();
        for (row, v) in rows.iter().zip(chunk) {
            versions.push((row.0, ts, Some(v.clone())));
        }
        ids.extend(rows);
    }
    let mut gone = vec![false; ids.len()];
    for &(at, with, delete) in &script.rewrites {
        let at = at % ids.len();
        if gone[at] {
            continue;
        }
        let mut txn = db.begin();
        let now = if delete {
            txn.delete(t, ids[at]).unwrap();
            gone[at] = true;
            None
        } else {
            let v = values[with % values.len()].clone();
            txn.update(t, ids[at], Row::new(v.clone())).unwrap();
            Some(v)
        };
        let ts = txn.commit().unwrap();
        versions.push((ids[at].0, ts, now));
    }
    versions.sort_by_key(|&(row, ts, _)| (row, ts));

    let weighed = db.table_stats()[0].checkpoint_bytes;
    let superseded = versions.len() > ids.len();
    if script.history {
        // Demotion fails, and with it a checkpoint that has history to
        // demote: it publishes nothing. Once the run can be written, the
        // history goes to the cold tier and the base holds no history.
        assert_eq!(db.checkpoint().is_err(), superseded);
        std::fs::remove_dir(&run).unwrap();
    }
    db.checkpoint().unwrap();
    let demoted = script.history && superseded;
    assert_eq!(db.stats().cold_demotions, u64::from(demoted));
    drop(db);

    // The base's frames: the writer's rows are `encode_record` of what
    // they decode to, and they weigh what the weigher said.
    let data = std::fs::read(&path).unwrap();
    let (mut live, mut live_bytes, mut batches) = (Vec::new(), 0, 0);
    for payload in frames(&data) {
        let rec = decode_record(payload).unwrap();
        if let WalRecord::SnapshotRows { rows, .. } = &rec {
            assert_eq!(encode_record(&rec), payload);
            live.extend(flatten(rows));
            live_bytes += 8 + payload.len() as u64;
            batches += 1;
        }
    }
    assert_eq!(live_bytes, weighed, "the weigher and the writer disagree");
    let ram: usize = (values.iter())
        .map(|v| packed(&Row::new(v.clone()).into_shared()).len())
        .sum();
    if ram > 2 * SNAPSHOT_BATCH_BYTES {
        assert!(batches >= 2, "{ram} bytes of rows fit one batch");
    }

    // The base holds the newest put of each row.
    let want: Flat = (versions.iter())
        .map(|(row, ts, v)| {
            let put = v
                .as_ref()
                .map(|v| packed(&Row::new(v.clone()).into_shared()));
            (*row, *ts, put)
        })
        .collect();
    let mut newest = want.clone();
    newest.reverse();
    newest.dedup_by_key(|v| v.0);
    newest.retain(|v| v.2.is_some());
    newest.reverse();
    assert_eq!(live, newest);

    // And the database opens to the same rows.
    let db = Database::open(&path, options()).unwrap();
    let scanned: Flat = (db.begin().scan(t, &Predicate::True).unwrap().iter())
        .map(|(rid, row)| (rid.0, 0, Some(packed(row))))
        .collect();
    let expect: Flat = (newest.iter())
        .map(|(row, _, put)| (*row, 0, put.clone()))
        .collect();
    assert_eq!(scanned, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A table's rows through a checkpoint: cut into batches, preceded by
    /// their history when cold demotion fails, written, weighed and
    /// replayed.
    #[test]
    fn a_checkpoint_of_delta_rows_replays_every_version(script in arb_script()) {
        run_script(&script);
    }
}

/// A fixed long run: 50 000 rows of a typing-shaped table, several
/// batches, replayed to the same bytes.
#[test]
fn fifty_thousand_rows_replay_to_the_same_bytes() {
    let n = 8;
    let moves: Vec<Vec<Move>> = (0..50_000u32)
        .map(|i| {
            (0..n)
                .map(|c| match (c + i as usize) % 5 {
                    0 | 1 => Move::Same,
                    2 => Move::Step((i % 3) as i8),
                    3 => Move::Pool((i % 7) as u8),
                    _ => Move::Extreme((i % 4) as u8),
                })
                .collect()
        })
        .collect();
    run_script(&Script {
        moves,
        per_txn: 500,
        pad: 0,
        rewrites: (0..200).map(|i| (i * 241, i * 7, i % 3 == 0)).collect(),
        history: false,
    });
}
