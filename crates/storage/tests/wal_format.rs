//! On-disk format v4 (DESIGN.md, "On-disk format v4"), held to the
//! standard the rest of storage holds itself to: every record kind and
//! value type round-trips bit-exactly, every truncation and every single
//! bit flip of a frame is rejected — torn tail, CRC, or typed error,
//! never a panic and never a different record — hostile lengths cost no
//! allocation, corruption is reported at the offset of the frame that
//! has it, and a v1, v2 or v3 file or a sharded layout is refused
//! untouched.

mod common;

use proptest::prelude::*;

use common::TestDir;
use tendax_storage::util::crc32;
use tendax_storage::wal::codec::{decode_record, encode_record, SNAPSHOT_BATCH_BYTES};
use tendax_storage::wal::{
    DurabilityLevel, SnapshotVersion, WalFile, WalIter, WalOp, WalRecord, WalWrite, FORMAT_VERSION,
};
use tendax_storage::{
    ColdOptions, DataType, Database, Options, Predicate, Row, RowId, SharedRow, StorageError,
    TableDef, TableId, Value,
};

/// `[u32 len][u32 crc][payload]`: the log's framing, unchanged since v1.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn put(values: Vec<Value>) -> WalOp {
    WalOp::Put(Row::new(values).into_shared())
}

/// Decode, compare, and encode again. `Debug` equality covers the
/// structure and every value but a NaN's payload; byte equality of the
/// re-encoding covers that (a float is stored as its eight raw bytes).
fn assert_roundtrips(rec: &WalRecord) {
    let bytes = encode_record(rec);
    let back = decode_record(&bytes).unwrap_or_else(|e| panic!("{rec:?} does not decode: {e}"));
    assert_eq!(format!("{back:?}"), format!("{rec:?}"));
    assert_eq!(encode_record(&back), bytes);
    read_every_column(&back);
}

// ------------------------------------------------------------ generators

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        // `any` is biased toward 0, 1, MIN and MAX.
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::Id),
        ".{0,40}".prop_map(Value::Text),
        Just(Value::Text(String::new())),
        Just(Value::Text("\u{1F600}\u{10FFFF}".into())),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        any::<i64>().prop_map(Value::Timestamp),
        // Every bit pattern, NaNs with payloads included.
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
    ]
}

fn arb_values() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        4 => proptest::collection::vec(arb_value(), 0..16),
        1 => proptest::collection::vec(arb_value(), 300..301),
    ]
}

fn arb_row() -> impl Strategy<Value = WalOp> {
    arb_values().prop_map(put)
}

fn arb_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        arb_row(),
        Just(WalOp::Delete),
        proptest::collection::vec((any::<u32>(), arb_value()), 0..6).prop_map(|fields| {
            let (fields, values) = fields.into_iter().unzip();
            WalOp::Patch { fields, values }
        }),
    ]
}

fn arb_table_def() -> impl Strategy<Value = TableDef> {
    proptest::collection::vec(("[a-z_]{1,12}", 0u8..7, any::<bool>()), 1..8).prop_map(|cols| {
        let mut def = TableDef::new("t\u{e9}");
        for (i, (name, ty, nullable)) in cols.iter().enumerate() {
            let ty = [
                DataType::Int,
                DataType::Id,
                DataType::Text,
                DataType::Bool,
                DataType::Bytes,
                DataType::Timestamp,
                DataType::Float,
            ][*ty as usize];
            let name = format!("{name}{i}");
            def = if *nullable {
                def.nullable_column(&name, ty)
            } else {
                def.column(&name, ty)
            };
        }
        let first = def.columns[0].name.clone();
        def.index("by_first", &[&first])
            .unique_index("u", &[&first])
    })
}

/// Versions in row-id order, as a checkpoint emits them: deltas of 0
/// (several versions of one row) up to jumps that reach `u64::MAX`.
fn arb_snapshot_rows() -> impl Strategy<Value = WalRecord> {
    let version = (
        prop_oneof![Just(0u64), 1u64..4, any::<u64>()],
        any::<u64>(),
        prop_oneof![arb_row(), Just(WalOp::Delete)],
    );
    (any::<u32>(), proptest::collection::vec(version, 0..12)).prop_map(|(table, versions)| {
        let mut row = 0u64;
        let rows = versions
            .into_iter()
            .map(|(delta, commit_ts, op)| {
                row = row.saturating_add(delta);
                SnapshotVersion {
                    row: RowId(row),
                    commit_ts,
                    op,
                }
            })
            .collect();
        WalRecord::SnapshotRows {
            table: TableId(table),
            rows,
        }
    })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        any::<u32>().prop_map(|version| WalRecord::Format { version }),
        (any::<u64>(), any::<i64>())
            .prop_map(|(next_ts, clock)| WalRecord::Meta { next_ts, clock }),
        (any::<u32>(), arb_table_def()).prop_map(|(id, def)| WalRecord::CreateTable {
            id: TableId(id),
            def
        }),
        any::<u32>().prop_map(|id| WalRecord::DropTable { id: TableId(id) }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u32>(), any::<u64>(), arb_op()), 0..6)
        )
            .prop_map(|(commit_ts, ws)| WalRecord::Commit {
                commit_ts,
                writes: ws
                    .into_iter()
                    .map(|(t, r, op)| WalWrite {
                        table: TableId(t),
                        row: RowId(r),
                        op
                    })
                    .collect(),
            }),
        arb_snapshot_rows(),
        (any::<u32>(), any::<u64>()).prop_map(|(t, w)| WalRecord::Watermark {
            table: TableId(t),
            next_row_id: w
        }),
    ]
}

proptest! {
    #[test]
    fn every_record_roundtrips_bit_exactly(rec in arb_record()) {
        assert_roundtrips(&rec);
    }

    /// The resident row: `Row → SharedRow → Row` is the identity, a column
    /// read is the value that was packed, and two rows are `==` exactly
    /// when their values are, under `Value`'s total order (floats bit for
    /// bit: a NaN equals itself and `-0.0` is not `0.0`).
    #[test]
    fn a_packed_row_is_its_values(
        a in arb_values(),
        other in arb_values(),
        change in 0u8..3,
        at in any::<u64>(),
    ) {
        let row = Row::new(a.clone()).into_shared();
        prop_assert_eq!(row.to_row(), Row::new(a.clone()));
        prop_assert_eq!(row.len(), a.len());
        for (i, v) in a.iter().enumerate() {
            prop_assert_eq!(row.get(i), Some(v.view()), "column {}", i);
        }
        prop_assert_eq!(row.get(a.len()), None);
        // Against itself, an unrelated row, and itself with one value
        // replaced or the last column dropped.
        let mut b = a.clone();
        match change {
            1 if !b.is_empty() => {
                let at = at as usize % b.len();
                b[at] = other.first().cloned().unwrap_or(Value::Null);
            }
            2 => {
                b.pop();
            }
            _ => {}
        }
        for b in [b, other] {
            let same = a == b;
            prop_assert_eq!(row == Row::new(b.clone()).into_shared(), same, "{:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn every_strict_prefix_of_a_record_is_rejected(rec in arb_record()) {
        let bytes = encode_record(&rec);
        for cut in 0..bytes.len() {
            prop_assert!(decode_record(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
        }
    }
}

// ------------------------------------------------------------- edge rows

#[test]
fn null_and_bools_roundtrip_at_every_position() {
    for n in [1usize, 3, 4, 5, 14, 300] {
        for pos in 0..n {
            for odd in [Value::Null, Value::Bool(false), Value::Bool(true)] {
                let mut values = vec![Value::Id(7); n];
                values[pos] = odd;
                assert_roundtrips(&WalRecord::Commit {
                    commit_ts: 1,
                    writes: vec![WalWrite {
                        table: TableId(0),
                        row: RowId(1),
                        op: put(values),
                    }],
                });
            }
        }
    }
}

#[test]
fn boundary_values_roundtrip() {
    let values = vec![
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(-1),
        Value::Id(u64::MAX),
        Value::Id(15),
        Value::Id(16),
        Value::Timestamp(i64::MIN),
        Value::Timestamp(i64::MAX),
        Value::Float(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
        Value::Float(-0.0),
        Value::Text(String::new()),
        Value::Text("\u{10FFFF}".into()),
        Value::Bytes(Vec::new()),
    ];
    assert_roundtrips(&WalRecord::SnapshotRows {
        table: TableId(u32::MAX),
        rows: vec![
            SnapshotVersion {
                row: RowId(0),
                commit_ts: u64::MAX,
                op: put(values),
            },
            SnapshotVersion {
                row: RowId(u64::MAX),
                commit_ts: 0,
                op: put(Vec::new()),
            },
        ],
    });
    assert_roundtrips(&WalRecord::SnapshotRows {
        table: TableId(0),
        rows: Vec::new(),
    });
}

// ------------------------------------------------- truncation + bit flips

/// What one typed character commits: the `chars` row, the two
/// neighbour-link patches, the `oplog` row and its `op_effects` row.
fn keystroke_commit() -> WalRecord {
    let link = |row: u64, field: u32, to: u64| WalWrite {
        table: TableId(4),
        row: RowId(row),
        op: WalOp::Patch {
            fields: vec![field],
            values: vec![Value::Id(to)],
        },
    };
    WalRecord::Commit {
        commit_ts: 40_123,
        writes: vec![
            WalWrite {
                table: TableId(4),
                row: RowId(20_500),
                op: put(vec![
                    Value::Id(3),
                    Value::Id(20_499),
                    Value::Id(17_002),
                    Value::Text("e".into()),
                    Value::Id(2),
                    Value::Timestamp(81_000),
                    Value::Int(1),
                    Value::Bool(false),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ]),
            },
            link(20_499, 2, 20_500),
            link(17_002, 1, 20_500),
            WalWrite {
                table: TableId(5),
                row: RowId(19_000),
                op: put(vec![
                    Value::Id(3),
                    Value::Id(2),
                    Value::Timestamp(81_000),
                    Value::Text("insert".into()),
                    Value::Null,
                    Value::Bool(false),
                ]),
            },
            WalWrite {
                table: TableId(6),
                row: RowId(19_700),
                op: put(vec![
                    Value::Id(19_000),
                    Value::Text("ins".into()),
                    Value::Id(20_500),
                    Value::Int(1),
                    Value::Null,
                    Value::Null,
                ]),
            },
        ],
    }
}

fn snapshot_batch() -> WalRecord {
    WalRecord::SnapshotRows {
        table: TableId(6),
        rows: (0..40u64)
            .map(|i| SnapshotVersion {
                row: RowId(19_000 + i * 3),
                commit_ts: 30_000 + i,
                op: put(vec![
                    Value::Id(18_000 + i),
                    Value::Text("ins".into()),
                    Value::Id(20_000 + i),
                    Value::Int(1),
                    Value::Null,
                    Value::Float(i as f64 / 3.0),
                ]),
            })
            .collect(),
    }
}

/// A batch whose every row leans on the rows above it: numbers one more
/// (or wrapping past `u64::MAX`/`i64::MAX`) than the row above, texts a
/// column wrote before, columns that flip between NULL, `Bool`s and
/// values or change type, several versions of one row and tombstones.
fn delta_batch() -> WalRecord {
    let texts = [
        "insert",
        "delete",
        "style",
        "e",
        "a much longer text than a slot key",
    ];
    WalRecord::SnapshotRows {
        table: TableId(4),
        rows: (0..48u64)
            .map(|i| SnapshotVersion {
                row: RowId(20_000 + i / 3),
                commit_ts: 40_000u64.wrapping_add(i * 7).wrapping_sub(i % 5 * 11),
                op: if i % 11 == 10 {
                    WalOp::Delete
                } else {
                    put(vec![
                        Value::Id(3),
                        Value::Id((u64::MAX - 2).wrapping_add(i)),
                        Value::Text(texts[(i * i % 7 % 5) as usize].into()),
                        Value::Int((i64::MAX - 1).wrapping_add(i as i64 % 4)),
                        [Value::Null, Value::Bool(i % 2 == 0), Value::Id(i)][i as usize % 3]
                            .clone(),
                        if i % 6 < 3 {
                            Value::Timestamp(81_000 + i as i64)
                        } else {
                            Value::Text(texts[i as usize % 2].into())
                        },
                        Value::Float(if i % 4 == 0 { -0.0 } else { f64::NAN }),
                        Value::Bytes(vec![i as u8 % 3; 2]),
                    ])
                },
            })
            .collect(),
    }
}

/// A log of `before`, the frame under test, and `after`: cut or flip the
/// middle frame every way there is. Whatever happens, the reader yields
/// `before` intact and then stops or reports — it never yields a record
/// the writer did not write.
fn sweep_frame(victim: &WalRecord) {
    let before = WalRecord::Meta {
        next_ts: 9,
        clock: 9,
    };
    let after = WalRecord::Watermark {
        table: TableId(7),
        next_row_id: 77,
    };
    let head = frame(&encode_record(&before));
    let mid = frame(&encode_record(victim));
    let tail = frame(&encode_record(&after));
    let read = |data: &[u8]| -> (Vec<WalRecord>, Option<StorageError>) {
        let mut seen = Vec::new();
        for item in WalIter::new(data) {
            match item {
                Ok(rec) => seen.push(rec),
                Err(e) => return (seen, Some(e)),
            }
        }
        (seen, None)
    };
    let intact = [head.clone(), mid.clone(), tail.clone()].concat();
    let (all, err) = read(&intact);
    assert_eq!(all.len(), 3);
    assert!(err.is_none());

    // Every cut inside the victim, as the log's tail: a torn write.
    for cut in 0..mid.len() {
        let data = [&head[..], &mid[..cut]].concat();
        let (seen, err) = read(&data);
        assert_eq!(seen, std::slice::from_ref(&before), "cut at {cut}");
        assert!(err.is_none(), "cut at {cut}: {err:?}");
    }
    // Every single bit flipped, with a good frame behind it.
    for bit in 0..mid.len() * 8 {
        let mut bad = mid.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let data = [&head[..], &bad[..], &tail[..]].concat();
        let (seen, err) = read(&data);
        let yielded = std::slice::from_ref(&before);
        assert_eq!(seen, yielded, "bit {bit}: a flipped frame was yielded");
        match err {
            // A grown length that runs past the end reads as torn.
            None => assert!(
                bit < 32,
                "bit {bit}: payload or CRC flip read as a torn tail"
            ),
            Some(StorageError::WalCorrupt { offset, .. }) => {
                assert_eq!(offset, head.len() as u64, "bit {bit}");
            }
            Some(other) => panic!("bit {bit}: untyped {other:?}"),
        }
    }
    // The decoder on its own, as if the CRC had been recomputed over the
    // damage: any answer but a panic or a runaway allocation. A row that
    // does decode keeps the damaged bytes it was decoded from, so every
    // column of it is read too: whatever passed the decoder reads back.
    let payload = encode_record(victim);
    for bit in 0..payload.len() * 8 {
        let mut bad = payload.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        match decode_record(&bad) {
            Ok(rec) => read_every_column(&rec),
            Err(e) => assert!(
                matches!(e, StorageError::WalCorrupt { .. }),
                "bit {bit}: {e:?}"
            ),
        }
    }
}

/// Read every column of every row in `rec` every way a reader can: one
/// at a time, in one walk, and materialized. The three must agree.
fn read_every_column(rec: &WalRecord) {
    let ops: Vec<&WalOp> = match rec {
        WalRecord::Commit { writes, .. } => writes.iter().map(|w| &w.op).collect(),
        WalRecord::SnapshotRows { rows, .. } => rows.iter().map(|v| &v.op).collect(),
        _ => Vec::new(),
    };
    for op in ops {
        let WalOp::Put(row) = op else { continue };
        let values = row.values();
        assert_eq!(values.len(), row.len());
        assert_eq!(row.iter().count(), row.len());
        for (i, (walked, owned)) in row.iter().zip(&values).enumerate() {
            assert_eq!(row.get(i), Some(walked), "column {i} of {row:?}");
            assert_eq!(walked, *owned, "column {i} of {row:?}");
            assert_eq!(row.is_null(i), owned.is_null(), "column {i} of {row:?}");
        }
        assert_eq!(row.get(row.len()), None);
    }
}

#[test]
fn commit_frame_survives_every_cut_and_every_bit_flip() {
    sweep_frame(&keystroke_commit());
}

#[test]
fn snapshot_batch_frame_survives_every_cut_and_every_bit_flip() {
    sweep_frame(&snapshot_batch());
    let batch = delta_batch();
    assert_roundtrips(&batch);
    sweep_frame(&batch);
}

// ---------------------------------------------------------- hostile input

fn assert_corrupt(payload: &[u8], what: &str) {
    match decode_record(payload) {
        Err(StorageError::WalCorrupt { .. }) => {}
        other => panic!("{what}: {other:?}"),
    }
}

/// 2^40 as a varint.
const HUGE: [u8; 6] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];

#[test]
fn overlong_and_overflowing_varints_are_corrupt() {
    // Watermark (tag 6) of table 0 + a row id.
    let mut eleven = vec![6, 0];
    eleven.extend_from_slice(&[0x80; 10]);
    eleven.push(0);
    assert_corrupt(&eleven, "11-byte varint");
    let mut overflow = vec![6, 0];
    overflow.extend_from_slice(&[0xFF; 9]);
    overflow.push(0x02);
    assert_corrupt(&overflow, "varint with a 65th bit");
    // u64::MAX itself is fine.
    let mut max = vec![6, 0];
    max.extend_from_slice(&[0xFF; 9]);
    max.push(0x01);
    assert_eq!(
        decode_record(&max).unwrap(),
        WalRecord::Watermark {
            table: TableId(0),
            next_row_id: u64::MAX
        }
    );
    // A table id is 32 bits: DropTable (tag 3) of table 2^40.
    assert_corrupt(&[&[3][..], &HUGE].concat(), "table id past u32");
    // A value's own varint: Put of one present Id whose high part
    // overflows (first byte: type Id, more; then 2^60 as a varint).
    let mut value = vec![4, 1, 1, 0, 0, 1 << 2, 3, 0x81];
    value.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]);
    assert_corrupt(&value, "value past 64 bits");
}

/// Counts that claim 2^40 elements are refused before anything is
/// reserved for them: were one believed, `Vec::with_capacity` would
/// abort this process, not fail this test.
#[test]
fn counts_claiming_a_trillion_elements_allocate_nothing() {
    // Commit (tag 4), ts 1, 2^40 writes.
    assert_corrupt(&[&[4, 1][..], &HUGE].concat(), "writes");
    // SnapshotRows (tag 5), table 0, 2^40 rows.
    assert_corrupt(&[&[5, 0][..], &HUGE].concat(), "rows");
    // Commit of one write (table 0, row 0) whose op header is
    // `2^40 << 2 | kind`: 2^42 | kind as a varint.
    let op_header = |kind: u8| [kind | 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
    let put = [&[4, 1, 1, 0, 0][..], &op_header(0), &[0xFF; 64]].concat();
    assert_corrupt(&put, "columns");
    let patch = [&[4, 1, 1, 0, 0][..], &op_header(2), &[0x01; 64]].concat();
    assert_corrupt(&patch, "patch fields");
    // CreateTable (tag 2), id 0, name "t", 2^40 columns.
    assert_corrupt(&[&[2, 0, 1, b't'][..], &HUGE].concat(), "table columns");
    // A text that claims 2^40 bytes (first byte: type Text, more, low
    // bits 0; then 2^36).
    let text = [
        &[4, 1, 1, 0, 0, 1 << 2, 3, 0x82][..],
        &[0x80, 0x80, 0x80, 0x80, 0x80, 0x02],
    ]
    .concat();
    assert_corrupt(&text, "text length");
}

#[test]
fn a_row_id_delta_that_wraps_is_corrupt() {
    // SnapshotRows, table 0, two rows: delta u64::MAX, ts 1, Delete;
    // then delta 1.
    let mut b = vec![5, 0, 2];
    b.extend_from_slice(&[0xFF; 9]);
    b.extend_from_slice(&[0x01, 1, 1]);
    b.extend_from_slice(&[1, 1, 1]);
    assert_corrupt(&b, "wrapping row id");
    // One less does not wrap.
    b[3] = 0xFE;
    assert!(decode_record(&b).is_ok());
}

// ------------------------------------------------------- corrupt offsets

/// Both regressions of one bug: the reader used to report end-of-file
/// for a CRC mismatch and offset 0 for a frame that failed to decode.
#[test]
fn wal_corrupt_names_the_offending_frames_offset() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("offsets.wal");
    let mut wal = WalFile::open(&path, DurabilityLevel::Buffered).unwrap();
    for ts in 1..=5 {
        wal.append(&WalRecord::Meta {
            next_ts: ts,
            clock: ts as i64,
        })
        .unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    let data = std::fs::read(&path).unwrap();
    // Frame starts: the format frame, then the five.
    let mut starts = Vec::new();
    let mut at = 0usize;
    while at < data.len() {
        starts.push(at);
        at += 8 + u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
    }
    assert_eq!(starts.len(), 6);
    let third = starts[3];

    // One bit of the third frame's payload.
    let mut flipped = data.clone();
    flipped[third + 9] ^= 0x10;
    let err = WalIter::new(&flipped)
        .collect::<Result<Vec<_>, _>>()
        .unwrap_err();
    match err {
        StorageError::WalCorrupt { offset, ref reason } => {
            assert_eq!(offset, third as u64, "{reason}");
            assert!(reason.contains("CRC"));
        }
        other => panic!("{other:?}"),
    }

    // One payload byte (the record tag) under a recomputed CRC.
    let mut recoded = data.clone();
    recoded[third + 8] = 200;
    let len = starts[4] - third - 8;
    let crc = crc32(&recoded[third + 8..third + 8 + len]);
    recoded[third + 4..third + 8].copy_from_slice(&crc.to_le_bytes());
    let err = WalIter::new(&recoded)
        .collect::<Result<Vec<_>, _>>()
        .unwrap_err();
    match err {
        StorageError::WalCorrupt { offset, ref reason } => {
            assert_eq!(offset, third as u64, "{reason}");
            assert!(reason.contains("unknown record tag"));
        }
        other => panic!("{other:?}"),
    }
    // And the database says the same when it opens the file.
    std::fs::write(&path, &recoded).unwrap();
    match Database::open(&path, Options::default()) {
        Err(StorageError::WalCorrupt { offset, .. }) => assert_eq!(offset, third as u64),
        other => panic!("{other:?}"),
    }
}

// ------------------------------------------------------------ v1 refusal

/// A v1 log, spelled out: fixed-width little-endian integers, `u32`
/// length prefixes, a tag byte per value. `Meta`, `CreateTable` for a
/// two-column table, and one `SnapshotRow`.
fn v1_log() -> Vec<u8> {
    let mut meta = vec![1u8]; // TAG_META
    meta.extend_from_slice(&7u64.to_le_bytes()); // next_ts
    meta.extend_from_slice(&3i64.to_le_bytes()); // clock

    let mut create = vec![2u8]; // TAG_CREATE_TABLE
    create.extend_from_slice(&0u32.to_le_bytes()); // table id
    create.extend_from_slice(&1u32.to_le_bytes()); // name length
    create.extend_from_slice(b"t");
    create.extend_from_slice(&2u32.to_le_bytes()); // columns
    for (name, ty) in [(&b"id"[..], 1u8), (&b"ch"[..], 2u8)] {
        create.extend_from_slice(&(name.len() as u32).to_le_bytes());
        create.extend_from_slice(name);
        create.push(ty); // Id, Text
        create.push(0); // NOT NULL
    }
    create.extend_from_slice(&0u32.to_le_bytes()); // indexes

    let mut row = vec![5u8]; // TAG_SNAPSHOT_ROW
    row.extend_from_slice(&0u32.to_le_bytes()); // table
    row.extend_from_slice(&1u64.to_le_bytes()); // row id
    row.extend_from_slice(&6u64.to_le_bytes()); // commit ts
    row.push(0); // OP_PUT
    row.extend_from_slice(&2u32.to_le_bytes()); // values
    row.push(2); // VT_ID
    row.extend_from_slice(&9u64.to_le_bytes());
    row.push(3); // VT_TEXT
    row.extend_from_slice(&1u32.to_le_bytes());
    row.extend_from_slice(b"x");

    [frame(&meta), frame(&create), frame(&row)].concat()
}

fn assert_refused(path: &std::path::Path, options: Options, found: u32) {
    let before = std::fs::read(path).unwrap();
    match Database::open(path, options) {
        Err(StorageError::UnsupportedFormat { found: f, expected }) => {
            assert_eq!((f, expected), (found, FORMAT_VERSION));
        }
        Err(other) => panic!("refused, but untyped: {other:?}"),
        Ok(_) => panic!("a v{found} log was opened"),
    }
    assert_eq!(
        std::fs::read(path).unwrap(),
        before,
        "the refused log was modified"
    );
}

#[test]
fn a_v1_log_is_refused_typed_and_left_untouched() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("v1.wal");
    std::fs::write(&path, v1_log()).unwrap();
    assert_refused(&path, Options::default(), 1);
    // A torn tail does not turn the refusal into a repair.
    let mut torn = v1_log();
    torn.extend_from_slice(&[0xAB; 5]);
    std::fs::write(&path, &torn).unwrap();
    assert_refused(&path, Options::default(), 1);
    // Nor does the reader itself decode any of it.
    assert!(matches!(
        WalFile::replay(&path),
        Err(StorageError::UnsupportedFormat { found: 1, .. })
    ));
}

#[test]
fn a_log_from_the_future_is_refused_too() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("future.wal");
    let future = FORMAT_VERSION + 1;
    let log = [
        frame(&encode_record(&WalRecord::Format { version: future })),
        frame(&encode_record(&WalRecord::Meta {
            next_ts: 1,
            clock: 1,
        })),
    ]
    .concat();
    std::fs::write(&path, log).unwrap();
    assert_refused(&path, Options::default(), future);
}

/// What is left of the sharded log (removed in PR 19): the layout it
/// wrote is refused by its second file's name before the first file is
/// read, and the two record kinds only it wrote are corruption at the
/// frame that carries one. Either way nothing on disk is touched.
#[test]
fn a_sharded_layout_and_its_retired_records_are_refused_and_left_untouched() {
    let dir = TestDir::new("tendax-wal-format");
    let format = frame(&encode_record(&WalRecord::Format {
        version: FORMAT_VERSION,
    }));
    let meta = frame(&encode_record(&WalRecord::Meta {
        next_ts: 4,
        clock: 0,
    }));

    // Shard 0 was the base path and shard 1 `<base>.shard1`: a barrier
    // (tag 8, watermark 0) around the table's DDL in the one, the
    // commits routed to the other (here: ts 1, no writes) in the other.
    let base = dir.file("sharded.wal");
    let sibling = dir.file("sharded.wal.shard1");
    let create = encode_record(&WalRecord::CreateTable {
        id: TableId(0),
        def: TableDef::new("t").column("n", DataType::Int),
    });
    let barrier = frame(&[&[8, 0][..], &create].concat());
    std::fs::write(&base, [&format[..], &barrier].concat()).unwrap();
    std::fs::write(&sibling, [&format[..], &frame(&[4, 1, 0])].concat()).unwrap();
    let before = (
        std::fs::read(&base).unwrap(),
        std::fs::read(&sibling).unwrap(),
    );
    match Database::open(&base, Options::default()) {
        Err(StorageError::ShardedLayout { sibling: named }) => {
            assert_eq!(named, sibling.display().to_string());
        }
        other => panic!("{other:?}"),
    }
    assert!(matches!(
        WalFile::replay(&base),
        Err(StorageError::ShardedLayout { .. })
    ));
    let after = (
        std::fs::read(&base).unwrap(),
        std::fs::read(&sibling).unwrap(),
    );
    assert_eq!(after, before, "a refused layout was modified");
    // A leftover sibling beside a log that does not exist yet is the
    // same layout: no database is created over it.
    std::fs::remove_file(&base).unwrap();
    assert!(matches!(
        Database::open(&base, Options::default()),
        Err(StorageError::ShardedLayout { .. })
    ));
    assert!(!base.exists());

    // One file, carrying an abort marker (tag 7, ts 3) or a barrier
    // (tag 8, watermark 3, around a drop of table 1) with a good frame
    // on either side of it.
    let path = dir.file("retired.wal");
    for retired in [&[7u8, 3][..], &[8, 3, 3, 1]] {
        let log = [&format[..], &meta, &frame(retired), &meta].concat();
        std::fs::write(&path, &log).unwrap();
        let at = (format.len() + meta.len()) as u64;
        for err in [
            Database::open(&path, Options::default()).map(drop),
            WalFile::replay(&path).map(drop),
        ] {
            match err {
                Err(StorageError::WalCorrupt { offset, reason }) => {
                    assert_eq!(offset, at, "{reason}");
                    assert!(reason.contains(&format!("tag {}", retired[0])), "{reason}");
                }
                other => panic!("tag {}: {other:?}", retired[0]),
            }
        }
        assert_eq!(std::fs::read(&path).unwrap(), log);
    }
}

#[test]
fn a_log_torn_inside_its_first_frame_held_nothing_and_opens_empty() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("torn-first.wal");
    // A crash while the very first frame was being written.
    let header = frame(&encode_record(&WalRecord::Format {
        version: FORMAT_VERSION,
    }));
    for cut in 0..header.len() {
        std::fs::write(&path, &header[..cut]).unwrap();
        let db = Database::open(&path, Options::default()).unwrap();
        assert!(db.table_names().is_empty());
        db.create_table(TableDef::new("t").column("n", DataType::Int))
            .unwrap();
        drop(db);
        // The repaired log starts with its format frame again.
        assert_eq!(std::fs::read(&path).unwrap()[..header.len()], header[..]);
        let db = Database::open(&path, Options::default()).unwrap();
        assert_eq!(db.table_names(), ["t"]);
    }
}

// --------------------------------------------------------- on real files

fn single_file() -> Options {
    Options::default()
}

/// A checkpoint of a table larger than one batch: the log starts with
/// the format frame, the table's rows arrive in several `SnapshotRows`
/// frames of about the batch size, in row-id order, and replay to the
/// same table.
#[test]
fn a_checkpoint_batches_rows_and_replays_them() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("batches.wal");
    let rows = 6_000i64;
    {
        let db = Database::open(&path, single_file()).unwrap();
        let t = db
            .create_table(
                TableDef::new("t")
                    .column("n", DataType::Int)
                    .column("text", DataType::Text),
            )
            .unwrap();
        let mut txn = db.begin();
        for n in 0..rows {
            let text = Value::Text(format!("row number {n:>8}"));
            txn.insert(t, Row::new(vec![Value::Int(n), text])).unwrap();
        }
        txn.commit().unwrap();
        db.checkpoint().unwrap();
    }
    let data = std::fs::read(&path).unwrap();
    let first = WalIter::new(&data).next().unwrap().unwrap();
    assert_eq!(
        first,
        WalRecord::Format {
            version: FORMAT_VERSION
        }
    );
    let mut batches = 0;
    let mut seen = Vec::new();
    for rec in WalFile::replay(&path).unwrap() {
        if let WalRecord::SnapshotRows { rows, .. } = rec {
            batches += 1;
            assert!(
                encode_record(&WalRecord::SnapshotRows {
                    table: TableId(0),
                    rows: rows.clone()
                })
                .len()
                    < 2 * SNAPSHOT_BATCH_BYTES
            );
            seen.extend(rows.into_iter().map(|v| v.row));
        }
    }
    assert!(batches >= 2, "{rows} rows fit one batch");
    assert_eq!(seen.len() as i64, rows);
    assert!(seen.windows(2).all(|w| w[0] < w[1]));

    let db = Database::open(&path, single_file()).unwrap();
    let t = db.table_id("t").unwrap();
    assert_eq!(db.begin().count(t, &Predicate::True).unwrap() as i64, rows);
}

// ------------------------------------------------------------ v2 refusal

/// A v2 log: the same database as [`V3_LOG`], written by the last build
/// before checkpoint rows were coded against the row above them. Its
/// commit frames are byte-identical to v3's; its checkpoint batch holds
/// every row as it is.
const V2_LOG: [u8; 249] = [
    0x02, 0x00, 0x00, 0x00, 0x9a, 0xc8, 0x15, 0x7e, 0x09, 0x02, 0x03, 0x00, 0x00, 0x00, 0xa7, 0xd1,
    0xb5, 0xcc, 0x01, 0x02, 0x00, 0x53, 0x00, 0x00, 0x00, 0xcf, 0x25, 0x88, 0x33, 0x02, 0x00, 0x05,
    0x63, 0x68, 0x61, 0x72, 0x73, 0x07, 0x03, 0x64, 0x6f, 0x63, 0x01, 0x00, 0x04, 0x6e, 0x65, 0x78,
    0x74, 0x01, 0x01, 0x02, 0x63, 0x68, 0x02, 0x00, 0x0a, 0x63, 0x72, 0x65, 0x61, 0x74, 0x65, 0x64,
    0x5f, 0x61, 0x74, 0x05, 0x00, 0x07, 0x64, 0x65, 0x6c, 0x65, 0x74, 0x65, 0x64, 0x03, 0x00, 0x06,
    0x77, 0x65, 0x69, 0x67, 0x68, 0x74, 0x06, 0x01, 0x04, 0x62, 0x6c, 0x6f, 0x62, 0x04, 0x01, 0x01,
    0x0c, 0x63, 0x68, 0x61, 0x72, 0x73, 0x5f, 0x62, 0x79, 0x5f, 0x64, 0x6f, 0x63, 0x01, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0xb9, 0x61, 0xa1, 0xfc, 0x06, 0x00, 0x04, 0x33, 0x00, 0x00, 0x00, 0xbc,
    0x1b, 0xb6, 0x41, 0x05, 0x00, 0x03, 0x01, 0x01, 0x1c, 0xff, 0x02, 0x19, 0x81, 0xe2, 0x09, 0x0a,
    0x61, 0x4c, 0x01, 0x01, 0x1c, 0xff, 0x0d, 0x19, 0x89, 0xe2, 0x09, 0x12, 0xc3, 0xa9, 0x3c, 0x05,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x01, 0x1c, 0xff, 0x32, 0x19, 0x91, 0xe2,
    0x09, 0x02, 0x2c, 0x13, 0x00, 0xff, 0x1b, 0x00, 0x00, 0x00, 0x3a, 0x1d, 0x18, 0x5e, 0x04, 0x02,
    0x03, 0x00, 0x01, 0x06, 0x01, 0x03, 0xe9, 0x04, 0x01, 0x03, 0x00, 0x03, 0x01, 0x00, 0x04, 0x1c,
    0xff, 0x01, 0x19, 0x99, 0xe2, 0x09, 0x0a, 0x64, 0x1c, 0x18, 0x00, 0x00, 0x00, 0x6e, 0x88, 0xb8,
    0x84, 0x04, 0x03, 0x01, 0x00, 0x02, 0x1c, 0xf3, 0x0d, 0x19, 0x22, 0xf0, 0x9f, 0x98, 0x80, 0x3c,
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
];

#[test]
fn a_v2_log_is_refused_typed_and_left_untouched() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("v2.wal");
    std::fs::write(&path, V2_LOG).unwrap();
    assert_refused(&path, single_file(), 2);
    assert!(matches!(
        WalFile::replay(&path),
        Err(StorageError::UnsupportedFormat { found: 2, .. })
    ));
}

// ------------------------------------------------------------ v3 refusal

/// A v3 log: the database of [`PARENT_LOG`], written by the last build
/// whose patches carried an anchor list after their values and whose
/// `set` was a full put — format frame, `chars`-like table, a three-row
/// checkpoint batch (the second and third rows coded against the one
/// above), then a tail of two commits: a put, a one-column patch with an
/// anchor and a delete; then a two-column `set` as a put.
const V3_LOG: [u8; 245] = [
    0x02, 0x00, 0x00, 0x00, 0x0c, 0xf8, 0x12, 0x09, 0x09, 0x03, 0x03, 0x00, 0x00, 0x00, 0xa7, 0xd1,
    0xb5, 0xcc, 0x01, 0x02, 0x00, 0x53, 0x00, 0x00, 0x00, 0xcf, 0x25, 0x88, 0x33, 0x02, 0x00, 0x05,
    0x63, 0x68, 0x61, 0x72, 0x73, 0x07, 0x03, 0x64, 0x6f, 0x63, 0x01, 0x00, 0x04, 0x6e, 0x65, 0x78,
    0x74, 0x01, 0x01, 0x02, 0x63, 0x68, 0x02, 0x00, 0x0a, 0x63, 0x72, 0x65, 0x61, 0x74, 0x65, 0x64,
    0x5f, 0x61, 0x74, 0x05, 0x00, 0x07, 0x64, 0x65, 0x6c, 0x65, 0x74, 0x65, 0x64, 0x03, 0x00, 0x06,
    0x77, 0x65, 0x69, 0x67, 0x68, 0x74, 0x06, 0x01, 0x04, 0x62, 0x6c, 0x6f, 0x62, 0x04, 0x01, 0x01,
    0x0c, 0x63, 0x68, 0x61, 0x72, 0x73, 0x5f, 0x62, 0x79, 0x5f, 0x64, 0x6f, 0x63, 0x01, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0xb9, 0x61, 0xa1, 0xfc, 0x06, 0x00, 0x04, 0x2f, 0x00, 0x00, 0x00, 0x10,
    0x15, 0xff, 0xc5, 0x05, 0x00, 0x03, 0x01, 0x02, 0x1c, 0xff, 0x02, 0x19, 0x81, 0xe2, 0x09, 0x0a,
    0x61, 0x4c, 0x01, 0x00, 0x1c, 0x41, 0x7f, 0x03, 0x16, 0x12, 0xc3, 0xa9, 0x3c, 0x05, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x1c, 0x01, 0xbf, 0x0c, 0x16, 0x02, 0x2c, 0x13,
    0x00, 0xff, 0x1b, 0x00, 0x00, 0x00, 0x3a, 0x1d, 0x18, 0x5e, 0x04, 0x02, 0x03, 0x00, 0x01, 0x06,
    0x01, 0x03, 0xe9, 0x04, 0x01, 0x03, 0x00, 0x03, 0x01, 0x00, 0x04, 0x1c, 0xff, 0x01, 0x19, 0x99,
    0xe2, 0x09, 0x0a, 0x64, 0x1c, 0x18, 0x00, 0x00, 0x00, 0x6e, 0x88, 0xb8, 0x84, 0x04, 0x03, 0x01,
    0x00, 0x02, 0x1c, 0xf3, 0x0d, 0x19, 0x22, 0xf0, 0x9f, 0x98, 0x80, 0x3c, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x80,
];

#[test]
fn a_v3_log_is_refused_typed_and_left_untouched() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("v3.wal");
    std::fs::write(&path, V3_LOG).unwrap();
    assert_refused(&path, single_file(), 3);
    assert!(matches!(
        WalFile::replay(&path),
        Err(StorageError::UnsupportedFormat { found: 3, .. })
    ));
}

// ------------------------------------------------- a log the parent wrote

/// A v4 log, as this format writes it — format frame, `chars`-like
/// table, a three-row checkpoint batch (the second and third rows coded
/// against the one above), then a tail of two commits: a put, a
/// one-column patch and a delete; then a two-column `set` (a two-column
/// patch). These bytes are the format: every value type, a NULL, both
/// `Bool`s, `-0.0`, an empty text and a four-byte character among them.
const PARENT_LOG: [u8; 233] = [
    0x02, 0x00, 0x00, 0x00, 0xaf, 0x6d, 0x76, 0x97, 0x09, 0x04, 0x03, 0x00, 0x00, 0x00, 0xa7, 0xd1,
    0xb5, 0xcc, 0x01, 0x02, 0x00, 0x53, 0x00, 0x00, 0x00, 0xcf, 0x25, 0x88, 0x33, 0x02, 0x00, 0x05,
    0x63, 0x68, 0x61, 0x72, 0x73, 0x07, 0x03, 0x64, 0x6f, 0x63, 0x01, 0x00, 0x04, 0x6e, 0x65, 0x78,
    0x74, 0x01, 0x01, 0x02, 0x63, 0x68, 0x02, 0x00, 0x0a, 0x63, 0x72, 0x65, 0x61, 0x74, 0x65, 0x64,
    0x5f, 0x61, 0x74, 0x05, 0x00, 0x07, 0x64, 0x65, 0x6c, 0x65, 0x74, 0x65, 0x64, 0x03, 0x00, 0x06,
    0x77, 0x65, 0x69, 0x67, 0x68, 0x74, 0x06, 0x01, 0x04, 0x62, 0x6c, 0x6f, 0x62, 0x04, 0x01, 0x01,
    0x0c, 0x63, 0x68, 0x61, 0x72, 0x73, 0x5f, 0x62, 0x79, 0x5f, 0x64, 0x6f, 0x63, 0x01, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0xb9, 0x61, 0xa1, 0xfc, 0x06, 0x00, 0x04, 0x2f, 0x00, 0x00, 0x00, 0x10,
    0x15, 0xff, 0xc5, 0x05, 0x00, 0x03, 0x01, 0x02, 0x1c, 0xff, 0x02, 0x19, 0x81, 0xe2, 0x09, 0x0a,
    0x61, 0x4c, 0x01, 0x00, 0x1c, 0x41, 0x7f, 0x03, 0x16, 0x12, 0xc3, 0xa9, 0x3c, 0x05, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x1c, 0x01, 0xbf, 0x0c, 0x16, 0x02, 0x2c, 0x13,
    0x00, 0xff, 0x19, 0x00, 0x00, 0x00, 0x7d, 0x76, 0xb2, 0xb1, 0x04, 0x02, 0x03, 0x00, 0x01, 0x06,
    0x01, 0x03, 0xe9, 0x04, 0x00, 0x03, 0x01, 0x00, 0x04, 0x1c, 0xff, 0x01, 0x19, 0x99, 0xe2, 0x09,
    0x0a, 0x64, 0x1c, 0x0e, 0x00, 0x00, 0x00, 0x2e, 0x4b, 0x5c, 0xcc, 0x04, 0x03, 0x01, 0x00, 0x02,
    0x0a, 0x01, 0x02, 0x0c, 0x22, 0xf0, 0x9f, 0x98, 0x80,
];

#[test]
fn a_log_the_parent_wrote_replays_to_the_same_rows() {
    assert_eq!(FORMAT_VERSION, 4);
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("parent.wal");
    std::fs::write(&path, PARENT_LOG).unwrap();
    // What the parent read back from this database before it closed it.
    let want = [
        (
            1,
            vec![
                Value::Id(3),
                Value::Id(77),
                Value::Text("a".into()),
                Value::Timestamp(-5),
                Value::Bool(true),
                Value::Null,
                Value::Null,
            ],
        ),
        (
            2,
            vec![
                Value::Id(3),
                Value::Null,
                Value::Text("\u{1F600}".into()),
                Value::Timestamp(-4),
                Value::Bool(false),
                Value::Float(-0.0),
                Value::Null,
            ],
        ),
        (
            4,
            vec![
                Value::Id(3),
                Value::Id(20_003),
                Value::Text("d".into()),
                Value::Timestamp(-2),
                Value::Bool(false),
                Value::Null,
                Value::Null,
            ],
        ),
    ];
    let check = |db: &Database| {
        let t = db.table_id("chars").unwrap();
        let got: Vec<(u64, Vec<Value>)> = (db.begin().scan(t, &Predicate::True).unwrap())
            .into_iter()
            .map(|(rid, row)| (rid.0, row.values()))
            .collect();
        assert_eq!(got, want);
        let by_doc = db.begin().index_lookup(t, "chars_by_doc", &[Value::Id(3)]);
        assert_eq!(by_doc.unwrap().len(), 3);
    };
    let db = Database::open(&path, single_file()).unwrap();
    check(&db);
    // The log was read, not rewritten; a checkpoint of what it holds
    // opens to the same rows again.
    assert_eq!(std::fs::read(&path).unwrap(), PARENT_LOG);
    db.checkpoint().unwrap();
    drop(db);
    check(&Database::open(&path, single_file()).unwrap());
}

// ------------------------------------------- a checkpoint the parent wrote

/// A small database a checkpoint has something of every kind to write
/// of: three tables, rows with superseded versions, a tombstoned row, a
/// NULL, both `Bool`s and a table emptied of live rows.
fn small_database(path: &std::path::Path, opts: Options) -> Database {
    let db = Database::open(path, opts).unwrap();
    let docs = db
        .create_table(
            TableDef::new("docs")
                .column("name", DataType::Text)
                .column("rev", DataType::Int)
                .unique_index("docs_by_name", &["name"]),
        )
        .unwrap();
    let chars = db
        .create_table(
            TableDef::new("chars")
                .column("doc", DataType::Id)
                .column("ch", DataType::Text)
                .column("deleted", DataType::Bool)
                .nullable_column("style", DataType::Id)
                .index("chars_by_doc", &["doc"]),
        )
        .unwrap();
    let gone = db
        .create_table(TableDef::new("gone").column("n", DataType::Int))
        .unwrap();
    let mut txn = db.begin();
    let (mut doc_rows, mut char_rows) = (Vec::new(), Vec::new());
    for d in 0..3i64 {
        let name = Value::Text(format!("doc {d}"));
        doc_rows.push(
            txn.insert(docs, Row::new(vec![name, Value::Int(0)]))
                .unwrap(),
        );
        for c in 0..12u64 {
            let ch = Value::Text(char::from(b'a' + c as u8).to_string());
            let row = vec![Value::Id(d as u64), ch, Value::Bool(false), Value::Null];
            char_rows.push(txn.insert(chars, Row::new(row)).unwrap());
        }
    }
    let gone_row = txn.insert(gone, Row::new(vec![Value::Int(7)])).unwrap();
    txn.commit().unwrap();
    for rev in 1..=2 {
        let mut txn = db.begin();
        for (d, &row) in doc_rows.iter().enumerate() {
            let name = Value::Text(format!("doc {d}"));
            txn.update(docs, row, Row::new(vec![name, Value::Int(rev)]))
                .unwrap();
        }
        txn.commit().unwrap();
    }
    let mut txn = db.begin();
    for &row in char_rows.iter().step_by(5) {
        let styled = vec![
            Value::Id(0),
            Value::Text("s".into()),
            Value::Bool(true),
            Value::Id(4),
        ];
        txn.update(chars, row, Row::new(styled)).unwrap();
    }
    txn.delete(chars, char_rows[1]).unwrap();
    txn.delete(gone, gone_row).unwrap();
    txn.commit().unwrap();
    db
}

/// Length and CRC-32 of the file the parent's checkpoint of
/// [`small_database`] wrote, without a cold tier and with one whose
/// demotion failed (the history spliced in behind the DDL prologue).
/// v2 wrote 492 B / 0x374b8102 and 665 B / 0xb182b469; v3 the same
/// lengths as v4 with CRCs 0x196a7ef2 and 0xb03126c2 (only the format
/// frame's version differs: a checkpoint holds no patch).
const PARENT_CHECKPOINT: (usize, u32) = (481, 0xbaf7_7721);
const PARENT_CHECKPOINT_WITH_HISTORY: (usize, u32) = (642, 0x154e_ffe5);

fn len_and_crc(path: &std::path::Path) -> (usize, u32) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), crc32(&bytes))
}

#[test]
fn a_checkpoint_is_the_file_the_parent_wrote() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("small.wal");
    small_database(&path, single_file()).checkpoint().unwrap();
    assert_eq!(len_and_crc(&path), PARENT_CHECKPOINT);
    // A cold tier that takes the history changes nothing in the log.
    let cold_path = dir.file("cold.wal");
    let cold = Options {
        cold_storage: Some(ColdOptions::default()),
        ..Options::default()
    };
    let db = small_database(&cold_path, cold);
    db.checkpoint().unwrap();
    assert!(db.stats().cold_demotions > 0);
    assert_eq!(
        std::fs::read(&cold_path).unwrap(),
        std::fs::read(&path).unwrap()
    );
}

/// A row's bytes as RAM holds them (a commit carries a `Put` as it is),
/// behind the same few bytes of commit header.
fn packed_bytes(row: &SharedRow) -> Vec<u8> {
    encode_record(&WalRecord::Commit {
        commit_ts: 0,
        writes: vec![WalWrite {
            table: TableId(0),
            row: RowId(0),
            op: WalOp::Put(row.clone()),
        }],
    })
}

/// Every live row of `db` as `(table, row id, commit ts, bytes)`. A row's
/// commit is the oldest snapshot from which on it reads the same bytes:
/// no commit of [`small_database`] rewrites a row to the bytes it had.
fn live_versions(db: &Database) -> Vec<(u32, u64, u64, Vec<u8>)> {
    let mut out = Vec::new();
    for name in db.table_names() {
        let t = db.table_id(&name).unwrap();
        for (rid, row) in db.begin().scan(t, &Predicate::True).unwrap() {
            let bytes = packed_bytes(&row);
            let same_at = |ts: u64| {
                let row = db.begin_at(ts).unwrap().get(t, rid).unwrap();
                row.is_some_and(|r| packed_bytes(&r) == bytes)
            };
            let mut ts = db.last_commit_ts();
            while ts > 1 && same_at(ts - 1) {
                ts -= 1;
            }
            out.push((t.0, rid.0, ts, bytes));
        }
    }
    out.sort();
    out
}

#[test]
fn a_checkpoint_replays_to_the_rows_it_was_taken_from() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("small.wal");
    let db = small_database(&path, single_file());
    let before = live_versions(&db);
    db.checkpoint().unwrap();
    drop(db);
    let mut replayed = Vec::new();
    for rec in WalFile::replay(&path).unwrap() {
        if let WalRecord::SnapshotRows { table, rows } = rec {
            for v in rows {
                let WalOp::Put(row) = &v.op else {
                    panic!("a live row is a put: {v:?}");
                };
                replayed.push((table.0, v.row.0, v.commit_ts, packed_bytes(row)));
            }
        }
    }
    replayed.sort();
    assert_eq!(replayed, before);
    // Reopened, the tables read those bytes.
    let db = Database::open(&path, single_file()).unwrap();
    let mut reopened = Vec::new();
    for name in db.table_names() {
        let t = db.table_id(&name).unwrap();
        for (rid, row) in db.begin().scan(t, &Predicate::True).unwrap() {
            reopened.push((t.0, rid.0, packed_bytes(&row)));
        }
    }
    reopened.sort();
    let want: Vec<_> = (before.into_iter())
        .map(|(t, row, _, bytes)| (t, row, bytes))
        .collect();
    assert_eq!(reopened, want);
}

#[test]
fn a_checkpoint_whose_demotion_failed_is_the_file_the_parent_wrote() {
    let dir = TestDir::new("tendax-wal-format");
    let path = dir.file("small.wal");
    let cold = || Options {
        cold_storage: Some(ColdOptions::default()),
        ..Options::default()
    };
    let db = small_database(&path, cold());
    // The first run file cannot be created: demotion fails, and the
    // history goes into the log instead.
    let mut run = path.clone().into_os_string();
    run.push(".cold.run0");
    std::fs::create_dir(&run).unwrap();
    let before = db.last_commit_ts();
    db.checkpoint().unwrap();
    assert_eq!(db.stats().cold_demotions, 0);
    drop(db);
    assert_eq!(len_and_crc(&path), PARENT_CHECKPOINT_WITH_HISTORY);
    // Replayed, the history is there to read at its snapshots.
    let db = Database::open(&path, cold()).unwrap();
    let docs = db.table_id("docs").unwrap();
    let revs = |ts| -> Vec<i64> {
        let txn = db.begin_at(ts).unwrap();
        (txn.scan(docs, &Predicate::True).unwrap().iter())
            .map(|(_, row)| row.get(1).unwrap().as_int().unwrap())
            .collect()
    };
    assert_eq!(revs(1), [0, 0, 0]);
    assert_eq!(revs(before), [2, 2, 2]);
}
