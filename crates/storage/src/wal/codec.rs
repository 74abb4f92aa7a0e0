//! Binary encoding of WAL records: on-disk format v2.
//!
//! Hand-rolled and tag-prefixed, built for size: every integer is a
//! LEB128 varint (zig-zag first when signed), a row is a header of two
//! bits per column — NULL and both `Bool`s live there — followed by the
//! values that are present, each carrying its type in the low bits of
//! its first byte, and a checkpoint batches a table's rows into shared
//! frames with delta-coded row ids. The byte layout of every record is
//! written down in DESIGN.md, "On-disk format v2"; to see where a
//! running database's bytes go, ask it (`TableStats::checkpoint_bytes`,
//! the shell's `du`) instead of reading a hex dump.
//!
//! The same op encoding ([`put_op`]/[`get_op`]) is the value format of
//! cold runs, so a cold version round-trips through exactly the bytes a
//! WAL replay would have produced. And a `Put` op's bytes — its header
//! varint and its row body — are what a committed row is in RAM
//! ([`SharedRow`]): encoding one is a copy, and decoding one checks the
//! bytes here, once, and keeps them.

use crate::error::{Result, StorageError};
use crate::row::{RowId, SharedRow};
use crate::schema::{ColumnDef, IndexDef, TableDef, TableId};
use crate::table::Ts;
use crate::value::{DataType, Value, ValueRef};
use crate::wal::{SnapshotVersion, WalOp, WalRecord, WalWrite};

// Record tags.
const TAG_META: u8 = 1;
const TAG_CREATE_TABLE: u8 = 2;
const TAG_DROP_TABLE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_SNAPSHOT_ROWS: u8 = 5;
const TAG_WATERMARK: u8 = 6;
// Tags 7 and 8 were the sharded log's abort marker and barrier. They are
// retired, not free: a frame carrying one is refused, never reassigned.
// (A log checkpointed from four shards to one by the last build that had
// them is one file of barriers until that build checkpoints it again.)
const TAG_FORMAT: u8 = 9;

// Row header: two bits per column, column `i` in bits `2*(i%4)` of
// header byte `i/4`.
const COL_NULL: u8 = 0;
const COL_FALSE: u8 = 1;
const COL_TRUE: u8 = 2;
const COL_VALUE: u8 = 3;

// Type of a present value: the low three bits of its first byte.
const VT_INT: u8 = 0;
const VT_ID: u8 = 1;
const VT_TEXT: u8 = 2;
const VT_BYTES: u8 = 3;
const VT_TIMESTAMP: u8 = 4;
const VT_FLOAT: u8 = 5;

// Op kind: the low two bits of the op's leading varint; the rest of it
// counts the columns of a `Put` or the fields of a `Patch`.
const OP_PUT: u64 = 0;
const OP_DELETE: u64 = 1;
const OP_PATCH: u64 = 2;

/// Bytes of ops at which a checkpoint closes a
/// [`WalRecord::SnapshotRows`] batch. Small
/// enough that a torn checkpoint rewrite still cuts between frames and
/// replay holds one batch decoded at a time, large enough that the
/// 8-byte frame header and the batch's own header vanish per row.
pub const SNAPSHOT_BATCH_BYTES: usize = 64 << 10;

/// Encode a record to bytes (without the log's length/CRC framing).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut b = Vec::with_capacity(64);
    put_record(&mut b, rec);
    b
}

pub(crate) fn put_record(b: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::Format { version } => {
            b.push(TAG_FORMAT);
            put_varint(b, u64::from(*version));
        }
        WalRecord::Meta { next_ts, clock } => {
            b.push(TAG_META);
            put_varint(b, *next_ts);
            put_varint(b, zigzag(*clock));
        }
        WalRecord::CreateTable { id, def } => {
            b.push(TAG_CREATE_TABLE);
            put_varint(b, u64::from(id.0));
            put_table_def(b, def);
        }
        WalRecord::DropTable { id } => {
            b.push(TAG_DROP_TABLE);
            put_varint(b, u64::from(id.0));
        }
        WalRecord::Commit { commit_ts, writes } => {
            b.push(TAG_COMMIT);
            put_varint(b, *commit_ts);
            put_varint(b, writes.len() as u64);
            for w in writes {
                put_varint(b, u64::from(w.table.0));
                put_varint(b, w.row.0);
                put_op(b, &w.op);
            }
        }
        WalRecord::SnapshotRows { table, rows } => {
            begin_snapshot_rows(b, *table);
            put_varint(b, rows.len() as u64);
            let mut prev = 0;
            for v in rows {
                // Stored data depends on the order, so this is not a
                // debug assertion.
                let delta = v.row.0.checked_sub(prev);
                put_varint(b, delta.expect("snapshot rows are in row-id order"));
                prev = v.row.0;
                put_varint(b, v.commit_ts);
                put_op(b, &v.op);
            }
        }
        WalRecord::Watermark { table, next_row_id } => {
            b.push(TAG_WATERMARK);
            put_varint(b, u64::from(table.0));
            put_varint(b, *next_row_id);
        }
    }
}

/// Decode a record previously produced by [`encode_record`]. Errors are
/// [`StorageError::WalCorrupt`] with offset 0: the log reader, which
/// knows where the frame starts, fills the offset in.
pub fn decode_record(mut data: &[u8]) -> Result<WalRecord> {
    let buf = &mut data;
    let rec = get_record(buf)?;
    if !buf.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", buf.len())));
    }
    Ok(rec)
}

fn get_record(buf: &mut &[u8]) -> Result<WalRecord> {
    let rec = match get_u8(buf)? {
        TAG_FORMAT => WalRecord::Format {
            version: get_varint32(buf)?,
        },
        TAG_META => WalRecord::Meta {
            next_ts: get_varint(buf)?,
            clock: unzigzag(get_varint(buf)?),
        },
        TAG_CREATE_TABLE => WalRecord::CreateTable {
            id: TableId(get_varint32(buf)?),
            def: get_table_def(buf)?,
        },
        TAG_DROP_TABLE => WalRecord::DropTable {
            id: TableId(get_varint32(buf)?),
        },
        TAG_COMMIT => {
            let commit_ts = get_varint(buf)?;
            let n = get_count(buf, 1)?;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                writes.push(WalWrite {
                    table: TableId(get_varint32(buf)?),
                    row: RowId(get_varint(buf)?),
                    op: get_op(buf)?,
                });
            }
            WalRecord::Commit { commit_ts, writes }
        }
        TAG_SNAPSHOT_ROWS => {
            let table = TableId(get_varint32(buf)?);
            let n = get_count(buf, 1)?;
            let mut rows = Vec::with_capacity(n);
            let mut prev = 0u64;
            for _ in 0..n {
                let row = prev
                    .checked_add(get_varint(buf)?)
                    .ok_or_else(|| corrupt("row-id delta wraps".into()))?;
                prev = row;
                rows.push(SnapshotVersion {
                    row: RowId(row),
                    commit_ts: get_varint(buf)?,
                    op: get_op(buf)?,
                });
            }
            WalRecord::SnapshotRows { table, rows }
        }
        TAG_WATERMARK => WalRecord::Watermark {
            table: TableId(get_varint32(buf)?),
            next_row_id: get_varint(buf)?,
        },
        t @ (7 | 8) => {
            return Err(corrupt(format!(
                "record tag {t} (sharded log, removed) is not readable"
            )))
        }
        t => return Err(corrupt(format!("unknown record tag {t}"))),
    };
    Ok(rec)
}

// A checkpoint writes its `SnapshotRows` records a row at a time,
// straight from the row bytes into the buffer that holds the file: the
// record's tag and table, its rows, and then their count, which the
// record holds in front of them and is moved there.

/// The start of a [`WalRecord::SnapshotRows`] record written a row at a
/// time: its tag and its table.
pub(crate) fn begin_snapshot_rows(b: &mut Vec<u8>, table: TableId) {
    b.push(TAG_SNAPSHOT_ROWS);
    put_varint(b, u64::from(table.0));
}

/// One row of a `SnapshotRows` record: its id as the delta from the row
/// before it, its commit timestamp, and its op — a `Put` of `put`'s
/// bytes, or a `Delete`.
pub(crate) fn put_snapshot_row(
    b: &mut Vec<u8>,
    delta: u64,
    commit_ts: Ts,
    put: Option<&SharedRow>,
) {
    put_varint(b, delta);
    put_varint(b, commit_ts);
    match put {
        Some(row) => b.extend_from_slice(row.packed()),
        None => put_varint(b, OP_DELETE),
    }
}

/// Put `count`, the number of rows written from `rows_at` on, in front
/// of them: the record is complete.
pub(crate) fn end_snapshot_rows(b: &mut Vec<u8>, rows_at: usize, count: u64) {
    let end = b.len();
    put_varint(b, count);
    let head = b.len() - end;
    b[rows_at..].rotate_right(head);
}

/// What [`put_snapshot_row`] writes: its bytes, and those of its op —
/// the weight a batch is cut by.
pub(crate) fn snapshot_row_len(
    delta: u64,
    commit_ts: Ts,
    put: Option<&SharedRow>,
) -> (usize, usize) {
    let op = put.map_or(varint_len(OP_DELETE), |row| row.packed().len());
    (varint_len(delta) + varint_len(commit_ts) + op, op)
}

/// The length of a `SnapshotRows` record of `table` whose `count` rows
/// take `rows` bytes.
pub(crate) fn snapshot_rows_len(table: TableId, count: u64, rows: usize) -> usize {
    1 + varint_len(u64::from(table.0)) + varint_len(count) + rows
}

pub(crate) fn put_op(b: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::Put(row) => b.extend_from_slice(row.packed()),
        WalOp::Delete => put_varint(b, OP_DELETE),
        WalOp::Patch {
            fields,
            values,
            anchors,
        } => {
            assert_eq!(fields.len(), values.len(), "one value per patched field");
            put_varint(b, (fields.len() as u64) << 2 | OP_PATCH);
            for f in fields {
                put_varint(b, u64::from(*f));
            }
            put_values(b, values.iter().map(Value::view));
            put_varint(b, anchors.len() as u64);
            for a in anchors {
                put_varint(b, *a);
            }
        }
    }
}

pub(crate) fn get_op(buf: &mut &[u8]) -> Result<WalOp> {
    let op = *buf;
    let head = get_varint(buf)?;
    let count = head >> 2;
    match head & 3 {
        OP_PUT => {
            let n = check_count(count, buf, 4)?;
            let header = take(buf, n.div_ceil(4) as u64)?;
            for i in 0..n {
                get_column(header, i, buf)?;
            }
            // Every column decoded: these bytes are a row.
            let packed = &op[..op.len() - buf.len()];
            Ok(WalOp::Put(SharedRow::from_checked(packed)))
        }
        OP_DELETE if count == 0 => Ok(WalOp::Delete),
        OP_PATCH => {
            let n = check_count(count, buf, 1)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(get_varint32(buf)?);
            }
            let values = get_values(buf, n)?;
            let m = get_count(buf, 1)?;
            let mut anchors = Vec::with_capacity(m);
            for _ in 0..m {
                anchors.push(get_varint(buf)?);
            }
            Ok(WalOp::Patch {
                fields,
                values,
                anchors,
            })
        }
        _ => Err(corrupt(format!("unknown op header {head}"))),
    }
}

/// A row as a `Put` op carries it and as [`SharedRow`] keeps it: the op
/// header, then the row body.
pub(crate) fn pack_row<'a>(values: impl ExactSizeIterator<Item = ValueRef<'a>>) -> Vec<u8> {
    // Room for the typical row (a few bytes a column) without growing.
    let mut b = Vec::with_capacity(8 + 4 * values.len());
    put_varint(&mut b, (values.len() as u64) << 2 | OP_PUT);
    put_values(&mut b, values);
    b
}

/// Split what [`pack_row`] built into its column count, its header bits
/// and its present values. `None` if the bytes are not a `Put` op.
#[inline]
pub(crate) fn unpack_row(mut packed: &[u8]) -> Option<(usize, &[u8], &[u8])> {
    let head = get_varint(&mut packed).ok()?;
    let cols = usize::try_from(head >> 2).ok()?;
    (head & 3 == OP_PUT && cols.div_ceil(4) <= packed.len()).then(|| {
        let (header, present) = packed.split_at(cols.div_ceil(4));
        (cols, header, present)
    })
}

/// A row body: the two-bit header, then every value it marks present.
fn put_values<'a>(b: &mut Vec<u8>, values: impl ExactSizeIterator<Item = ValueRef<'a>>) {
    let header = b.len();
    b.resize(header + values.len().div_ceil(4), 0);
    for (i, v) in values.enumerate() {
        let state = match v {
            ValueRef::Null => COL_NULL,
            ValueRef::Bool(false) => COL_FALSE,
            ValueRef::Bool(true) => COL_TRUE,
            present => {
                put_value(b, present);
                COL_VALUE
            }
        };
        b[header + i / 4] |= state << (2 * (i % 4));
    }
}

fn get_values(buf: &mut &[u8], n: usize) -> Result<Vec<Value>> {
    let header = take(buf, n.div_ceil(4) as u64)?;
    (0..n)
        .map(|i| Ok(get_column(header, i, buf)?.to_value()))
        .collect()
}

// The functions from here to `get_value` are what a column read of a
// committed row runs, once per column: forced inline, because left as
// calls (with the cursor spilled to the stack between them) a walk over
// a 14-column row measured three times as long.

/// The two header bits of column `i`.
#[inline(always)]
fn column_state(header: &[u8], i: usize) -> u8 {
    (header[i / 4] >> (2 * (i % 4))) & 3
}

/// Column `i` if the header alone holds it (NULL and both `Bool`s);
/// `None` if its value is among the present ones.
#[inline(always)]
pub(crate) fn header_value(header: &[u8], i: usize) -> Option<ValueRef<'static>> {
    match column_state(header, i) {
        COL_NULL => Some(ValueRef::Null),
        COL_FALSE => Some(ValueRef::Bool(false)),
        COL_TRUE => Some(ValueRef::Bool(true)),
        _ => None,
    }
}

/// How many of the columns in `from..to` have a present value: what a
/// reader bound for column `to` has to step over.
#[inline(always)]
pub(crate) fn present_between(header: &[u8], from: usize, to: usize) -> usize {
    (from..to)
        .filter(|&i| column_state(header, i) == COL_VALUE)
        .count()
}

/// Column `i` of a row body: read out of `header`, or decoded off the
/// front of `present` when the header says a value follows.
#[inline(always)]
pub(crate) fn get_column<'a>(
    header: &[u8],
    i: usize,
    present: &mut &'a [u8],
) -> Decoded<ValueRef<'a>> {
    match header_value(header, i) {
        Some(v) => Ok(v),
        None => get_value(present),
    }
}

/// Step over one present value without interpreting it.
#[inline(always)]
pub(crate) fn skip_value(present: &mut &[u8]) -> Decoded<()> {
    get_raw_value(present).map(|_| ())
}

/// A present value. Its first byte is `[more:1][low 4 bits of n][type:3]`;
/// if `more`, `n >> 4` follows as a varint. `n` is the number itself, or
/// the byte length of the text/bytes that follow. A float is its type
/// byte and eight little-endian bytes.
fn put_value(b: &mut Vec<u8>, v: ValueRef<'_>) {
    let (ty, n, tail): (u8, u64, &[u8]) = match v {
        ValueRef::Int(x) => (VT_INT, zigzag(x), &[]),
        ValueRef::Id(x) => (VT_ID, x, &[]),
        ValueRef::Text(s) => (VT_TEXT, s.len() as u64, s.as_bytes()),
        ValueRef::Bytes(x) => (VT_BYTES, x.len() as u64, x),
        ValueRef::Timestamp(x) => (VT_TIMESTAMP, zigzag(x), &[]),
        ValueRef::Float(x) => {
            b.push(VT_FLOAT);
            return b.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        ValueRef::Null | ValueRef::Bool(_) => unreachable!("folded into the row header"),
    };
    let first = ty | ((n & 0xF) as u8) << 3;
    if n >> 4 == 0 {
        b.push(first);
    } else {
        b.push(first | 0x80);
        put_varint(b, n >> 4);
    }
    b.extend_from_slice(tail);
}

/// A present value as it lies in the bytes: its type, its number (a
/// float's bits) and the text/bytes it measures — everything but the
/// UTF-8 check, so stepping over a value costs no more than finding
/// its end.
#[inline(always)]
fn get_raw_value<'a>(buf: &mut &'a [u8]) -> Decoded<(u8, u64, &'a [u8])> {
    let first = get_u8(buf)?;
    if first == VT_FLOAT {
        let raw = take(buf, 8)?.try_into().expect("took 8 bytes");
        return Ok((VT_FLOAT, u64::from_le_bytes(raw), &[]));
    }
    let mut n = u64::from(first >> 3 & 0xF);
    if first & 0x80 != 0 {
        let high = get_varint(buf)?;
        if high >> 60 != 0 {
            return Err(Malformed::ValueOverflow);
        }
        n |= high << 4;
    }
    let tail: &[u8] = match first & 7 {
        VT_INT | VT_ID | VT_TIMESTAMP => &[],
        VT_TEXT | VT_BYTES => take(buf, n)?,
        _ => return Err(Malformed::UnknownValueByte(first)),
    };
    Ok((first & 7, n, tail))
}

#[inline(always)]
pub(crate) fn get_value<'a>(buf: &mut &'a [u8]) -> Decoded<ValueRef<'a>> {
    let (ty, n, tail) = get_raw_value(buf)?;
    Ok(match ty {
        VT_INT => ValueRef::Int(unzigzag(n)),
        VT_ID => ValueRef::Id(n),
        VT_TEXT => ValueRef::Text(std::str::from_utf8(tail).map_err(Malformed::Utf8)?),
        VT_BYTES => ValueRef::Bytes(tail),
        VT_TIMESTAMP => ValueRef::Timestamp(unzigzag(n)),
        // The only other type `get_raw_value` lets through.
        _ => ValueRef::Float(f64::from_bits(n)),
    })
}

fn put_table_def(b: &mut Vec<u8>, def: &TableDef) {
    put_str(b, &def.name);
    put_varint(b, def.columns.len() as u64);
    for c in &def.columns {
        put_str(b, &c.name);
        b.push(type_tag(c.ty));
        b.push(c.nullable as u8);
    }
    put_varint(b, def.indexes.len() as u64);
    for i in &def.indexes {
        put_str(b, &i.name);
        put_varint(b, i.columns.len() as u64);
        for &c in &i.columns {
            put_varint(b, c as u64);
        }
        b.push(i.unique as u8);
    }
}

fn get_table_def(buf: &mut &[u8]) -> Result<TableDef> {
    let name = get_string(buf)?;
    let ncols = get_count(buf, 1)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(ColumnDef {
            name: get_string(buf)?,
            ty: type_from_tag(get_u8(buf)?)?,
            nullable: get_u8(buf)? != 0,
        });
    }
    let nidx = get_count(buf, 1)?;
    let mut indexes = Vec::with_capacity(nidx);
    for _ in 0..nidx {
        let iname = get_string(buf)?;
        let nic = get_count(buf, 1)?;
        let mut cols = Vec::with_capacity(nic);
        for _ in 0..nic {
            cols.push(get_varint32(buf)? as usize);
        }
        indexes.push(IndexDef {
            name: iname,
            columns: cols,
            unique: get_u8(buf)? != 0,
        });
    }
    Ok(TableDef {
        name,
        columns,
        indexes,
    })
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Id => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Bytes => 4,
        DataType::Timestamp => 5,
        DataType::Float => 6,
    }
}

fn type_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Id,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Bytes,
        5 => DataType::Timestamp,
        6 => DataType::Float,
        t => return Err(corrupt(format!("unknown type tag {t}"))),
    })
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_varint(b, s.len() as u64);
    b.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String> {
    let len = get_varint(buf)?;
    let s = std::str::from_utf8(take(buf, len)?).map_err(Malformed::Utf8)?;
    Ok(s.to_owned())
}

/// LEB128: seven bits a byte, least significant first, high bit set on
/// all but the last.
fn put_varint(b: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        b.push(v as u8 | 0x80);
        v >>= 7;
    }
    b.push(v as u8);
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline(always)]
fn get_varint(buf: &mut &[u8]) -> Decoded<u64> {
    // Up to three bytes spelled out: counts, lengths and the ids and
    // timestamps of a young database, which is nearly every varint a row
    // holds. The loop below decodes those too; this is only faster.
    let (v, len) = match **buf {
        [a, ..] if a < 0x80 => (u64::from(a), 1),
        [a, b, ..] if b < 0x80 => (u64::from(a & 0x7F) | u64::from(b) << 7, 2),
        [a, b, c, ..] if c < 0x80 => (
            u64::from(a & 0x7F) | u64::from(b & 0x7F) << 7 | u64::from(c) << 14,
            3,
        ),
        // By value, so that a caller's cursor can stay in registers.
        _ => long_varint(buf)?,
    };
    *buf = &buf[len..];
    Ok(v)
}

/// A varint of any length at the front of `bytes`, and that length.
fn long_varint(bytes: &[u8]) -> Decoded<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in bytes.iter().enumerate().take(10) {
        let bits = u64::from(byte & 0x7F);
        if i == 9 && bits > 1 {
            return Err(Malformed::VarintOverflow);
        }
        v |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
    }
    Err(Malformed::VarintCutOrLong)
}

fn get_varint32(buf: &mut &[u8]) -> Result<u32> {
    let v = get_varint(buf)?;
    u32::try_from(v).map_err(|_| corrupt(format!("{v} does not fit 32 bits")))
}

fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    (n >> 1) as i64 ^ -((n & 1) as i64)
}

/// A count of things that each take at least one byte per `per_byte` of
/// them. One that the rest of the payload cannot hold is corruption, and
/// is caught here, before anything is allocated for it.
fn check_count(n: u64, rest: &[u8], per_byte: u64) -> Result<usize> {
    if n > (rest.len() as u64).saturating_mul(per_byte) {
        return Err(corrupt(format!(
            "count {n} exceeds what the {} remaining bytes can hold",
            rest.len()
        )));
    }
    Ok(n as usize)
}

fn get_count(buf: &mut &[u8], per_byte: u64) -> Result<usize> {
    let n = get_varint(buf)?;
    check_count(n, buf, per_byte)
}

#[inline(always)]
fn take<'a>(buf: &mut &'a [u8], len: u64) -> Decoded<&'a [u8]> {
    if len > buf.len() as u64 {
        return Err(Malformed::CutShort(len, buf.len()));
    }
    let (head, rest) = buf.split_at(len as usize);
    *buf = rest;
    Ok(head)
}

#[inline(always)]
fn get_u8(buf: &mut &[u8]) -> Decoded<u8> {
    let (&byte, rest) = buf.split_first().ok_or(Malformed::CutShort(1, 0))?;
    *buf = rest;
    Ok(byte)
}

/// What the byte-level decoders return. A committed row is read through
/// them on every column access, so their error is a few plain words, not
/// a [`StorageError`] with strings to build and drop; `?` turns it into
/// one where a record decoder reports it.
pub(crate) type Decoded<T> = std::result::Result<T, Malformed>;

/// Why some bytes are not what the decoder was told to find there.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Malformed {
    /// Needed this many bytes; this many remain.
    CutShort(u64, usize),
    VarintOverflow,
    VarintCutOrLong,
    ValueOverflow,
    UnknownValueByte(u8),
    Utf8(std::str::Utf8Error),
}

impl From<Malformed> for StorageError {
    fn from(m: Malformed) -> Self {
        corrupt(match m {
            Malformed::CutShort(need, remain) => format!("need {need} bytes, {remain} remain"),
            Malformed::VarintOverflow => "varint overflows 64 bits".into(),
            Malformed::VarintCutOrLong => "varint cut short or longer than 10 bytes".into(),
            Malformed::ValueOverflow => "value varint overflows 64 bits".into(),
            Malformed::UnknownValueByte(b) => format!("unknown value byte {b:#04x}"),
            Malformed::Utf8(e) => e.to_string(),
        })
    }
}

fn corrupt(reason: String) -> StorageError {
    StorageError::WalCorrupt { offset: 0, reason }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: WalRecord) {
        let bytes = encode_record(&rec);
        let back = decode_record(&bytes).unwrap();
        assert_eq!(rec, back);
    }

    fn put_row(values: Vec<Value>) -> WalOp {
        WalOp::Put(SharedRow::pack(&values))
    }

    #[test]
    fn roundtrip_format_and_meta() {
        roundtrip(WalRecord::Format { version: 2 });
        roundtrip(WalRecord::Meta {
            next_ts: 42,
            clock: -7,
        });
    }

    #[test]
    fn roundtrip_ddl() {
        let def = TableDef::new("chars")
            .column("id", DataType::Id)
            .nullable_column("note", DataType::Text)
            .column("flag", DataType::Bool)
            .unique_index("by_id", &["id"])
            .index("by_note", &["note", "flag"]);
        roundtrip(WalRecord::CreateTable {
            id: TableId(3),
            def,
        });
        roundtrip(WalRecord::DropTable { id: TableId(9) });
    }

    #[test]
    fn roundtrip_commit_with_all_value_types() {
        roundtrip(WalRecord::Commit {
            commit_ts: 99,
            writes: vec![
                WalWrite {
                    table: TableId(0),
                    row: RowId(1),
                    op: put_row(vec![
                        Value::Null,
                        Value::Int(-5),
                        Value::Id(u64::MAX),
                        Value::Text("héllo \u{1F600}".into()),
                        Value::Bool(true),
                        Value::Bytes(vec![0, 255, 128]),
                        Value::Timestamp(1_136_073_600_000_000),
                        Value::Float(-0.5),
                    ]),
                },
                WalWrite {
                    table: TableId(1),
                    row: RowId(2),
                    op: WalOp::Delete,
                },
            ],
        });
    }

    #[test]
    fn roundtrip_commit_with_patch() {
        roundtrip(WalRecord::Commit {
            commit_ts: 100,
            writes: vec![WalWrite {
                table: TableId(4),
                row: RowId(9),
                op: WalOp::Patch {
                    fields: vec![2, 6],
                    values: vec![Value::Id(77), Value::Timestamp(123)],
                    anchors: vec![154, u64::MAX],
                },
            }],
        });
        // An anchor-free patch (tombstone/style writes) also survives.
        roundtrip(WalRecord::Commit {
            commit_ts: 101,
            writes: vec![WalWrite {
                table: TableId(4),
                row: RowId(10),
                op: WalOp::Patch {
                    fields: vec![7],
                    values: vec![Value::Bool(true)],
                    anchors: vec![],
                },
            }],
        });
    }

    #[test]
    fn roundtrip_snapshot_rows() {
        // Several versions of one row (delta 0) and a tombstone: the
        // shapes spliced cold-fallback history has.
        roundtrip(WalRecord::SnapshotRows {
            table: TableId(2),
            rows: vec![
                SnapshotVersion {
                    row: RowId(77),
                    commit_ts: 5,
                    op: put_row(vec![Value::Text("x".into())]),
                },
                SnapshotVersion {
                    row: RowId(77),
                    commit_ts: 9,
                    op: WalOp::Delete,
                },
                SnapshotVersion {
                    row: RowId(u64::MAX),
                    commit_ts: 3,
                    op: put_row(vec![]),
                },
            ],
        });
    }

    #[test]
    #[should_panic(expected = "row-id order")]
    fn snapshot_rows_out_of_order_do_not_encode() {
        let v = |row| SnapshotVersion {
            row: RowId(row),
            commit_ts: 1,
            op: WalOp::Delete,
        };
        encode_record(&WalRecord::SnapshotRows {
            table: TableId(0),
            rows: vec![v(2), v(1)],
        });
    }

    #[test]
    fn snapshot_rows_written_a_row_at_a_time_are_the_record_and_weigh_what_they_write() {
        let row = SharedRow::pack(&[Value::Text("x".repeat(200)), Value::Null]);
        // Row ids and timestamps across every varint length, a tombstone
        // among them, and 200 rows: a count of two bytes.
        let ids = (0..200u64).scan(0, |id, i| {
            *id += (1 << (i % 40)) - 1;
            Some(*id)
        });
        let versions: Vec<SnapshotVersion> = (ids.zip(0u64..))
            .map(|(id, i)| SnapshotVersion {
                row: RowId(id),
                commit_ts: i.pow(i as u32 % 9),
                op: if i == 7 {
                    WalOp::Delete
                } else {
                    WalOp::Put(row.clone())
                },
            })
            .collect();
        let table = TableId(300);
        let mut b = vec![0xAA];
        begin_snapshot_rows(&mut b, table);
        let rows_at = b.len();
        let (mut prev, mut weighed) = (0, 0);
        for v in &versions {
            let put = match &v.op {
                WalOp::Put(r) => Some(r),
                _ => None,
            };
            put_snapshot_row(&mut b, v.row.0 - prev, v.commit_ts, put);
            weighed += snapshot_row_len(v.row.0 - prev, v.commit_ts, put).0;
            prev = v.row.0;
        }
        assert_eq!(weighed, b.len() - rows_at);
        end_snapshot_rows(&mut b, rows_at, versions.len() as u64);
        let want = encode_record(&WalRecord::SnapshotRows {
            table,
            rows: versions,
        });
        assert_eq!((b[0], &b[1..]), (0xAA, &want[..]));
        assert_eq!(snapshot_rows_len(table, 200, weighed), want.len());
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            assert_eq!(varint_len(v), b.len(), "{v}");
        }
    }

    #[test]
    fn roundtrip_watermark() {
        roundtrip(WalRecord::Watermark {
            table: TableId(3),
            next_row_id: 1_000_001,
        });
    }

    #[test]
    fn small_values_are_small() {
        // The sizes the format exists for: a one-letter text, a small
        // id and a NULL cost 2, 1 and 0 bytes behind a one-byte header.
        let op = put_row(vec![Value::Text("a".into()), Value::Id(9), Value::Null]);
        let mut b = Vec::new();
        put_op(&mut b, &op);
        assert_eq!(
            b,
            [3 << 2, 0b00_11_11, VT_TEXT | 1 << 3, b'a', VT_ID | 9 << 3]
        );
        // Sixteen needs the continuation byte.
        b.clear();
        put_value(&mut b, ValueRef::Id(16));
        assert_eq!(b, [VT_ID | 0x80, 1]);
    }

    #[test]
    fn a_decoded_put_keeps_its_bytes_and_encodes_as_a_copy_of_them() {
        let op = put_row(vec![Value::Text("a".into()), Value::Id(9), Value::Null]);
        let mut bytes = Vec::new();
        put_op(&mut bytes, &op);
        let WalOp::Put(row) = get_op(&mut &bytes[..]).unwrap() else {
            panic!("not a put");
        };
        assert_eq!(row.packed(), bytes);
        assert_eq!(WalOp::Put(row), op);
    }

    #[test]
    fn a_varint_spelled_longer_decodes_to_an_equal_row() {
        // Id(9) with the continuation bit set and a zero high part: the
        // encoder never writes it, the decoder reads it, and the row
        // that keeps these bytes equals the one packed here.
        let spelled = [1 << 2, COL_VALUE, VT_ID | 9 << 3 | 0x80, 0];
        let WalOp::Put(row) = get_op(&mut &spelled[..]).unwrap() else {
            panic!("not a put");
        };
        assert_eq!(row.packed(), spelled);
        assert_eq!(row.get(0), Some(ValueRef::Id(9)));
        assert_eq!(WalOp::Put(row), put_row(vec![Value::Id(9)]));
    }

    #[test]
    fn decode_rejects_unknown_tags() {
        for bytes in [
            &[200u8][..],
            // A commit whose write has op kind 3, and a delete that
            // claims columns.
            &[TAG_COMMIT, 1, 1, 0, 0, 3],
            &[TAG_COMMIT, 1, 1, 0, 0, 1 << 2 | 1],
            // Value type bits 6, 7, and a float byte with number bits.
            &[TAG_COMMIT, 1, 1, 0, 0, 1 << 2, COL_VALUE, 6],
            &[TAG_COMMIT, 1, 1, 0, 0, 1 << 2, COL_VALUE, 7],
            &[TAG_COMMIT, 1, 1, 0, 0, 1 << 2, COL_VALUE, VT_FLOAT | 8],
        ] {
            assert!(
                matches!(decode_record(bytes), Err(StorageError::WalCorrupt { .. })),
                "{bytes:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_record(&WalRecord::Meta {
            next_ts: 1,
            clock: 1,
        });
        for cut in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode_record(&WalRecord::DropTable { id: TableId(1) });
        bytes.push(0);
        assert!(decode_record(&bytes).is_err());
    }

    /// A one-row snapshot batch whose single column is the present
    /// value `value` (bytes spelled out: tag, table 0, one row, row-id
    /// delta 1, commit ts 1, a one-column put, header "present").
    fn batch_with_value(value: &[u8]) -> Vec<u8> {
        let mut b = vec![TAG_SNAPSHOT_ROWS, 0, 1, 1, 1, 1 << 2, COL_VALUE];
        b.extend_from_slice(value);
        b
    }

    #[test]
    fn decode_rejects_invalid_utf8_text() {
        let b = batch_with_value(&[VT_TEXT | 2 << 3, 0xFF, 0xFE]);
        assert!(decode_record(&b).is_err());
        // The same bytes as `Bytes` are fine.
        let b = batch_with_value(&[VT_BYTES | 2 << 3, 0xFF, 0xFE]);
        assert!(decode_record(&b).is_ok());
    }

    #[test]
    fn decode_rejects_overlong_length_prefix() {
        // Claims 2^32 - 1 bytes.
        let b = batch_with_value(&[VT_BYTES | 0xF << 3 | 0x80, 0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(decode_record(&b).is_err());
    }
}
