//! Binary encoding of WAL records: on-disk format v3.
//!
//! Hand-rolled and tag-prefixed, built for size: every integer is a
//! LEB128 varint (zig-zag first when signed), a row is a header of two
//! bits per column — NULL and both `Bool`s live there — followed by the
//! values that are present, each carrying its type in the low bits of
//! its first byte, and a checkpoint batches a table's rows into shared
//! frames in which each row is coded against the row above it
//! ([`RowDeltas`]): a bitmap of the columns it repeats, then the others,
//! a number as its difference from the one above and a text seen before
//! in its column as a slot. The byte layout of every record is written
//! down in DESIGN.md, "On-disk format v3"; to see where a running
//! database's bytes go, ask it (`TableStats::checkpoint_bytes` and
//! `column_bytes`, the shell's `du`) instead of reading a hex dump.
//!
//! The op encoding ([`put_op`]/[`get_op`]) is what commit records carry
//! and the value format of cold runs, so a cold version round-trips
//! through exactly the bytes a WAL replay would have produced. And a
//! `Put` op's bytes — its header varint and its row body — are what a
//! committed row is in RAM ([`SharedRow`]): encoding one is a copy, and
//! decoding one checks the bytes here, once, and keeps them. A checkpoint
//! row is rebuilt into those same bytes.

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
// Only inside a checkpoint batch's rows (see `RowDeltas`): a number as
// the difference from the number its column held in the row above, and
// a text or bytes value as the slot of its column that holds it.
const VT_DELTA: u8 = 6;
const VT_REF: u8 = 7;

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
            let mut deltas = RowDeltas::default();
            for v in rows {
                let put = match &v.op {
                    WalOp::Put(row) => Some(row),
                    WalOp::Delete => None,
                    WalOp::Patch { .. } => panic!("a snapshot row is a put or a delete"),
                };
                deltas.put(b, v.row, v.commit_ts, put);
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
            let mut deltas = RowDeltas::default();
            for _ in 0..n {
                rows.push(deltas.get(buf)?);
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
// straight from the row bytes into the buffer that holds the frame: the
// record's tag and table, its rows, and then their count, which the
// record holds in front of them and is moved there.

/// The start of a [`WalRecord::SnapshotRows`] record written a row at a
/// time: its tag and its table.
pub(crate) fn begin_snapshot_rows(b: &mut Vec<u8>, table: TableId) {
    b.push(TAG_SNAPSHOT_ROWS);
    put_varint(b, u64::from(table.0));
}

/// What a [`WalRecord::SnapshotRows`] batch codes each row against, in
/// both directions: the id and commit timestamp of the version above it,
/// the `Put` above it, and the last [`TEXT_SLOTS`] texts each column
/// wrote out. A batch starts from nothing ([`RowDeltas::reset`]), so it
/// decodes on its own; its first `Put` is the row's bytes as they are.
///
/// A version is its row id as the delta from the one above (ids never
/// descend), its commit timestamp as the wrapping zig-zag delta from the
/// one above, and its op: a `Delete`, or a `Put` of
///
/// * the op header (column count, kind `Put`);
/// * a bitmap, one bit a column, of the columns whose header bits and
///   value bytes are those of the same column of the `Put` above —
///   absent for the batch's first;
/// * the two-bit header of the other columns, in order;
/// * their present values, each the shortest of: the value itself; for
///   an `Int`/`Id`/`Timestamp` whose column above held the same type,
///   the wrapping zig-zag difference from it (type [`VT_DELTA`]); for a
///   `Text`/`Bytes` value one of its column's slots holds, that slot
///   (type [`VT_REF`]). Ties go to the value itself.
///
/// The encoder, the weigher and the decoder all run through here, so
/// what a batch weighs is what it writes and what it writes decodes to
/// the bytes each row had. Both directions keep the row above as its
/// bytes and where each of its values ends ([`Layout`]); a number is
/// read out of those bytes only where a column differs.
#[derive(Debug, Default)]
pub(crate) struct RowDeltas {
    id: u64,
    ts: Ts,
    /// The `Put` above (no columns before the batch's first), and the
    /// one being coded, which becomes it.
    above: Layout,
    next: Layout,
    /// Per column, the texts it wrote out.
    texts: Vec<Slots>,
    /// Per column, the bytes its values were written in, if counted.
    tally: Option<Vec<u64>>,
}

/// A row's bytes as RAM holds them, where its two-bit header starts, and
/// where each value ends: column `i`'s is `ends[i]..ends[i + 1]`, empty
/// for one the header holds.
#[derive(Debug, Default)]
struct Layout {
    bytes: Vec<u8>,
    header: usize,
    ends: Vec<usize>,
}

impl Layout {
    fn cols(&self) -> usize {
        self.ends.len().saturating_sub(1)
    }

    #[inline(always)]
    fn state(&self, i: usize) -> u8 {
        column_state(&self.bytes[self.header..], i)
    }

    /// The value bytes of columns `from..to`.
    #[inline(always)]
    fn values(&self, from: usize, to: usize) -> &[u8] {
        &self.bytes[self.ends[from]..self.ends[to]]
    }

    /// Start over with `packed`, a checked row, as its bytes, the ends of
    /// its values left to the caller: its column count, its two-bit
    /// header and where its values start.
    #[inline(always)]
    fn start<'a>(&mut self, packed: &'a [u8]) -> (usize, &'a [u8], usize) {
        let (cols, header, values) = unpack_row(packed).expect(CHECKED_ROW);
        let at = packed.len() - values.len();
        self.bytes.clear();
        self.bytes.extend_from_slice(packed);
        self.header = at - header.len();
        self.ends.clear();
        self.ends.push(at);
        (cols, header, at)
    }

    /// Start over with `packed`, a checked row, as its bytes.
    fn lay_out(&mut self, packed: &[u8]) {
        let (cols, header, mut at) = self.start(packed);
        for i in 0..cols {
            if column_state(header, i) == COL_VALUE {
                at += checked_len(&packed[at..]);
            }
            self.ends.push(at);
        }
    }

    /// Start a row of `cols` columns to be rebuilt: its op header and a
    /// header of no bits.
    fn begin(&mut self, cols: usize) {
        self.bytes.clear();
        put_varint(&mut self.bytes, (cols as u64) << 2 | OP_PUT);
        self.header = self.bytes.len();
        self.bytes.resize(self.header + cols.div_ceil(4), 0);
        self.ends.clear();
        self.ends.push(self.bytes.len());
    }
}

/// Bytes of two values compared without a call: they are a few bytes
/// long nearly always.
#[inline(always)]
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// How many texts a column remembers, and so the largest slot a
/// [`VT_REF`] names in the four bits of its first byte.
const TEXT_SLOTS: usize = 16;

/// The last [`TEXT_SLOTS`] texts a column wrote out, overwritten in turn.
/// A text is a copy of its value's bytes; `keys` holds a [`text_key`] of
/// each, so a search compares bytes only on a match.
#[derive(Debug, Default)]
struct Slots {
    texts: Vec<Vec<u8>>,
    keys: [u64; TEXT_SLOTS],
    /// How many slots hold a text of this batch, and which is next.
    len: usize,
    next: usize,
}

/// A value's length, first two bytes and last, which tell most texts
/// apart without comparing them.
#[inline(always)]
fn text_key(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    let at = |i: usize| u64::from(bytes[i.min(n - 1)]);
    n as u64 | at(0) << 32 | at(1) << 40 | at(n - 1) << 48
}

impl Slots {
    fn get(&self, slot: u64) -> Option<&[u8]> {
        let slot = usize::try_from(slot).ok().filter(|&s| s < self.len)?;
        Some(&self.texts[slot])
    }

    /// The slot that holds `bytes`. Every key is compared, without a
    /// branch, and only a slot whose key matches has its bytes compared.
    #[inline(always)]
    fn find(&self, bytes: &[u8]) -> Option<usize> {
        let key = text_key(bytes);
        let mut hits = (self.keys.iter().enumerate())
            .fold(0u32, |hits, (slot, &k)| hits | u32::from(k == key) << slot);
        hits &= (1 << self.len) - 1;
        while hits != 0 {
            let slot = hits.trailing_zeros() as usize;
            if same_bytes(&self.texts[slot], bytes) {
                return Some(slot);
            }
            hits &= hits - 1;
        }
        None
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.texts.len() == self.next {
            self.texts.push(Vec::new());
        }
        let text = &mut self.texts[self.next];
        text.clear();
        text.extend_from_slice(bytes);
        self.keys[self.next] = text_key(bytes);
        self.len = self.len.max(self.next + 1);
        self.next = (self.next + 1) % TEXT_SLOTS;
    }
}

/// Why reading a row a coder is given cannot fail: it is a [`SharedRow`],
/// checked when it was built.
const CHECKED_ROW: &str = "a coder is given checked SharedRows";

impl RowDeltas {
    /// A coder that also counts, per column, the bytes its values take.
    pub(crate) fn tallied() -> Self {
        RowDeltas {
            tally: Some(Vec::new()),
            ..Default::default()
        }
    }

    /// Per column, the bytes its values took in every batch this coder
    /// wrote (empty unless [`RowDeltas::tallied`]).
    pub(crate) fn tally(&self) -> &[u64] {
        self.tally.as_deref().unwrap_or_default()
    }

    /// Start a batch: nothing above its first row.
    pub(crate) fn reset(&mut self) {
        (self.id, self.ts) = (0, 0);
        self.above.ends.clear();
        for slots in &mut self.texts {
            (slots.len, slots.next) = (0, 0);
        }
    }

    /// Whether the batch has had a `Put`: rows are coded against it.
    fn has_above(&self) -> bool {
        !self.above.ends.is_empty()
    }

    /// Append a version of `row` — a `Put` of `put`, or a `Delete` — to
    /// the batch in `b`. Returns the bytes of its op as RAM holds it, the
    /// weight a batch is cut by.
    pub(crate) fn put(
        &mut self,
        b: &mut Vec<u8>,
        row: RowId,
        commit_ts: Ts,
        put: Option<&SharedRow>,
    ) -> usize {
        // Stored data depends on the order, so this is not a debug
        // assertion.
        let delta = row.0.checked_sub(self.id);
        put_varint(b, delta.expect("snapshot rows are in row-id order"));
        put_varint(b, zigzag(commit_ts.wrapping_sub(self.ts) as i64));
        (self.id, self.ts) = (row.0, commit_ts);
        let Some(put) = put else {
            put_varint(b, OP_DELETE);
            return varint_len(OP_DELETE);
        };
        let packed = put.packed();
        if self.has_above() {
            self.put_delta(b, packed);
        } else {
            self.next.lay_out(packed);
            b.extend_from_slice(packed);
            self.keep_texts();
        }
        std::mem::swap(&mut self.above, &mut self.next);
        packed.len()
    }

    /// `packed`, a checked row, coded against the `Put` above: the
    /// bitmap, the header of the columns that differ and their values,
    /// with room left for every column's header bits and what the others
    /// did not take handed back at the end. It is laid out in `next` as
    /// it goes: a group of columns the same as above is where its bytes
    /// are above, and only the others are read.
    fn put_delta(&mut self, b: &mut Vec<u8>, packed: &[u8]) {
        let Self {
            above,
            next,
            texts,
            tally,
            ..
        } = self;
        let (cols, header, mut at) = next.start(packed);
        put_varint(b, (cols as u64) << 2 | OP_PUT);
        let same_at = b.len();
        let header_at = same_at + cols.div_ceil(8);
        let room = cols.div_ceil(4);
        b.resize(header_at + room, 0);
        let up_header = &above.bytes[above.header..above.ends[0]];
        let shared = cols.min(above.cols());
        let mut differ = 0;
        for (g, &h) in header.iter().enumerate() {
            let (first, end) = (4 * g, (4 * g + 4).min(cols));
            // Four columns whose header bits and value bytes are those
            // above, compared at once: the same bytes under the same
            // header bits are the same values.
            if end <= shared && h == up_header[g] {
                let up = above.values(first, end);
                if packed
                    .get(at..at + up.len())
                    .is_some_and(|v| same_bytes(v, up))
                {
                    b[same_at + first / 8] |= low_bits(end - first) << (first % 8);
                    let shift = at.wrapping_sub(above.ends[first]);
                    (next.ends).extend(
                        above.ends[first + 1..=end]
                            .iter()
                            .map(|e| e.wrapping_add(shift)),
                    );
                    at += up.len();
                    continue;
                }
            }
            for i in first..end {
                let state = h >> (2 * (i % 4)) & 3;
                let len = if state == COL_VALUE {
                    checked_len(&packed[at..])
                } else {
                    0
                };
                let value = &packed[at..at + len];
                at += len;
                next.ends.push(at);
                if i < shared
                    && state == above.state(i)
                    && same_bytes(value, above.values(i, i + 1))
                {
                    b[same_at + i / 8] |= 1 << (i % 8);
                    continue;
                }
                b[header_at + differ / 4] |= state << (2 * (differ % 4));
                differ += 1;
                if state == COL_VALUE {
                    let from = b.len();
                    let up = if i < shared {
                        above.values(i, i + 1)
                    } else {
                        &[]
                    };
                    put_coded(b, value, up, slot_list(texts, i));
                    if let Some(tally) = tally {
                        count(tally, i, b.len() - from);
                    }
                }
            }
        }
        let spare = room - differ.div_ceil(4);
        if spare > 0 {
            b.copy_within(header_at + room.., header_at + room - spare);
            b.truncate(b.len() - spare);
        }
    }

    /// The batch's first `Put`, laid out in `next` and written as it is:
    /// keep each of its texts and count every value.
    fn keep_texts(&mut self) {
        let next = &self.next;
        for i in 0..next.cols() {
            let value = next.values(i, i + 1);
            let Some(&first) = value.first() else {
                continue;
            };
            if matches!(first & 7, VT_TEXT | VT_BYTES) {
                slot_list(&mut self.texts, i).push(value);
            }
            if let Some(tally) = &mut self.tally {
                count(tally, i, value.len());
            }
        }
    }

    /// The next version of the batch in `buf`.
    pub(crate) fn get(&mut self, buf: &mut &[u8]) -> Result<SnapshotVersion> {
        let row = (self.id.checked_add(get_varint(buf)?))
            .ok_or_else(|| corrupt("row-id delta wraps".into()))?;
        let commit_ts = self.ts.wrapping_add(unzigzag(get_varint(buf)?) as u64);
        (self.id, self.ts) = (row, commit_ts);
        let op = *buf;
        let head = get_varint(buf)?;
        let version = match (head & 3, head >> 2) {
            (OP_DELETE, 0) => WalOp::Delete,
            (OP_PUT, cols) => {
                let row = if self.has_above() {
                    self.get_delta(buf, cols)?
                } else {
                    let row = get_put(buf, op, cols)?;
                    self.next.lay_out(row.packed());
                    self.keep_texts();
                    row
                };
                std::mem::swap(&mut self.above, &mut self.next);
                WalOp::Put(row)
            }
            _ => return Err(corrupt(format!("snapshot row op header {head}"))),
        };
        Ok(SnapshotVersion {
            row: RowId(row),
            commit_ts,
            op: version,
        })
    }

    /// A `Put` of `cols` columns coded against the one above, rebuilt
    /// into `next` and kept as the bytes it had.
    fn get_delta(&mut self, buf: &mut &[u8], cols: u64) -> Result<SharedRow> {
        // Every column takes a bit of the bitmap.
        let cols = check_count(cols, buf, 8)?;
        let same = take(buf, cols.div_ceil(8) as u64)?;
        let ones: u32 = (same.iter().enumerate())
            .map(|(b, &bits)| (bits & low_bits(cols - 8 * b)).count_ones())
            .sum();
        let header = take(buf, (cols - ones as usize).div_ceil(4) as u64)?;
        let Self {
            above, next, texts, ..
        } = self;
        next.begin(cols);
        // The header bits of the columns above, which those the same as
        // above keep and the others overwrite; none past the last column.
        let shared = above.ends.len().saturating_sub(1).min(cols).div_ceil(4);
        let up_header = &above.bytes[above.header..above.header + shared];
        next.bytes[next.header..next.header + shared].copy_from_slice(up_header);
        if cols % 4 != 0 && shared == cols.div_ceil(4) {
            next.bytes[next.header + shared - 1] &= low_bits(2 * (cols % 4));
        }
        let is_same = |i: usize| same[i / 8] >> (i % 8) & 1 == 1;
        let (mut i, mut differ) = (0, 0);
        while i < cols {
            if is_same(i) {
                // A run of columns the same as above: their header bits,
                // and one run of value bytes above.
                let end = (i + 1..cols).find(|&j| !is_same(j)).unwrap_or(cols);
                if end > above.cols() {
                    return Err(corrupt(format!(
                        "column {} is the same as none above",
                        end - 1
                    )));
                }
                let shift = next.bytes.len().wrapping_sub(above.ends[i]);
                next.bytes.extend_from_slice(above.values(i, end));
                (next.ends).extend(
                    above.ends[i + 1..=end]
                        .iter()
                        .map(|e| e.wrapping_add(shift)),
                );
                i = end;
                continue;
            }
            let state = column_state(header, differ);
            differ += 1;
            let bits = &mut next.bytes[next.header + i / 4];
            *bits = *bits & !(3 << (2 * (i % 4))) | state << (2 * (i % 4));
            if state == COL_VALUE {
                let up = if i < above.cols() {
                    above.values(i, i + 1)
                } else {
                    &[]
                };
                get_coded(buf, i, up, texts, &mut next.bytes)?;
            }
            next.ends.push(next.bytes.len());
            i += 1;
        }
        // Every column decoded: these bytes are a row.
        Ok(SharedRow::from_checked(&next.bytes))
    }
}

/// `value`, a present value of the row being written that is not the same
/// as `up`, the value above it (empty if none), as a slot, a difference,
/// or itself, whichever is shortest.
#[inline(always)]
fn put_coded(b: &mut Vec<u8>, value: &[u8], up: &[u8], slots: &mut Slots) {
    let ty = value[0] & 7;
    if matches!(ty, VT_TEXT | VT_BYTES) {
        match slots.find(value) {
            Some(slot) if typed_len(slot as u64) < value.len() => put_typed(b, VT_REF, slot as u64),
            _ => {
                b.extend_from_slice(value);
                slots.push(value);
            }
        }
        return;
    }
    // A one-byte value is as short as a difference; a number spelled
    // longer than it must be is kept as it is, since a difference
    // decodes to the shortest spelling.
    if value.len() > 1 && up.first().is_some_and(|&u| u & 7 == ty) {
        if let (Some(number), Some(from)) = (number_of(value), number_of(up)) {
            let delta = zigzag(number.wrapping_sub(from) as i64);
            if typed_len(delta) < value.len() && typed_len(spelled(ty, number)) == value.len() {
                return put_typed(b, VT_DELTA, delta);
            }
        }
    }
    b.extend_from_slice(value);
}

/// Column `i`'s present value off the front of `buf`, appended to `out`
/// as the row holds it: `up` is the value above it (empty if none).
#[inline(always)]
fn get_coded(
    buf: &mut &[u8],
    i: usize,
    up: &[u8],
    texts: &mut Vec<Slots>,
    out: &mut Vec<u8>,
) -> Result<()> {
    let first = *buf.first().ok_or(Malformed::CutShort(1, 0))?;
    match first & 7 {
        VT_REF => {
            *buf = &buf[1..];
            let slot = get_typed(first, buf)?;
            let text = (texts.get(i))
                .and_then(|t| t.get(slot))
                .ok_or_else(|| corrupt(format!("column {i} has no text in slot {slot}")))?;
            out.extend_from_slice(text);
        }
        VT_DELTA => {
            *buf = &buf[1..];
            let delta = unzigzag(get_typed(first, buf)?) as u64;
            let (ty, from) = (up.first().map(|&u| u & 7))
                .zip(number_of(up))
                .ok_or_else(|| corrupt(format!("column {i} is a delta from no number")))?;
            put_typed(out, ty, spelled(ty, from.wrapping_add(delta)));
        }
        _ => {
            let rest = *buf;
            let (ty, _, tail) = get_raw_value(buf)?;
            if ty == VT_TEXT {
                std::str::from_utf8(tail).map_err(Malformed::Utf8)?;
            }
            let bytes = &rest[..rest.len() - buf.len()];
            out.extend_from_slice(bytes);
            if matches!(ty, VT_TEXT | VT_BYTES) {
                slot_list(texts, i).push(bytes);
            }
        }
    }
    Ok(())
}

/// The number an `Int`/`Id`/`Timestamp` value of a checked row holds, as
/// the bits of a `u64` (a signed number's two's complement); `None` for
/// any other value.
#[inline(always)]
fn number_of(value: &[u8]) -> Option<u64> {
    let first = *value.first()?;
    let n = match first & 7 {
        VT_INT | VT_ID | VT_TIMESTAMP => checked_typed(value).0,
        _ => return None,
    };
    Some(if first & 7 == VT_ID {
        n
    } else {
        unzigzag(n) as u64
    })
}

/// The `n` a number of type `ty` is spelled with.
#[inline(always)]
fn spelled(ty: u8, number: u64) -> u64 {
    if ty == VT_ID {
        number
    } else {
        zigzag(number as i64)
    }
}

/// A byte whose lowest `n` bits are set (all of them from eight on).
fn low_bits(n: usize) -> u8 {
    if n >= 8 {
        u8::MAX
    } else {
        (1 << n) - 1
    }
}

/// The texts column `i` wrote out.
fn slot_list(texts: &mut Vec<Slots>, i: usize) -> &mut Slots {
    if texts.len() <= i {
        texts.resize_with(i + 1, Slots::default);
    }
    &mut texts[i]
}

fn count(tally: &mut Vec<u64>, i: usize, bytes: usize) {
    if tally.len() <= i {
        tally.resize(i + 1, 0);
    }
    tally[i] += bytes as u64;
}

/// The `n` of the present value `value` starts with, in a row that was
/// checked when it was built, and the bytes it is spelled in: a float's
/// are its type byte and eight more, and its `n` is not read.
#[inline(always)]
fn checked_typed(value: &[u8]) -> (u64, usize) {
    let first = value[0];
    if first == VT_FLOAT {
        return (0, 9);
    }
    let low = u64::from(first >> 3 & 0xF);
    if first & 0x80 == 0 {
        return (low, 1);
    }
    let mut rest = &value[1..];
    let high = get_varint(&mut rest).expect(CHECKED_ROW);
    (low | high << 4, value.len() - rest.len())
}

/// The length of the present value `value` starts with, in a checked row.
#[inline(always)]
fn checked_len(value: &[u8]) -> usize {
    let (n, head) = checked_typed(value);
    // `Text` and `Bytes`: their length follows.
    if value[0] & 6 == VT_TEXT {
        head + n as usize
    } else {
        head
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

/// The length of a `SnapshotRows` record of `table` whose `count` rows
/// take `rows` bytes.
pub(crate) fn snapshot_rows_len(table: TableId, count: u64, rows: usize) -> usize {
    1 + varint_len(u64::from(table.0)) + varint_len(count) + rows
}

pub(crate) fn put_op(b: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::Put(row) => b.extend_from_slice(row.packed()),
        WalOp::Delete => put_varint(b, OP_DELETE),
        WalOp::Patch { fields, values } => {
            assert_eq!(fields.len(), values.len(), "one value per patched field");
            put_varint(b, (fields.len() as u64) << 2 | OP_PATCH);
            for f in fields {
                put_varint(b, u64::from(*f));
            }
            put_values(b, values.iter().map(Value::view));
        }
    }
}

pub(crate) fn get_op(buf: &mut &[u8]) -> Result<WalOp> {
    let op = *buf;
    let head = get_varint(buf)?;
    let count = head >> 2;
    match head & 3 {
        OP_PUT => Ok(WalOp::Put(get_put(buf, op, count)?)),
        OP_DELETE if count == 0 => Ok(WalOp::Delete),
        OP_PATCH => {
            let n = check_count(count, buf, 1)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(get_varint32(buf)?);
            }
            let values = get_values(buf, n)?;
            Ok(WalOp::Patch { fields, values })
        }
        _ => Err(corrupt(format!("unknown op header {head}"))),
    }
}

/// The rest of a `Put` op of `count` columns that starts at `op` and
/// whose header `buf` is past: every column is decoded, and the op's
/// bytes are the row.
fn get_put(buf: &mut &[u8], op: &[u8], count: u64) -> Result<SharedRow> {
    let n = check_count(count, buf, 4)?;
    let header = take(buf, n.div_ceil(4) as u64)?;
    for i in 0..n {
        get_column(header, i, buf)?;
    }
    Ok(SharedRow::from_checked(&op[..op.len() - buf.len()]))
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
    put_typed(b, ty, n);
    b.extend_from_slice(tail);
}

/// A value's first byte and, if `n` needs more than four bits, the rest
/// of `n` as a varint.
fn put_typed(b: &mut Vec<u8>, ty: u8, n: u64) {
    let first = ty | ((n & 0xF) as u8) << 3;
    if n >> 4 == 0 {
        b.push(first);
    } else {
        b.push(first | 0x80);
        put_varint(b, n >> 4);
    }
}

/// Bytes [`put_typed`] writes for `n`.
fn typed_len(n: u64) -> usize {
    1 + if n >> 4 == 0 { 0 } else { varint_len(n >> 4) }
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
    let n = get_typed(first, buf)?;
    let tail: &[u8] = match first & 7 {
        VT_INT | VT_ID | VT_TIMESTAMP => &[],
        VT_TEXT | VT_BYTES => take(buf, n)?,
        _ => return Err(Malformed::UnknownValueByte(first)),
    };
    Ok((first & 7, n, tail))
}

/// The `n` of a value whose first byte, `first`, has been read.
#[inline(always)]
fn get_typed(first: u8, buf: &mut &[u8]) -> Decoded<u64> {
    let mut n = u64::from(first >> 3 & 0xF);
    if first & 0x80 != 0 {
        let high = get_varint(buf)?;
        if high >> 60 != 0 {
            return Err(Malformed::ValueOverflow);
        }
        n |= high << 4;
    }
    Ok(n)
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
        let row = |i: u64| {
            SharedRow::pack(&[
                Value::Text(["x".repeat(200), "y".into()][i as usize % 2].clone()),
                Value::Id(i * 3),
                Value::Null,
            ])
        };
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
                    WalOp::Put(row(i))
                },
            })
            .collect();
        let table = TableId(300);
        let mut b = vec![0xAA];
        begin_snapshot_rows(&mut b, table);
        let rows_at = b.len();
        let (mut deltas, mut ops) = (RowDeltas::default(), 0);
        for v in &versions {
            let put = match &v.op {
                WalOp::Put(r) => Some(r),
                _ => None,
            };
            ops += deltas.put(&mut b, v.row, v.commit_ts, put);
        }
        // What a batch is cut by is what RAM holds, not what it writes.
        let ram: usize = (versions.iter())
            .map(|v| match &v.op {
                WalOp::Put(r) => r.packed().len(),
                _ => 1,
            })
            .sum();
        assert_eq!(ops, ram);
        let rows = b.len() - rows_at;
        end_snapshot_rows(&mut b, rows_at, versions.len() as u64);
        // The checkpoint's weigher runs the same coder: one frame, the
        // record behind an 8-byte header.
        let mut weighed = crate::wal::CheckpointFrames::weigh();
        for v in &versions {
            let put = match &v.op {
                WalOp::Put(r) => Some(r),
                _ => None,
            };
            weighed.row(table, v.row, v.commit_ts, put);
        }
        weighed.close_batch();
        let want = encode_record(&WalRecord::SnapshotRows {
            table,
            rows: versions,
        });
        assert_eq!((b[0], &b[1..]), (0xAA, &want[..]));
        assert_eq!(snapshot_rows_len(table, 200, rows), want.len());
        assert_eq!(weighed.len(), 8 + want.len() as u64);
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            assert_eq!(varint_len(v), b.len(), "{v}");
        }
    }

    #[test]
    fn a_batch_row_repeats_nothing_of_the_row_above() {
        let put = |values: &[Value]| WalOp::Put(SharedRow::pack(values));
        let chars = |i: u64| {
            put(&[
                Value::Id(3),
                Value::Id(20_000 + i),
                Value::Text("e".into()),
                Value::Null,
            ])
        };
        let rec = WalRecord::SnapshotRows {
            table: TableId(4),
            rows: (0..2)
                .map(|i| SnapshotVersion {
                    row: RowId(20_001 + i),
                    commit_ts: 40_000 + i,
                    op: chars(i),
                })
                .collect(),
        };
        let bytes = encode_record(&rec);
        let mut first = Vec::new();
        put_op(&mut first, &chars(0));
        // Tag, table, count; the first row as it is; then the second:
        // id +1, ts +1 (zig-zag 2), four columns, columns 0, 2 and 3 the
        // same as above, column 1 present and one more than above.
        let mut want = vec![TAG_SNAPSHOT_ROWS, 4, 2];
        put_varint(&mut want, 20_001);
        put_varint(&mut want, 40_000 << 1);
        want.extend_from_slice(&first);
        want.extend_from_slice(&[1, 2, 4 << 2, 0b1101, COL_VALUE, VT_DELTA | 2 << 3]);
        assert_eq!(bytes, want);
        assert_eq!(decode_record(&bytes).unwrap(), rec);
    }

    #[test]
    fn a_number_spelled_longer_than_it_must_be_is_kept_as_it_is() {
        // Id(9) with the continuation bit set and a zero high part, below
        // a canonical Id(8): a delta would decode to the short spelling.
        let long = SharedRow::from_checked(&[1 << 2, COL_VALUE, VT_ID | 9 << 3 | 0x80, 0]);
        let rec = WalRecord::SnapshotRows {
            table: TableId(0),
            rows: vec![
                SnapshotVersion {
                    row: RowId(1),
                    commit_ts: 1,
                    op: WalOp::Put(SharedRow::pack(&[Value::Id(8)])),
                },
                SnapshotVersion {
                    row: RowId(2),
                    commit_ts: 1,
                    op: WalOp::Put(long.clone()),
                },
            ],
        };
        let back = decode_record(&encode_record(&rec)).unwrap();
        let WalRecord::SnapshotRows { rows, .. } = back else {
            panic!("not a batch");
        };
        let WalOp::Put(row) = &rows[1].op else {
            panic!("not a put");
        };
        assert_eq!(row.packed(), long.packed());
    }

    #[test]
    fn texts_a_column_wrote_out_are_named_by_their_slot() {
        let put = |text: &str| WalOp::Put(SharedRow::pack(&[Value::Text(text.into())]));
        let texts = ["insert", "delete", "insert", "style", "delete"];
        let rec = WalRecord::SnapshotRows {
            table: TableId(0),
            rows: (0..texts.len() as u64)
                .map(|i| SnapshotVersion {
                    row: RowId(i),
                    commit_ts: 1,
                    op: put(texts[i as usize]),
                })
                .collect(),
        };
        let bytes = encode_record(&rec);
        // "insert" again is slot 0, "delete" again slot 1: a byte each.
        assert!(bytes.ends_with(&[1 << 2, 0, COL_VALUE, VT_REF | 1 << 3]));
        assert!(bytes
            .windows(4)
            .any(|w| w == [1 << 2, 0, COL_VALUE, VT_REF]));
        assert_eq!(decode_record(&bytes).unwrap(), rec);
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
    /// delta 1, commit ts 1 (zig-zag 2), a one-column put, header
    /// "present").
    fn batch_with_value(value: &[u8]) -> Vec<u8> {
        let mut b = vec![TAG_SNAPSHOT_ROWS, 0, 1, 1, 2, 1 << 2, COL_VALUE];
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
