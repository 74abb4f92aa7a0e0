//! The physical log file: framing, append, replay, checkpoint rotation.
//!
//! Frame layout per record: `[u32 payload_len][u32 crc32(payload)][payload]`
//! (little-endian). Replay stops cleanly at the first frame that is
//! truncated or fails its CRC — that is the torn tail of a crashed append,
//! and everything before it is intact by construction (frames are written
//! with a single `write_all`). The first frame of every log file is a
//! [`WalRecord::Format`] naming the format of the rest; a non-empty file
//! that starts with anything else was written by another version and is
//! refused before anything in it is decoded, truncated or repaired.
//!
//! All file access goes through the [`Vfs`] seam so the same code path
//! runs against the real disk ([`crate::vfs::OsVfs`], the default) and
//! the crash simulator ([`crate::vfs::SimVfs`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::row::{RowId, SharedRow};
use crate::schema::TableId;
use crate::table::Ts;
use crate::util::crc32;
use crate::vfs::{os_vfs, Vfs, VfsFile};
use crate::wal::codec::{
    begin_snapshot_rows, decode_record, end_snapshot_rows, put_record, snapshot_rows_len,
    RowDeltas, SNAPSHOT_BATCH_BYTES,
};
use crate::wal::{DurabilityLevel, WalRecord, FORMAT_VERSION};

/// An append-only log file.
#[derive(Debug)]
pub struct WalFile {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    writer: Box<dyn VfsFile>,
    durability: DurabilityLevel,
    records_written: u64,
    bytes_written: u64,
}

impl WalFile {
    /// Open (creating if needed) the log at `path` for appending, on the
    /// real file system.
    pub fn open(path: impl Into<PathBuf>, durability: DurabilityLevel) -> Result<Self> {
        Self::open_on(os_vfs(), path, durability)
    }

    /// Open (creating if needed) the log at `path` for appending, on an
    /// explicit [`Vfs`] backend.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
        durability: DurabilityLevel,
    ) -> Result<Self> {
        let path = path.into();
        let created = !vfs.exists(&path);
        let writer = vfs.open_append(&path)?;
        if created {
            // A freshly created file's directory entry is not durable
            // until the directory itself is fsynced: without this, a
            // crash could erase the whole log even after `Fsync`-level
            // commits were acknowledged (the data blocks persist but
            // nothing references them).
            vfs.sync_dir(&path)?;
        }
        let mut wal = WalFile {
            path,
            vfs,
            writer,
            durability,
            records_written: 0,
            bytes_written: 0,
        };
        // New, or cut back to nothing by tail repair: start the file
        // with its format frame.
        if wal.vfs.file_len(&wal.path)? == 0 {
            let header = format_frame();
            wal.writer.write_all(&header)?;
            wal.sync()?;
            wal.bytes_written = header.len() as u64;
        }
        Ok(wal)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn durability(&self) -> DurabilityLevel {
        self.durability
    }

    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Bytes appended (or rewritten) since this handle was opened. Both
    /// counters restart at open, so for a recovered log they measure
    /// *growth* since recovery — exactly what checkpoint budgets want.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Append one record, honouring the durability level.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        self.append_batch(&encode_frame(rec), 1, self.durability)
    }

    /// Append a batch of pre-framed records (see [`encode_frame`]) with a
    /// single `write_all`, then apply `durability` once for the whole
    /// batch. This is the group-commit fast path: one syscall (plus at
    /// most one fsync) covers every record in the batch.
    pub fn append_batch(
        &mut self,
        frames: &[u8],
        records: u64,
        durability: DurabilityLevel,
    ) -> Result<()> {
        if !frames.is_empty() {
            self.writer.write_all(frames)?;
        }
        self.writer.flush()?;
        if durability == DurabilityLevel::Fsync {
            self.writer.sync_data()?;
        }
        self.records_written += records;
        self.bytes_written += frames.len() as u64;
        Ok(())
    }

    /// Flush and fsync regardless of level (used at clean shutdown and
    /// after checkpoints).
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.sync_data()?;
        Ok(())
    }

    /// Replace this log's contents with `image` (a
    /// [`CheckpointFrames::file`]), atomically.
    ///
    /// Writes a sibling temp file, fsyncs it, then renames over the live
    /// log — the checkpoint either fully lands or the old log survives.
    pub(crate) fn rewrite(&mut self, mut image: CheckpointFrames) -> Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        image.close_batch();
        let (bytes, records) = (image.len(), image.records);
        {
            let mut w = self.vfs.create(&tmp)?;
            for frame in &image.frames {
                w.write_all(frame)?;
            }
            w.flush()?;
            w.sync_data()?;
        }
        self.vfs.rename(&tmp, &self.path)?;
        // The rename is only durable once the directory entry itself is
        // on disk: without this fsync a crash can resurrect the old log
        // (or worse, leave a dangling entry) even though the data file
        // was synced.
        self.vfs.sync_dir(&self.path)?;
        self.writer = self.vfs.open_append(&self.path)?;
        self.records_written = records;
        self.bytes_written = bytes;
        Ok(())
    }

    /// Every intact record in the log at `path` after its format frame,
    /// on the real file system (tests and tools; recovery streams).
    pub fn replay(path: &Path) -> Result<Vec<WalRecord>> {
        let mut records = Vec::new();
        Self::replay_on(&*os_vfs(), path, |rec, _| {
            if !matches!(rec, WalRecord::Format { .. }) {
                records.push(rec);
            }
            Ok(())
        })?;
        Ok(records)
    }

    /// Check the log's layout and format frame, then hand `apply` every intact
    /// record (the format frame included) with the byte offset its frame
    /// ends at — one at a time, so recovery never holds more than one
    /// frame decoded. Returns the offset of the end of the last intact
    /// frame. Callers reopening the log for append MUST truncate to that
    /// offset first, or a torn tail would be buried under fresh records
    /// and read as mid-log corruption later. A missing file replays as
    /// empty.
    pub fn replay_on(
        vfs: &dyn Vfs,
        path: &Path,
        mut apply: impl FnMut(WalRecord, u64) -> Result<()>,
    ) -> Result<u64> {
        check_layout(vfs, path)?;
        if !vfs.exists(path) {
            return Ok(0);
        }
        let data = vfs.read(path)?;
        check_format(&data)?;
        let mut iter = WalIter::new(&data);
        let mut valid = 0u64;
        while let Some(item) = iter.next() {
            valid = iter.offset as u64;
            apply(item?, valid)?;
        }
        Ok(valid)
    }

    /// Truncate the log file at `path` to `len` bytes (crash-tail
    /// repair), on the real file system.
    pub fn truncate(path: &Path, len: u64) -> Result<()> {
        Self::truncate_on(&*os_vfs(), path, len)
    }

    /// Truncate the log file at `path` to `len` bytes (crash-tail
    /// repair). The backend makes the shrink itself durable (`fsync`,
    /// not `fdatasync`: it is a metadata change); the parent-dir sync
    /// covers file systems where the length lives in the dirent.
    pub fn truncate_on(vfs: &dyn Vfs, path: &Path, len: u64) -> Result<()> {
        if !vfs.exists(path) {
            return Ok(());
        }
        vfs.truncate(path, len)?;
        vfs.sync_dir(path)?;
        Ok(())
    }
}

/// A checkpoint as the frames of the log file that holds it, encoded in
/// one pass straight from the tables: whole records, and rows that go
/// into [`WalRecord::SnapshotRows`] frames cut at
/// [`SNAPSHOT_BATCH_BYTES`](crate::wal::codec::SNAPSHOT_BATCH_BYTES) of
/// ops as RAM holds them, or of the frame's own bytes. A row is coded
/// once, against the row above it in its batch ([`RowDeltas`]), into the
/// buffer its frame is written from; nothing per row is kept beside it.
/// Every frame is a buffer of its own: a batch's is allocated at the size
/// it is cut at and shrunk to what it holds when it closes, so the frames
/// hold the file and at most one batch's room beside it. The same frames
/// can be *weighed* instead — coded and sized, not kept — which is what
/// `TableStats::checkpoint_bytes` reports.
#[derive(Debug, Default)]
pub(crate) struct CheckpointFrames {
    frames: Vec<Vec<u8>>,
    /// Frames (the format frame not counted).
    records: u64,
    /// Bytes of the closed frames, kept or weighed.
    bytes: u64,
    /// Weighing: frames are sized, and not kept.
    weighing: bool,
    /// Where the DDL prologue ends: the frame behind the last `CreateTable`.
    ddl_end: Option<usize>,
    batch: Option<Batch>,
    /// What the open batch's rows are coded against.
    deltas: RowDeltas,
}

/// The open `SnapshotRows` frame.
#[derive(Debug)]
struct Batch {
    table: TableId,
    /// Its frame: the header's room, the record's head, then its rows —
    /// while weighing, only the row being coded.
    out: Vec<u8>,
    rows_at: usize,
    count: u64,
    /// Bytes of its rows, and of their ops as RAM holds them.
    rows: usize,
    ops: usize,
}

impl CheckpointFrames {
    /// Frames that are sized, not kept: [`CheckpointFrames::len`] is all
    /// they tell.
    pub(crate) fn weigh() -> Self {
        CheckpointFrames {
            weighing: true,
            ..Default::default()
        }
    }

    /// Frames that are weighed, with the bytes each column's values take
    /// counted too ([`CheckpointFrames::column_bytes`]).
    pub(crate) fn weigh_columns() -> Self {
        CheckpointFrames {
            deltas: RowDeltas::tallied(),
            ..Self::weigh()
        }
    }

    /// Per column position, the bytes its values took in the rows so far
    /// (empty unless [`CheckpointFrames::weigh_columns`]).
    pub(crate) fn column_bytes(&self) -> &[u64] {
        self.deltas.tally()
    }

    /// A log file: its format frame, then the frames it is given.
    pub(crate) fn file() -> Self {
        let format = format_frame();
        CheckpointFrames {
            bytes: format.len() as u64,
            frames: vec![format],
            ..Default::default()
        }
    }

    /// Append `rec` as a frame of its own.
    pub(crate) fn record(&mut self, rec: &WalRecord) {
        self.close_batch();
        let frame = encode_frame(rec);
        self.records += 1;
        self.bytes += frame.len() as u64;
        if !self.weighing {
            self.frames.push(frame);
            if matches!(rec, WalRecord::CreateTable { .. }) {
                self.ddl_end = Some(self.frames.len());
            }
        }
    }

    /// Append a version of `row` of `table` — a `Put` of `put`, or a
    /// `Delete` — to the table's open `SnapshotRows` frame. A table's
    /// rows arrive in row-id order, a row's versions oldest first.
    pub(crate) fn row(
        &mut self,
        table: TableId,
        row: RowId,
        commit_ts: Ts,
        put: Option<&SharedRow>,
    ) {
        if self.batch.as_ref().is_some_and(|b| b.table != table) {
            self.close_batch();
        }
        let (weighing, deltas) = (self.weighing, &mut self.deltas);
        let batch = self.batch.get_or_insert_with(|| {
            let room = if weighing { 64 } else { SNAPSHOT_BATCH_BYTES };
            let mut out = Vec::with_capacity(room);
            out.extend_from_slice(&[0; 8]);
            begin_snapshot_rows(&mut out, table);
            deltas.reset();
            Batch {
                table,
                rows_at: out.len(),
                out,
                count: 0,
                rows: 0,
                ops: 0,
            }
        });
        let at = batch.out.len();
        // What a row can take coded: two varints and, at most, its bytes
        // plus a bit a column. The frame grows by exactly that, not by
        // doubling.
        let most = 20 + 2 * put.map_or(0, |r| r.packed().len());
        if batch.out.capacity() - at < most {
            batch.out.reserve_exact(most);
        }
        batch.ops += deltas.put(&mut batch.out, row, commit_ts, put);
        batch.rows += batch.out.len() - at;
        batch.count += 1;
        if weighing {
            batch.out.truncate(at);
        }
        if batch.ops.max(batch.rows) >= SNAPSHOT_BATCH_BYTES {
            self.close_batch();
        }
    }

    /// Complete the open `SnapshotRows` frame, if there is one.
    pub(crate) fn close_batch(&mut self) {
        let Some(mut b) = self.batch.take() else {
            return;
        };
        self.records += 1;
        self.bytes += (8 + snapshot_rows_len(b.table, b.count, b.rows)) as u64;
        if !self.weighing {
            end_snapshot_rows(&mut b.out, b.rows_at, b.count);
            end_frame(&mut b.out, 0);
            b.out.shrink_to_fit();
            self.frames.push(b.out);
        }
    }

    /// Put `history` (written frames) behind the DDL prologue, where
    /// replay meets it before the first table's rows: a row's history
    /// then predates its newest version, as replay requires.
    pub(crate) fn insert_history(&mut self, mut history: CheckpointFrames) {
        history.close_batch();
        let at = self.ddl_end.unwrap_or(self.frames.len());
        self.frames.splice(at..at, history.frames);
        self.records += history.records;
        self.bytes += history.bytes;
    }

    /// Bytes of the frames so far, the open `SnapshotRows` frame not
    /// counted.
    pub(crate) fn len(&self) -> u64 {
        self.bytes
    }
}

/// Append one record to `out` as a complete WAL frame
/// (`[u32 len][u32 crc32][payload]`): the payload is encoded straight
/// behind a reserved header, which is filled in afterwards.
fn put_frame(out: &mut Vec<u8>, rec: &WalRecord) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    put_record(out, rec);
    end_frame(out, start);
}

/// Fill in the header of the frame that starts at `start` and whose
/// payload is the rest of `out`.
fn end_frame(out: &mut [u8], start: usize) {
    let payload = &out[start + 8..];
    let len = u32::try_from(payload.len()).expect("a WAL frame stays under 4 GiB");
    let crc = crc32(payload);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// One record as a frame of its own.
pub(crate) fn encode_frame(rec: &WalRecord) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    put_frame(&mut frame, rec);
    frame
}

fn format_frame() -> Vec<u8> {
    encode_frame(&WalRecord::Format {
        version: FORMAT_VERSION,
    })
}

/// What the sharded log (removed; DESIGN.md §5.12) appended to the base
/// path to name its second file. Every sharded layout had one.
const SHARD_SIBLING_SUFFIX: &str = ".shard1";

/// The log must be one file. With a sibling beside it the base file holds
/// only part of the commit stream, so replaying it alone would silently
/// drop acknowledged commits.
fn check_layout(vfs: &dyn Vfs, path: &Path) -> Result<()> {
    let mut sibling = path.as_os_str().to_os_string();
    sibling.push(SHARD_SIBLING_SUFFIX);
    let sibling = PathBuf::from(sibling);
    if vfs.exists(&sibling) {
        return Err(StorageError::ShardedLayout {
            sibling: sibling.display().to_string(),
        });
    }
    Ok(())
}

/// The log must be empty — or torn inside its first frame, before
/// anything in it was durable — or start with this build's format
/// frame. An intact first frame that is anything else is a v1 log (those
/// start with a `Meta`, `CreateTable` or `Commit` frame).
fn check_format(data: &[u8]) -> Result<()> {
    let found = match WalIter::new(data).next_frame() {
        None => return Ok(()),
        Some(Err(e)) => return Err(e),
        Some(Ok((_, payload))) => match decode_record(payload) {
            Ok(WalRecord::Format { version }) => version,
            _ => 1,
        },
    };
    if found != FORMAT_VERSION {
        return Err(StorageError::UnsupportedFormat {
            found,
            expected: FORMAT_VERSION,
        });
    }
    Ok(())
}

/// Iterator over framed records in a byte buffer.
///
/// Yields `Ok(record)` for each intact frame. A truncated or CRC-failing
/// tail ends iteration silently (torn write); a CRC failure *followed by
/// more data*, or an intact frame that does not decode, is real
/// corruption and yields [`StorageError::WalCorrupt`] at the offset the
/// offending frame starts at.
pub struct WalIter<'a> {
    data: &'a [u8],
    pub(crate) offset: usize,
}

impl<'a> WalIter<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        WalIter { data, offset: 0 }
    }

    /// The next intact frame: the offset it starts at, and its payload.
    fn next_frame(&mut self) -> Option<Result<(usize, &'a [u8])>> {
        let start = self.offset;
        let rest = &self.data[start..];
        if rest.len() < 8 {
            return None; // clean end, or a torn header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if rest.len() - 8 < len {
            return None; // torn payload
        }
        let payload = &rest[8..8 + len];
        let frame_end = start + 8 + len;
        if crc32(payload) != crc {
            let trailing = self.data.len() - frame_end;
            self.offset = self.data.len();
            // A bad frame at the tail — or followed by fewer bytes than
            // a frame header — is a torn write: a power cut can tear the
            // final sector across the boundary of the last complete
            // frame, garbling its checksum while scraps of the next
            // frame sit after it. Scraps that small can never hold a
            // real frame, so nothing durable is being discarded. A bad
            // frame with room for real frames after it, by contrast, is
            // mid-log corruption and must surface as an error.
            if trailing < 8 {
                return None;
            }
            return Some(Err(StorageError::WalCorrupt {
                offset: start as u64,
                reason: "CRC mismatch mid-log".into(),
            }));
        }
        self.offset = frame_end;
        Some(Ok((start, payload)))
    }
}

impl Iterator for WalIter<'_> {
    type Item = Result<WalRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_frame()?.and_then(|(start, payload)| {
            decode_record(payload).map_err(|e| match e {
                StorageError::WalCorrupt { reason, .. } => StorageError::WalCorrupt {
                    offset: start as u64,
                    reason,
                },
                other => other,
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;
    use crate::table::Ts;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tendax-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta(ts: Ts) -> WalRecord {
        WalRecord::Meta {
            next_ts: ts,
            clock: ts as i64,
        }
    }

    #[test]
    fn append_and_replay() {
        let path = tmpdir().join("basic.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = WalFile::open(&path, DurabilityLevel::Buffered).unwrap();
        wal.append(&meta(1)).unwrap();
        wal.append(&WalRecord::DropTable { id: TableId(4) })
            .unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.records_written(), 2);

        let recs = WalFile::replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], meta(1));
        assert_eq!(recs[1], WalRecord::DropTable { id: TableId(4) });
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let path = tmpdir().join("nonexistent.wal");
        let _ = std::fs::remove_file(&path);
        assert!(WalFile::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_discarded_silently() {
        let path = tmpdir().join("torn.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = WalFile::open(&path, DurabilityLevel::Buffered).unwrap();
        wal.append(&meta(1)).unwrap();
        wal.append(&meta(2)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Truncate mid-way through the second frame.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let recs = WalFile::replay(&path).unwrap();
        assert_eq!(recs, vec![meta(1)]);
    }

    #[test]
    fn tear_straddling_last_frame_boundary_is_a_torn_tail() {
        let path = tmpdir().join("straddle.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = WalFile::open(&path, DurabilityLevel::Buffered).unwrap();
        wal.append(&meta(1)).unwrap();
        wal.append(&meta(2)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // A torn final sector can straddle the last frame boundary:
        // the tail of the last complete frame is garbled AND a few
        // scrap bytes of a never-completed next frame follow it. The
        // scraps are too short to be a frame, so this must replay as a
        // torn tail ending at the last good frame — not error out.
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        data.extend_from_slice(&[0xFF; 5]);
        std::fs::write(&path, &data).unwrap();
        let recs = WalFile::replay(&path).unwrap();
        assert_eq!(recs, vec![meta(1)]);
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let path = tmpdir().join("corrupt.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = WalFile::open(&path, DurabilityLevel::Buffered).unwrap();
        wal.append(&meta(1)).unwrap();
        wal.append(&meta(2)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Flip a payload byte in the FIRST frame (the format frame:
        // 8 header bytes, then its 2-byte payload).
        let mut data = std::fs::read(&path).unwrap();
        data[9] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let result: Result<Vec<_>> = WalIter::new(&std::fs::read(&path).unwrap()).collect();
        assert!(matches!(result, Err(StorageError::WalCorrupt { .. })));
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = tmpdir().join("rewrite.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = WalFile::open(&path, DurabilityLevel::Buffered).unwrap();
        for i in 1..=10 {
            wal.append(&meta(i)).unwrap();
        }
        let mut image = CheckpointFrames::file();
        image.record(&meta(100));
        wal.rewrite(image).unwrap();
        assert_eq!(wal.records_written(), 1);
        // Appends continue to work after rotation.
        wal.append(&meta(101)).unwrap();
        wal.sync().unwrap();
        let recs = WalFile::replay(&path).unwrap();
        assert_eq!(recs, vec![meta(100), meta(101)]);
    }

    #[test]
    fn checkpoint_rows_are_cut_at_the_byte_budget_and_weigh_what_they_write() {
        use crate::row::SharedRow;
        use crate::value::Value;
        use crate::wal::codec::SNAPSHOT_BATCH_BYTES;
        let big = SharedRow::pack(&[Value::Bytes(vec![7; SNAPSHOT_BATCH_BYTES / 4])]);
        let small = SharedRow::pack(&[Value::Int(-1)]);
        let fill = |frames: &mut CheckpointFrames| {
            frames.record(&meta(1));
            for i in 0..10u64 {
                // A tombstone among the rows weighs one byte.
                frames.row(TableId(1), RowId(3 * i), i, (i != 5).then_some(&big));
            }
            frames.row(TableId(2), RowId(1), 11, Some(&small));
            frames.close_batch();
        };
        let mut weighed = CheckpointFrames::weigh();
        fill(&mut weighed);
        let mut image = CheckpointFrames::file();
        fill(&mut image);
        let file = image.frames.concat();
        assert_eq!(image.len(), file.len() as u64);
        assert_eq!(image.len(), 10 + weighed.len());
        assert_eq!((image.records, weighed.records), (5, 5));
        let batches: Vec<(u32, usize)> = (WalIter::new(&file).skip(2))
            .map(|rec| match rec.unwrap() {
                WalRecord::SnapshotRows { table, rows } => (table.0, rows.len()),
                other => panic!("not a batch: {other:?}"),
            })
            .collect();
        assert_eq!(batches, [(1, 4), (1, 5), (1, 1), (2, 1)]);
    }

    #[test]
    fn fsync_level_persists() {
        let path = tmpdir().join("fsync.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = WalFile::open(&path, DurabilityLevel::Fsync).unwrap();
        wal.append(&meta(7)).unwrap();
        // No explicit sync: fsync level already flushed.
        let recs = WalFile::replay(&path).unwrap();
        assert_eq!(recs, vec![meta(7)]);
    }

    #[test]
    fn empty_log_replays_empty() {
        let path = tmpdir().join("empty.wal");
        let _ = std::fs::remove_file(&path);
        let _wal = WalFile::open(&path, DurabilityLevel::Buffered).unwrap();
        assert!(WalFile::replay(&path).unwrap().is_empty());
    }
}
