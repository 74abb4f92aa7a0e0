//! The physical log file: framing, writing, replay, checkpoint rotation.
//!
//! Frame layout per record: `[u32 payload_len][u32 crc32(payload)][payload]`
//! (little-endian), with at least one payload byte. The first frame of
//! every log file is a [`WalRecord::Format`] naming the format of the
//! rest; a non-empty file that starts with anything else was written by
//! another version and is refused before anything in it is decoded,
//! truncated or repaired.
//!
//! The log ends at the first frame that is cut short, fails its CRC, or
//! has a header of eight zero bytes (no frame is empty, so a zero header
//! is never one). Behind that point lie zeroed room, the torn tail of a
//! crashed write, or corruption: only zeros, and at most one torn
//! sector's worth of other bytes in one place, are read as room or a torn
//! tail; anything more is [`StorageError::WalCorrupt`]. Opening the log
//! for writing cuts a torn tail (anything past the last frame that is not
//! zero) and keeps zeros as room.
//!
//! Each batch of frames is written at the log's end with one positioned
//! write. At [`DurabilityLevel::Fsync`] the log keeps zeroed room ahead
//! of that end, written, synced and sized [`ROOM_STEP`] at a time before
//! any frame lands in it, so the `fdatasync` behind each batch flushes
//! data blocks and no size change. A clean close gives the room back: a
//! log at rest is exactly its frames. At `Buffered` batches extend the
//! file as they land.
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
use crate::vfs::{os_vfs, Vfs, VfsLog, ZEROS};
use crate::wal::codec::{
    begin_snapshot_rows, decode_record, end_snapshot_rows, put_record, snapshot_rows_len,
    RowDeltas, SNAPSHOT_BATCH_BYTES,
};
use crate::wal::{DurabilityLevel, WalRecord, FORMAT_VERSION};

/// How much zeroed room the log reserves ahead of its end at a time, at
/// [`DurabilityLevel::Fsync`]. Each step costs one sync of data and size;
/// a reopened log pays one with its first write, so the step is kept
/// small (a 1 MiB step cost each reopen of a typing workload about 3 ms,
/// EXPERIMENTS.md A38).
const ROOM_STEP: u64 = 64 << 10;

/// The most bytes of one tear: a torn write garbles at most this many of
/// the last bytes it put down (what [`crate::vfs::SimVfs`] tears, too).
/// Fewer than a frame: every frame spans at least nine bytes, so a tear
/// never reaches past the frame it is in.
pub(crate) const TORN_MAX: usize = 8;

/// Where a replayed log's frames end, and what lies past them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogEnd {
    /// The offset the last intact frame ends at.
    pub frames: u64,
    /// The file's length.
    pub len: u64,
    /// Some byte past `frames` is not zero: the tail of a crashed write,
    /// which [`WalFile::open_on`] cuts. Zeros there are room, and kept.
    pub torn: bool,
}

/// The log file, written at its end.
#[derive(Debug)]
pub struct WalFile {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    log: Box<dyn VfsLog>,
    durability: DurabilityLevel,
    /// Where the last frame ends: the next batch is written here.
    end: u64,
    /// The file's length: `end`, and zeroed room past it.
    len: u64,
    records_written: u64,
    bytes_written: u64,
}

impl WalFile {
    /// Open (creating if needed) the log at `path` for writing, on the
    /// real file system: its layout and format are checked and its end
    /// found by a replay first.
    pub fn open(path: impl Into<PathBuf>, durability: DurabilityLevel) -> Result<Self> {
        let path = path.into();
        let end = Self::replay_on(&*os_vfs(), &path, |_, _| Ok(()))?;
        Self::open_on(os_vfs(), path, end, durability)
    }

    /// Open (creating if needed) the log at `path`, whose replay ended at
    /// `end`, for writing, on an explicit [`Vfs`] backend. A torn tail is
    /// cut first, durably: new frames written over it could leave scraps
    /// of it behind them, to be read as mid-log corruption later. Zeroed
    /// room is kept, and written into.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
        end: LogEnd,
        durability: DurabilityLevel,
    ) -> Result<Self> {
        let path = path.into();
        let created = !vfs.exists(&path);
        let mut len = end.len;
        if end.torn {
            // The backend makes the shrink itself durable (`fsync`, not
            // `fdatasync`: it is a metadata change); the parent-dir sync
            // covers file systems where the length lives in the dirent.
            vfs.truncate(&path, end.frames)?;
            vfs.sync_dir(&path)?;
            len = end.frames;
        }
        let log = vfs.open_log(&path)?;
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
            log,
            durability,
            end: end.frames,
            len,
            records_written: 0,
            bytes_written: 0,
        };
        // New, or cut back to nothing by tail repair: start the file
        // with its format frame.
        if wal.end == 0 {
            let header = format_frame();
            wal.log.write_at(0, &header)?;
            wal.log.sync_data()?;
            wal.end = header.len() as u64;
            wal.len = wal.len.max(wal.end);
            wal.bytes_written = wal.end;
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

    /// Bytes of frames written since this handle was opened or the log
    /// last rewritten (room not counted). Both counters restart at open,
    /// so for a recovered log they measure *growth* since recovery —
    /// exactly what checkpoint budgets want.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Append one record, honouring the durability level.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        self.append_batch(&encode_frame(rec), 1)
    }

    /// Append a batch of pre-framed records (see [`encode_frame`]) with a
    /// single positioned write at the log's end, then, at
    /// [`DurabilityLevel::Fsync`], one `sync_data` for the whole batch.
    /// This is the group-commit fast path: one syscall (plus at most one
    /// fsync) covers every record in the batch.
    pub fn append_batch(&mut self, frames: &[u8], records: u64) -> Result<()> {
        self.write(frames)?;
        if self.durability == DurabilityLevel::Fsync {
            self.log.sync_data()?;
        }
        self.records_written += records;
        self.bytes_written += frames.len() as u64;
        Ok(())
    }

    /// Write `frames` at the log's end. At `Fsync`, into zeroed room,
    /// reserved first if what is left is too small.
    fn write(&mut self, frames: &[u8]) -> Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        let end = self.end + frames.len() as u64;
        if self.durability == DurabilityLevel::Fsync && end > self.len {
            let room = end + ROOM_STEP;
            self.log.reserve(self.len, room)?;
            self.len = room;
        }
        self.log.write_at(self.end, frames)?;
        self.end = end;
        self.len = self.len.max(end);
        Ok(())
    }

    /// Replace this log's contents with `image` (a
    /// [`CheckpointFrames::file`]), atomically.
    ///
    /// Writes a sibling temp file, fsyncs it, then renames over the live
    /// log — the checkpoint either fully lands or the old log survives.
    /// The new log is exactly the image; room is reserved again by the
    /// next batch that needs it. The old handle is dropped unsynced: its
    /// inode is unlinked, and nothing reads it again.
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
        self.log = self.vfs.open_log(&self.path)?;
        self.end = bytes;
        self.len = bytes;
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
    /// frame decoded. Returns where the frames end and what lies past
    /// them, which [`WalFile::open_on`] needs to write the log again. A
    /// missing file replays as empty.
    pub fn replay_on(
        vfs: &dyn Vfs,
        path: &Path,
        mut apply: impl FnMut(WalRecord, u64) -> Result<()>,
    ) -> Result<LogEnd> {
        check_layout(vfs, path)?;
        if !vfs.exists(path) {
            return Ok(LogEnd::default());
        }
        let data = vfs.read(path)?;
        check_format(&data)?;
        let mut iter = WalIter::new(&data);
        let mut valid = 0;
        while let Some(item) = iter.next() {
            valid = iter.offset;
            apply(item?, valid as u64)?;
        }
        Ok(LogEnd {
            frames: valid as u64,
            len: data.len() as u64,
            torn: nonzero_span(&data[valid..]).is_some(),
        })
    }
}

impl Drop for WalFile {
    /// A clean close gives the room back: the file is cut to the end of
    /// its last frame, durably, so a log at rest is exactly its frames.
    /// Errors are ignored: there is no caller left to surface them to,
    /// and room left behind is room the next open keeps.
    fn drop(&mut self) {
        if self.len > self.end {
            let _ = self
                .log
                .set_len(self.end)
                .and_then(|()| self.log.sync_all());
        }
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
/// Yields `Ok(record)` for each intact frame. A truncated frame ends
/// iteration silently (torn write), and so does a CRC-failing frame or a
/// zero header with nothing behind it but zeros and at most one tear. A
/// CRC failure or zero header *followed by more data*, or an intact frame
/// that does not decode, is real corruption and yields
/// [`StorageError::WalCorrupt`] at the offset the offending frame starts
/// at.
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
        // No frame is empty, so a zero length is no frame: a header of
        // zeros (room) or damage.
        if len == 0 || crc32(payload) != crc {
            self.offset = self.data.len();
            // A power cut tears at most one place, and at most TORN_MAX
            // bytes of it: across the end of the last complete frame
            // (garbling its checksum, with scraps of the next frame behind
            // it), inside a frame written into zeroed room, or at the end
            // of a zero write that was growing the room. If everything
            // behind this point that is not zero fits in one such tear,
            // the log ends here and nothing durable is discarded. More
            // than that is mid-log corruption and must surface as an
            // error.
            if at_most_one_tear(&self.data[frame_end..]) {
                return None;
            }
            return Some(Err(StorageError::WalCorrupt {
                offset: start as u64,
                reason: if len == 0 {
                    "zero-length frame mid-log"
                } else {
                    "CRC mismatch mid-log"
                }
                .into(),
            }));
        }
        self.offset = frame_end;
        Some(Ok((start, payload)))
    }
}

/// Whether the bytes of `rest` that are not zero, if any, lie within one
/// span of at most [`TORN_MAX`] bytes.
fn at_most_one_tear(rest: &[u8]) -> bool {
    nonzero_span(rest).is_none_or(|(first, last)| last - first < TORN_MAX)
}

/// The first and the last byte of `bytes` that are not zero. Room is
/// mostly zeros, so it is compared a page at a time.
fn nonzero_span(bytes: &[u8]) -> Option<(usize, usize)> {
    const PAGE: usize = 4096;
    let zero = |page: &[u8]| page == &ZEROS[..page.len()];
    let (i, page) = (bytes.chunks(PAGE).enumerate()).find(|(_, page)| !zero(page))?;
    let first = i * PAGE + page.iter().position(|&b| b != 0)?;
    let (i, page) = (bytes.rchunks(PAGE).enumerate()).find(|(_, page)| !zero(page))?;
    let start = bytes.len().saturating_sub((i + 1) * PAGE);
    Some((first, start + page.iter().rposition(|&b| b != 0)?))
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

    fn format() -> WalRecord {
        WalRecord::Format {
            version: FORMAT_VERSION,
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

    /// The format frame and two `Meta` frames: a log as a clean close
    /// leaves it.
    fn three_frames() -> Vec<u8> {
        [
            format_frame(),
            encode_frame(&meta(1)),
            encode_frame(&meta(2)),
        ]
        .concat()
    }

    fn replay_bytes(data: &[u8]) -> Result<(Vec<WalRecord>, LogEnd)> {
        let path = tmpdir().join(format!("bytes-{}.wal", data.len()));
        std::fs::write(&path, data).unwrap();
        let mut records = Vec::new();
        let end = WalFile::replay_on(&*os_vfs(), &path, |rec, _| {
            records.push(rec);
            Ok(())
        })?;
        Ok((records, end))
    }

    #[test]
    fn a_zero_header_followed_only_by_zeros_ends_the_log() {
        let frames = three_frames();
        let mut data = frames.clone();
        data.resize(frames.len() + 4096, 0);
        let (records, end) = replay_bytes(&data).unwrap();
        assert_eq!(records.len(), 3);
        let want = LogEnd {
            frames: frames.len() as u64,
            len: data.len() as u64,
            torn: false,
        };
        assert_eq!(end, want);
        // Room too short for a header ends the log the same way.
        data.truncate(frames.len() + 5);
        let (records, end) = replay_bytes(&data).unwrap();
        assert_eq!((records.len(), end.torn), (3, false));
    }

    #[test]
    fn a_bad_frame_followed_only_by_zeros_is_a_torn_tail() {
        let frames = three_frames();
        let last = frames.len() - encode_frame(&meta(2)).len();
        for flip in [last, last + 5, frames.len() - 1] {
            let mut data = frames.clone();
            data[flip] ^= 0x40;
            data.resize(frames.len() + 4096, 0);
            let (records, end) = replay_bytes(&data).unwrap();
            assert_eq!(records, vec![format(), meta(1)], "flip at {flip}");
            assert_eq!(
                (end.frames, end.torn),
                (last as u64, true),
                "flip at {flip}"
            );
        }
        // A frame cut short inside the room: the rest of it is zeros.
        for cut in 1..encode_frame(&meta(2)).len() {
            let mut data = frames[..last + cut].to_vec();
            data.resize(frames.len() + 4096, 0);
            let (records, end) = replay_bytes(&data).unwrap();
            assert_eq!(records.len(), 2, "cut at {cut}");
            assert_eq!((end.frames, end.torn), (last as u64, true), "cut at {cut}");
        }
    }

    #[test]
    fn a_torn_zero_write_behind_the_last_frame_is_a_torn_tail() {
        // Growing the room was cut off: zeros, then a garbled sector.
        let frames = three_frames();
        for zeros in [0, 3, 4, 7, 8, 100] {
            let mut data = frames.clone();
            data.resize(frames.len() + zeros, 0);
            data.extend_from_slice(&[0xFF; TORN_MAX]);
            let (records, end) = replay_bytes(&data).unwrap();
            assert_eq!(records.len(), 3, "{zeros} zeros");
            assert_eq!((end.frames, end.torn), (frames.len() as u64, true));
        }
    }

    #[test]
    fn nonzero_span_finds_the_ends_across_pages() {
        let naive = |b: &[u8]| {
            let first = b.iter().position(|&x| x != 0)?;
            Some((first, b.iter().rposition(|&x| x != 0)?))
        };
        for len in [0, 1, 4095, 4096, 4097, 3 * 4096 + 17] {
            let mut bytes = vec![0u8; len];
            assert_eq!(nonzero_span(&bytes), None, "len {len}");
            for at in [0, 1, 4095, 4096, len / 2, len.saturating_sub(1)] {
                for also in [at, len.saturating_sub(1), 0] {
                    if at >= len || also >= len {
                        continue;
                    }
                    bytes.fill(0);
                    bytes[at] = 1;
                    bytes[also] = 2;
                    assert_eq!(
                        nonzero_span(&bytes),
                        naive(&bytes),
                        "len {len} at {at}, {also}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_bad_frame_or_a_zero_header_followed_by_more_log_is_corrupt() {
        let frames = three_frames();
        let good = encode_frame(&meta(3));
        let bad_at = frames.len() - encode_frame(&meta(2)).len();
        let mut bad = frames.clone();
        bad[bad_at + 9] ^= 0x01;
        let zero_header = [&frames[..], &[0; 8], &good].concat();
        let cases = [
            ("bad frame, good frame", [&bad[..], &good].concat(), bad_at),
            (
                "bad frame, zeros, good frame",
                [&bad[..], &[0; 64], &good].concat(),
                bad_at,
            ),
            ("zero header, good frame", zero_header, frames.len()),
            (
                "zero header, zeros, good frame",
                [&frames[..], &[0; 64], &good].concat(),
                frames.len(),
            ),
        ];
        for (what, data, at) in cases {
            match replay_bytes(&data) {
                Err(StorageError::WalCorrupt { offset, .. }) => {
                    assert_eq!(offset, at as u64, "{what}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_log_replays_empty() {
        let path = tmpdir().join("empty.wal");
        let _ = std::fs::remove_file(&path);
        let _wal = WalFile::open(&path, DurabilityLevel::Buffered).unwrap();
        assert!(WalFile::replay(&path).unwrap().is_empty());
    }
}
