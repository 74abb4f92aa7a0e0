//! The physical log: framing, the base and its segments, replay.
//!
//! Frame layout per record: `[u32 payload_len][u32 crc32(payload)][payload]`
//! (little-endian), with at least one payload byte. The first frame of
//! every log file is a [`WalRecord::Format`] naming the format of the
//! rest; a non-empty file that starts with anything else was written by
//! another version and is refused before anything in it is decoded,
//! truncated or repaired.
//!
//! The log is a *base* at the database's path — a checkpoint's image,
//! whose second frame, [`WalRecord::Base`], names the segment after it —
//! and numbered *segments* (`<path>.seg<n>`, [`segment_path`]) of the
//! frames written since, replayed in order. Only the last, the *live*
//! segment, is written. A log no checkpoint has rotated is one file at
//! the path with no `Base` frame: segment 0.
//!
//! The live segment ends at the first frame that is cut short, fails its
//! CRC, or has a header of eight zero bytes (no frame is empty, so a zero
//! header is never one). Behind that point lie zeroed room, the torn tail
//! of a crashed write, or corruption: only zeros and at most one torn
//! sector's worth of other bytes in one place, with no intact frame, are
//! read as room or a torn tail; anything else is
//! [`StorageError::WalCorrupt`]. Opening the log for writing cuts a torn
//! tail and keeps zeros as room. The base and a sealed segment (one the
//! log switched away from) were synced whole before anything followed
//! them: any byte past their last frame is `WalCorrupt`.
//!
//! Each batch of frames is written at the live segment's end with one
//! positioned write. At [`DurabilityLevel::Fsync`] the segment keeps
//! zeroed room ahead of that end, written, synced and sized
//! [`ROOM_STEP`] at a time before any frame lands in it, so the
//! `fdatasync` behind each batch flushes data blocks and no size change.
//! Sealing and a clean close give the room back: a file at rest is
//! exactly its frames. At `Buffered` batches extend the file as they
//! land.
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
use crate::vfs::{os_vfs, Vfs, VfsFile, VfsLog, ZEROS};
use crate::wal::codec::{
    begin_snapshot_rows, decode_frame, decode_record, end_snapshot_rows, put_record,
    snapshot_rows_len, Frame, RowDeltas, SNAPSHOT_BATCH_BYTES,
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

/// The first frame of every log file.
const FORMAT: WalRecord = WalRecord::Format {
    version: FORMAT_VERSION,
};

/// Where a replayed log ends: which segment is live, where its frames
/// end and what lies past them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogEnd {
    /// The live segment: the last that holds a frame past its format
    /// frame, or else the first after the base.
    pub segment: u64,
    /// The segment the base names; 0 when there is no base.
    pub first: u64,
    /// The offset the live segment's last intact frame ends at.
    pub frames: u64,
    /// The live segment's length.
    pub len: u64,
    /// Some byte past `frames` is not zero: the tail of a crashed write,
    /// which [`WalFile::open_on`] cuts. Zeros there are room, and kept.
    pub torn: bool,
}

/// The file of segment `n` of the log at `path`. Segment 0, a log no
/// checkpoint has rotated, is the path itself.
pub fn segment_path(path: &Path, n: u64) -> PathBuf {
    match n {
        0 => path.to_path_buf(),
        n => sibling(path, &format!(".seg{n}")),
    }
}

/// `path` with `suffix` appended: a file beside it.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// One segment file of the log, written at its end.
#[derive(Debug)]
pub struct WalFile {
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
    /// Open (creating if needed) the segment file at `path`, whose replay
    /// ended at `end`, for writing, on an explicit [`Vfs`] backend. A
    /// torn tail is cut first, durably: new frames written over it could
    /// leave scraps of it behind them, to be read as mid-log corruption
    /// later. Zeroed room is kept, and written into. A new file gets its
    /// format frame, synced, and its directory entry synced.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
        end: LogEnd,
        durability: DurabilityLevel,
    ) -> Result<Self> {
        let path = path.into();
        let created = !vfs.exists(&path);
        let mut log = vfs.open_log(&path)?;
        let mut len = end.len;
        if end.torn {
            // `sync_all`, not `sync_data`: the cut is a pure metadata
            // (size) change, which fdatasync may skip. A lost cut lets
            // the torn tail resurface under fresh frames, to be replayed
            // as mid-log corruption.
            log.set_len(end.frames)?;
            log.sync_all()?;
            len = end.frames;
        }
        if created {
            // A freshly created file's directory entry is not durable
            // until the directory itself is fsynced: without this, a
            // crash could erase the whole segment even after `Fsync`-level
            // commits were acknowledged (the data blocks persist but
            // nothing references them).
            vfs.sync_dir(&path)?;
        }
        let mut wal = WalFile {
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
            let header = encode_frame(&FORMAT);
            wal.log.write_at(0, &header)?;
            wal.log.sync_data()?;
            wal.end = header.len() as u64;
            wal.len = wal.len.max(wal.end);
            wal.bytes_written = wal.end;
        }
        Ok(wal)
    }

    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Bytes of frames written since this handle was opened (room not
    /// counted; a new segment's format frame counted). Both counters
    /// restart at open, and a checkpoint's switch opens a new segment, so
    /// they measure *growth* since recovery or the last checkpoint —
    /// exactly what checkpoint budgets want.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
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

    /// Seal this segment: cut it to its last frame and sync data and
    /// size, at either level, before anything is written to the next.
    pub(crate) fn seal(&mut self) -> Result<()> {
        if self.len > self.end {
            self.log.set_len(self.end)?;
            self.len = self.end;
        }
        self.log.sync_all()
    }

    /// Every intact record of the log at `path` but its format and `Base`
    /// frames, on the real file system (tests and tools; recovery
    /// streams).
    pub fn replay(path: &Path) -> Result<Vec<WalRecord>> {
        let mut records = Vec::new();
        Self::replay_on(&*os_vfs(), path, |rec| {
            if !matches!(rec, WalRecord::Format { .. } | WalRecord::Base { .. }) {
                records.push(rec);
            }
            Ok(())
        })?;
        Ok(records)
    }

    /// Read the log at `path` — its base, then each segment in order —
    /// and hand `apply` every intact record (format and `Base` frames
    /// included), one at a time, so recovery never holds more than one
    /// frame decoded. Returns where the live segment's frames end and
    /// what lies past them, which [`WalFile::open_on`] needs to write it
    /// again. A missing log replays as empty.
    pub fn replay_on(
        vfs: &dyn Vfs,
        path: &Path,
        mut apply: impl FnMut(WalRecord) -> Result<()>,
    ) -> Result<LogEnd> {
        Self::replay_frames_on(vfs, path, |frame| apply(frame.into_record()?))
    }

    /// [`WalFile::replay_on`], with each checkpoint batch handed over
    /// opened, not decoded: `apply` reads its versions one at a time
    /// ([`super::codec::BatchRows::next`]) and checks its end
    /// ([`super::codec::BatchRows::finish`]).
    pub(crate) fn replay_frames_on(
        vfs: &dyn Vfs,
        path: &Path,
        mut apply: impl FnMut(Frame<'_>) -> Result<()>,
    ) -> Result<LogEnd> {
        check_layout(vfs, path)?;
        // Each segment read, with its end and the frames it holds.
        let mut segments = Vec::new();
        let (mut first, mut n) = (0, 0);
        while vfs.exists(&segment_path(path, n)) {
            let (end, frames, base) = replay_file(vfs, &segment_path(path, n), &mut apply)?;
            match base.filter(|_| n == 0) {
                Some(base) => {
                    sealed(path, &end)?;
                    (first, n) = (base, base);
                }
                None => {
                    segments.push((n, end, frames));
                    n += 1;
                }
            }
        }
        // The live segment is the last that holds a frame: every segment
        // before it was sealed, and the ones after it are empty.
        let live = (segments.iter())
            .rposition(|&(_, _, frames)| frames > 1)
            .unwrap_or(0);
        for (n, end, _) in &segments[..live] {
            sealed(&segment_path(path, *n), end)?;
        }
        let (segment, end) = segments
            .get(live)
            .map_or((first, LogEnd::default()), |s| (s.0, s.1));
        Ok(LogEnd {
            segment,
            first,
            ..end
        })
    }
}

/// Replay one file of the log: where its frames end, how many it holds,
/// and the segment its `Base` frame names, if it is a base.
fn replay_file(
    vfs: &dyn Vfs,
    path: &Path,
    apply: &mut impl FnMut(Frame<'_>) -> Result<()>,
) -> Result<(LogEnd, u64, Option<u64>)> {
    let data = vfs.read(path)?;
    check_format(&data)?;
    let (mut frames, mut count, mut base) = (0, 0, None);
    let mut iter = WalIter::new(&data);
    while let Some(item) = iter.next_decoded() {
        frames = iter.offset;
        let (start, frame) = item?;
        if let (1, Frame::Record(WalRecord::Base { segment })) = (count, &frame) {
            base = Some(*segment);
        }
        count += 1;
        // A batch is decoded as it is applied: what is corrupt in it is
        // found there, and reported at the frame.
        apply(frame).map_err(|e| at_frame(e, start))?;
    }
    let end = LogEnd {
        frames: frames as u64,
        len: data.len() as u64,
        torn: nonzero_span(&data[frames..]).is_some(),
        ..LogEnd::default()
    };
    Ok((end, count, base))
}

/// The base and a sealed segment were synced whole: a byte past their
/// last frame is corruption.
fn sealed(path: &Path, end: &LogEnd) -> Result<()> {
    (end.frames == end.len)
        .then_some(())
        .ok_or_else(|| StorageError::WalCorrupt {
            offset: end.frames,
            reason: format!("bytes past the last frame of {}", path.display()),
        })
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

/// The files of a durable log beside its live segment, and the
/// checkpoint's steps that add and remove them.
#[derive(Debug)]
pub(crate) struct LogFiles {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    durability: DurabilityLevel,
    /// The live segment.
    pub(crate) live: u64,
}

impl LogFiles {
    /// The log at `path`, whose replay ended at `end`, with what a crash
    /// left beside it removed — the base's temp file, the segments the
    /// base covers, and those past the live one, which hold no frame —
    /// and its live segment opened for writing.
    pub(crate) fn open(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        end: LogEnd,
        durability: DurabilityLevel,
    ) -> Result<(LogFiles, WalFile)> {
        let files = LogFiles {
            live: end.segment,
            vfs,
            path: path.to_path_buf(),
            durability,
        };
        let orphans = (end.segment + 1..).map(|n| segment_path(path, n));
        let orphans = orphans.take_while(|seg| files.vfs.exists(seg));
        files.remove(orphans.chain([sibling(path, ".tmp")]), end.first)?;
        let live = segment_path(path, end.segment);
        let live = WalFile::open_on(files.vfs.clone(), live, end, durability)?;
        Ok((files, live))
    }

    /// Remove `paths` and the segments below `first`, which a base
    /// covers (removed oldest first, so what a crash leaves of them runs
    /// up to `first`). No directory sync: a file a crash brings back is
    /// removed again by the next open. Segment 0 is the base's own path.
    fn remove(&self, paths: impl IntoIterator<Item = PathBuf>, first: u64) -> Result<()> {
        let covered = (1..first).rev().map(|n| segment_path(&self.path, n));
        let covered: Vec<_> = covered.take_while(|seg| self.vfs.exists(seg)).collect();
        for path in paths.into_iter().chain(covered.into_iter().rev()) {
            self.vfs.remove(&path)?;
        }
        Ok(())
    }

    /// Create the segment after the live one, synced, for the log to
    /// switch to: from here on it counts as the live one.
    pub(crate) fn create_next(&mut self) -> Result<WalFile> {
        let next = segment_path(&self.path, self.live + 1);
        let next = WalFile::open_on(self.vfs.clone(), next, LogEnd::default(), self.durability)?;
        self.live += 1;
        Ok(next)
    }

    /// Publish a base that covers every segment before the live one:
    /// `write` writes it to the temp file, which is synced and renamed
    /// over the base, the directory synced, and only then are the
    /// segments it covers removed. A failure before the rename leaves
    /// the old base in force and the segments in place.
    pub(crate) fn publish_base(
        &self,
        write: impl FnOnce(&mut dyn VfsFile) -> Result<()>,
    ) -> Result<()> {
        let tmp = sibling(&self.path, ".tmp");
        let mut out = self.vfs.create(&tmp)?;
        write(&mut *out)?;
        out.flush()?;
        out.sync_data()?;
        drop(out);
        self.vfs.rename(&tmp, &self.path)?;
        // The rename is only durable once the directory entry itself is
        // on disk: without this fsync a crash can resurrect the old base
        // (or worse, leave a dangling entry) even though the data file
        // was synced.
        self.vfs.sync_dir(&self.path)?;
        self.remove([], self.live)
    }
}

/// A checkpoint's base as frames, encoded in one pass straight from the
/// tables: whole records, and rows that go into
/// [`WalRecord::SnapshotRows`] frames cut at
/// [`SNAPSHOT_BATCH_BYTES`](crate::wal::codec::SNAPSHOT_BATCH_BYTES) of
/// ops as RAM holds them, or of the frame's own bytes. A row is coded
/// once, against the row above it in its batch ([`RowDeltas`]), into the
/// buffer its frame is written from; nothing per row is kept beside it.
/// Every frame is a buffer of its own, kept until
/// [`CheckpointFrames::drain_to`] writes it out: a batch's is allocated
/// at the size it is cut at and shrunk to what it holds when it closes.
/// The same frames can be *weighed* instead — coded and sized, not kept —
/// which is what `TableStats::checkpoint_bytes` reports.
#[derive(Debug, Default)]
pub(crate) struct CheckpointFrames {
    frames: Vec<Vec<u8>>,
    /// Bytes of the closed frames, kept or weighed.
    bytes: u64,
    /// Weighing: frames are sized, and not kept.
    weighing: bool,
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
    /// Frames that are sized, not kept — [`CheckpointFrames::len`] — with
    /// the bytes each column's values take counted too
    /// ([`CheckpointFrames::column_bytes`]).
    pub(crate) fn weigh() -> Self {
        CheckpointFrames {
            weighing: true,
            deltas: RowDeltas::tallied(),
            ..Default::default()
        }
    }

    /// Per column position, the bytes its values took in the rows so far
    /// (empty unless [`CheckpointFrames::weigh`]).
    pub(crate) fn column_bytes(&self) -> &[u64] {
        self.deltas.tally()
    }

    /// A base file: its format frame and a `Base` frame naming
    /// `segment`, the first segment after it, then the frames it is given.
    pub(crate) fn base(segment: u64) -> Self {
        let mut base = CheckpointFrames::default();
        base.record(&FORMAT);
        base.record(&WalRecord::Base { segment });
        base
    }

    /// Append `rec` as a frame of its own.
    pub(crate) fn record(&mut self, rec: &WalRecord) {
        self.close_batch();
        let frame = encode_frame(rec);
        self.bytes += frame.len() as u64;
        if !self.weighing {
            self.frames.push(frame);
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
        self.bytes += (8 + snapshot_rows_len(b.table, b.count, b.rows)) as u64;
        if !self.weighing {
            end_snapshot_rows(&mut b.out, b.rows_at, b.count);
            end_frame(&mut b.out, 0);
            b.out.shrink_to_fit();
            self.frames.push(b.out);
        }
    }

    /// Write the closed frames to `out` and let go of them.
    pub(crate) fn drain_to(&mut self, out: &mut dyn VfsFile) -> Result<()> {
        for frame in self.frames.drain(..) {
            out.write_all(&frame)?;
        }
        Ok(())
    }

    /// Bytes of the frames so far, the open `SnapshotRows` frame not
    /// counted.
    pub(crate) fn len(&self) -> u64 {
        self.bytes
    }
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

/// One record as a frame of its own (`[u32 len][u32 crc32][payload]`).
pub(crate) fn encode_frame(rec: &WalRecord) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    put_frame(&mut frame, |b| put_record(b, rec));
    frame
}

/// Append a frame to `out` whose payload `payload` encodes: straight
/// behind a reserved header, which is filled in afterwards. If `payload`
/// unwinds, `out` is cut back to where the frame started: no frame with
/// a zero header is left for a flush to write, and replay to stop at.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    /// Cuts the buffer back to `start` when dropped.
    struct Unfinished<'a> {
        out: &'a mut Vec<u8>,
        start: usize,
    }
    impl Drop for Unfinished<'_> {
        fn drop(&mut self) {
            self.out.truncate(self.start);
        }
    }

    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    let frame = Unfinished { out, start };
    payload(frame.out);
    end_frame(frame.out, start);
    std::mem::forget(frame);
}

/// What the sharded log (removed; DESIGN.md §5.12) appended to the base
/// path to name its second file. Every sharded layout had one.
const SHARD_SIBLING_SUFFIX: &str = ".shard1";

/// The log must not be sharded. With a shard sibling beside it the log
/// holds only part of the commit stream, so replaying it alone would
/// silently drop acknowledged commits.
fn check_layout(vfs: &dyn Vfs, path: &Path) -> Result<()> {
    let sibling = sibling(path, SHARD_SIBLING_SUFFIX);
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
/// Yields `Ok(record)` for each intact frame that decodes. A frame cut
/// short by the end of the data, a CRC-failing frame, a zero header or a
/// frame that does not decode (a tear can leave a checksum that holds)
/// ends iteration silently (torn write, or room) when nothing intact lies
/// behind its header, and — unless cut short — nothing behind it but
/// zeros and at most one tear. An intact frame behind a bad one (its
/// length damaged to run past the end or into its neighbour, say), or
/// other data behind a bad frame or zero header, is real corruption and
/// yields [`StorageError::WalCorrupt`] at the offset the offending frame
/// starts at.
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
        let short = rest.len() - 8 < len;
        // No frame is empty, so a zero length is no frame: a header of
        // zeros (room) or damage.
        let payload = &rest[8..8 + len.min(rest.len() - 8)];
        if !short && len != 0 && crc32(payload) == crc {
            self.offset = start + 8 + len;
            return Some(Ok((start, payload)));
        }
        self.offset = self.data.len();
        // A power cut tears at most one place, and at most TORN_MAX bytes
        // of it: across the end of the last complete frame (garbling its
        // checksum, with scraps of the next frame behind it), inside a
        // frame written into zeroed room or cut short at the end of the
        // file, or at the end of a zero write that was growing the room.
        // So no intact frame lies behind a torn one's header, and if the
        // frame fits, everything behind it that is not zero fits in one
        // such tear: then the log ends here and nothing durable is
        // discarded. Anything else is mid-log corruption and must surface
        // as an error.
        if tears_the_end(rest, len, short) {
            return None;
        }
        Some(Err(StorageError::WalCorrupt {
            offset: start as u64,
            reason: if short {
                "frame length runs past the end, with an intact frame behind it"
            } else if len == 0 {
                "zero-length frame mid-log"
            } else {
                "CRC mismatch mid-log"
            }
            .into(),
        }))
    }
}

/// Whether the frame at the start of `rest`, its header naming `len`
/// bytes of payload (`short`: more than `rest` holds), can be where a
/// power cut tore the log: no intact frame lies behind its header, and
/// unless it is cut short, behind it is only zeros and at most one tear.
fn tears_the_end(rest: &[u8], len: usize, short: bool) -> bool {
    !intact_frame_in(&rest[8..]) && (short || at_most_one_tear(&rest[8 + len..]))
}

/// Whether an intact frame — a non-zero length that fits, and a payload
/// its CRC matches — starts anywhere in `bytes`.
fn intact_frame_in(bytes: &[u8]) -> bool {
    (0..bytes.len().saturating_sub(8)).any(|at| {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        len != 0 && len <= bytes.len() - at - 8 && crc32(&bytes[at + 8..at + 8 + len]) == crc
    })
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

impl<'a> WalIter<'a> {
    /// The next intact frame, where it starts and what it holds, a
    /// checkpoint batch only opened ([`decode_frame`]).
    fn next_decoded(&mut self) -> Option<Result<(usize, Frame<'a>)>> {
        let (start, payload) = match self.next_frame()? {
            Ok(frame) => frame,
            Err(e) => return Some(Err(e)),
        };
        match decode_frame(payload) {
            // A tear can leave a checksum that holds: 0xFF over a frame's
            // CRC and its first four payload bytes, in zeroed room, is a
            // frame whose CRC-32 matches (that of `FF FF FF FF` and zeros
            // is `FFFF_FFFF`), and whose tag 0xFF decodes as nothing. So
            // a frame whose head does not decode ends the log like a torn
            // one where a torn one would. A commit's writes and a batch's
            // versions are decoded as they are applied, past that check:
            // a frame whose CRC holds and whose head decodes was written
            // whole (a tear that kept it would have to match a CRC-32 by
            // chance), so a write or version in it that does not decode is
            // corruption, and the writes before it may already be applied.
            // A batch is never torn anyway: a checkpoint writes batches
            // only into a base, synced whole before it is published.
            Err(_) if tears_the_end(&self.data[start..], payload.len(), false) => {
                self.offset = self.data.len();
                None
            }
            res => Some(
                res.map(|frame| (start, frame))
                    .map_err(|e| at_frame(e, start)),
            ),
        }
    }
}

/// `e`, if it is corruption, placed at the frame that starts at `start`.
fn at_frame(e: StorageError, start: usize) -> StorageError {
    match e {
        StorageError::WalCorrupt { reason, .. } => StorageError::WalCorrupt {
            offset: start as u64,
            reason,
        },
        other => other,
    }
}

impl Iterator for WalIter<'_> {
    type Item = Result<WalRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        let (start, frame) = match self.next_decoded()? {
            Ok(frame) => frame,
            Err(e) => return Some(Err(e)),
        };
        Some(frame.into_record().map_err(|e| at_frame(e, start)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;
    use crate::table::Ts;

    #[test]
    fn a_frame_whose_encoder_unwinds_leaves_the_buffer_as_it_was() {
        let mut buf = Vec::new();
        put_frame(&mut buf, |b| b.extend_from_slice(b"kept"));
        let before = buf.clone();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            put_frame(&mut buf, |b| {
                b.extend_from_slice(b"half a payload");
                panic!("the encoder failed");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(buf, before);
        put_frame(&mut buf, |b| b.extend_from_slice(b"next"));
        let mut frames = WalIter::new(&buf);
        assert_eq!(frames.next_frame().unwrap().unwrap().1, b"kept");
        assert_eq!(frames.next_frame().unwrap().unwrap().1, b"next");
        assert!(frames.next_frame().is_none());
    }

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

    fn append(wal: &mut WalFile, rec: &WalRecord) -> Result<()> {
        wal.append_batch(&encode_frame(rec), 1)
    }

    /// The log at `path`, replayed and opened for writing.
    fn open(path: &Path, durability: DurabilityLevel) -> WalFile {
        let end = WalFile::replay_on(&*os_vfs(), path, |_| Ok(())).unwrap();
        WalFile::open_on(os_vfs(), segment_path(path, end.segment), end, durability).unwrap()
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
        let mut wal = open(&path, DurabilityLevel::Buffered);
        append(&mut wal, &meta(1)).unwrap();
        append(&mut wal, &WalRecord::DropTable { id: TableId(4) }).unwrap();
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
        let mut wal = open(&path, DurabilityLevel::Buffered);
        append(&mut wal, &meta(1)).unwrap();
        append(&mut wal, &meta(2)).unwrap();
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
        let mut wal = open(&path, DurabilityLevel::Buffered);
        append(&mut wal, &meta(1)).unwrap();
        append(&mut wal, &meta(2)).unwrap();
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
        let mut wal = open(&path, DurabilityLevel::Buffered);
        append(&mut wal, &meta(1)).unwrap();
        append(&mut wal, &meta(2)).unwrap();
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
    fn checkpoint_rows_are_cut_at_the_byte_budget_and_weigh_what_they_write() {
        use crate::row::SharedRow;
        use crate::value::ValueRef;
        use crate::wal::codec::SNAPSHOT_BATCH_BYTES;
        let big = SharedRow::pack([ValueRef::Bytes(&[7; SNAPSHOT_BATCH_BYTES / 4])].into_iter());
        let small = SharedRow::pack([ValueRef::Int(-1)].into_iter());
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
        let mut image = CheckpointFrames::base(1);
        fill(&mut image);
        let file = image.frames.concat();
        assert_eq!(image.len(), file.len() as u64);
        let head =
            encode_frame(&FORMAT).len() + encode_frame(&WalRecord::Base { segment: 1 }).len();
        assert_eq!(image.len(), head as u64 + weighed.len());
        let batches: Vec<(u32, usize)> = (WalIter::new(&file).skip(3))
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
        let mut wal = open(&path, DurabilityLevel::Fsync);
        append(&mut wal, &meta(7)).unwrap();
        // No explicit sync: fsync level already flushed.
        let recs = WalFile::replay(&path).unwrap();
        assert_eq!(recs, vec![meta(7)]);
    }

    /// The format frame and two `Meta` frames: a log as a clean close
    /// leaves it.
    fn three_frames() -> Vec<u8> {
        [
            encode_frame(&FORMAT),
            encode_frame(&meta(1)),
            encode_frame(&meta(2)),
        ]
        .concat()
    }

    fn replay_bytes(data: &[u8]) -> Result<(Vec<WalRecord>, LogEnd)> {
        let path = tmpdir().join(format!("bytes-{}.wal", data.len()));
        std::fs::write(&path, data).unwrap();
        let mut records = Vec::new();
        let end = WalFile::replay_on(&*os_vfs(), &path, |rec| {
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
            ..LogEnd::default()
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

    /// A frame torn inside the room with 0xFF over its CRC and its first
    /// four payload bytes checks out (CRC-32 of `FF FF FF FF` and zeros
    /// is `FFFF_FFFF`) and decodes as nothing: a torn tail, unless more
    /// log lies behind it.
    #[test]
    fn a_torn_frame_whose_checksum_holds_is_a_torn_tail() {
        let frames = three_frames();
        let mut torn = 16u32.to_le_bytes().to_vec();
        torn.extend_from_slice(&[0xFF; TORN_MAX]);
        torn.resize(8 + 16, 0);
        assert_eq!(crc32(&torn[8..]), 0xFFFF_FFFF);
        let data = [&frames[..], &torn, &[0; 4096]].concat();
        let (records, end) = replay_bytes(&data).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!((end.frames, end.torn), (frames.len() as u64, true));
        let data = [&frames[..], &torn, &encode_frame(&meta(3))].concat();
        match replay_bytes(&data) {
            Err(StorageError::WalCorrupt { offset, reason }) => {
                assert_eq!(offset, frames.len() as u64, "{reason}");
                assert!(reason.contains("unknown record tag"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    /// A commit frame whose CRC holds and whose head (tag, timestamp,
    /// count) decodes was written whole, so writes in it that do not
    /// decode are corrupt, even at the live tail with only zeros behind
    /// it: its writes are applied as they are decoded, and the ones
    /// before a bad one may already be.
    #[test]
    fn a_commit_whose_writes_do_not_decode_is_corrupt_at_the_tail() {
        let frames = three_frames();
        // Commit (tag 4) at ts 5 of two writes: table 0, row 0, then an
        // op header that runs past the frame.
        let payload = [4, 5, 2, 0, 0, 0xFF, 0xFF];
        assert!(decode_frame(&payload).is_ok(), "the head decodes");
        let mut commit = (payload.len() as u32).to_le_bytes().to_vec();
        commit.extend_from_slice(&crc32(&payload).to_le_bytes());
        commit.extend_from_slice(&payload);
        let data = [&frames[..], &commit, &[0; 4096]].concat();
        match replay_bytes(&data) {
            Err(StorageError::WalCorrupt { offset, .. }) => {
                assert_eq!(offset, frames.len() as u64)
            }
            other => panic!("{other:?}"),
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
        let _wal = open(&path, DurabilityLevel::Buffered);
        assert!(WalFile::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn a_base_replays_with_the_segments_it_names_and_only_the_live_one_may_be_torn() {
        let path = tmpdir().join("segments.wal");
        let file = |records: &[WalRecord]| -> Vec<u8> {
            let mut bytes = encode_frame(&FORMAT);
            records.iter().for_each(|r| bytes.extend(encode_frame(r)));
            bytes
        };
        let base = file(&[WalRecord::Base { segment: 2 }, meta(1)]);
        let sealed = file(&[meta(2)]);
        let live = [file(&[meta(3)]), vec![0xFF; 5]].concat();
        let write = |base: &[u8], sealed: &[u8]| {
            std::fs::write(&path, base).unwrap();
            // Covered by the base: never read.
            std::fs::write(segment_path(&path, 1), file(&[meta(99)])).unwrap();
            std::fs::write(segment_path(&path, 2), sealed).unwrap();
            std::fs::write(segment_path(&path, 3), &live).unwrap();
            // Made by a checkpoint that never switched to it.
            std::fs::write(segment_path(&path, 4), file(&[])).unwrap();
        };
        write(&base, &sealed);
        let mut records = Vec::new();
        let end = WalFile::replay_on(&*os_vfs(), &path, |rec| {
            records.push(rec);
            Ok(())
        })
        .unwrap();
        let format = || FORMAT.clone();
        let want = [
            vec![format(), WalRecord::Base { segment: 2 }, meta(1)],
            vec![format(), meta(2), format(), meta(3), format()],
        ];
        assert_eq!(records, want.concat());
        let frames = (live.len() - 5) as u64;
        let len = live.len() as u64;
        assert_eq!(
            end,
            LogEnd {
                segment: 3,
                first: 2,
                frames,
                len,
                torn: true,
            }
        );
        // The base and a sealed segment end exactly at a frame.
        for (base, sealed) in [
            (&[&base[..], &[0]].concat(), &sealed),
            (&base, &[&sealed[..], &[0]].concat()),
        ] {
            write(base, sealed);
            let err = WalFile::replay_on(&*os_vfs(), &path, |_| Ok(()));
            assert!(
                matches!(err, Err(StorageError::WalCorrupt { .. })),
                "{err:?}"
            );
        }
        // A length damaged to run past the end, an intact frame behind it.
        let mut damaged = file(&[meta(3), meta(4)]);
        damaged[10 + 1] = 0x40;
        let err = WalIter::new(&damaged).collect::<Result<Vec<_>>>();
        assert!(
            matches!(err, Err(StorageError::WalCorrupt { offset: 10, .. })),
            "{err:?}"
        );
    }
}
