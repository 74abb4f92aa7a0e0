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
use crate::util::crc32;
use crate::vfs::{os_vfs, Vfs, VfsFile};
use crate::wal::codec::{decode_record, put_record};
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
        match durability {
            DurabilityLevel::None => {}
            DurabilityLevel::Buffered => self.writer.flush()?,
            DurabilityLevel::Fsync => {
                self.writer.flush()?;
                self.writer.sync_data()?;
            }
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

    /// Replace this log's contents with the format frame and `records`,
    /// atomically.
    ///
    /// Writes a sibling temp file, fsyncs it, then renames over the live
    /// log — the checkpoint either fully lands or the old log survives.
    pub fn rewrite(&mut self, records: &[WalRecord]) -> Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        let mut buf = format_frame();
        for rec in records {
            put_frame(&mut buf, rec);
        }
        let bytes = buf.len() as u64;
        {
            let mut w = self.vfs.create(&tmp)?;
            w.write_all(&buf)?;
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
        self.records_written = records.len() as u64;
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

/// Append one record to `out` as a complete WAL frame
/// (`[u32 len][u32 crc32][payload]`): the payload is encoded straight
/// behind a reserved header, which is filled in afterwards.
pub(crate) fn put_frame(out: &mut Vec<u8>, rec: &WalRecord) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    put_record(out, rec);
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
        wal.rewrite(&[meta(100)]).unwrap();
        // Appends continue to work after rotation.
        wal.append(&meta(101)).unwrap();
        wal.sync().unwrap();
        let recs = WalFile::replay(&path).unwrap();
        assert_eq!(recs, vec![meta(100), meta(101)]);
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
