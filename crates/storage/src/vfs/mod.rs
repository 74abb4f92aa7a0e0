//! Virtual file system: the narrow waist between the storage engine and
//! the disk.
//!
//! Everything durability-relevant the engine does — writing WAL frames,
//! reserving zeroed room ahead of the log's end, fsyncing, cutting a torn
//! tail, the checkpoint's tmp-write/rename/dir-sync dance —
//! goes through the [`Vfs`] trait carried in [`crate::Options`]. Two
//! backends exist:
//!
//! * [`OsVfs`] (the default): thin forwarding to `std::fs`. A log handle
//!   ([`VfsLog`]) writes with `pwrite` at the offset the log names; every
//!   other file is written through a buffered writer.
//! * [`sim::SimVfs`]: a deterministic in-memory disk that distinguishes
//!   volatile (buffered) from durable (synced) bytes, models directory-
//!   entry durability separately from file-data durability, and injects
//!   faults from a seeded RNG — the substrate for the crash-simulation
//!   suite (`tests/sim_crash.rs`).
//!
//! The trait deliberately exposes *durability points*, not a POSIX
//! surface: `flush` pushes application buffers to the OS, `sync_data` /
//! `sync_all` push OS buffers to the platter, and `sync_dir` makes
//! renames/creations/truncations of directory entries themselves
//! durable. A simulated crash erases exactly what those calls have not
//! yet pinned down.
//!
//! A log handle can [`VfsLog::reserve`] room: zeros written and synced,
//! size included, before any frame lands in them. A frame written into
//! that room and `fdatasync`ed then flushes data blocks only: the file's
//! size, the one piece of metadata an append changes, is already on disk.

pub mod sim;

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::Result;

pub use sim::{SimVfs, Syncs};

/// A file written front to back, from [`Vfs::create`].
///
/// Reads happen through [`Vfs::read`] (the engine only ever reads whole
/// logs during replay); handles are write-side only.
pub trait VfsFile: Send + std::fmt::Debug {
    /// Append `buf` in full to the application-level buffer.
    fn write_all(&mut self, buf: &[u8]) -> Result<()>;

    /// Push application buffers down to the OS (survives process crash,
    /// not power loss).
    fn flush(&mut self) -> Result<()>;

    /// `fdatasync`: make the file's *data* durable. Callers flush first.
    fn sync_data(&mut self) -> Result<()>;

    /// `fsync`: data plus metadata (size). Required after `set_len`-like
    /// operations where the length change itself must persist.
    fn sync_all(&mut self) -> Result<()>;
}

/// A log file from [`Vfs::open_log`], written at offsets its caller names.
///
/// The OS never picks the offset: the log keeps its own end, so one handle
/// writes into zeroed room ahead of that end and past the file's length
/// alike. Writes go straight to the OS; there is no application buffer.
pub trait VfsLog: Send + std::fmt::Debug {
    /// Write `buf` in full at byte `pos`. A write past the file's length
    /// extends it.
    fn write_at(&mut self, pos: u64, buf: &[u8]) -> Result<()>;

    /// Cut or extend the file to `len` bytes. Durable after
    /// [`VfsLog::sync_all`].
    fn set_len(&mut self, len: u64) -> Result<()>;

    /// `fdatasync`: make the file's *data* durable.
    fn sync_data(&mut self) -> Result<()>;

    /// `fsync`: data plus metadata (size).
    fn sync_all(&mut self) -> Result<()>;

    /// Make `from..to` zeroed room: write it with zeros, one piece of at
    /// most [`ZERO_PIECE`] bytes at a time, then sync data and size. A
    /// frame later written inside the room and `sync_data`ed changes no
    /// metadata.
    fn reserve(&mut self, from: u64, to: u64) -> Result<()> {
        let mut at = from;
        while at < to {
            let n = (to - at).min(ZERO_PIECE as u64) as usize;
            self.write_at(at, &ZEROS[..n])?;
            at += n as u64;
        }
        self.sync_all()
    }
}

/// The most zeros [`VfsLog::reserve`] writes at once. One large zero write
/// leaves large page-cache folios behind it, and each small write later
/// made into one costs more than an append (EXPERIMENTS.md A38).
pub const ZERO_PIECE: usize = 64 << 10;

pub(crate) static ZEROS: [u8; ZERO_PIECE] = [0; ZERO_PIECE];

/// The file-system surface the storage engine runs against.
///
/// Implementations must be thread-safe: the WAL writes from flush
/// leaders, checkpoints, and the maintenance thread concurrently.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Open `path` as a log, creating it if missing: written at offsets,
    /// never truncated by the open.
    fn open_log(&self, path: &Path) -> Result<Box<dyn VfsLog>>;

    /// Create `path` (truncating any existing contents) for writing —
    /// the checkpoint tmp-file path.
    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>>;

    /// Read the entire file. Missing files are the caller's concern:
    /// check [`Vfs::exists`] first (replay treats absent as empty).
    fn read(&self, path: &Path) -> Result<Vec<u8>>;

    /// Whether a directory entry for `path` currently exists.
    fn exists(&self, path: &Path) -> bool;

    /// Atomically rename `from` over `to`. Durable only after
    /// [`Vfs::sync_dir`] on the parent.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;

    /// Remove the directory entry for `path`. A no-op if the file does
    /// not exist. Durable only after [`Vfs::sync_dir`] on the parent —
    /// a crash before that can resurrect the entry.
    fn remove(&self, path: &Path) -> Result<()>;

    /// Fsync the directory containing `path`, making renames, creations
    /// and removals of entries within it durable.
    fn sync_dir(&self, path: &Path) -> Result<()>;

    /// Read `len` bytes starting at `offset`. The default materializes
    /// the whole file; backends with random access override it. Reading
    /// past the end is an error (cold-run footers address exact spans,
    /// so a short read means corruption, not convention).
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = self.read(path)?;
        let start = offset as usize;
        let end = start.checked_add(len).filter(|&e| e <= data.len());
        match end {
            Some(end) => Ok(data[start..end].to_vec()),
            None => Err(crate::error::StorageError::Io(format!(
                "read_range past end of {}: offset {offset} len {len} size {}",
                path.display(),
                data.len()
            ))),
        }
    }

    /// Current size of the file in bytes.
    fn file_len(&self, path: &Path) -> Result<u64> {
        Ok(self.read(path)?.len() as u64)
    }
}

/// The default backend: `std::fs` (a buffered writer for created files,
/// `pwrite` for logs, `sync_data` for data-only flushes, `sync_all` +
/// parent-dir fsync for structural changes).
#[derive(Debug, Default, Clone, Copy)]
pub struct OsVfs;

/// The shared default instance (`Options::default()` clones this Arc
/// rather than allocating per database).
pub fn os_vfs() -> Arc<dyn Vfs> {
    static OS: std::sync::OnceLock<Arc<dyn Vfs>> = std::sync::OnceLock::new();
    OS.get_or_init(|| Arc::new(OsVfs)).clone()
}

#[derive(Debug)]
struct OsFile {
    writer: BufWriter<File>,
}

impl VfsFile for OsFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.writer.write_all(buf)?;
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    fn sync_data(&mut self) -> Result<()> {
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    fn sync_all(&mut self) -> Result<()> {
        self.writer.get_ref().sync_all()?;
        Ok(())
    }
}

#[derive(Debug)]
struct OsLog {
    file: File,
}

impl VfsLog for OsLog {
    fn write_at(&mut self, pos: u64, buf: &[u8]) -> Result<()> {
        self.file.write_all_at(buf, pos)?;
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn sync_data(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn sync_all(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

impl Vfs for OsVfs {
    fn open_log(&self, path: &Path) -> Result<Box<dyn VfsLog>> {
        // Not `append`: with O_APPEND, Linux's pwrite ignores its offset.
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(OsLog { file }))
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(OsFile {
            writer: BufWriter::new(file),
        }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        Ok(std::fs::read(path)?)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        if !path.exists() {
            return Ok(());
        }
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        File::open(parent)?.sync_all()?;
        Ok(())
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tendax-vfs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn os_vfs_roundtrip() {
        let vfs = OsVfs;
        let path = tmp("roundtrip.bin");
        let mut f = vfs.open_log(&path).unwrap();
        f.write_at(0, b"hello ").unwrap();
        f.write_at(6, b"world").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert!(vfs.exists(&path));
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        // Reopening keeps the contents, and writes land where they are
        // told to: inside the file, and past its end.
        let mut f = vfs.open_log(&path).unwrap();
        f.write_at(0, b"J").unwrap();
        f.write_at(11, b"!").unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"Jello world!");
    }

    #[test]
    fn os_vfs_reserves_zeroed_room_and_gives_it_back() {
        let vfs = OsVfs;
        let path = tmp("room.bin");
        let mut f = vfs.open_log(&path).unwrap();
        f.write_at(0, b"head").unwrap();
        let room = 4 + 2 * ZERO_PIECE as u64 + 3;
        f.reserve(4, room).unwrap();
        assert_eq!(vfs.file_len(&path).unwrap(), room);
        f.write_at(4, b"frame").unwrap();
        f.sync_data().unwrap();
        let data = vfs.read(&path).unwrap();
        assert_eq!(&data[..9], b"headframe");
        assert!(data[9..].iter().all(|&b| b == 0));
        f.set_len(9).unwrap();
        f.sync_all().unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"headframe");
    }

    #[test]
    fn os_vfs_rename_and_truncate() {
        let vfs = OsVfs;
        let a = tmp("rename-a.bin");
        let b = tmp("rename-b.bin");
        let mut f = vfs.create(&a).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.flush().unwrap();
        f.sync_all().unwrap();
        drop(f);
        vfs.rename(&a, &b).unwrap();
        vfs.sync_dir(&b).unwrap();
        assert!(!vfs.exists(&a));
        let mut log = vfs.open_log(&b).unwrap();
        log.set_len(4).unwrap();
        log.sync_all().unwrap();
        assert_eq!(vfs.read(&b).unwrap(), b"0123");
    }

    #[test]
    fn create_truncates_existing_contents() {
        let vfs = OsVfs;
        let path = tmp("create.bin");
        std::fs::write(&path, b"old").unwrap();
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"n").unwrap();
        f.flush().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"n");
    }
}
