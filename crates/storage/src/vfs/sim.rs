//! `SimVfs`: a deterministic, fault-injecting in-memory disk.
//!
//! The simulator models the three distinct durability domains a real
//! crash distinguishes — domains a truncate-the-file test cannot:
//!
//! 1. **File data.** Every inode carries two images: `data` (what a
//!    live process reads back — application writes land here) and
//!    `synced` (what survives power loss — advanced only by
//!    `sync_data`/`sync_all`), and the changes made since the last sync,
//!    in order: writes at their offsets (appends, and writes inside the
//!    synced length, such as a log's frames landing in its zeroed room)
//!    and length changes. A crash keeps `synced` plus an RNG-chosen
//!    prefix of those changes, in write order (the OS may have written
//!    back any amount of the page cache on its own), with the final
//!    kept bytes optionally torn (garbled partial sector).
//! 2. **Directory entries.** Each directory keeps a `live` and a
//!    `durable` name→inode map. Creations and renames update `live`;
//!    only [`Vfs::sync_dir`] copies `live` into `durable`. A crash
//!    reverts to `durable` — so a renamed checkpoint file can survive
//!    while its rename does not (old log resurrected), or the data of
//!    a freshly created file can be synced while its directory entry is
//!    lost entirely.
//! 3. **Faults.** A seeded RNG drives injected failures: a power cut
//!    after an armed op budget (the cut op may be a *short write* that
//!    persists a random prefix of the buffer), and fsyncs that return
//!    an error while *dropping* the unsynced changes — the lying-fsync
//!    (fsyncgate) semantics that make retry-after-EIO unsound and
//!    justify the WAL's sticky poisoning.
//!
//! Determinism: all RNG draws happen under the simulator's single lock
//! in op order, so a given seed plus a given op schedule reproduces the
//! same crash image. Every injected error message carries the seed.
//!
//! Torn sectors are bounded to the final [`TORN_SECTOR_MAX`] bytes that
//! the kept writes put down. The engine's frame format (8-byte header +
//! ≥1 payload byte) guarantees any frame spans more than that, so a torn
//! region always lies inside the *final* surviving frame, or in the
//! zeroed room behind it: replay sees it as the torn tail it is, never
//! as mid-log corruption — which is exactly the guarantee a
//! single-sector-at-a-time disk gives a same-sector tear.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::error::{Result, StorageError};
use crate::vfs::{Vfs, VfsFile, VfsLog};

/// Upper bound on torn-tail garbling, in bytes: the tear the log's replay
/// tolerates. It stays below the minimum WAL frame size (9 bytes: two
/// `u32` header words plus at least one payload byte) so a tear never
/// bleeds past the final surviving frame — see the module docs.
const TORN_SECTOR_MAX: usize = crate::wal::TORN_MAX;

/// One simulated inode.
#[derive(Debug, Default)]
struct Inode {
    /// The live image: what reads observe and writes change. Always
    /// `synced` with every change in `unsynced` applied.
    data: Vec<u8>,
    /// The durable image: what a crash reverts to (modulo the surviving
    /// prefix of `unsynced` chosen at crash time).
    synced: Vec<u8>,
    /// The changes since the last sync, in the order they were made.
    unsynced: Vec<Change>,
}

/// One change to a file's image.
#[derive(Debug)]
enum Change {
    /// Bytes written at an offset (an append writes at the length).
    Write { pos: usize, bytes: Vec<u8> },
    /// The length set: a truncating create, or `set_len`.
    Len(usize),
}

impl Change {
    fn apply(&self, image: &mut Vec<u8>) {
        match self {
            Change::Write { pos, bytes } => write_into(image, *pos, bytes),
            Change::Len(len) => image.resize(*len, 0),
        }
    }
}

/// Put `bytes` at `pos`, extending `image` if it is shorter.
fn write_into(image: &mut Vec<u8>, pos: usize, bytes: &[u8]) {
    if image.len() < pos {
        image.resize(pos, 0);
    }
    let inside = bytes.len().min(image.len() - pos);
    image[pos..pos + inside].copy_from_slice(&bytes[..inside]);
    image.extend_from_slice(&bytes[inside..]);
}

impl Inode {
    /// Make `change` to the live image; it is volatile until a sync.
    fn change(&mut self, change: Change) {
        if matches!(&change, Change::Write { bytes, .. } if bytes.is_empty()) {
            return;
        }
        change.apply(&mut self.data);
        self.unsynced.push(change);
    }

    /// Everything changed so far is durable.
    fn sync(&mut self) {
        for change in self.unsynced.drain(..) {
            change.apply(&mut self.synced);
        }
    }

    /// A failed sync: the unsynced changes are gone.
    fn drop_unsynced(&mut self) {
        self.unsynced.clear();
        self.data.clone_from(&self.synced);
    }

    /// Power loss: the durable image plus an RNG-chosen prefix of the
    /// unsynced changes, in the order they were made — counted in bytes
    /// written, a length change counting one — with up to
    /// [`TORN_SECTOR_MAX`] of the last bytes kept garbled.
    fn crash(&mut self, rng: &mut SmallRng) {
        if self.unsynced.is_empty() {
            return;
        }
        let weight = |c: &Change| match c {
            Change::Write { bytes, .. } => bytes.len(),
            Change::Len(_) => 1,
        };
        let total: usize = self.unsynced.iter().map(weight).sum();
        let mut budget = rng.gen_range(0..=total);
        let mut image = std::mem::take(&mut self.synced);
        // The byte ranges the kept writes put down, in order.
        let mut landed: Vec<(usize, usize)> = Vec::new();
        for change in self.unsynced.drain(..) {
            if budget == 0 {
                break;
            }
            match change {
                Change::Write { pos, bytes } => {
                    let keep = budget.min(bytes.len());
                    write_into(&mut image, pos, &bytes[..keep]);
                    landed.push((pos, pos + keep));
                    budget -= keep;
                }
                Change::Len(len) => {
                    image.resize(len, 0);
                    budget -= 1;
                }
            }
        }
        let kept: usize = landed.iter().map(|(from, to)| to - from).sum();
        if kept > 0 && rng.gen_bool(0.5) {
            // Torn final sector: garble up to TORN_SECTOR_MAX of the
            // last bytes the kept writes put down.
            let mut garble = rng.gen_range(1..=TORN_SECTOR_MAX.min(kept));
            for &(from, to) in landed.iter().rev() {
                let n = garble.min(to - from);
                // A later length change may have cut the range short.
                let end = image.len();
                image[(to - n).min(end)..to.min(end)].fill(0xFF);
                garble -= n;
                if garble == 0 {
                    break;
                }
            }
        }
        // Whatever survived the crash is on the platter now.
        self.data.clone_from(&image);
        self.synced = image;
    }
}

/// One simulated directory: volatile and durable entry maps.
#[derive(Debug, Default)]
struct Dir {
    live: BTreeMap<String, u64>,
    durable: BTreeMap<String, u64>,
}

#[derive(Debug, Default)]
struct Faults {
    /// Op index at which the power fails. The op with this exact index
    /// is the *partial* one (short write); everything after it errors
    /// outright until [`SimVfs::crash`] or [`SimVfs::restore_power`].
    power_fail_at: Option<u64>,
    /// The next this-many file syncs fail — returning an error *and*
    /// dropping the unsynced bytes (lying fsync).
    failing_syncs: u32,
}

#[derive(Debug)]
struct SimState {
    inodes: BTreeMap<u64, Inode>,
    dirs: BTreeMap<PathBuf, Dir>,
    next_ino: u64,
    rng: SmallRng,
    /// Mutating ops charged so far (writes, length changes, syncs,
    /// creates, renames, removes, dir syncs). The unit of crash-point
    /// injection.
    ops: u64,
    /// File syncs asked for so far, by kind.
    syncs: Syncs,
    faults: Faults,
    powered_off: bool,
    /// Crashes survived so far (diagnostics).
    crashes: u64,
}

/// File syncs counted by [`SimVfs::syncs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Syncs {
    /// `sync_data` calls: the data, and the size only if it changed.
    pub data: u64,
    /// `sync_all` calls: the data and all metadata.
    pub all: u64,
}

/// A deterministic fault-injecting in-memory file system. Cloning
/// shares the same disk: tests keep one handle to crash and inspect
/// while the database owns another through `Options::vfs`.
#[derive(Debug, Clone)]
pub struct SimVfs {
    seed: u64,
    state: Arc<Mutex<SimState>>,
}

impl SimVfs {
    /// A fresh empty disk whose fault RNG is seeded with `seed`.
    pub fn new(seed: u64) -> SimVfs {
        SimVfs {
            seed,
            state: Arc::new(Mutex::new(SimState {
                inodes: BTreeMap::new(),
                dirs: BTreeMap::new(),
                next_ino: 1,
                rng: SmallRng::seed_from_u64(seed),
                ops: 0,
                syncs: Syncs::default(),
                faults: Faults::default(),
                powered_off: false,
                crashes: 0,
            })),
        }
    }

    /// The seed this disk's fault RNG was built from — print it in
    /// every failure message so the schedule reproduces.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mutating ops charged so far. Run a workload once fault-free,
    /// read this, then sweep `power_fail_after` over `0..ops()`.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// File syncs asked for so far, `sync_data` apart from `sync_all`
    /// (failed ones too). Both cost an op of [`SimVfs::ops`] each; only a
    /// `sync_all` would also commit a change of the file's size.
    pub fn syncs(&self) -> Syncs {
        self.state.lock().syncs
    }

    /// Arm a power cut `ops` mutating operations from now. The op that
    /// trips the budget becomes a short write (an RNG-chosen prefix of
    /// its buffer persists to the volatile image); every later op fails
    /// until [`SimVfs::crash`] or [`SimVfs::restore_power`].
    pub fn power_fail_after(&self, ops: u64) {
        let mut st = self.state.lock();
        st.faults.power_fail_at = Some(st.ops + ops);
    }

    /// Make the next `n` file syncs fail. A failing sync returns an
    /// error *and* discards the file's unsynced bytes — after EIO the
    /// page cache must be assumed gone, so retrying the fsync cannot
    /// make the data durable (the reasoning behind WAL poisoning).
    pub fn fail_next_syncs(&self, n: u32) {
        self.state.lock().faults.failing_syncs = n;
    }

    /// Whether an armed power cut has tripped.
    pub fn powered_off(&self) -> bool {
        self.state.lock().powered_off
    }

    /// Disarm faults and restore power without losing volatile state
    /// (the "it was just a blip" schedule — everything unsynced is
    /// still in the page cache).
    pub fn restore_power(&self) {
        let mut st = self.state.lock();
        st.faults = Faults::default();
        st.powered_off = false;
    }

    /// Crash the machine: every file reverts to its durable image plus
    /// an RNG-chosen (possibly torn) prefix of its unsynced writes, every
    /// directory reverts to its durable entry map, faults disarm, and
    /// power returns. Call with no live `Database` on this disk — open
    /// handles keep writing to pre-crash inodes otherwise.
    pub fn crash(&self) {
        let mut st = self.state.lock();
        let st = &mut *st;
        for inode in st.inodes.values_mut() {
            inode.crash(&mut st.rng);
        }
        for dir in st.dirs.values_mut() {
            dir.live = dir.durable.clone();
        }
        st.faults = Faults::default();
        st.powered_off = false;
        st.crashes += 1;
    }

    /// Crashes survived so far.
    pub fn crashes(&self) -> u64 {
        self.state.lock().crashes
    }

    fn power_err(&self) -> StorageError {
        StorageError::Io(format!(
            "simulated power failure (reproduce with TENDAX_SIM_SEED={})",
            self.seed
        ))
    }

    fn sync_err(&self) -> StorageError {
        StorageError::Io(format!(
            "simulated fsync failure, unsynced data dropped (reproduce with TENDAX_SIM_SEED={})",
            self.seed
        ))
    }
}

/// What [`charge`] decided about the op about to run.
enum OpFate {
    Run,
    /// This op trips the power budget: a write persists a partial
    /// prefix, everything else just fails.
    Tripped,
    /// Power is already out.
    Dead,
}

/// Charge one mutating op against the power budget.
fn charge(st: &mut SimState) -> OpFate {
    if st.powered_off {
        return OpFate::Dead;
    }
    let op = st.ops;
    st.ops += 1;
    match st.faults.power_fail_at {
        Some(at) if op >= at => {
            st.powered_off = true;
            OpFate::Tripped
        }
        _ => OpFate::Run,
    }
}

/// `(parent dir, file name)` of a sim path.
fn split(path: &Path) -> (PathBuf, String) {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    (parent, name)
}

/// A handle to a simulated inode. Holds the inode id, not the path:
/// like a POSIX fd it survives renames of the entry it was opened
/// through and keeps writing to the same inode.
#[derive(Debug)]
pub struct SimFile {
    vfs: SimVfs,
    ino: u64,
}

impl SimFile {
    /// Write `buf` at `pos`, or at the end of the file. The op that trips
    /// the power budget is a short write: a prefix of the buffer made it
    /// into the page cache before the lights went out.
    fn write(&mut self, pos: Option<u64>, buf: &[u8]) -> Result<()> {
        let mut st = self.vfs.state.lock();
        let st = &mut *st;
        let keep = match charge(st) {
            OpFate::Run => buf.len(),
            OpFate::Tripped => st.rng.gen_range(0..=buf.len()),
            OpFate::Dead => return Err(self.vfs.power_err()),
        };
        let ino = st.inodes.get_mut(&self.ino).expect("inode exists");
        let pos = pos.map_or(ino.data.len(), |p| p as usize);
        ino.change(Change::Write {
            pos,
            bytes: buf[..keep].to_vec(),
        });
        if st.powered_off {
            return Err(self.vfs.power_err());
        }
        Ok(())
    }

    /// Sync the file: all of it if `all`, else its data (the two are one
    /// in the sim's model, counted apart).
    fn sync(&mut self, all: bool) -> Result<()> {
        let mut st = self.vfs.state.lock();
        if all {
            st.syncs.all += 1;
        } else {
            st.syncs.data += 1;
        }
        match charge(&mut st) {
            OpFate::Run => {
                let failing = st.faults.failing_syncs > 0;
                let ino = st.inodes.get_mut(&self.ino).expect("inode exists");
                if failing {
                    // Lying fsync: report failure AND drop the dirty
                    // pages — the data is unrecoverable, not retryable.
                    ino.drop_unsynced();
                    st.faults.failing_syncs -= 1;
                    return Err(self.vfs.sync_err());
                }
                ino.sync();
                Ok(())
            }
            OpFate::Tripped | OpFate::Dead => Err(self.vfs.power_err()),
        }
    }
}

impl VfsFile for SimFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.write(None, buf)
    }

    fn flush(&mut self) -> Result<()> {
        // Application buffering is modelled inside `data` already (the
        // sim draws no distinction between app and OS buffers: both are
        // volatile), so flush is free — and charged to no budget.
        Ok(())
    }

    fn sync_data(&mut self) -> Result<()> {
        self.sync(false)
    }

    fn sync_all(&mut self) -> Result<()> {
        self.sync(true)
    }
}

impl VfsLog for SimFile {
    fn write_at(&mut self, pos: u64, buf: &[u8]) -> Result<()> {
        self.write(Some(pos), buf)
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        let mut st = self.vfs.state.lock();
        match charge(&mut st) {
            OpFate::Run => {
                let ino = st.inodes.get_mut(&self.ino).expect("inode exists");
                ino.change(Change::Len(len as usize));
                Ok(())
            }
            OpFate::Tripped | OpFate::Dead => Err(self.vfs.power_err()),
        }
    }

    fn sync_data(&mut self) -> Result<()> {
        self.sync(false)
    }

    fn sync_all(&mut self) -> Result<()> {
        self.sync(true)
    }
}

impl Vfs for SimVfs {
    fn open_log(&self, path: &Path) -> Result<Box<dyn VfsLog>> {
        let (dir, name) = split(path);
        let mut st = self.state.lock();
        if let Some(&ino) = st.dirs.get(&dir).and_then(|d| d.live.get(&name)) {
            // Opening an existing file moves no bytes: not charged.
            return Ok(Box::new(SimFile {
                vfs: self.clone(),
                ino,
            }));
        }
        // Creation writes a directory entry: charged, and volatile
        // until the parent is dir-synced.
        match charge(&mut st) {
            OpFate::Run => {}
            OpFate::Tripped | OpFate::Dead => return Err(self.power_err()),
        }
        let ino = st.next_ino;
        st.next_ino += 1;
        st.inodes.insert(ino, Inode::default());
        st.dirs.entry(dir).or_default().live.insert(name, ino);
        Ok(Box::new(SimFile {
            vfs: self.clone(),
            ino,
        }))
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let (dir, name) = split(path);
        let mut st = self.state.lock();
        match charge(&mut st) {
            OpFate::Run => {}
            OpFate::Tripped | OpFate::Dead => return Err(self.power_err()),
        }
        let existing = st.dirs.get(&dir).and_then(|d| d.live.get(&name)).copied();
        let ino = match existing {
            Some(ino) => {
                // O_TRUNC: the live image empties; the durable image is
                // untouched until a sync (a crash can resurrect it).
                let inode = st.inodes.get_mut(&ino).expect("inode exists");
                inode.change(Change::Len(0));
                ino
            }
            None => {
                let ino = st.next_ino;
                st.next_ino += 1;
                st.inodes.insert(ino, Inode::default());
                st.dirs.entry(dir).or_default().live.insert(name, ino);
                ino
            }
        };
        Ok(Box::new(SimFile {
            vfs: self.clone(),
            ino,
        }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let (dir, name) = split(path);
        let st = self.state.lock();
        let ino = st
            .dirs
            .get(&dir)
            .and_then(|d| d.live.get(&name))
            .copied()
            .ok_or_else(|| StorageError::Io(format!("sim: no such file {}", path.display())))?;
        Ok(st.inodes.get(&ino).expect("inode exists").data.clone())
    }

    fn exists(&self, path: &Path) -> bool {
        let (dir, name) = split(path);
        let st = self.state.lock();
        st.dirs
            .get(&dir)
            .map(|d| d.live.contains_key(&name))
            .unwrap_or(false)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let (fdir, fname) = split(from);
        let (tdir, tname) = split(to);
        let mut st = self.state.lock();
        match charge(&mut st) {
            OpFate::Run => {}
            OpFate::Tripped | OpFate::Dead => return Err(self.power_err()),
        }
        let ino = st
            .dirs
            .get_mut(&fdir)
            .and_then(|d| d.live.remove(&fname))
            .ok_or_else(|| StorageError::Io(format!("sim: no such file {}", from.display())))?;
        st.dirs.entry(tdir).or_default().live.insert(tname, ino);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let (dir, name) = split(path);
        let mut st = self.state.lock();
        if st.dirs.get(&dir).and_then(|d| d.live.get(&name)).is_none() {
            return Ok(());
        }
        // Unlinking writes a directory entry: charged, and volatile
        // until the parent is dir-synced (a crash can resurrect the
        // entry, pointing at whatever image the inode kept).
        match charge(&mut st) {
            OpFate::Run => {}
            OpFate::Tripped | OpFate::Dead => return Err(self.power_err()),
        }
        st.dirs
            .get_mut(&dir)
            .expect("checked above")
            .live
            .remove(&name);
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        let (dir, _) = split(path);
        let mut st = self.state.lock();
        match charge(&mut st) {
            OpFate::Run => {}
            OpFate::Tripped | OpFate::Dead => return Err(self.power_err()),
        }
        if let Some(d) = st.dirs.get_mut(&dir) {
            d.durable = d.live.clone();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_synced(vfs: &SimVfs, path: &Path, bytes: &[u8]) {
        let mut f = append(vfs, path, bytes);
        f.sync_data().unwrap();
        drop(f);
        vfs.sync_dir(path).unwrap();
    }

    /// Write `bytes` at the end of `path` through a log handle, unsynced.
    fn append(vfs: &SimVfs, path: &Path, bytes: &[u8]) -> Box<dyn VfsLog> {
        let len = vfs.read(path).map_or(0, |d| d.len() as u64);
        let mut f = vfs.open_log(path).unwrap();
        f.write_at(len, bytes).unwrap();
        f
    }

    #[test]
    fn unsynced_bytes_can_vanish_on_crash_synced_bytes_cannot() {
        let vfs = SimVfs::new(7);
        let path = Path::new("/sim/a.wal");
        write_synced(&vfs, path, b"durable|");
        drop(append(&vfs, path, b"volatile"));
        assert_eq!(vfs.read(path).unwrap(), b"durable|volatile");
        vfs.crash();
        let after = vfs.read(path).unwrap();
        assert!(
            after.starts_with(b"durable|"),
            "synced prefix lost: {after:?}"
        );
        assert!(after.len() <= b"durable|volatile".len());
    }

    #[test]
    fn crash_images_are_deterministic_per_seed() {
        let run = |seed| {
            let vfs = SimVfs::new(seed);
            let path = Path::new("/sim/a.wal");
            write_synced(&vfs, path, b"base");
            drop(append(&vfs, path, b"0123456789abcdef"));
            vfs.crash();
            vfs.read(path).unwrap()
        };
        assert_eq!(run(42), run(42));
        // Different seeds draw different crash schedules at least
        // somewhere in a small scan (not for every pair, necessarily).
        assert!((0..16).any(|s| run(s) != run(s + 100)));
    }

    #[test]
    fn unsynced_creation_vanishes_on_crash() {
        let vfs = SimVfs::new(1);
        let path = Path::new("/sim/fresh.wal");
        let mut f = append(&vfs, path, b"data");
        f.sync_data().unwrap(); // data durable, entry not
        drop(f);
        assert!(vfs.exists(path));
        vfs.crash();
        assert!(
            !vfs.exists(path),
            "directory entry survived without a dir sync"
        );
    }

    #[test]
    fn unsynced_rename_reverts_on_crash() {
        let vfs = SimVfs::new(2);
        let old = Path::new("/sim/log.wal");
        let tmp = Path::new("/sim/log.wal.tmp");
        write_synced(&vfs, old, b"old-log");
        write_synced(&vfs, tmp, b"new-log");
        vfs.rename(tmp, old).unwrap();
        assert_eq!(vfs.read(old).unwrap(), b"new-log");
        vfs.crash(); // rename was never dir-synced
        assert_eq!(vfs.read(old).unwrap(), b"old-log", "rename survived crash");
        assert_eq!(vfs.read(tmp).unwrap(), b"new-log", "tmp entry lost");
    }

    #[test]
    fn synced_rename_survives_crash() {
        let vfs = SimVfs::new(3);
        let old = Path::new("/sim/log.wal");
        let tmp = Path::new("/sim/log.wal.tmp");
        write_synced(&vfs, old, b"old-log");
        write_synced(&vfs, tmp, b"new-log");
        vfs.rename(tmp, old).unwrap();
        vfs.sync_dir(old).unwrap();
        vfs.crash();
        assert_eq!(vfs.read(old).unwrap(), b"new-log");
        assert!(!vfs.exists(tmp));
    }

    #[test]
    fn power_failure_trips_after_budget_and_crash_restores() {
        let vfs = SimVfs::new(4);
        let path = Path::new("/sim/a.wal");
        write_synced(&vfs, path, b"ok");
        vfs.power_fail_after(0);
        let mut f = vfs.open_log(path).unwrap();
        let err = f.write_at(2, b"doomed").unwrap_err();
        assert!(err.to_string().contains("TENDAX_SIM_SEED=4"), "{err}");
        assert!(vfs.powered_off());
        assert!(f.sync_data().is_err(), "ops after the cut must fail");
        drop(f);
        vfs.crash();
        assert!(!vfs.powered_off());
        let after = vfs.read(path).unwrap();
        assert!(after.starts_with(b"ok"));
        assert!(
            after.len() <= b"okdoomed".len(),
            "short write overran: {after:?}"
        );
        // Power is back: writes work again.
        drop(append(&vfs, path, b"!"));
    }

    #[test]
    fn failing_sync_drops_unsynced_bytes() {
        let vfs = SimVfs::new(5);
        let path = Path::new("/sim/a.wal");
        write_synced(&vfs, path, b"safe|");
        vfs.fail_next_syncs(1);
        let mut f = append(&vfs, path, b"gone");
        let err = f.sync_data().unwrap_err();
        assert!(err.to_string().contains("fsync failure"), "{err}");
        // The dirty pages were discarded, not left for a retry.
        assert_eq!(vfs.read(path).unwrap(), b"safe|");
        // The next sync works again.
        f.write_at(5, b"kept").unwrap();
        f.sync_data().unwrap();
        assert_eq!(vfs.read(path).unwrap(), b"safe|kept");
    }

    #[test]
    fn torn_tail_is_bounded_and_only_in_unsynced_region() {
        for seed in 0..64 {
            let vfs = SimVfs::new(seed);
            let path = Path::new("/sim/a.wal");
            write_synced(&vfs, path, &[0xAA; 32]);
            drop(append(&vfs, path, &[0xBB; 64]));
            vfs.crash();
            let after = vfs.read(path).unwrap();
            assert!(after.len() >= 32 && after.len() <= 96, "seed {seed}");
            assert_eq!(
                &after[..32],
                &[0xAA; 32],
                "seed {seed}: durable region torn"
            );
            // Any garbling is confined to the final TORN_SECTOR_MAX
            // bytes of the kept image.
            let tail_start = after.len().saturating_sub(TORN_SECTOR_MAX).max(32);
            for (i, b) in after[32..tail_start].iter().enumerate() {
                assert_eq!(
                    *b, 0xBB,
                    "seed {seed}: byte {i} garbled before final sector"
                );
            }
        }
    }

    /// Writes inside the synced length — a log's frames landing in room
    /// zeroed and synced ahead of them — survive a crash as a prefix in
    /// the order they were made, whatever their offsets, torn in at most
    /// the last TORN_SECTOR_MAX bytes that landed.
    #[test]
    fn writes_inside_the_synced_length_survive_as_a_prefix_in_write_order() {
        // Three writes into 64 zeroed bytes, not in offset order.
        let writes: [(usize, u8); 3] = [(32, 0xA1), (0, 0xA2), (16, 0xA3)];
        // The image a crash keeping `budget` bytes of them leaves, and
        // where those bytes lie, in write order.
        let keep = |budget: usize| {
            let mut image = vec![0u8; 64];
            let mut landed = Vec::new();
            for (i, &(pos, byte)) in writes.iter().enumerate() {
                let n = budget.saturating_sub(16 * i).min(16);
                image[pos..pos + n].fill(byte);
                landed.extend(pos..pos + n);
            }
            (image, landed)
        };
        let (mut partial, mut whole) = (0, 0);
        for seed in 0..64 {
            let vfs = SimVfs::new(seed);
            let path = Path::new("/sim/room.wal");
            write_synced(&vfs, path, &[0; 64]);
            let mut f = vfs.open_log(path).unwrap();
            for &(pos, byte) in &writes {
                f.write_at(pos as u64, &[byte; 16]).unwrap();
            }
            drop(f);
            vfs.crash();
            let after = vfs.read(path).unwrap();
            assert_eq!(after.len(), 64, "seed {seed}: the synced length moved");
            let budget = (0..=48).find(|&budget| {
                let (image, landed) = keep(budget);
                let torn = &landed[landed.len().saturating_sub(TORN_SECTOR_MAX)..];
                (0..64).all(|i| after[i] == image[i] || (after[i] == 0xFF && torn.contains(&i)))
            });
            match budget {
                Some(0) => {}
                Some(48) => whole += 1,
                Some(_) => partial += 1,
                None => panic!("seed {seed}: no write-order prefix gives {after:?}"),
            }
        }
        assert!(partial > 0 && whole > 0, "{partial} partial, {whole} whole");
    }

    #[test]
    fn unsynced_remove_resurrects_on_crash_synced_remove_sticks() {
        let vfs = SimVfs::new(8);
        let path = Path::new("/sim/doomed.wal");
        write_synced(&vfs, path, b"bytes");
        vfs.remove(path).unwrap();
        assert!(!vfs.exists(path));
        vfs.crash(); // removal was never dir-synced
        assert!(vfs.exists(path), "unsynced unlink survived the crash");
        vfs.remove(path).unwrap();
        vfs.sync_dir(path).unwrap();
        vfs.crash();
        assert!(!vfs.exists(path));
        // Removing a missing path is a no-op, not an error.
        vfs.remove(Path::new("/sim/missing.wal")).unwrap();
    }

    #[test]
    fn a_synced_cut_is_durable() {
        let vfs = SimVfs::new(6);
        let path = Path::new("/sim/a.wal");
        write_synced(&vfs, path, b"0123456789");
        let mut log = vfs.open_log(path).unwrap();
        log.set_len(4).unwrap();
        log.sync_all().unwrap();
        drop(log);
        vfs.crash();
        assert_eq!(vfs.read(path).unwrap(), b"0123");
    }
}
