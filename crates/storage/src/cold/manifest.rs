//! The cold tier's root pointer: which runs are live, and the two
//! floors that govern them.
//!
//! The manifest is tiny and rewritten whole on every change via the
//! same tmp-write → `sync_all` → rename → `sync_dir` dance a checkpoint
//! publishes the log's base with, so a power cut leaves either the old or the
//! new manifest — never a torn one. Run files it does not (yet)
//! reference are orphans; [`super::ColdStore::open`] deletes them on
//! startup, which is what makes "write run durable, then swap manifest"
//! crash-safe without any journal.

use std::path::Path;
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::table::Ts;
use crate::util::crc32;
use crate::vfs::Vfs;

const MANIFEST_MAGIC: u64 = 0x544E_4458_4D4E_4653; // "TNDXMNFS"
const MANIFEST_VERSION: u32 = 1;

/// Durable description of one live run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunEntry {
    pub seq: u64,
    pub entries: u64,
    pub min_ts: Ts,
    pub max_ts: Ts,
}

/// The decoded manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Next run sequence number to allocate. Never reused, so orphan
    /// detection can sweep `0..next_seq`.
    pub next_seq: u64,
    /// Every version with `commit_ts <= cold_floor` that RAM no longer
    /// holds is in a cold run; reads at or below it may need the cold
    /// path.
    pub cold_floor: Ts,
    /// Lineage retention: compaction may drop versions only where a
    /// newer version also at or below this floor supersedes them.
    /// `begin_at` below this floor is refused.
    pub retention_floor: Ts,
    pub runs: Vec<RunEntry>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64 + self.runs.len() * 32);
        b.extend_from_slice(&self.next_seq.to_le_bytes());
        b.extend_from_slice(&self.cold_floor.to_le_bytes());
        b.extend_from_slice(&self.retention_floor.to_le_bytes());
        b.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        for r in &self.runs {
            b.extend_from_slice(&r.seq.to_le_bytes());
            b.extend_from_slice(&r.entries.to_le_bytes());
            b.extend_from_slice(&r.min_ts.to_le_bytes());
            b.extend_from_slice(&r.max_ts.to_le_bytes());
        }
        b.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        b.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        let crc = crc32(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        b
    }

    fn decode(data: &[u8]) -> Result<Manifest> {
        let bad = |what: &str| StorageError::Internal(format!("cold manifest: {what}"));
        if data.len() < 28 + 12 + 4 {
            return Err(bad("too short"));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != crc {
            return Err(bad("checksum mismatch"));
        }
        let magic = u64::from_le_bytes(body[body.len() - 8..].try_into().unwrap());
        if magic != MANIFEST_MAGIC {
            return Err(bad("bad magic"));
        }
        let version = u32::from_le_bytes(body[body.len() - 12..body.len() - 8].try_into().unwrap());
        if version != MANIFEST_VERSION {
            return Err(bad("unsupported version"));
        }
        let next_seq = u64::from_le_bytes(body[0..8].try_into().unwrap());
        let cold_floor = u64::from_le_bytes(body[8..16].try_into().unwrap());
        let retention_floor = u64::from_le_bytes(body[16..24].try_into().unwrap());
        let n = u32::from_le_bytes(body[24..28].try_into().unwrap()) as usize;
        if body.len() != 28 + n * 32 + 12 {
            return Err(bad("run table length mismatch"));
        }
        let mut runs = Vec::with_capacity(n);
        for i in 0..n {
            let o = 28 + i * 32;
            runs.push(RunEntry {
                seq: u64::from_le_bytes(body[o..o + 8].try_into().unwrap()),
                entries: u64::from_le_bytes(body[o + 8..o + 16].try_into().unwrap()),
                min_ts: u64::from_le_bytes(body[o + 16..o + 24].try_into().unwrap()),
                max_ts: u64::from_le_bytes(body[o + 24..o + 32].try_into().unwrap()),
            });
        }
        Ok(Manifest {
            next_seq,
            cold_floor,
            retention_floor,
            runs,
        })
    }

    /// Load from `path`; a missing file is an empty manifest (the cold
    /// tier starts with no runs).
    pub(crate) fn load(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Manifest> {
        if !vfs.exists(path) {
            return Ok(Manifest::default());
        }
        Manifest::decode(&vfs.read(path)?)
    }

    /// Atomically replace the manifest at `path`: tmp → durable →
    /// rename → dir sync. On return the new manifest is what any
    /// reopen will see.
    pub(crate) fn store(&self, vfs: &Arc<dyn Vfs>, path: &Path, tmp: &Path) -> Result<()> {
        let mut f = vfs.create(tmp)?;
        f.write_all(&self.encode())?;
        f.flush()?;
        f.sync_all()?;
        drop(f);
        vfs.rename(tmp, path)?;
        vfs.sync_dir(path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::SimVfs;
    use std::path::PathBuf;

    #[test]
    fn roundtrip_and_missing_is_empty() {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(7));
        let path = PathBuf::from("cold.manifest");
        let tmp = PathBuf::from("cold.manifest.tmp");
        assert_eq!(Manifest::load(&vfs, &path).unwrap(), Manifest::default());

        let m = Manifest {
            next_seq: 3,
            cold_floor: 42,
            retention_floor: 10,
            runs: vec![
                RunEntry {
                    seq: 0,
                    entries: 100,
                    min_ts: 1,
                    max_ts: 20,
                },
                RunEntry {
                    seq: 2,
                    entries: 55,
                    min_ts: 21,
                    max_ts: 42,
                },
            ],
        };
        m.store(&vfs, &path, &tmp).unwrap();
        assert!(!vfs.exists(&tmp));
        assert_eq!(Manifest::load(&vfs, &path).unwrap(), m);
    }

    #[test]
    fn corruption_is_detected() {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(7));
        let path = PathBuf::from("cold.manifest");
        let tmp = PathBuf::from("cold.manifest.tmp");
        Manifest {
            next_seq: 1,
            cold_floor: 5,
            retention_floor: 0,
            runs: vec![],
        }
        .store(&vfs, &path, &tmp)
        .unwrap();
        let mut data = vfs.read(&path).unwrap();
        data[0] ^= 0x01;
        let mut f = vfs.create(&path).unwrap();
        f.write_all(&data).unwrap();
        f.flush().unwrap();
        assert!(Manifest::load(&vfs, &path).is_err());
    }
}
