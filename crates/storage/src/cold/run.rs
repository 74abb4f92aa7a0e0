//! Immutable sorted runs: the on-disk unit of the cold tier.
//!
//! A run is a single file of versions sorted by a fixed 20-byte key —
//! `table (u32 BE) | row (u64 BE) | commit_ts (u64 BE)` — laid out as:
//!
//! ```text
//! [data block]* [index block] [bloom block] [footer]
//! ```
//!
//! Data blocks hold prefix-compressed entries
//! (`[shared u16][unshared u16][vlen u32][key suffix][value]`, value =
//! the WAL op codec, so a cold version round-trips through exactly the
//! bytes a WAL replay would have produced). The index block records
//! `(offset, len, crc, first_key, last_key)` per data block; the bloom
//! block covers the distinct `(table, row)` 12-byte prefixes. The
//! fixed-size footer at EOF locates index and bloom with their CRCs,
//! carries one of its own, and ends in the format version and the
//! magic, so a reader can validate everything it touches and refuses a
//! run written in another version before reading anything else of it.
//!
//! Runs are written once (create → write → flush → sync_all; the caller
//! renames nothing — run files are born under their final name and made
//! durable before the manifest references them) and never modified.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::row::RowId;
use crate::schema::TableId;
use crate::table::Ts;
use crate::util::crc32;
use crate::vfs::Vfs;
use crate::wal::codec::{get_op, put_op};
use crate::wal::WalOp;

use super::bloom::Bloom;

pub(crate) const KEY_LEN: usize = 20;
pub(crate) const PREFIX_LEN: usize = 12;

/// `index (off u64, len u32, crc u32) | bloom (off u64, len u32, crc u32)
/// | entries u64 | min_ts u64 | max_ts u64 | crc32 of all that | version
/// u32 | magic u64`, little-endian.
const FOOTER_LEN: usize = 72;
/// The part of the footer its own CRC covers.
const FOOTER_BODY: usize = 56;
const RUN_MAGIC: u64 = 0x544E_4458_434F_4C44; // "TNDXCOLD"
/// Version 2: values in the v2 op codec, a CRC over the footer. Log
/// format v3 changed only checkpoint batches, so runs stay at 2.
const RUN_VERSION: u32 = 2;

/// Full sort key for one version.
pub(crate) fn encode_key(table: TableId, row: RowId, ts: Ts) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..4].copy_from_slice(&table.0.to_be_bytes());
    k[4..12].copy_from_slice(&row.0.to_be_bytes());
    k[12..].copy_from_slice(&ts.to_be_bytes());
    k
}

/// Bloom key: just the row identity, shared by all its versions.
pub(crate) fn encode_prefix(table: TableId, row: RowId) -> [u8; PREFIX_LEN] {
    let mut k = [0u8; PREFIX_LEN];
    k[..4].copy_from_slice(&table.0.to_be_bytes());
    k[4..].copy_from_slice(&row.0.to_be_bytes());
    k
}

fn decode_key(k: &[u8; KEY_LEN]) -> (TableId, RowId, Ts) {
    let table = u32::from_be_bytes(k[..4].try_into().unwrap());
    let row = u64::from_be_bytes(k[4..12].try_into().unwrap());
    let ts = u64::from_be_bytes(k[12..].try_into().unwrap());
    (TableId(table), RowId(row), ts)
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> StorageError {
    StorageError::Internal(format!("cold run {}: {what}", path.display()))
}

/// Write a run from `entries`, which must be sorted ascending by
/// `(table, row, ts)` with no duplicate keys. Returns
/// `(entry_count, min_ts, max_ts)`. The file is durable (data and
/// length) on return; the caller is responsible for `sync_dir`.
pub(crate) fn write_run(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    entries: &[(TableId, RowId, Ts, WalOp)],
    block_bytes: usize,
    bloom_bits_per_key: usize,
) -> Result<(u64, Ts, Ts)> {
    debug_assert!(
        entries
            .windows(2)
            .all(|w| encode_key(w[0].0, w[0].1, w[0].2) < encode_key(w[1].0, w[1].1, w[1].2)),
        "run entries must be sorted and unique"
    );
    let block_bytes = block_bytes.max(128);

    let mut file_buf: Vec<u8> = Vec::new();
    let mut index: Vec<IndexEntry> = Vec::new();
    let mut block: Vec<u8> = Vec::new();
    let mut block_first: Option<[u8; KEY_LEN]> = None;
    let mut prev_key: Option<[u8; KEY_LEN]> = None;
    let mut prefixes: Vec<[u8; PREFIX_LEN]> = Vec::new();
    let (mut min_ts, mut max_ts) = (u64::MAX, 0u64);

    let flush_block = |file_buf: &mut Vec<u8>,
                       block: &mut Vec<u8>,
                       first: [u8; KEY_LEN],
                       last: [u8; KEY_LEN],
                       index: &mut Vec<IndexEntry>| {
        index.push(IndexEntry {
            off: file_buf.len() as u64,
            len: block.len() as u32,
            crc: crc32(block),
            first_key: first,
            last_key: last,
        });
        file_buf.extend_from_slice(block);
        block.clear();
    };

    for (table, row, ts, op) in entries {
        let key = encode_key(*table, *row, *ts);
        min_ts = min_ts.min(*ts);
        max_ts = max_ts.max(*ts);
        let prefix = encode_prefix(*table, *row);
        if prefixes.last() != Some(&prefix) {
            prefixes.push(prefix);
        }

        let shared = match (&prev_key, block.is_empty()) {
            // Restart compression at every block boundary so a block
            // decodes standalone.
            (_, true) => 0,
            (Some(p), false) => key.iter().zip(p.iter()).take_while(|(a, b)| a == b).count(),
            (None, false) => 0,
        };
        block.extend_from_slice(&(shared as u16).to_le_bytes());
        block.extend_from_slice(&((KEY_LEN - shared) as u16).to_le_bytes());
        let vlen_at = block.len();
        block.extend_from_slice(&[0; 4]);
        block.extend_from_slice(&key[shared..]);
        let value_at = block.len();
        put_op(&mut block, op);
        let vlen = u32::try_from(block.len() - value_at).expect("a cold value stays under 4 GiB");
        block[vlen_at..vlen_at + 4].copy_from_slice(&vlen.to_le_bytes());
        if block_first.is_none() {
            block_first = Some(key);
        }
        prev_key = Some(key);

        if block.len() >= block_bytes {
            flush_block(
                &mut file_buf,
                &mut block,
                block_first.take().expect("non-empty block has first key"),
                key,
                &mut index,
            );
        }
    }
    if let (false, Some(first), Some(last)) = (block.is_empty(), block_first, prev_key) {
        flush_block(&mut file_buf, &mut block, first, last, &mut index);
    }

    // Index block.
    let mut index_buf: Vec<u8> = Vec::new();
    for e in &index {
        e.encode(&mut index_buf);
    }
    let index_off = file_buf.len() as u64;
    let index_crc = crc32(&index_buf);
    file_buf.extend_from_slice(&index_buf);

    // Bloom block.
    let bloom = Bloom::build(
        prefixes.iter().map(|p| p.as_slice()),
        prefixes.len(),
        bloom_bits_per_key,
    );
    let mut bloom_buf: Vec<u8> = Vec::new();
    bloom.encode(&mut bloom_buf);
    let bloom_off = file_buf.len() as u64;
    let bloom_crc = crc32(&bloom_buf);
    file_buf.extend_from_slice(&bloom_buf);

    // Footer.
    let footer_at = file_buf.len();
    file_buf.extend_from_slice(&index_off.to_le_bytes());
    file_buf.extend_from_slice(&(index_buf.len() as u32).to_le_bytes());
    file_buf.extend_from_slice(&index_crc.to_le_bytes());
    file_buf.extend_from_slice(&bloom_off.to_le_bytes());
    file_buf.extend_from_slice(&(bloom_buf.len() as u32).to_le_bytes());
    file_buf.extend_from_slice(&bloom_crc.to_le_bytes());
    file_buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    file_buf.extend_from_slice(&min_ts.to_le_bytes());
    file_buf.extend_from_slice(&max_ts.to_le_bytes());
    let footer_crc = crc32(&file_buf[footer_at..]);
    file_buf.extend_from_slice(&footer_crc.to_le_bytes());
    file_buf.extend_from_slice(&RUN_VERSION.to_le_bytes());
    file_buf.extend_from_slice(&RUN_MAGIC.to_le_bytes());

    let mut f = vfs.create(path)?;
    f.write_all(&file_buf)?;
    f.flush()?;
    // `sync_all`, not `sync_data`: the file is brand new, so its length
    // is metadata that must survive the cut too.
    f.sync_all()?;
    Ok((entries.len() as u64, min_ts, max_ts))
}

#[derive(Debug, Clone)]
struct IndexEntry {
    off: u64,
    len: u32,
    crc: u32,
    first_key: [u8; KEY_LEN],
    last_key: [u8; KEY_LEN],
}

const INDEX_ENTRY_LEN: usize = 8 + 4 + 4 + KEY_LEN + KEY_LEN;

impl IndexEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.off.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
        out.extend_from_slice(&self.first_key);
        out.extend_from_slice(&self.last_key);
    }

    fn decode(data: &[u8]) -> Option<IndexEntry> {
        if data.len() != INDEX_ENTRY_LEN {
            return None;
        }
        Some(IndexEntry {
            off: u64::from_le_bytes(data[0..8].try_into().ok()?),
            len: u32::from_le_bytes(data[8..12].try_into().ok()?),
            crc: u32::from_le_bytes(data[12..16].try_into().ok()?),
            first_key: data[16..36].try_into().ok()?,
            last_key: data[36..56].try_into().ok()?,
        })
    }
}

/// An open run: footer, index, and bloom resident; data blocks fetched
/// (and CRC-checked) on demand.
#[derive(Debug)]
pub(crate) struct RunReader {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    pub(crate) seq: u64,
    index: Vec<IndexEntry>,
    bloom: Bloom,
    pub(crate) entry_count: u64,
    pub(crate) min_ts: Ts,
    pub(crate) max_ts: Ts,
}

impl RunReader {
    pub(crate) fn open(vfs: Arc<dyn Vfs>, path: PathBuf, seq: u64) -> Result<RunReader> {
        let size = vfs.file_len(&path)?;
        // Magic and version are the last twelve bytes in every version
        // of the footer (v1's was four bytes shorter), so they are read
        // from the back, before anything they govern.
        let tail_len = FOOTER_LEN.min(size as usize);
        let tail = vfs.read_range(&path, size - tail_len as u64, tail_len)?;
        let short = || corrupt(&path, format!("file too short ({size} bytes)"));
        let (rest, magic) = tail.split_last_chunk::<8>().ok_or_else(short)?;
        if u64::from_le_bytes(*magic) != RUN_MAGIC {
            return Err(corrupt(&path, "bad magic"));
        }
        let (_, version) = rest.split_last_chunk::<4>().ok_or_else(short)?;
        let version = u32::from_le_bytes(*version);
        if version != RUN_VERSION {
            return Err(StorageError::UnsupportedFormat {
                found: version,
                expected: RUN_VERSION,
            });
        }
        let foot = <[u8; FOOTER_LEN]>::try_from(tail).map_err(|_| short())?;
        let footer_crc = u32::from_le_bytes(foot[56..60].try_into().unwrap());
        if crc32(&foot[..FOOTER_BODY]) != footer_crc {
            return Err(corrupt(&path, "footer checksum mismatch"));
        }
        let index_off = u64::from_le_bytes(foot[0..8].try_into().unwrap());
        let index_len = u32::from_le_bytes(foot[8..12].try_into().unwrap()) as usize;
        let index_crc = u32::from_le_bytes(foot[12..16].try_into().unwrap());
        let bloom_off = u64::from_le_bytes(foot[16..24].try_into().unwrap());
        let bloom_len = u32::from_le_bytes(foot[24..28].try_into().unwrap()) as usize;
        let bloom_crc = u32::from_le_bytes(foot[28..32].try_into().unwrap());
        let entry_count = u64::from_le_bytes(foot[32..40].try_into().unwrap());
        let min_ts = u64::from_le_bytes(foot[40..48].try_into().unwrap());
        let max_ts = u64::from_le_bytes(foot[48..56].try_into().unwrap());

        let index_buf = vfs.read_range(&path, index_off, index_len)?;
        if crc32(&index_buf) != index_crc {
            return Err(corrupt(&path, "index checksum mismatch"));
        }
        if !index_len.is_multiple_of(INDEX_ENTRY_LEN) {
            return Err(corrupt(&path, "index length not a whole entry count"));
        }
        let index = index_buf
            .chunks(INDEX_ENTRY_LEN)
            .map(IndexEntry::decode)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| corrupt(&path, "index entry decode"))?;

        let bloom_buf = vfs.read_range(&path, bloom_off, bloom_len)?;
        if crc32(&bloom_buf) != bloom_crc {
            return Err(corrupt(&path, "bloom checksum mismatch"));
        }
        let bloom = Bloom::decode(&bloom_buf).ok_or_else(|| corrupt(&path, "bloom decode"))?;

        Ok(RunReader {
            vfs,
            path,
            seq,
            index,
            bloom,
            entry_count,
            min_ts,
            max_ts,
        })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Bloom gate: `false` means no version of `(table, row)` is here.
    pub(crate) fn may_contain(&self, table: TableId, row: RowId) -> bool {
        self.bloom.may_contain(&encode_prefix(table, row))
    }

    fn load_block(&self, e: &IndexEntry) -> Result<Vec<u8>> {
        let block = self.vfs.read_range(&self.path, e.off, e.len as usize)?;
        if crc32(&block) != e.crc {
            return Err(corrupt(&self.path, format!("block @{} checksum", e.off)));
        }
        Ok(block)
    }

    /// Decode every `(key, op)` entry of one block.
    fn decode_block(&self, block: &[u8]) -> Result<Vec<([u8; KEY_LEN], WalOp)>> {
        let mut out = Vec::new();
        let mut key = [0u8; KEY_LEN];
        let mut buf = block;
        while !buf.is_empty() {
            let (shared, unshared, vlen, rest) = decode_entry_header(&self.path, buf)?;
            key[shared..shared + unshared].copy_from_slice(&rest[..unshared]);
            let mut vbuf = &rest[unshared..unshared + vlen];
            let op = get_op(&mut vbuf)?;
            out.push((key, op));
            buf = &rest[unshared + vlen..];
        }
        Ok(out)
    }

    /// Newest version of `(table, row)` with `commit_ts <= ts`, if this
    /// run holds one. Does NOT consult the bloom filter — callers gate
    /// on [`RunReader::may_contain`] first so they can count skips.
    pub(crate) fn lookup(&self, table: TableId, row: RowId, ts: Ts) -> Result<Option<(Ts, WalOp)>> {
        let target = encode_key(table, row, ts);
        // Last block whose first key <= target; earlier blocks only
        // hold smaller keys, later blocks only larger ones.
        let slot = match self.index.partition_point(|e| e.first_key <= target) {
            0 => return Ok(None),
            n => n - 1,
        };
        let e = &self.index[slot];
        if e.last_key[..PREFIX_LEN] < target[..PREFIX_LEN] {
            // The whole block sorts before the row: its predecessor
            // cannot be a version of ours.
            return Ok(None);
        }
        let block = self.load_block(e)?;

        // Scan for the greatest key <= target, skipping value decode
        // until we know the winner.
        let mut key = [0u8; KEY_LEN];
        let mut best: Option<([u8; KEY_LEN], usize, usize)> = None; // (key, value off, len)
        let mut buf: &[u8] = &block;
        let mut pos = 0usize;
        while !buf.is_empty() {
            let (shared, unshared, vlen, rest) = decode_entry_header(&self.path, buf)?;
            key[shared..shared + unshared].copy_from_slice(&rest[..unshared]);
            if key > target {
                break;
            }
            let header = 2 + 2 + 4;
            best = Some((key, pos + header + unshared, vlen));
            let consumed = header + unshared + vlen;
            pos += consumed;
            buf = &rest[unshared + vlen..];
        }
        match best {
            Some((k, voff, vlen)) if k[..PREFIX_LEN] == target[..PREFIX_LEN] => {
                let (_, _, found_ts) = decode_key(&k);
                let mut vbuf = &block[voff..voff + vlen];
                Ok(Some((found_ts, get_op(&mut vbuf)?)))
            }
            _ => Ok(None),
        }
    }

    /// Visit every entry in key order. Used by compaction and
    /// whole-table scans.
    pub(crate) fn for_each(&self, mut f: impl FnMut(TableId, RowId, Ts, WalOp)) -> Result<()> {
        for e in &self.index {
            let block = self.load_block(e)?;
            for (key, op) in self.decode_block(&block)? {
                let (table, row, ts) = decode_key(&key);
                f(table, row, ts, op);
            }
        }
        Ok(())
    }

    /// Visit every entry of one table, skipping blocks that cannot
    /// contain it.
    pub(crate) fn for_each_in_table(
        &self,
        table: TableId,
        mut f: impl FnMut(RowId, Ts, WalOp),
    ) -> Result<()> {
        let tb = table.0.to_be_bytes();
        for e in &self.index {
            if e.last_key[..4] < tb[..] || e.first_key[..4] > tb[..] {
                continue;
            }
            let block = self.load_block(e)?;
            for (key, op) in self.decode_block(&block)? {
                let (t, row, ts) = decode_key(&key);
                if t == table {
                    f(row, ts, op);
                }
            }
        }
        Ok(())
    }
}

/// Parse one entry header; returns `(shared, unshared, vlen, rest)`
/// where `rest` starts at the key suffix.
fn decode_entry_header<'a>(path: &Path, buf: &'a [u8]) -> Result<(usize, usize, usize, &'a [u8])> {
    if buf.len() < 8 {
        return Err(corrupt(path, "truncated entry header"));
    }
    let shared = u16::from_le_bytes(buf[0..2].try_into().unwrap()) as usize;
    let unshared = u16::from_le_bytes(buf[2..4].try_into().unwrap()) as usize;
    let vlen = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    if shared + unshared != KEY_LEN || buf.len() < 8 + unshared + vlen {
        return Err(corrupt(path, "malformed entry"));
    }
    Ok((shared, unshared, vlen, &buf[8..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::value::Value;

    fn put(i: i64) -> WalOp {
        WalOp::Put(Row::new(vec![Value::Int(i), Value::Text(format!("v{i}"))]).into_shared())
    }

    fn sample_entries() -> Vec<(TableId, RowId, Ts, WalOp)> {
        let mut entries = Vec::new();
        for row in 0..50u64 {
            for ts in 1..=4u64 {
                entries.push((
                    TableId(1),
                    RowId(row),
                    ts * 10,
                    put((row * 100 + ts) as i64),
                ));
            }
        }
        entries.push((TableId(2), RowId(7), 15, WalOp::Delete));
        entries.push((TableId(2), RowId(7), 25, put(999)));
        entries
    }

    fn write_sample(path: &std::path::Path) -> Arc<dyn Vfs> {
        let vfs: Arc<dyn Vfs> = Arc::new(crate::vfs::SimVfs::new(0));
        let entries = sample_entries();
        let (n, min_ts, max_ts) = write_run(&vfs, path, &entries, 256, 10).unwrap();
        assert_eq!(n, entries.len() as u64);
        assert_eq!(min_ts, 10);
        assert_eq!(max_ts, 40);
        vfs
    }

    #[test]
    fn roundtrips_all_entries_in_order() {
        let path = PathBuf::from("r.run");
        let vfs = write_sample(&path);
        let r = RunReader::open(vfs, path, 0).unwrap();
        assert!(r.index.len() > 1, "sample should span multiple blocks");
        let mut seen = Vec::new();
        r.for_each(|t, row, ts, op| seen.push((t, row, ts, op)))
            .unwrap();
        let expect = sample_entries();
        assert_eq!(seen.len(), expect.len());
        for (a, b) in seen.iter().zip(&expect) {
            assert_eq!((a.0, a.1, a.2), (b.0, b.1, b.2));
            match (&a.3, &b.3) {
                (WalOp::Put(x), WalOp::Put(y)) => assert_eq!(x.values(), y.values()),
                (WalOp::Delete, WalOp::Delete) => {}
                _ => panic!("op mismatch"),
            }
        }
    }

    #[test]
    fn lookup_finds_newest_at_or_below_ts() {
        let path = PathBuf::from("r.run");
        let vfs = write_sample(&path);
        let r = RunReader::open(vfs, path, 0).unwrap();
        // Exact hit.
        let (ts, op) = r.lookup(TableId(1), RowId(3), 20).unwrap().unwrap();
        assert_eq!(ts, 20);
        match op {
            WalOp::Put(row) => assert_eq!(row.values()[0], Value::Int(302)),
            _ => panic!("expected put"),
        }
        // Between versions: rounds down.
        let (ts, _) = r.lookup(TableId(1), RowId(3), 35).unwrap().unwrap();
        assert_eq!(ts, 30);
        // Above all versions: newest.
        let (ts, _) = r.lookup(TableId(1), RowId(3), 1_000).unwrap().unwrap();
        assert_eq!(ts, 40);
        // Below all versions: none.
        assert!(r.lookup(TableId(1), RowId(3), 5).unwrap().is_none());
        // Absent row: none (and bloom says so).
        assert!(!r.may_contain(TableId(1), RowId(999)));
        assert!(r.lookup(TableId(1), RowId(999), 100).unwrap().is_none());
        // Tombstone round-trips.
        let (ts, op) = r.lookup(TableId(2), RowId(7), 20).unwrap().unwrap();
        assert_eq!(ts, 15);
        assert!(matches!(op, WalOp::Delete));
    }

    #[test]
    fn table_scan_skips_foreign_tables() {
        let path = PathBuf::from("r.run");
        let vfs = write_sample(&path);
        let r = RunReader::open(vfs, path, 0).unwrap();
        let mut rows = Vec::new();
        r.for_each_in_table(TableId(2), |row, ts, _| rows.push((row, ts)))
            .unwrap();
        assert_eq!(rows, vec![(RowId(7), 15), (RowId(7), 25)]);
    }

    #[test]
    fn corrupt_footer_and_block_are_detected() {
        let path = PathBuf::from("r.run");
        let vfs = write_sample(&path);
        let data = vfs.read(&path).unwrap();

        // Flip a byte in the first data block.
        let mut bad = data.clone();
        bad[10] ^= 0xFF;
        overwrite(&vfs, &path, &bad);
        let r = RunReader::open(vfs.clone(), path.clone(), 0).unwrap();
        assert!(r.lookup(TableId(1), RowId(0), 100).is_err());

        // Truncate the footer entirely.
        overwrite(&vfs, &path, &data[..FOOTER_LEN / 2]);
        assert!(RunReader::open(vfs, path, 0).is_err());
    }

    fn overwrite(vfs: &Arc<dyn Vfs>, path: &Path, data: &[u8]) {
        let mut f = vfs.create(path).unwrap();
        f.write_all(data).unwrap();
        f.flush().unwrap();
    }

    /// Everything a reader can learn from a run, or the first error.
    type RunContents = (u64, Ts, Ts, Vec<(TableId, RowId, Ts, WalOp)>);

    fn read_all(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<RunContents> {
        let r = RunReader::open(vfs.clone(), path.to_path_buf(), 0)?;
        let mut seen = Vec::new();
        r.for_each(|t, row, ts, op| seen.push((t, row, ts, op)))?;
        // Whatever decoded keeps the bytes it was decoded from: read
        // every column of every row, whichever sweep step this is.
        for (.., op) in &seen {
            if let WalOp::Put(row) = op {
                for (i, v) in row.iter().enumerate() {
                    assert_eq!(row.get(i), Some(v));
                }
                assert_eq!(row.values().len(), row.len());
            }
        }
        Ok((r.entry_count, r.min_ts, r.max_ts, seen))
    }

    /// The bit-flip half of the cold tier's corruption story: every
    /// byte of a run is under a CRC or is the version/magic, so no cut
    /// and no single flipped bit reads back as anything but a typed
    /// error — never a panic, never different entries or metadata.
    #[test]
    fn every_cut_and_every_bit_flip_of_a_run_is_caught() {
        let path = PathBuf::from("r.run");
        let vfs = write_sample(&path);
        let data = vfs.read(&path).unwrap();
        let (count, min_ts, max_ts, entries) = read_all(&vfs, &path).unwrap();
        assert_eq!((count, min_ts, max_ts), (202, 10, 40));
        assert_eq!(entries, sample_entries());

        for cut in 0..data.len() {
            overwrite(&vfs, &path, &data[..cut]);
            assert!(read_all(&vfs, &path).is_err(), "cut at {cut} read back");
        }
        for bit in 0..data.len() * 8 {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            overwrite(&vfs, &path, &bad);
            assert!(read_all(&vfs, &path).is_err(), "bit {bit} read back");
        }
    }

    /// A v1 run, spelled out: no data, and the 68-byte v1 footer — no
    /// footer CRC, version 1 and the magic last. Refused by version
    /// before anything else in it is believed, and left as it is.
    #[test]
    fn a_v1_run_is_refused_typed_and_left_untouched() {
        let empty_crc = crc32(&[]);
        let mut v1 = Vec::new();
        v1.extend_from_slice(&0u64.to_le_bytes()); // index offset
        v1.extend_from_slice(&0u32.to_le_bytes()); // index length
        v1.extend_from_slice(&empty_crc.to_le_bytes());
        v1.extend_from_slice(&0u64.to_le_bytes()); // bloom offset
        v1.extend_from_slice(&0u32.to_le_bytes()); // bloom length
        v1.extend_from_slice(&empty_crc.to_le_bytes());
        v1.extend_from_slice(&0u64.to_le_bytes()); // entries
        v1.extend_from_slice(&u64::MAX.to_le_bytes()); // min ts
        v1.extend_from_slice(&0u64.to_le_bytes()); // max ts
        v1.extend_from_slice(&1u32.to_le_bytes()); // RUN_VERSION 1
        v1.extend_from_slice(&RUN_MAGIC.to_le_bytes());
        assert_eq!(v1.len(), 68);
        // A v1 run with data ahead of the footer reads the same way.
        for lead in [0usize, 500] {
            let file = [vec![0xAB; lead], v1.clone()].concat();
            let path = PathBuf::from("v1.run");
            let vfs: Arc<dyn Vfs> = Arc::new(crate::vfs::SimVfs::new(0));
            overwrite(&vfs, &path, &file);
            match RunReader::open(vfs.clone(), path.clone(), 0) {
                Err(StorageError::UnsupportedFormat { found, expected }) => {
                    assert_eq!((found, expected), (1, 2));
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(vfs.read(&path).unwrap(), file);
        }
    }
}
