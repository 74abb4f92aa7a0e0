//! Sharded WAL: per-shard log files with parallel group-commit fsync.
//!
//! [`ShardedWal`] partitions the log across `n` files — the base path
//! (shard 0, same file the single-file WAL uses) plus siblings
//! `<path>.shard1`, `<path>.shard2`, … Each commit's frame is routed to
//! one shard by a multiplicative hash of the lowest `TableId` it
//! touches, so commits over disjoint tables land on different files and
//! their group-commit flush leaders run — and fsync — **in parallel**.
//!
//! What stays global:
//!
//! * **Routing order.** A single contiguous cursor (`routed_ts`) moves
//!   staged frames into per-shard batch buffers strictly in commit-ts
//!   order, so every shard file is a ts-*ordered subsequence* of the
//!   commit stream.
//! * **The ack horizon.** `wait_durable` blocks until the *global*
//!   contiguous prefix of commit timestamps is durable, not merely the
//!   caller's own shard. Recovery replays only the global contiguous
//!   prefix (a torn tail in any shard cuts it at the first missing
//!   ts), so acking anything less would un-promise a durable commit.
//!   Parallel fsyncs still win: N leaders are in flight at once, and a
//!   waiter whose own frame is synced will lead the shard holding the
//!   next gap rather than parking.
//!
//! Aborted-after-allocation timestamps would otherwise be permanent
//! holes in the merged prefix, so [`ShardedWal::skip_commit`] stages a
//! durable [`WalRecord::AbortMarker`] through the normal lifecycle.
//! DDL and checkpoint-snapshot records are written as
//! [`WalRecord::Barrier`] frames in shard 0 (see
//! [`ShardedWal::enqueue`]), carrying the commit watermark they were
//! latched at; merged replay orders a barrier after the commit with its
//! timestamp, reproducing the original exclusive-latch order.
//!
//! Checkpoints rewrite **only the base file** via tmp+rename (one
//! atomic commit point), with mid-rewrite frames routed to shard 0 and
//! spliced after the swap, then empty each sibling atomically — a crash
//! anywhere leaves either the old layout or the new snapshot plus a
//! replayable prefix, never a hybrid (stale sibling frames carry
//! timestamps at or below the new snapshot's floor and are skipped and
//! truncated on reopen).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::table::Ts;
use crate::vfs::Vfs;
use crate::wal::log::encode_frame;
use crate::wal::{DurabilityLevel, WalFile, WalRecord, WalStats, WalTicket};

/// The file path of shard `shard` for a WAL based at `base`: shard 0
/// *is* the base path (byte-identical layout to the single-file WAL),
/// shard `k >= 1` appends `.shard<k>` to the full file name.
pub fn shard_path(base: &Path, shard: usize) -> PathBuf {
    if shard == 0 {
        return base.to_path_buf();
    }
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{shard}"));
    PathBuf::from(name)
}

/// How many shard files exist on disk at `base`: the base file plus the
/// contiguous run of `.shard<k>` siblings starting at `k = 1`.
/// Discovery stops at the first missing sibling, which is why shard
/// removal (re-shard down) deletes the highest-numbered sibling first.
pub fn discover_shards_on(vfs: &dyn Vfs, base: &Path) -> usize {
    let mut n = 1;
    while vfs.exists(&shard_path(base, n)) {
        n += 1;
    }
    n
}

/// Route a commit to a shard by its lowest touched table id. The
/// multiplicative hash (Fibonacci constant) spreads the sequential ids
/// a schema hands out; plain `id % n` would glue adjacent tables to
/// adjacent shards and stripe badly for small table counts.
pub(crate) fn shard_of(route: u64, shards: usize) -> usize {
    (route.wrapping_mul(0x9E37_79B9_7F4A_7C15) % shards as u64) as usize
}

/// Per-shard flush counters (the A11 contention receipts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalShardStats {
    /// Shard index (0 = the base file).
    pub shard: usize,
    /// Batches written by this shard's flush leaders.
    pub batches_flushed: u64,
    /// Records covered by those batches.
    pub records_flushed: u64,
    /// `sync_data` calls issued (one per batch at `Fsync`, else 0).
    pub fsyncs: u64,
    /// Bytes appended by this shard's leaders.
    pub bytes_flushed: u64,
    /// Total time committers routed to this shard spent inside
    /// `wait_durable` — the fsync-queue wait the sharding exists to
    /// shrink.
    pub flush_wait_ns: u64,
}

#[derive(Debug, Default)]
struct ShardCounters {
    batches: AtomicU64,
    records: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    flush_wait_ns: AtomicU64,
}

/// Where a routed commit timestamp stands on its way to the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TsState {
    /// Frame sits in shard `k`'s batch buffer (possibly mid-flight with
    /// that shard's leader — `leader_active` disambiguates).
    Buffered(usize),
    /// Frame is on disk at the configured durability level; waiting for
    /// every lower timestamp before the global horizon can advance.
    Synced,
}

#[derive(Debug, Default)]
struct ShardSub {
    /// Encoded frames routed here, not yet taken by a flush leader.
    buf: Vec<u8>,
    /// Records in `buf`.
    records: u64,
    /// Timestamps of the frames in `buf`, in order.
    tss: Vec<Ts>,
    /// A flush leader is writing this shard's file outside the lock.
    leader_active: bool,
}

#[derive(Debug, Default)]
struct ShardState {
    /// Commit frames staged out of order: ts → (shard, frame). Waiting
    /// for every lower timestamp to stage or skip.
    staged: BTreeMap<Ts, (usize, Vec<u8>)>,
    /// Every ts <= this has been routed into a shard buffer (or
    /// further). Shard buffers — and therefore shard files — receive
    /// frames in this cursor's order.
    routed_ts: Ts,
    /// Routed timestamps not yet swallowed by the durable horizon.
    status: BTreeMap<Ts, TsState>,
    /// Every commit ts <= this is durable at the configured level.
    /// The only horizon `wait_durable` acks against.
    durable_ts: Ts,
    /// Barrier sequence numbers (mirrors `GroupWal`'s Seq tickets).
    enqueued: u64,
    durable: u64,
    per_shard: Vec<ShardSub>,
    /// Count of shards with an active flush leader.
    leaders: usize,
    /// A barrier write or checkpoint rewrite owns all files; no leader
    /// may start.
    exclusive_io: bool,
    /// Checkpoint rewrite window: route every new frame to shard 0 so
    /// siblings stay untouched and can be emptied atomically.
    route_to_zero: bool,
    /// Commit watermark captured at `begin_rewrite` (the snapshot's
    /// barrier timestamp).
    rewrite_floor: Ts,
    /// Sticky flush failure. Set once, never cleared.
    poison: Option<String>,
}

/// The sharded group-commit write-ahead log. See the module docs for
/// the protocol; the external surface mirrors [`crate::wal::GroupWal`]
/// except that [`ShardedWal::stage_commit`] takes a routing key.
///
/// Sharded mode always batches per shard (the group protocol); the
/// per-record-flush A/B baseline exists only in the single-file WAL.
#[derive(Debug)]
pub struct ShardedWal {
    state: Mutex<ShardState>,
    cv: Condvar,
    files: Vec<Mutex<WalFile>>,
    durability: DurabilityLevel,
    counters: Vec<ShardCounters>,
    fsyncs_saved: AtomicU64,
    /// High-water mark of concurrently active flush leaders — the
    /// "parallel fsync actually happened" receipt.
    max_leaders: AtomicU64,
}

/// At [`DurabilityLevel::None`] there is no wait to piggyback flushes
/// on; drain once the buffers hold this many bytes in total.
const NONE_FLUSH_THRESHOLD: usize = 1 << 20;

impl ShardedWal {
    /// `files[k]` must be the open [`WalFile`] for [`shard_path`] `k`.
    /// `base_ts` is the newest commit timestamp already recovered from
    /// the merged logs; the routing cursor starts there.
    pub fn new(files: Vec<WalFile>, durability: DurabilityLevel, base_ts: Ts) -> ShardedWal {
        assert!(!files.is_empty(), "sharded WAL needs at least one file");
        let n = files.len();
        ShardedWal {
            state: Mutex::new(ShardState {
                routed_ts: base_ts,
                durable_ts: base_ts,
                per_shard: (0..n).map(|_| ShardSub::default()).collect(),
                ..ShardState::default()
            }),
            cv: Condvar::new(),
            files: files.into_iter().map(Mutex::new).collect(),
            durability,
            counters: (0..n).map(|_| ShardCounters::default()).collect(),
            fsyncs_saved: AtomicU64::new(0),
            max_leaders: AtomicU64::new(0),
        }
    }

    pub fn durability(&self) -> DurabilityLevel {
        self.durability
    }

    pub fn shard_count(&self) -> usize {
        self.files.len()
    }

    /// Aggregate stats, shape-compatible with the single-file WAL's.
    pub fn stats(&self) -> WalStats {
        let mut s = WalStats::default();
        for c in &self.counters {
            s.batches_flushed += c.batches.load(Ordering::Relaxed);
            s.records_flushed += c.records.load(Ordering::Relaxed);
        }
        s.fsyncs_saved = self.fsyncs_saved.load(Ordering::Relaxed);
        s
    }

    /// Per-shard receipts.
    pub fn shard_stats(&self) -> Vec<WalShardStats> {
        self.counters
            .iter()
            .enumerate()
            .map(|(i, c)| WalShardStats {
                shard: i,
                batches_flushed: c.batches.load(Ordering::Relaxed),
                records_flushed: c.records.load(Ordering::Relaxed),
                fsyncs: c.fsyncs.load(Ordering::Relaxed),
                bytes_flushed: c.bytes.load(Ordering::Relaxed),
                flush_wait_ns: c.flush_wait_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Most flush leaders ever concurrently in flight.
    pub fn max_concurrent_leaders(&self) -> u64 {
        self.max_leaders.load(Ordering::Relaxed)
    }

    /// Stage a non-commit record (DDL, mid-life snapshots) as a
    /// [`WalRecord::Barrier`] in shard 0. Must be called with the
    /// commit pipeline quiesced (exclusive commit latch): every
    /// allocated timestamp has staged or skipped, so the routing cursor
    /// equals the commit watermark and becomes the barrier's timestamp.
    ///
    /// Writes synchronously: all shard buffers are force-flushed first
    /// (a barrier only replays if every commit at or below its
    /// watermark survives, so its durability promise is only as good as
    /// theirs), then the barrier frame lands in shard 0 at the
    /// configured durability.
    pub fn enqueue(&self, rec: &WalRecord) -> Result<WalTicket> {
        let mut st = self.state.lock();
        Self::check_poison(&st)?;
        while st.exclusive_io || st.leaders > 0 {
            self.cv.wait(&mut st);
            Self::check_poison(&st)?;
        }
        st.exclusive_io = true;
        debug_assert!(
            st.staged.is_empty(),
            "barrier enqueued with commits mid-critical-section"
        );
        let barrier_ts = st.routed_ts;
        st.enqueued += 1;
        let seq = st.enqueued;
        let batches: Vec<(usize, Vec<u8>, u64, Vec<Ts>)> = st
            .per_shard
            .iter_mut()
            .enumerate()
            .filter(|(_, sub)| !sub.buf.is_empty())
            .map(|(k, sub)| {
                (
                    k,
                    std::mem::take(&mut sub.buf),
                    std::mem::take(&mut sub.records),
                    std::mem::take(&mut sub.tss),
                )
            })
            .collect();
        drop(st);

        let frame = encode_frame(&WalRecord::Barrier {
            barrier_ts,
            inner: Box::new(rec.clone()),
        });
        let mut res = Ok(());
        let mut flushed: Vec<Ts> = Vec::new();
        for (k, buf, records, tss) in &batches {
            res = self.files[*k]
                .lock()
                .append_batch(buf, *records, self.durability);
            if res.is_err() {
                break;
            }
            self.note_flush(*k, *records, buf.len());
            flushed.extend_from_slice(tss);
        }
        if res.is_ok() {
            res = self.files[0]
                .lock()
                .append_batch(&frame, 1, self.durability);
            if res.is_ok() {
                self.note_flush(0, 1, frame.len());
            }
        }

        let mut st = self.state.lock();
        st.exclusive_io = false;
        match res {
            Ok(()) => {
                for ts in flushed {
                    st.status.insert(ts, TsState::Synced);
                }
                Self::advance_durable(&mut st);
                debug_assert!(
                    st.durable_ts >= barrier_ts || self.durability == DurabilityLevel::None
                );
                st.durable = st.durable.max(seq);
                self.cv.notify_all();
                Ok(WalTicket::Seq(seq))
            }
            Err(e) => Err(self.poison_with(&mut st, e)),
        }
    }

    /// Stage a commit record under its commit timestamp, routed by
    /// `route` (the lowest `TableId` the commit touches). Same contract
    /// as the single-file WAL: called under the committer's table
    /// locks, no I/O, and an error obliges the caller to
    /// [`ShardedWal::skip_commit`].
    pub fn stage_commit(&self, ts: Ts, rec: &WalRecord, route: u64) -> Result<WalTicket> {
        let frame = encode_frame(rec);
        let shard = shard_of(route, self.files.len());
        let mut st = self.state.lock();
        Self::check_poison(&st)?;
        debug_assert!(ts > st.routed_ts, "commit ts staged twice or behind cursor");
        st.staged.insert(ts, (shard, frame));
        self.drain_staged(&mut st);
        Ok(WalTicket::Commit(ts))
    }

    /// Mark `ts` aborted-after-allocation. Unlike the single-file WAL's
    /// markerless skip, this stages a durable [`WalRecord::AbortMarker`]
    /// frame (routed by the timestamp itself): merged recovery replays
    /// the global contiguous ts prefix, so a silent hole would cap
    /// recovery at the aborted timestamp forever. Never blocks and
    /// deliberately ignores poison — releasing the slot must always
    /// succeed so other committers' frames keep draining.
    pub fn skip_commit(&self, ts: Ts) {
        let frame = encode_frame(&WalRecord::AbortMarker { commit_ts: ts });
        let shard = shard_of(ts, self.files.len());
        let mut st = self.state.lock();
        if ts > st.routed_ts {
            st.staged.insert(ts, (shard, frame));
            self.drain_staged(&mut st);
        }
    }

    /// Move the contiguous prefix of staged frames into their shard
    /// buffers, in commit-ts order — each shard file is a ts-ordered
    /// subsequence of the global stream because frames only enter
    /// buffers through this cursor.
    fn drain_staged(&self, st: &mut ShardState) {
        let mut advanced = false;
        loop {
            let next = st.routed_ts + 1;
            match st.staged.remove(&next) {
                Some((shard, frame)) => {
                    let k = if st.route_to_zero { 0 } else { shard };
                    let sub = &mut st.per_shard[k];
                    sub.buf.extend_from_slice(&frame);
                    sub.records += 1;
                    sub.tss.push(next);
                    st.status.insert(next, TsState::Buffered(k));
                    st.routed_ts = next;
                    advanced = true;
                }
                None => break,
            }
        }
        if advanced {
            self.cv.notify_all();
        }
    }

    /// Block until the ticket's record is durable at the configured
    /// level — for commits, until the **global** contiguous prefix
    /// covers it. Called with no database locks held.
    pub fn wait_durable(&self, ticket: WalTicket) -> Result<()> {
        match ticket {
            WalTicket::Seq(seq) => self.wait_seq(seq),
            WalTicket::Commit(ts) => self.wait_commit(ts),
        }
    }

    fn wait_seq(&self, seq: u64) -> Result<()> {
        // Barriers are written synchronously by enqueue; this only ever
        // parks if called concurrently with the enqueue itself.
        let mut st = self.state.lock();
        loop {
            Self::check_poison(&st)?;
            if st.durable >= seq {
                return Ok(());
            }
            self.cv.wait(&mut st);
        }
    }

    fn wait_commit(&self, ts: Ts) -> Result<()> {
        if self.durability == DurabilityLevel::None {
            return self.opportunistic_drain();
        }
        let started = Instant::now();
        let mut my_shard: Option<usize> = None;
        let mut st = self.state.lock();
        loop {
            Self::check_poison(&st)?;
            if st.durable_ts >= ts {
                drop(st);
                if let Some(k) = my_shard {
                    self.counters[k]
                        .flush_wait_ns
                        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                return Ok(());
            }
            if let Some(TsState::Buffered(k)) = st.status.get(&ts) {
                my_shard = Some(*k);
            }
            // Lead our own shard if our frame sits in its buffer; else
            // lead the shard holding the frame right after the durable
            // horizon (liveness: abort markers have no waiter of their
            // own, and our own shard may already be synced while a gap
            // below us sits leaderless).
            let lead = if st.exclusive_io {
                None
            } else {
                let own = my_shard.filter(|&k| {
                    !st.per_shard[k].leader_active
                        && matches!(st.status.get(&ts), Some(TsState::Buffered(_)))
                });
                own.or_else(|| match st.status.get(&(st.durable_ts + 1)) {
                    Some(TsState::Buffered(j)) if !st.per_shard[*j].leader_active => Some(*j),
                    _ => None,
                })
            };
            match lead {
                Some(k) => st = self.flush_shard(st, k)?,
                None => self.cv.wait(&mut st),
            }
        }
    }

    /// `DurabilityLevel::None`: no durability to wait for; drain only
    /// when the buffers get large, to bound memory.
    fn opportunistic_drain(&self) -> Result<()> {
        let mut st = self.state.lock();
        let total: usize = st.per_shard.iter().map(|s| s.buf.len()).sum();
        if total < NONE_FLUSH_THRESHOLD || st.exclusive_io {
            return Ok(());
        }
        for k in 0..self.files.len() {
            if st.per_shard[k].buf.is_empty() || st.per_shard[k].leader_active || st.exclusive_io {
                continue;
            }
            st = self.flush_shard(st, k)?;
        }
        Ok(())
    }

    /// Leader path for one shard: take its batch, write it with the
    /// state lock released (committers keep staging, and leaders of
    /// *other* shards keep flushing — this is the parallelism the
    /// sharding buys), publish, wake everyone.
    fn flush_shard<'a>(
        &'a self,
        mut st: parking_lot::MutexGuard<'a, ShardState>,
        k: usize,
    ) -> Result<parking_lot::MutexGuard<'a, ShardState>> {
        st.per_shard[k].leader_active = true;
        st.leaders += 1;
        self.max_leaders
            .fetch_max(st.leaders as u64, Ordering::Relaxed);
        let sub = &mut st.per_shard[k];
        let buf = std::mem::take(&mut sub.buf);
        let records = std::mem::take(&mut sub.records);
        let tss = std::mem::take(&mut sub.tss);
        drop(st);
        let res = if records > 0 {
            self.files[k]
                .lock()
                .append_batch(&buf, records, self.durability)
        } else {
            Ok(())
        };
        let mut st = self.state.lock();
        st.per_shard[k].leader_active = false;
        st.leaders -= 1;
        match res {
            Ok(()) => {
                if records > 0 {
                    self.note_flush(k, records, buf.len());
                }
                for ts in tss {
                    st.status.insert(ts, TsState::Synced);
                }
                Self::advance_durable(&mut st);
                self.cv.notify_all();
                Ok(st)
            }
            Err(e) => Err(self.poison_with(&mut st, e)),
        }
    }

    fn note_flush(&self, k: usize, records: u64, bytes: usize) {
        let c = &self.counters[k];
        c.batches.fetch_add(1, Ordering::Relaxed);
        c.records.fetch_add(records, Ordering::Relaxed);
        c.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if self.durability == DurabilityLevel::Fsync {
            c.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.fsyncs_saved
                .fetch_add(records.saturating_sub(1), Ordering::Relaxed);
        }
    }

    fn advance_durable(st: &mut ShardState) {
        while let Some(TsState::Synced) = st.status.get(&(st.durable_ts + 1)) {
            st.status.remove(&(st.durable_ts + 1));
            st.durable_ts += 1;
        }
    }

    /// Checkpoint copy phase. Must be called with the commit pipeline
    /// quiesced (exclusive commit latch). Quiesces every flush leader,
    /// discards all buffered frames (the snapshot the caller is about
    /// to take supersedes them) and redirects all routing to shard 0
    /// for the duration of the rewrite, so sibling files gain nothing
    /// and can be emptied atomically in the swap phase.
    ///
    /// Every `begin_rewrite` that returns `Ok` **must** be paired with
    /// a `finish_rewrite`, or the log wedges with `exclusive_io` set.
    pub fn begin_rewrite(&self) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            Self::check_poison(&st)?;
            if !st.exclusive_io {
                break;
            }
            self.cv.wait(&mut st);
        }
        st.exclusive_io = true;
        while st.leaders > 0 {
            self.cv.wait(&mut st);
        }
        debug_assert!(
            st.staged.is_empty(),
            "rewrite began with commits mid-critical-section"
        );
        // Buffered frames are superseded by the snapshot: discard them
        // and mark their timestamps synced so the horizon covers them
        // (their durability now rides on the snapshot's rename).
        let discarded: Vec<Ts> = st
            .per_shard
            .iter_mut()
            .flat_map(|sub| {
                sub.buf.clear();
                sub.records = 0;
                std::mem::take(&mut sub.tss)
            })
            .collect();
        for ts in discarded {
            st.status.insert(ts, TsState::Synced);
        }
        Self::advance_durable(&mut st);
        st.rewrite_floor = st.routed_ts;
        st.route_to_zero = true;
        Ok(())
    }

    /// Checkpoint swap phase: rewrite the **base file** to the snapshot
    /// (each record barrier-wrapped at the watermark captured by
    /// `begin_rewrite`) via tmp+rename — the single atomic commit point
    /// — then splice the frames that accumulated in shard 0 during the
    /// rewrite, then empty each sibling atomically. Called with no
    /// database locks held.
    ///
    /// Crash before the rename: old layout intact. After the rename but
    /// before (or mid-way through) the sibling empties: the new base's
    /// floor makes every leftover sibling frame stale — skipped by the
    /// merged replay and truncated on reopen.
    pub fn finish_rewrite(&self, records: &[WalRecord]) -> Result<()> {
        let floor = {
            let st = self.state.lock();
            st.rewrite_floor
        };
        let wrapped: Vec<WalRecord> = records
            .iter()
            .map(|r| WalRecord::Barrier {
                barrier_ts: floor,
                inner: Box::new(r.clone()),
            })
            .collect();
        let res = self.files[0].lock().rewrite(&wrapped);
        if let Err(e) = res {
            let mut st = self.state.lock();
            st.exclusive_io = false;
            st.route_to_zero = false;
            return Err(self.poison_with(&mut st, e));
        }
        // Splice the mid-rewrite tail (all routed to shard 0).
        // `exclusive_io` is still set, so no leader can interleave.
        let mut st = self.state.lock();
        let sub = &mut st.per_shard[0];
        let buf = std::mem::take(&mut sub.buf);
        let tail_records = std::mem::take(&mut sub.records);
        let tss = std::mem::take(&mut sub.tss);
        drop(st);
        let mut res = if buf.is_empty() {
            Ok(())
        } else {
            self.files[0]
                .lock()
                .append_batch(&buf, tail_records, self.durability)
        };
        if res.is_ok() && tail_records > 0 {
            self.note_flush(0, tail_records, buf.len());
        }
        if res.is_ok() {
            for k in 1..self.files.len() {
                res = self.files[k].lock().rewrite(&[]);
                if res.is_err() {
                    break;
                }
            }
        }
        let mut st = self.state.lock();
        st.exclusive_io = false;
        st.route_to_zero = false;
        match res {
            Ok(()) => {
                for ts in tss {
                    st.status.insert(ts, TsState::Synced);
                }
                Self::advance_durable(&mut st);
                self.cv.notify_all();
                Ok(())
            }
            Err(e) => Err(self.poison_with(&mut st, e)),
        }
    }

    /// The copy and swap phases back to back (stop-the-world variant).
    pub fn checkpoint(&self, records: &[WalRecord]) -> Result<()> {
        self.begin_rewrite()?;
        self.finish_rewrite(records)
    }

    /// `(bytes, records)` written across all shard files since they
    /// were opened or last rewritten — summed so maintenance growth
    /// budgets see the same signal as with one file.
    pub fn size(&self) -> (u64, u64) {
        let mut bytes = 0;
        let mut records = 0;
        for f in &self.files {
            let f = f.lock();
            bytes += f.bytes_written();
            records += f.records_written();
        }
        (bytes, records)
    }

    pub fn records_written(&self) -> u64 {
        self.files.iter().map(|f| f.lock().records_written()).sum()
    }

    fn check_poison(st: &ShardState) -> Result<()> {
        match &st.poison {
            Some(msg) => Err(StorageError::WalUnavailable(msg.clone())),
            None => Ok(()),
        }
    }

    fn poison_with(
        &self,
        st: &mut parking_lot::MutexGuard<'_, ShardState>,
        e: StorageError,
    ) -> StorageError {
        let msg = e.to_string();
        st.poison = Some(msg.clone());
        self.cv.notify_all();
        StorageError::WalUnavailable(msg)
    }
}

impl Drop for ShardedWal {
    /// Best-effort drain of buffered frames (reachable at
    /// `DurabilityLevel::None`, or if the database is dropped with
    /// commits mid-flight). Only the contiguous routed prefix is
    /// written; errors are ignored.
    fn drop(&mut self) {
        let st = self.state.get_mut();
        if st.poison.is_some() {
            return;
        }
        loop {
            let next = st.routed_ts + 1;
            match st.staged.remove(&next) {
                Some((shard, frame)) => {
                    let k = if st.route_to_zero { 0 } else { shard };
                    let sub = &mut st.per_shard[k];
                    sub.buf.extend_from_slice(&frame);
                    sub.records += 1;
                    st.routed_ts = next;
                }
                None => break,
            }
        }
        for (k, sub) in st.per_shard.iter_mut().enumerate() {
            if !sub.buf.is_empty() {
                let buf = std::mem::take(&mut sub.buf);
                let records = std::mem::take(&mut sub.records);
                let _ = self.files[k]
                    .get_mut()
                    .append_batch(&buf, records, self.durability);
            }
        }
    }
}

/// What merged recovery handed back.
#[derive(Debug)]
pub struct ShardRecovery {
    /// Replayable records in commit order, barriers unwrapped and abort
    /// markers elided — the same record kinds single-file replay yields.
    pub records: Vec<WalRecord>,
    /// Highest timestamp consumed by the replayed prefix (commits *and*
    /// aborts): the sharded WAL's `base_ts`, and the floor the commit
    /// sequencer must observe.
    pub last_ts: Ts,
}

/// Merge-replay the sharded log at `base` with `shards` files and
/// repair every file's tail.
///
/// Frames are merged by timestamp — commits and abort markers at
/// `(ts, 0)`, barriers at `(barrier_ts, 1)` (barriers live only in
/// shard 0; file order breaks ties) — and replayed while the timestamps
/// stay contiguous. The first gap (a torn tail in any one shard, or a
/// commit that never reached its file) cuts the prefix: everything
/// after it, in *any* shard, is discarded and truncated away, so crash
/// semantics stay "commit-order prefix" exactly as with one file. A
/// barrier replays only if every commit at or below its watermark did.
///
/// The base file's leading `Meta` barrier sets the floor: frames at or
/// below it are stale residue of a checkpoint that crashed between the
/// base rename and the sibling empties, skipped and truncated to
/// nothing.
///
/// One hazard is invisible to the contiguity check: a DDL barrier lives
/// in shard 0 while the commits that depend on it live in other files,
/// so an unsynced crash can drop the `CreateTable` barrier yet keep a
/// later commit to that table. A *missing* barrier leaves no gap in the
/// commit-ts chain, so the merge additionally tracks the table ids the
/// replayed prefix has created and cuts at the first commit referencing
/// a table whose DDL did not survive — everything from that commit on
/// is discarded, exactly as if the chain had torn there.
pub fn recover_sharded_on(vfs: &dyn Vfs, base: &Path, shards: usize) -> Result<ShardRecovery> {
    // (ts, kind, file, index-in-file) — the merge key.
    type Key = (Ts, u8, usize, usize);
    struct Entry {
        key: Key,
        file: usize,
        end: u64,
        rec: WalRecord,
    }

    let mut floor: Ts = 0;
    let mut entries: Vec<Entry> = Vec::new();
    // Per file, the end of the last frame that survives the cut — at
    // least its format frame.
    let mut keep: Vec<u64> = vec![0; shards];
    for (file, keep) in keep.iter_mut().enumerate() {
        let path = shard_path(base, file);
        // Per-frame end offsets: after cutting the global contiguous
        // prefix, each file is truncated at the end of the last frame
        // that survived the cut, not merely at its last intact frame.
        let mut recs = Vec::new();
        WalFile::replay_on(vfs, &path, |rec, end| {
            match rec {
                WalRecord::Format { .. } => *keep = end,
                rec => recs.push((rec, end)),
            }
            Ok(())
        })?;
        for (idx, (rec, end)) in recs.into_iter().enumerate() {
            if file == 0 && idx == 0 {
                // The snapshot head (if any) defines the stale floor.
                match &rec {
                    WalRecord::Barrier { inner, .. } => {
                        if let WalRecord::Meta { next_ts, .. } = inner.as_ref() {
                            floor = next_ts.saturating_sub(1);
                        }
                    }
                    WalRecord::Meta { next_ts, .. } => {
                        // Transitional: a legacy-headed base should not
                        // coexist with siblings, but replay it anyway.
                        floor = next_ts.saturating_sub(1);
                    }
                    _ => {}
                }
            }
            let key = match &rec {
                WalRecord::Commit { commit_ts, .. } => (*commit_ts, 0, file, idx),
                WalRecord::AbortMarker { commit_ts } => (*commit_ts, 0, file, idx),
                WalRecord::Barrier { barrier_ts, .. } => (*barrier_ts, 1, file, idx),
                // Plain non-commit records in a sharded layout only
                // occur in a transitional legacy-headed base; order
                // them with the head (before every live commit).
                _ => (floor, 1, file, idx),
            };
            entries.push(Entry {
                key,
                file,
                end,
                rec,
            });
        }
    }
    entries.sort_by_key(|e| e.key);

    let mut records: Vec<WalRecord> = Vec::new();
    let mut expected: Ts = floor + 1;
    let mut known: std::collections::HashSet<crate::schema::TableId> =
        std::collections::HashSet::new();
    fn track(known: &mut std::collections::HashSet<crate::schema::TableId>, rec: &WalRecord) {
        match rec {
            WalRecord::CreateTable { id, .. } => {
                known.insert(*id);
            }
            WalRecord::DropTable { id } => {
                known.remove(id);
            }
            _ => {}
        }
    }
    for e in entries {
        match e.rec {
            WalRecord::Commit { commit_ts, .. } if commit_ts <= floor => continue, // stale
            WalRecord::AbortMarker { commit_ts } if commit_ts <= floor => continue, // stale
            WalRecord::Commit {
                commit_ts,
                ref writes,
                ..
            } => {
                if commit_ts != expected {
                    break; // gap: torn tail somewhere — cut here
                }
                if writes.iter().any(|w| !known.contains(&w.table)) {
                    break; // its CreateTable barrier did not survive
                }
                keep[e.file] = e.end;
                expected += 1;
                records.push(e.rec);
            }
            WalRecord::AbortMarker { commit_ts } => {
                if commit_ts != expected {
                    break;
                }
                keep[e.file] = e.end;
                expected += 1;
            }
            WalRecord::Barrier { barrier_ts, inner } => {
                if barrier_ts >= expected {
                    break; // gated on a commit that did not survive
                }
                keep[e.file] = e.end;
                track(&mut known, &inner);
                records.push(*inner);
            }
            rec => {
                // Transitional legacy-headed base: plain snapshot
                // records, replayed as-is.
                keep[e.file] = e.end;
                track(&mut known, &rec);
                records.push(rec);
            }
        }
    }
    for (file, keep_len) in keep.iter().enumerate() {
        WalFile::truncate_on(vfs, &shard_path(base, file), *keep_len)?;
    }
    Ok(ShardRecovery {
        records,
        last_ts: expected - 1,
    })
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::Arc;

    use super::*;
    use crate::vfs::{os_vfs, SimVfs};

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tendax-shard-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        for k in 0..8 {
            let _ = std::fs::remove_file(shard_path(&p, k));
        }
        p
    }

    fn commit(ts: Ts) -> WalRecord {
        WalRecord::Commit {
            commit_ts: ts,
            writes: Vec::new(),
        }
    }

    fn open_sharded(base: &Path, n: usize, durability: DurabilityLevel, base_ts: Ts) -> ShardedWal {
        let files: Vec<WalFile> = (0..n)
            .map(|k| WalFile::open(shard_path(base, k), durability).unwrap())
            .collect();
        ShardedWal::new(files, durability, base_ts)
    }

    fn recover(base: &Path, n: usize) -> ShardRecovery {
        recover_sharded_on(&*os_vfs(), base, n).unwrap()
    }

    #[test]
    fn shard_paths_and_discovery() {
        let base = tmpbase("disc.wal");
        assert_eq!(shard_path(&base, 0), base);
        assert!(shard_path(&base, 2)
            .to_string_lossy()
            .ends_with("disc.wal.shard2"));
        let vfs = os_vfs();
        drop(WalFile::open(&base, DurabilityLevel::Buffered).unwrap());
        assert_eq!(discover_shards_on(&*vfs, &base), 1);
        drop(WalFile::open(shard_path(&base, 1), DurabilityLevel::Buffered).unwrap());
        drop(WalFile::open(shard_path(&base, 2), DurabilityLevel::Buffered).unwrap());
        assert_eq!(discover_shards_on(&*vfs, &base), 3);
        // A gap stops discovery (contiguity invariant).
        std::fs::remove_file(shard_path(&base, 1)).unwrap();
        assert_eq!(discover_shards_on(&*vfs, &base), 1);
    }

    #[test]
    fn commits_route_by_table_and_recover_in_ts_order() {
        let base = tmpbase("route.wal");
        let wal = open_sharded(&base, 4, DurabilityLevel::Fsync, 0);
        // Distinct routes so frames spread across files; staged out of
        // arrival order.
        let t2 = wal.stage_commit(2, &commit(2), 7).unwrap();
        let t1 = wal.stage_commit(1, &commit(1), 3).unwrap();
        let t3 = wal.stage_commit(3, &commit(3), 11).unwrap();
        for t in [t1, t2, t3] {
            wal.wait_durable(t).unwrap();
        }
        drop(wal);
        let rec = recover(&base, 4);
        assert_eq!(rec.records, vec![commit(1), commit(2), commit(3)]);
        assert_eq!(rec.last_ts, 3);
    }

    #[test]
    fn abort_marker_fills_the_hole() {
        let base = tmpbase("abort.wal");
        let wal = open_sharded(&base, 4, DurabilityLevel::Fsync, 0);
        let t1 = wal.stage_commit(1, &commit(1), 1).unwrap();
        wal.skip_commit(2);
        let t3 = wal.stage_commit(3, &commit(3), 2).unwrap();
        wal.wait_durable(t1).unwrap();
        wal.wait_durable(t3).unwrap();
        drop(wal);
        let rec = recover(&base, 4);
        // ts 2 was consumed (last_ts covers it) but produced no record.
        assert_eq!(rec.records, vec![commit(1), commit(3)]);
        assert_eq!(rec.last_ts, 3);
    }

    #[test]
    fn barrier_orders_ddl_between_commits() {
        let base = tmpbase("barrier.wal");
        let wal = open_sharded(&base, 4, DurabilityLevel::Fsync, 0);
        let t1 = wal.stage_commit(1, &commit(1), 5).unwrap();
        let ddl = WalRecord::DropTable {
            id: crate::schema::TableId(9),
        };
        let b = wal.enqueue(&ddl).unwrap();
        wal.wait_durable(b).unwrap();
        wal.wait_durable(t1).unwrap();
        let t2 = wal.stage_commit(2, &commit(2), 6).unwrap();
        wal.wait_durable(t2).unwrap();
        drop(wal);
        let rec = recover(&base, 4);
        assert_eq!(rec.records, vec![commit(1), ddl, commit(2)]);
        assert_eq!(rec.last_ts, 2);
    }

    #[test]
    fn torn_tail_in_one_shard_cuts_the_global_prefix() {
        let base = tmpbase("torn.wal");
        let shard_of_4: usize;
        {
            let wal = open_sharded(&base, 2, DurabilityLevel::Fsync, 0);
            for ts in 1..=6 {
                // Route = ts so frames alternate between files.
                let t = wal.stage_commit(ts, &commit(ts), ts).unwrap();
                wal.wait_durable(t).unwrap();
            }
            shard_of_4 = shard_of(4, 2);
        }
        // Tear the frame holding ts 4 out of its shard file's tail:
        // truncate that file to just before its last frame (ts 6 or 5
        // shares the file; find ts 4's end offset precisely instead).
        let path = shard_path(&base, shard_of_4);
        let mut cut = None;
        WalFile::replay_on(&*os_vfs(), &path, |r, end| {
            if matches!(r, WalRecord::Commit { commit_ts: 4, .. }) {
                cut = Some(end);
            }
            Ok(())
        })
        .unwrap();
        let cut = cut.expect("ts 4 frame present");
        // Chop mid-frame: 3 bytes into ts 4's frame region from its
        // start — i.e. truncate to (end of previous frame) + 3. Easier:
        // truncate to cut - 3 (mid-frame of ts 4).
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..(cut as usize - 3)]).unwrap();

        let rec = recover(&base, 2);
        // Everything from ts 4 on is cut, in BOTH files.
        assert_eq!(rec.records, vec![commit(1), commit(2), commit(3)]);
        assert_eq!(rec.last_ts, 3);
        // Reopen-and-append after the repair replays cleanly.
        let wal = open_sharded(&base, 2, DurabilityLevel::Fsync, 3);
        let t = wal.stage_commit(4, &commit(4), 4).unwrap();
        wal.wait_durable(t).unwrap();
        drop(wal);
        let rec = recover(&base, 2);
        assert_eq!(
            rec.records,
            vec![commit(1), commit(2), commit(3), commit(4)]
        );
    }

    #[test]
    fn checkpoint_rewrites_base_and_empties_siblings() {
        let base = tmpbase("ckpt.wal");
        let wal = open_sharded(&base, 3, DurabilityLevel::Buffered, 0);
        for ts in 1..=5 {
            let t = wal.stage_commit(ts, &commit(ts), ts).unwrap();
            wal.wait_durable(t).unwrap();
        }
        wal.begin_rewrite().unwrap();
        let snapshot = vec![WalRecord::Meta {
            next_ts: 6,
            clock: 0,
        }];
        wal.finish_rewrite(&snapshot).unwrap();
        // The swap emptied every sibling (their frames are superseded
        // by the snapshot in the base file).
        for k in 1..3 {
            let left = WalFile::replay(&shard_path(&base, k)).unwrap();
            assert!(left.is_empty(), "sibling {k} not emptied");
        }
        // Post-checkpoint commits keep working and route normally.
        let t = wal.stage_commit(6, &commit(6), 1).unwrap();
        wal.wait_durable(t).unwrap();
        drop(wal);
        let rec = recover(&base, 3);
        assert_eq!(rec.records, vec![snapshot[0].clone(), commit(6)]);
        assert_eq!(rec.last_ts, 6);
    }

    #[test]
    fn stale_sibling_frames_after_crashed_checkpoint_are_skipped() {
        // Simulate the crash window between the base rename and the
        // sibling empties: a new base with floor 5 coexists with
        // siblings still holding frames ts <= 5.
        let base = tmpbase("stale.wal");
        let vfs = os_vfs();
        {
            let wal = open_sharded(&base, 2, DurabilityLevel::Fsync, 0);
            for ts in 1..=5 {
                let t = wal.stage_commit(ts, &commit(ts), ts).unwrap();
                wal.wait_durable(t).unwrap();
            }
        }
        // Hand-write the new base: barrier-wrapped snapshot at floor 5.
        let mut f = WalFile::open_on(vfs.clone(), &base, DurabilityLevel::Fsync).unwrap();
        f.rewrite(&[WalRecord::Barrier {
            barrier_ts: 5,
            inner: Box::new(WalRecord::Meta {
                next_ts: 6,
                clock: 0,
            }),
        }])
        .unwrap();
        drop(f);
        let rec = recover(&base, 2);
        assert_eq!(
            rec.records,
            vec![WalRecord::Meta {
                next_ts: 6,
                clock: 0
            }]
        );
        assert_eq!(rec.last_ts, 5);
        // The stale sibling was truncated to nothing but its format frame.
        let sib = shard_path(&base, shard_of(1, 2).max(1));
        let left = WalFile::replay(&sib).unwrap();
        assert!(left.is_empty(), "stale sibling survived recovery");
    }

    #[test]
    fn concurrent_disjoint_commits_overlap_leaders() {
        let base = tmpbase("parallel.wal");
        let wal = Arc::new(open_sharded(&base, 4, DurabilityLevel::Fsync, 0));
        let mut handles = Vec::new();
        for ts in 1..=32u64 {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                let t = wal.stage_commit(ts, &commit(ts), ts).unwrap();
                wal.wait_durable(t).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let shard_stats = wal.shard_stats();
        let active: usize = shard_stats.iter().filter(|s| s.records_flushed > 0).count();
        assert!(active >= 2, "frames did not spread: {shard_stats:?}");
        assert_eq!(
            shard_stats.iter().map(|s| s.records_flushed).sum::<u64>(),
            32
        );
        drop(wal);
        let rec = recover(&base, 4);
        assert_eq!(rec.records.len(), 32);
        assert_eq!(rec.last_ts, 32);
    }

    #[test]
    fn sim_crash_recovers_commit_order_prefix() {
        // A coarse in-module sweep (the full suite lives in
        // tests/sim_crash.rs): crash at every op budget, recover, check
        // the prefix property.
        for seed in 0..8u64 {
            let vfs = SimVfs::new(seed);
            let vfs_arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
            let base = Path::new("/sim/shard.wal");
            {
                let files: Vec<WalFile> = (0..4)
                    .map(|k| {
                        WalFile::open_on(
                            vfs_arc.clone(),
                            shard_path(base, k),
                            DurabilityLevel::Fsync,
                        )
                        .unwrap()
                    })
                    .collect();
                let wal = ShardedWal::new(files, DurabilityLevel::Fsync, 0);
                vfs.power_fail_after(10 + seed * 3);
                for ts in 1..=12 {
                    let t = match wal.stage_commit(ts, &commit(ts), ts) {
                        Ok(t) => t,
                        Err(_) => {
                            wal.skip_commit(ts);
                            break;
                        }
                    };
                    if wal.wait_durable(t).is_err() {
                        break;
                    }
                }
            }
            vfs.crash();
            let rec = recover_sharded_on(&*vfs_arc, base, 4).unwrap();
            // Prefix property: records are exactly commit(1..=k).
            for (i, r) in rec.records.iter().enumerate() {
                assert_eq!(r, &commit(i as u64 + 1), "seed {seed}: not a prefix");
            }
        }
    }
}
