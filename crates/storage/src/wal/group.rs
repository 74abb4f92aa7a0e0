//! Group commit: durability outside the commit critical section.
//!
//! Commit records are **staged per-committer** under only the table
//! locks the transaction holds (no global commit mutex) via
//! [`GroupWal::stage_commit`], keyed by commit timestamp. A drain cursor
//! moves staged frames into the shared batch buffer strictly in
//! commit-timestamp order, advancing only over a contiguous timestamp
//! prefix — so the *file* always receives frames in commit order even
//! though committers arrive in any order, and any replayed prefix of the
//! log is a commit-order prefix. An aborted commit calls
//! [`GroupWal::skip_commit`] so the cursor steps over its timestamp
//! instead of wedging.
//!
//! Durability still runs on the leader/follower protocol: the first
//! committer to arrive at [`GroupWal::wait_durable`] becomes the **flush
//! leader**, takes the whole accumulated batch, writes it with a single
//! `write_all` and (at [`DurabilityLevel::Fsync`]) a single `sync_data`,
//! then wakes every committer the flush covered. Committers that arrive
//! while a flush is in flight park on the condvar; their records ride in
//! the next batch. Under concurrency this amortizes the fsync — the
//! dominant cost of a durable commit — across every transaction in the
//! batch, without weakening the guarantee: `commit()` still returns only
//! after the record is durable at the configured level.
//!
//! Non-commit records (DDL, checkpoint snapshots) use
//! [`GroupWal::enqueue`], which must be called with the commit pipeline
//! quiesced (the database's exclusive commit latch) so they interleave
//! with commit frames at a well-defined point.
//!
//! A failed flush **poisons** the log: the error is sticky and every
//! in-flight and subsequent waiter receives
//! [`StorageError::WalUnavailable`]. Nothing can be retracted — versions
//! published by a commit whose flush later failed remain visible in
//! memory — so the only honest response is to stop accepting writes
//! (the same reasoning that makes PostgreSQL PANIC on fsync failure).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::table::Ts;
use crate::wal::log::{encode_frame, CheckpointFrames};
use crate::wal::{DurabilityLevel, WalFile, WalRecord};

/// Claim ticket for a staged record: pass to
/// [`GroupWal::wait_durable`] after publication.
#[derive(Debug, Clone, Copy)]
pub enum WalTicket {
    /// Non-commit record (DDL), identified by enqueue sequence number.
    Seq(u64),
    /// Commit record, identified by its commit timestamp.
    Commit(Ts),
}

/// The log's flush counters (surfaced through `Database::stats` and
/// `Database::wal_shard_stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalShardStats {
    /// Batches written by flush leaders (including single-record ones).
    pub batches_flushed: u64,
    /// Records covered by those batches.
    pub records_flushed: u64,
    /// `sync_data` calls issued for those batches (one per batch at
    /// `Fsync`, else 0).
    pub fsyncs: u64,
    /// Bytes those batches appended to the file.
    pub bytes_flushed: u64,
    /// Total time committers spent inside [`GroupWal::wait_durable`]
    /// for commit tickets (the fsync-queue wait; not counted at
    /// `DurabilityLevel::None`, where the wait is a buffer drain).
    pub flush_wait_ns: u64,
}

/// At [`DurabilityLevel::None`] there is no durability wait to piggyback
/// flushes on, so the batch is drained opportunistically once it holds
/// this many bytes (and, regardless, at checkpoint/drop).
const NONE_FLUSH_THRESHOLD: usize = 1 << 20;

#[derive(Debug, Default)]
struct GroupState {
    /// Encoded frames drained into the batch, not yet handed to a flush.
    buf: Vec<u8>,
    /// Records in `buf`.
    pending: u64,
    /// Sequence number of the newest record added to `buf`.
    enqueued: u64,
    /// All records with sequence <= this are on disk at the configured
    /// durability level.
    durable: u64,
    /// Commit frames staged out of order, waiting for every lower
    /// timestamp to stage too. `None` marks an aborted timestamp the
    /// drain cursor must step over.
    staged: BTreeMap<Ts, Option<Vec<u8>>>,
    /// Every commit timestamp <= this has left `staged`: its frame is in
    /// `buf` or the file, or it was skipped. The file receives
    /// commit frames exactly in this cursor's order.
    drained_ts: Ts,
    /// Every commit timestamp <= this is on disk at the configured
    /// durability level (or was skipped / superseded by a checkpoint).
    durable_ts: Ts,
    /// A flush leader is currently writing outside this lock.
    leader_active: bool,
    /// A checkpoint rewrite is in progress; no one may flush.
    rewriting: bool,
    /// Sticky flush failure. Set once, never cleared.
    poison: Option<String>,
}

/// The group-commit write-ahead log: a [`WalFile`] fronted by a
/// timestamp-ordered staging area, a shared batch buffer, and a
/// leader/follower flush protocol.
#[derive(Debug)]
pub struct GroupWal {
    state: Mutex<GroupState>,
    cv: Condvar,
    file: Mutex<WalFile>,
    durability: DurabilityLevel,
    /// [`WalShardStats`], field for field.
    batches_flushed: AtomicU64,
    records_flushed: AtomicU64,
    fsyncs: AtomicU64,
    bytes_flushed: AtomicU64,
    flush_wait_ns: AtomicU64,
}

impl GroupWal {
    /// `base_ts` is the newest commit timestamp already in the file
    /// (the recovered `last_commit_ts`; 0 for a fresh log): the drain
    /// cursor starts there so the first staged commit is `base_ts + 1`.
    pub fn new(file: WalFile, durability: DurabilityLevel, base_ts: Ts) -> GroupWal {
        GroupWal {
            state: Mutex::new(GroupState {
                drained_ts: base_ts,
                durable_ts: base_ts,
                ..GroupState::default()
            }),
            cv: Condvar::new(),
            file: Mutex::new(file),
            durability,
            batches_flushed: AtomicU64::new(0),
            records_flushed: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes_flushed: AtomicU64::new(0),
            flush_wait_ns: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> WalShardStats {
        WalShardStats {
            batches_flushed: self.batches_flushed.load(Ordering::Relaxed),
            records_flushed: self.records_flushed.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes_flushed: self.bytes_flushed.load(Ordering::Relaxed),
            flush_wait_ns: self.flush_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Append one batch to the file at the log's durability level and,
    /// when that succeeds, count it: the one place a flush is issued and
    /// the one place the counters move.
    fn append_counted(&self, buf: &[u8], records: u64) -> Result<()> {
        self.file
            .lock()
            .append_batch(buf, records, self.durability)?;
        self.batches_flushed.fetch_add(1, Ordering::Relaxed);
        self.records_flushed.fetch_add(records, Ordering::Relaxed);
        self.bytes_flushed
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        if self.durability == DurabilityLevel::Fsync {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Stage a non-commit record (DDL, recovery snapshots). Must be
    /// called with the commit pipeline quiesced (exclusive commit
    /// latch), so the frame lands at a well-defined point between
    /// commit frames.
    pub fn enqueue(&self, rec: &WalRecord) -> Result<WalTicket> {
        let frame = encode_frame(rec);
        let mut st = self.state.lock();
        Self::check_poison(&st)?;
        st.buf.extend_from_slice(&frame);
        st.pending += 1;
        st.enqueued += 1;
        Ok(WalTicket::Seq(st.enqueued))
    }

    /// Stage a commit record under its commit timestamp. Called while
    /// the committer still holds its table write locks — the work is
    /// bounded by encoding (no I/O, no global lock). The frame reaches
    /// the file only once every lower commit timestamp has staged (or
    /// skipped): the log stays in commit-timestamp order without the
    /// committers themselves being serialized.
    ///
    /// On error the caller must invoke [`GroupWal::skip_commit`] for
    /// `ts`, or the drain cursor stalls forever.
    pub fn stage_commit(&self, ts: Ts, rec: &WalRecord) -> Result<WalTicket> {
        let frame = encode_frame(rec);
        let mut st = self.state.lock();
        Self::check_poison(&st)?;
        debug_assert!(
            ts > st.drained_ts,
            "commit ts staged twice or behind cursor"
        );
        st.staged.insert(ts, Some(frame));
        self.drain_staged(&mut st);
        Ok(WalTicket::Commit(ts))
    }

    /// Mark `ts` as aborted-after-allocation: the drain cursor steps
    /// over it instead of waiting for a frame that will never arrive.
    /// Deliberately ignores poison — releasing the slot must always
    /// succeed so other committers' frames keep draining.
    pub fn skip_commit(&self, ts: Ts) {
        let mut st = self.state.lock();
        if ts > st.drained_ts {
            st.staged.insert(ts, None);
            self.drain_staged(&mut st);
        }
    }

    /// Move the contiguous prefix of staged frames into the batch
    /// buffer, in commit-timestamp order. Wakes waiters whenever the
    /// cursor moves: a parked committer may now be flushable, or a
    /// parked leader may now cover more records.
    fn drain_staged(&self, st: &mut GroupState) {
        let mut advanced = false;
        loop {
            let next = st.drained_ts + 1;
            match st.staged.remove(&next) {
                Some(Some(frame)) => {
                    st.buf.extend_from_slice(&frame);
                    st.pending += 1;
                    st.enqueued += 1;
                    st.drained_ts = next;
                    advanced = true;
                }
                Some(None) => {
                    st.drained_ts = next; // aborted: step over
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
    /// level. Called with **no** database locks held; this is where the
    /// leader/follower protocol runs.
    pub fn wait_durable(&self, ticket: WalTicket) -> Result<()> {
        match ticket {
            WalTicket::Seq(seq) => self.wait_seq(seq),
            WalTicket::Commit(ts) => {
                let started = std::time::Instant::now();
                let res = self.wait_commit(ts);
                if self.durability != DurabilityLevel::None {
                    self.flush_wait_ns
                        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                res
            }
        }
    }

    fn wait_seq(&self, seq: u64) -> Result<()> {
        if self.durability == DurabilityLevel::None {
            return self.opportunistic_drain();
        }
        let mut st = self.state.lock();
        loop {
            Self::check_poison(&st)?;
            if st.durable >= seq {
                return Ok(());
            }
            if st.leader_active || st.rewriting {
                // A flush (or checkpoint) is in flight; it — or the next
                // leader after it — will cover us.
                self.cv.wait(&mut st);
                continue;
            }
            // Become the leader. Our record entered the batch before we
            // got here, so one successful round always covers our ticket.
            st = self.flush_batch(st)?;
        }
    }

    fn wait_commit(&self, ts: Ts) -> Result<()> {
        if self.durability == DurabilityLevel::None {
            return self.opportunistic_drain();
        }
        let mut st = self.state.lock();
        loop {
            Self::check_poison(&st)?;
            if st.durable_ts >= ts {
                return Ok(());
            }
            if st.drained_ts < ts || st.leader_active || st.rewriting {
                // Our frame is still parked behind a lower timestamp, or
                // a flush/checkpoint is in flight. The drain cursor (or
                // the finishing leader) wakes us.
                self.cv.wait(&mut st);
                continue;
            }
            st = self.flush_batch(st)?;
        }
    }

    /// `DurabilityLevel::None`: no durability to wait for; drain the
    /// batch only when it gets large, to bound memory.
    fn opportunistic_drain(&self) -> Result<()> {
        let st = self.state.lock();
        if st.buf.len() < NONE_FLUSH_THRESHOLD || st.leader_active || st.rewriting {
            return Ok(());
        }
        self.flush_batch(st).map(drop)
    }

    /// Leader path: take the batch, write it with the state lock
    /// released (so committers keep staging during the I/O), publish
    /// the new durable horizon, wake everyone covered.
    fn flush_batch<'a>(
        &'a self,
        mut st: parking_lot::MutexGuard<'a, GroupState>,
    ) -> Result<parking_lot::MutexGuard<'a, GroupState>> {
        st.leader_active = true;
        let buf = std::mem::take(&mut st.buf);
        let records = std::mem::take(&mut st.pending);
        let hi = st.enqueued;
        // Every commit frame <= drained_ts is in `buf` (or already on
        // disk), so a successful write makes the cursor's whole prefix
        // durable.
        let hi_ts = st.drained_ts;
        drop(st);
        let res = self.append_counted(&buf, records);
        let mut st = self.state.lock();
        st.leader_active = false;
        match res {
            Ok(()) => {
                st.durable = st.durable.max(hi);
                st.durable_ts = st.durable_ts.max(hi_ts);
                self.cv.notify_all();
                Ok(st)
            }
            Err(e) => Err(self.poison_with(&mut st, e)),
        }
    }

    /// Checkpoint copy phase. Must be called with the commit pipeline
    /// quiesced (exclusive commit latch): every record staged so far
    /// was published before the latch was granted, so the table
    /// snapshot the caller is about to take captures all of them and
    /// the pending batch frames are redundant — they are discarded
    /// here. Quiesces any in-flight flush leader (a leader finishing
    /// *after* the swap would append pre-snapshot frames to the new
    /// file, duplicating records) and marks the log as rewriting, which
    /// parks flushes until [`GroupWal::finish_rewrite`]. Staging stays
    /// free: the commit critical section never stalls on a checkpoint.
    ///
    /// Every `begin_rewrite` that returns `Ok` **must** be paired with a
    /// `finish_rewrite`, or the log wedges with `rewriting` set.
    pub fn begin_rewrite(&self) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            Self::check_poison(&st)?;
            if !st.rewriting {
                break;
            }
            // Another checkpoint is mid-swap. Its finish_rewrite needs no
            // lock we hold, so waiting here cannot deadlock.
            self.cv.wait(&mut st);
        }
        st.rewriting = true;
        while st.leader_active {
            self.cv.wait(&mut st);
        }
        debug_assert!(
            st.staged.is_empty(),
            "rewrite began with commits mid-critical-section"
        );
        st.buf.clear();
        st.pending = 0;
        Ok(())
    }

    /// Checkpoint swap phase: rewrite the file to `image` atomically,
    /// then splice everything committed during the rewrite (it piled up
    /// in the batch buffer) onto the new log's tail and release
    /// waiters. Called with **no** database locks held — the
    /// rewrite I/O is the expensive part and runs entirely off the
    /// commit path. Commits that happened mid-rewrite have timestamps
    /// after the snapshot's `Meta`, so replay order stays consistent:
    /// snapshot first, tail second.
    ///
    /// A crash before the rewrite's rename leaves the old log intact
    /// (pre-checkpoint state); after the rename, the new log replays the
    /// snapshot plus whatever prefix of the tail made it to disk — never
    /// a hybrid. That is why the durable horizon only advances here.
    pub(crate) fn finish_rewrite(&self, image: CheckpointFrames) -> Result<()> {
        let res = self.file.lock().rewrite(image);
        let mut st = self.state.lock();
        if let Err(e) = res {
            st.rewriting = false;
            return Err(self.poison_with(&mut st, e));
        }
        // Splice the mid-rewrite tail. `rewriting` is still set, so no
        // flush leader can interleave with this append.
        let buf = std::mem::take(&mut st.buf);
        let tail_records = std::mem::take(&mut st.pending);
        let hi = st.enqueued;
        let hi_ts = st.drained_ts;
        drop(st);
        let splice = if buf.is_empty() {
            Ok(())
        } else {
            self.append_counted(&buf, tail_records)
        };
        let mut st = self.state.lock();
        st.rewriting = false;
        match splice {
            Ok(()) => {
                st.durable = st.durable.max(hi);
                st.durable_ts = st.durable_ts.max(hi_ts);
                self.cv.notify_all();
                Ok(())
            }
            Err(e) => Err(self.poison_with(&mut st, e)),
        }
    }

    /// `(bytes, records)` written to the underlying file since it was
    /// opened or last rewritten — the growth the checkpoint budget caps.
    pub fn size(&self) -> (u64, u64) {
        let f = self.file.lock();
        (f.bytes_written(), f.records_written())
    }

    fn check_poison(st: &GroupState) -> Result<()> {
        match &st.poison {
            Some(msg) => Err(StorageError::WalUnavailable(msg.clone())),
            None => Ok(()),
        }
    }

    /// Record a flush failure: sticky-poison the log, wake all waiters
    /// (they observe the poison), and return the error to surface.
    fn poison_with(
        &self,
        st: &mut parking_lot::MutexGuard<'_, GroupState>,
        e: StorageError,
    ) -> StorageError {
        let msg = e.to_string();
        st.poison = Some(msg.clone());
        self.cv.notify_all();
        StorageError::WalUnavailable(msg)
    }
}

impl Drop for GroupWal {
    /// Best-effort drain of any frames still buffered (reachable only at
    /// `DurabilityLevel::None`, or if the database is dropped with
    /// commits mid-flight). Errors are ignored: there is no caller left
    /// to surface them to, and `None` promises nothing anyway.
    fn drop(&mut self) {
        let st = self.state.get_mut();
        if st.poison.is_some() {
            return;
        }
        // Fold the contiguous staged prefix in first (frames parked
        // behind a committer that never resolved stay behind — writing
        // them would break the commit-order-prefix invariant).
        loop {
            let next = st.drained_ts + 1;
            match st.staged.remove(&next) {
                Some(Some(frame)) => {
                    st.buf.extend_from_slice(&frame);
                    st.pending += 1;
                    st.drained_ts = next;
                }
                Some(None) => st.drained_ts = next,
                None => break,
            }
        }
        if !st.buf.is_empty() {
            let buf = std::mem::take(&mut st.buf);
            let records = std::mem::take(&mut st.pending);
            let _ = self
                .file
                .get_mut()
                .append_batch(&buf, records, self.durability);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::Arc;

    use super::*;
    use crate::table::Ts;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tendax-group-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn meta(ts: Ts) -> WalRecord {
        WalRecord::Meta {
            next_ts: ts,
            clock: 0,
        }
    }

    fn open_group(path: &PathBuf, durability: DurabilityLevel) -> GroupWal {
        GroupWal::new(WalFile::open(path, durability).unwrap(), durability, 0)
    }

    #[test]
    fn single_record_is_flushed_and_replayable() {
        let path = tmpfile("single.wal");
        {
            let wal = open_group(&path, DurabilityLevel::Fsync);
            let t = wal.enqueue(&meta(7)).unwrap();
            wal.wait_durable(t).unwrap();
            let s = wal.stats();
            assert_eq!(s.batches_flushed, 1);
            assert_eq!(s.records_flushed, 1);
            assert_eq!(s.fsyncs, 1);
        }
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(7)]);
    }

    #[test]
    fn records_staged_before_wait_ride_one_batch() {
        let path = tmpfile("one-batch.wal");
        let wal = open_group(&path, DurabilityLevel::Fsync);
        let tickets: Vec<WalTicket> = (1..=5).map(|i| wal.enqueue(&meta(i)).unwrap()).collect();
        for t in tickets {
            wal.wait_durable(t).unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.records_flushed, 5);
        assert_eq!(
            s.batches_flushed, 1,
            "pre-staged records must share a flush"
        );
        assert_eq!(s.fsyncs, 1);
        assert_eq!(
            s.bytes_flushed,
            wal.size().0 - 10,
            "all but the format frame"
        );
        assert_eq!(WalFile::replay(&path).unwrap().len(), 5);
    }

    #[test]
    fn concurrent_waiters_all_observe_durability() {
        let path = tmpfile("concurrent.wal");
        let wal = Arc::new(open_group(&path, DurabilityLevel::Fsync));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                let t = wal.enqueue(&meta(i + 1)).unwrap();
                wal.wait_durable(t).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.records_flushed, 8);
        assert!(s.batches_flushed <= 8);
        drop(wal);
        assert_eq!(WalFile::replay(&path).unwrap().len(), 8);
    }

    #[test]
    fn checkpoint_replaces_pending_and_advances_horizon() {
        let path = tmpfile("ckpt.wal");
        let wal = open_group(&path, DurabilityLevel::Buffered);
        // Staged but never waited on: the checkpoint snapshot supersedes it.
        let staged = wal.enqueue(&meta(1)).unwrap();
        wal.begin_rewrite().unwrap();
        let mut image = CheckpointFrames::file();
        image.record(&meta(42));
        wal.finish_rewrite(image).unwrap();
        // The pre-checkpoint ticket is durable by inclusion in the snapshot.
        wal.wait_durable(staged).unwrap();
        drop(wal);
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(42)]);
    }

    #[test]
    fn none_level_waits_return_immediately() {
        let path = tmpfile("none.wal");
        let wal = open_group(&path, DurabilityLevel::None);
        let t = wal.enqueue(&meta(1)).unwrap();
        wal.wait_durable(t).unwrap(); // must not block or flush
        assert_eq!(wal.stats().batches_flushed, 0);
        drop(wal); // drop drains the buffer best-effort
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(1)]);
    }

    #[test]
    fn out_of_order_staging_hits_the_file_in_ts_order() {
        let path = tmpfile("ooo.wal");
        let wal = open_group(&path, DurabilityLevel::Buffered);
        // Stage commit ts 2 *before* ts 1 — arrival order inverted.
        let t2 = wal.stage_commit(2, &meta(2)).unwrap();
        let t1 = wal.stage_commit(1, &meta(1)).unwrap();
        wal.wait_durable(t2).unwrap();
        wal.wait_durable(t1).unwrap();
        drop(wal);
        // The file holds them in timestamp order regardless.
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(1), meta(2)]);
    }

    #[test]
    fn skip_steps_cursor_over_aborted_ts() {
        let path = tmpfile("skip.wal");
        let wal = open_group(&path, DurabilityLevel::Buffered);
        // ts 2 stages; ts 1 aborts after allocation. Without the skip,
        // ts 2's frame (and its waiter) would be stuck forever.
        let t2 = wal.stage_commit(2, &meta(2)).unwrap();
        wal.skip_commit(1);
        wal.wait_durable(t2).unwrap();
        drop(wal);
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(2)]);
    }

    #[test]
    fn concurrent_staggered_stages_preserve_ts_order() {
        let path = tmpfile("staggered.wal");
        let wal = Arc::new(open_group(&path, DurabilityLevel::Buffered));
        let mut handles = Vec::new();
        for ts in 1..=16u64 {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                // Higher timestamps tend to stage earlier.
                std::thread::sleep(std::time::Duration::from_micros((17 - ts) * 100));
                let t = wal.stage_commit(ts, &meta(ts)).unwrap();
                wal.wait_durable(t).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(wal);
        let replayed = WalFile::replay(&path).unwrap();
        let expected: Vec<WalRecord> = (1..=16).map(meta).collect();
        assert_eq!(replayed, expected);
    }

    #[test]
    fn drop_writes_only_the_contiguous_staged_prefix() {
        let path = tmpfile("drop-prefix.wal");
        {
            let wal = open_group(&path, DurabilityLevel::None);
            let _ = wal.stage_commit(1, &meta(1)).unwrap();
            // ts 2 never stages; ts 3 is parked behind the hole.
            let _ = wal.stage_commit(3, &meta(3)).unwrap();
        }
        // Only ts 1 may reach the file: writing ts 3 without ts 2 would
        // break the commit-order-prefix replay invariant.
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(1)]);
    }
}
