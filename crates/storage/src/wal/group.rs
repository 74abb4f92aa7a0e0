//! Group commit: durability outside the commit critical section.
//!
//! Commit frames arrive through [`GroupWal::append_commit`], called by
//! each commit under the commit lock (`crate::commit`) just before its
//! timestamp becomes the watermark — so they reach the shared batch
//! buffer in commit-timestamp order, and any replayed prefix of the log
//! is a commit-order prefix. The log keeps no ordering state of its own.
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
//! after the record is durable at the configured level. A commit whose
//! `Durability` was released with `Durability::with_next_flush` (a read
//! event) waits for no flush: its frame stays in the batch until the next
//! leader, a checkpoint's switch or the drop writes it.
//!
//! Non-commit records (DDL) use [`GroupWal::enqueue`], which must be
//! called under the database's commit lock so they interleave with
//! commit frames at a well-defined point.
//!
//! A checkpoint rotates the log with [`GroupWal::switch`], under that
//! same lock and with no I/O: the flush leader that takes the switch
//! writes the frames before it to the live segment, seals that segment
//! and writes the rest to the next one. No flush waits for a checkpoint.
//!
//! A failed flush **poisons** the log: the error is sticky and every
//! in-flight and subsequent waiter receives
//! [`StorageError::WalUnavailable`]. Nothing can be retracted — versions
//! published by a commit whose flush later failed remain visible in
//! memory — so the only honest response is to stop accepting writes
//! (the same reasoning that makes PostgreSQL PANIC on fsync failure).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::table::Ts;
use crate::wal::log::{encode_frame, LogFiles};
use crate::wal::{DurabilityLevel, WalFile, WalRecord};

/// Claim ticket for a logged record: pass to
/// [`GroupWal::wait_durable`] after publication.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WalTicket {
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
    /// Total time committers spent inside `GroupWal::wait_durable`
    /// for commit tickets (the fsync-queue wait).
    pub flush_wait_ns: u64,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Encoded frames appended to the batch, not yet handed to a flush.
    buf: Vec<u8>,
    /// Records in `buf`.
    pending: u64,
    /// Sequence number of the newest record added to `buf`.
    enqueued: u64,
    /// All records with sequence <= this are on disk at the configured
    /// durability level.
    durable: u64,
    /// Timestamp of the newest commit frame added to `buf`. Commit
    /// frames arrive in timestamp order, so every commit with a frame
    /// and a timestamp <= this is in `buf` or the file.
    appended_ts: Ts,
    /// Every commit timestamp <= this is on disk at the configured
    /// durability level.
    durable_ts: Ts,
    /// A flush leader is currently writing outside this lock.
    leader_active: bool,
    /// A checkpoint's switch no flush has taken yet.
    switch: Option<Switch>,
    /// Sticky flush failure. Set once, never cleared.
    poison: Option<String>,
}

/// A switch to `next`: the frames staged before it (`records` of them)
/// go to the live segment, which is then sealed.
#[derive(Debug)]
struct Switch {
    frames: Vec<u8>,
    records: u64,
    next: WalFile,
}

/// The group-commit write-ahead log: the live segment ([`WalFile`])
/// fronted by a shared batch buffer and a leader/follower flush protocol,
/// and the files beside it.
#[derive(Debug)]
pub(crate) struct GroupWal {
    state: Mutex<GroupState>,
    cv: Condvar,
    file: Mutex<WalFile>,
    /// Held by a checkpoint for all of its run, and by nothing else.
    pub(crate) files: Mutex<LogFiles>,
    durability: DurabilityLevel,
    /// [`WalShardStats`], field for field.
    batches_flushed: AtomicU64,
    records_flushed: AtomicU64,
    fsyncs: AtomicU64,
    bytes_flushed: AtomicU64,
    flush_wait_ns: AtomicU64,
}

impl GroupWal {
    pub(crate) fn new(files: LogFiles, file: WalFile, durability: DurabilityLevel) -> GroupWal {
        GroupWal {
            state: Mutex::new(GroupState::default()),
            cv: Condvar::new(),
            file: Mutex::new(file),
            files: Mutex::new(files),
            durability,
            batches_flushed: AtomicU64::new(0),
            records_flushed: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes_flushed: AtomicU64::new(0),
            flush_wait_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> WalShardStats {
        WalShardStats {
            batches_flushed: self.batches_flushed.load(Ordering::Relaxed),
            records_flushed: self.records_flushed.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes_flushed: self.bytes_flushed.load(Ordering::Relaxed),
            flush_wait_ns: self.flush_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Write one batch out, behind a switch's frames, the live segment
    /// sealed and replaced between them.
    fn write_batch(&self, file: &mut WalFile, s: Option<Switch>, buf: &[u8], n: u64) -> Result<()> {
        if let Some(s) = s {
            self.append_counted(file, &s.frames, s.records)?;
            file.seal()?;
            *file = s.next;
        }
        self.append_counted(file, buf, n)
    }

    /// Append frames, if there are any, to `file` at the log's durability
    /// level and, when that succeeds, count them: the one place a flush
    /// is issued and the one place the counters move.
    fn append_counted(&self, file: &mut WalFile, buf: &[u8], records: u64) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        file.append_batch(buf, records)?;
        self.batches_flushed.fetch_add(1, Ordering::Relaxed);
        self.records_flushed.fetch_add(records, Ordering::Relaxed);
        self.bytes_flushed
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        if self.durability == DurabilityLevel::Fsync {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Stage a non-commit record (DDL). Must be called under the commit
    /// lock, so the frame lands at a well-defined point between commit
    /// frames.
    pub(crate) fn enqueue(&self, rec: &WalRecord) -> Result<WalTicket> {
        let frame = encode_frame(rec);
        let mut st = self.state.lock();
        Self::check_poison(&st)?;
        st.buf.extend_from_slice(&frame);
        st.pending += 1;
        st.enqueued += 1;
        Ok(WalTicket::Seq(st.enqueued))
    }

    /// Fails once the log is poisoned. A commit asks before it takes a
    /// timestamp, so a poisoned log publishes nothing new.
    pub(crate) fn healthy(&self) -> Result<()> {
        Self::check_poison(&self.state.lock())
    }

    /// Append the commit frame of `ts` to the batch. Called only under
    /// the commit lock, so in timestamp order. Appends
    /// even to a poisoned log: the commit is already visible, and its
    /// waiter learns of the poison in [`GroupWal::wait_durable`].
    pub(crate) fn append_commit(&self, ts: Ts, frame: &[u8]) {
        let mut st = self.state.lock();
        debug_assert!(ts > st.appended_ts, "commit frames out of ts order");
        st.buf.extend_from_slice(frame);
        st.pending += 1;
        st.enqueued += 1;
        st.appended_ts = ts;
    }

    /// Block until the ticket's record is durable at the configured
    /// level. Called with **no** database locks held; this is where the
    /// leader/follower protocol runs.
    pub(crate) fn wait_durable(&self, ticket: WalTicket) -> Result<()> {
        match ticket {
            WalTicket::Seq(seq) => self.wait_until(|st| st.durable >= seq),
            WalTicket::Commit(ts) => {
                let started = std::time::Instant::now();
                let res = self.wait_until(|st| {
                    // A commit appends its frame before it lets the
                    // commit lock go, and waits only after that.
                    debug_assert!(st.appended_ts >= ts, "commit waited before its frame");
                    st.durable_ts >= ts
                });
                self.flush_wait_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                res
            }
        }
    }

    fn wait_until(&self, durable: impl Fn(&GroupState) -> bool) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            Self::check_poison(&st)?;
            if durable(&st) {
                return Ok(());
            }
            if st.leader_active {
                // A flush is in flight; it — or the next leader after
                // it — will cover us.
                self.cv.wait(&mut st);
                continue;
            }
            // Become the leader. Our record entered the batch before we
            // got here, so one successful round always covers our ticket.
            st = self.flush_batch(st)?;
        }
    }

    /// Leader path: take the batch, write it with the state lock
    /// released (so commits keep appending during the I/O), publish
    /// the new durable horizon, wake everyone covered.
    fn flush_batch<'a>(
        &'a self,
        mut st: parking_lot::MutexGuard<'a, GroupState>,
    ) -> Result<parking_lot::MutexGuard<'a, GroupState>> {
        st.leader_active = true;
        let buf = std::mem::take(&mut st.buf);
        let records = std::mem::take(&mut st.pending);
        let switch = st.switch.take();
        let hi = st.enqueued;
        // Every commit frame <= appended_ts is in `buf` (or already on
        // disk), so a successful write makes that whole prefix durable.
        let hi_ts = st.appended_ts;
        drop(st);
        let res = self.write_batch(&mut self.file.lock(), switch, &buf, records);
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

    /// Move the log to `next`, a new segment, behind every frame staged
    /// so far. Must be called under the commit lock, so the frames
    /// before the switch are exactly those at or below the watermark.
    /// Does no I/O; the ticket is durable once a flush has made the
    /// switch.
    pub(crate) fn switch(&self, next: WalFile) -> Result<WalTicket> {
        let mut st = self.state.lock();
        Self::check_poison(&st)?;
        debug_assert!(st.switch.is_none(), "checkpoints overlap");
        st.switch = Some(Switch {
            frames: std::mem::take(&mut st.buf),
            records: std::mem::take(&mut st.pending),
            next,
        });
        st.enqueued += 1;
        Ok(WalTicket::Seq(st.enqueued))
    }

    /// `(bytes, records)` written to the live segment since it was opened
    /// — the growth since open or the last checkpoint, which the
    /// checkpoint budget caps.
    pub(crate) fn size(&self) -> (u64, u64) {
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
    /// Best-effort write of any frames still buffered (a read event
    /// nobody waits for, or a database dropped before a committer waited
    /// on its ticket). Errors are
    /// ignored: there is no caller left to surface them to.
    fn drop(&mut self) {
        let st = self.state.get_mut();
        if st.poison.is_some() || (st.buf.is_empty() && st.switch.is_none()) {
            return;
        }
        let buf = std::mem::take(&mut st.buf);
        let records = std::mem::take(&mut st.pending);
        let switch = st.switch.take();
        let _ = self.write_batch(&mut self.file.lock(), switch, &buf, records);
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::Arc;

    use super::*;
    use crate::table::Ts;
    use crate::vfs::os_vfs;
    use crate::wal::{segment_path, WalIter};

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

    fn open_group(path: &std::path::Path, durability: DurabilityLevel) -> GroupWal {
        let end = WalFile::replay_on(&*os_vfs(), path, |_| Ok(())).unwrap();
        let (files, file) = LogFiles::open(os_vfs(), path, end, durability).unwrap();
        GroupWal::new(files, file, durability)
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
    fn a_switch_seals_the_live_segment_behind_the_frames_before_it() {
        let path = tmpfile("switch.wal");
        let _ = std::fs::remove_file(segment_path(&path, 1));
        let wal = open_group(&path, DurabilityLevel::Fsync);
        let before = wal.enqueue(&meta(1)).unwrap();
        let next = wal.files.lock().create_next().unwrap();
        let switched = wal.switch(next).unwrap();
        let after = wal.enqueue(&meta(2)).unwrap();
        // One flush takes all three: the frame before the switch goes to
        // segment 0, which is sealed (cut to its frames), the one after
        // it to segment 1.
        wal.wait_durable(after).unwrap();
        wal.wait_durable(switched).unwrap();
        wal.wait_durable(before).unwrap();
        assert_eq!(wal.stats().batches_flushed, 2);
        let sealed = std::fs::read(&path).unwrap();
        assert_eq!(WalIter::new(&sealed).count(), 2, "format frame and meta(1)");
        assert_eq!(wal.size(), (10 + encode_frame(&meta(2)).len() as u64, 1));
        drop(wal);
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(1), meta(2)]);
    }
}
