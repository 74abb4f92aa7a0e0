//! The commit lock: commits run one at a time.
//!
//! Every edit writes the same tables, so commits wait for each other's
//! table write locks anyway; one lock over the whole commit costs
//! nothing more and orders everything a commit does by its timestamp.
//! The lock's guard owns the newest commit timestamp. A commit validates,
//! takes the next timestamp, applies its versions, calls the observers,
//! appends its frame to the log's batch and stores the watermark, all
//! under the lock; only the wait for the disk comes after it, so typists
//! still share a group-commit flush. DDL, observer registration and a
//! checkpoint's switch take the same lock to keep commits out.
//!
//! The watermark is the newest commit whose versions are applied and
//! whose frame is in the log's batch. [`Database::begin`] reads it with
//! no lock: a snapshot at it contains every commit at or below it.
//!
//! [`Database::begin`]: crate::Database::begin

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use crate::table::Ts;
use crate::wal::GroupWal;

#[derive(Debug, Default)]
pub(crate) struct CommitLock {
    /// The newest commit timestamp.
    last: Mutex<Ts>,
    /// `last`, for `begin` to read with no lock; stored under it.
    watermark: AtomicU64,
    /// Nanoseconds commits waited for a lock another caller held.
    wait_ns: AtomicU64,
    /// DDL, switches and observer registrations that found it held.
    stalls: AtomicU64,
}

impl CommitLock {
    /// The newest commit a snapshot may contain.
    pub(crate) fn watermark(&self) -> Ts {
        self.watermark.load(Ordering::Acquire)
    }

    /// Recovery: a replayed record committed at `ts`. Replay sees
    /// timestamps out of order (a checkpoint's rows are in row order), so
    /// the newest one wins.
    pub(crate) fn observe(&self, ts: Ts) {
        let mut last = self.last.lock();
        *last = (*last).max(ts);
        self.watermark.store(*last, Ordering::Release);
    }

    /// Take the lock to commit. The clock is read only when another
    /// caller holds it.
    pub(crate) fn commit(&self) -> MutexGuard<'_, Ts> {
        self.last.try_lock().unwrap_or_else(|| {
            let start = Instant::now();
            let last = self.last.lock();
            (self.wait_ns).fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            last
        })
    }

    /// Take the lock to keep commits out (DDL, a checkpoint's switch,
    /// an observer's registration).
    pub(crate) fn quiesce(&self) -> MutexGuard<'_, Ts> {
        self.last.try_lock().unwrap_or_else(|| {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            self.last.lock()
        })
    }

    pub(crate) fn wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// The next timestamp, held by `last`'s commit until the returned
    /// guard drops.
    pub(crate) fn next<'a>(
        &'a self,
        last: MutexGuard<'a, Ts>,
        log: Option<&'a GroupWal>,
    ) -> NextTs<'a> {
        NextTs {
            ts: *last + 1,
            frame: None,
            last,
            lock: self,
            log,
        }
    }
}

/// A commit's timestamp, from the moment it is taken. Its drop — on
/// success or on an unwind — appends the frame, if one was encoded, to
/// the log's batch, makes the timestamp the newest and stores the
/// watermark, then lets the lock go. A frame once encoded reaches the
/// log even if the commit unwound: its versions may already be applied,
/// and what a snapshot can see must survive a reopen.
pub(crate) struct NextTs<'a> {
    pub(crate) ts: Ts,
    /// The commit's encoded log record; `None` for an in-memory database.
    pub(crate) frame: Option<Vec<u8>>,
    last: MutexGuard<'a, Ts>,
    lock: &'a CommitLock,
    log: Option<&'a GroupWal>,
}

impl Drop for NextTs<'_> {
    fn drop(&mut self) {
        if let Some(frame) = self.frame.take() {
            (self.log.expect("a commit with a frame has a log")).append_commit(self.ts, &frame);
        }
        *self.last = self.ts;
        // Pairs with the Acquire in `watermark`: a snapshot that reads
        // `ts` sees every version the commit applied.
        self.lock.watermark.store(self.ts, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;

    #[test]
    fn observe_replays_monotonically() {
        let lock = CommitLock::default();
        lock.observe(5);
        lock.observe(3); // out-of-date replay record: no regression
        assert_eq!(lock.watermark(), 5);
        assert_eq!(lock.next(lock.commit(), None).ts, 6);
    }

    #[test]
    fn concurrent_allocate_complete_keeps_watermark_dense() {
        let lock = Arc::new(CommitLock::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lock = lock.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let next = lock.next(lock.commit(), None);
                        assert_eq!(lock.watermark(), next.ts - 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.watermark(), 2000);
        assert_eq!(*lock.commit(), 2000);
    }

    #[test]
    fn a_quiesce_behind_a_commit_waits_and_counts_a_stall() {
        let lock = Arc::new(CommitLock::default());
        let next = lock.next(lock.commit(), None);
        let quiesce = {
            let lock = lock.clone();
            std::thread::spawn(move || *lock.quiesce())
        };
        // The stall is counted before the quiesce blocks.
        while lock.stalls() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(!quiesce.is_finished(), "a quiesce ran beside a commit");
        drop(next);
        assert_eq!(quiesce.join().unwrap(), 1);
        assert_eq!((lock.stalls(), lock.wait_ns()), (1, 0));
    }

    #[test]
    fn a_commit_behind_another_counts_its_wait() {
        let lock = Arc::new(CommitLock::default());
        let held = lock.quiesce();
        let (started, on_start) = std::sync::mpsc::channel();
        let commit = {
            let lock = lock.clone();
            std::thread::spawn(move || {
                started.send(()).unwrap();
                lock.next(lock.commit(), None).ts
            })
        };
        on_start.recv().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert_eq!(commit.join().unwrap(), 1);
        assert!(lock.wait_ns() > 0);
        assert_eq!(lock.stalls(), 0);
    }
}
