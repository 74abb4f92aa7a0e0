//! The commit lock: commits run one at a time.
//!
//! Every edit writes the same tables, so commits wait for each other's
//! table write locks anyway; one lock over the whole commit costs
//! nothing more and orders everything a commit does by its timestamp.
//! The lock's guard owns the newest commit timestamp. A commit validates,
//! takes the next timestamp, encodes its frame into the log's batch,
//! applies its versions, calls the observers and stores the watermark,
//! all under the lock; only the wait for the disk comes after it, so
//! typists still share a group-commit flush. DDL, observer registration
//! and a checkpoint's switch take the same lock to keep commits out.
//!
//! Under it a commit write-locks the tables it writes or expects
//! unchanged, in table-id order, through the handles its transaction
//! holds ([`with_locked`]): each lock is a stack frame, so holding them
//! allocates nothing.
//!
//! The watermark is the newest commit whose versions are applied and
//! whose frame is in the log's batch. [`Database::begin`] reads it with
//! no lock: a snapshot at it contains every commit at or below it.
//!
//! [`Database::begin`]: crate::Database::begin

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard, RwLockWriteGuard};

use crate::schema::TableId;
use crate::table::{TableStore, Ts};
use crate::txn::TableHandle;

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
    pub(crate) fn next<'a>(&'a self, last: MutexGuard<'a, Ts>) -> NextTs<'a> {
        NextTs {
            ts: *last + 1,
            last,
            lock: self,
        }
    }
}

/// A commit's timestamp, from the moment it is taken. Its drop — on
/// success or on an unwind — makes the timestamp the newest and stores
/// the watermark, then lets the lock go. The commit's frame is in the
/// log's batch before its first version is applied, so it reaches the
/// log even if the commit unwound: what a snapshot can see must survive a
/// reopen.
pub(crate) struct NextTs<'a> {
    pub(crate) ts: Ts,
    last: MutexGuard<'a, Ts>,
    lock: &'a CommitLock,
}

impl Drop for NextTs<'_> {
    fn drop(&mut self) {
        *self.last = self.ts;
        // Pairs with the Acquire in `watermark`: a snapshot that reads
        // `ts` sees every version the commit applied.
        self.lock.watermark.store(self.ts, Ordering::Release);
    }
}

/// The tables a commit holds write-locked, found by id.
pub(crate) trait LockedTables {
    fn get(&self, table: TableId) -> Option<&TableStore>;
    fn get_mut(&mut self, table: TableId) -> Option<&mut TableStore>;
}

/// No table locked.
impl LockedTables for () {
    fn get(&self, _: TableId) -> Option<&TableStore> {
        None
    }

    fn get_mut(&mut self, _: TableId) -> Option<&mut TableStore> {
        None
    }
}

/// One table locked on top of those `outer` holds.
struct Locked<'g, 'o> {
    table: TableId,
    store: RwLockWriteGuard<'g, TableStore>,
    outer: &'o mut dyn LockedTables,
}

impl LockedTables for Locked<'_, '_> {
    fn get(&self, table: TableId) -> Option<&TableStore> {
        match table == self.table {
            true => Some(&self.store),
            false => self.outer.get(table),
        }
    }

    fn get_mut(&mut self, table: TableId) -> Option<&mut TableStore> {
        match table == self.table {
            true => Some(&mut self.store),
            false => self.outer.get_mut(table),
        }
    }
}

/// Write-lock the tables of `handles`, in the order given, on top of
/// those `held` holds, and run `body` with them all: one stack frame per
/// lock, no collection of guards.
pub(crate) fn with_locked<R>(
    handles: &[TableHandle],
    held: &mut dyn LockedTables,
    body: impl FnOnce(&mut dyn LockedTables) -> R,
) -> R {
    let Some(((table, store), rest)) = handles.split_first() else {
        return body(held);
    };
    let mut level = Locked {
        table: *table,
        store: store.write(),
        outer: held,
    };
    with_locked(rest, &mut level, body)
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
        assert_eq!(lock.next(lock.commit()).ts, 6);
    }

    #[test]
    fn concurrent_allocate_complete_keeps_watermark_dense() {
        let lock = Arc::new(CommitLock::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lock = lock.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let next = lock.next(lock.commit());
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
        let next = lock.next(lock.commit());
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
                lock.next(lock.commit()).ts
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
