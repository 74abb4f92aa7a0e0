//! The sharded commit pipeline's coordination primitives.
//!
//! Commits to disjoint tables no longer serialize on a global mutex.
//! Instead the pipeline is built from two small pieces:
//!
//! * [`CommitSequencer`] — an atomic commit-timestamp allocator plus a
//!   **contiguous-prefix watermark**. Timestamps are handed out densely;
//!   a pending map tracks which of them have resolved, and holds the log
//!   frame of each resolved commit. The watermark advances only when
//!   *every* lower timestamp has resolved, so a snapshot taken at the
//!   watermark never has a gap: it sees all writes with
//!   `commit_ts <= watermark`, across all tables, even while commits
//!   publish out of timestamp order. The same step hands each frame it
//!   folds in to the log, so the log receives commits in timestamp
//!   order too: the sequencer is the one owner of the commit order.
//! * [`CommitLatch`] — a writer-preferring shared/exclusive latch.
//!   Commits take it shared and run concurrently; DDL and a
//!   checkpoint's switch take it exclusive, which quiesces the
//!   pipeline (no commit is mid-validation/publication while the
//!   catalog changes or the log switches segments). Hand-rolled on
//!   `Mutex` + `Condvar` rather than an `RwLock` so writer preference
//!   is guaranteed (a DDL can't be starved by a steady commit stream)
//!   and so wait time is observable (`Stats::commit_wait_ns`,
//!   `Stats::ddl_stalls`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::table::Ts;
use crate::wal::GroupWal;

// ------------------------------------------------------------- sequencer

#[derive(Debug)]
struct SeqState {
    /// Next timestamp to hand out. Allocation is dense: every ts in
    /// `(watermark, next_ts)` is either in `pending` or resolved with
    /// no frame.
    next_ts: Ts,
    /// Commit timestamps above the watermark: `None` while the commit
    /// is publishing, its encoded log frame once it resolved with one.
    /// A timestamp resolved with no frame (an in-memory commit, or one
    /// that failed before its frame was encoded) leaves the map.
    pending: BTreeMap<Ts, Option<Vec<u8>>>,
}

/// Commit-timestamp allocator + contiguous-prefix watermark.
#[derive(Debug)]
pub(crate) struct CommitSequencer {
    state: Mutex<SeqState>,
    /// All commits with `ts <= watermark` have published (or were
    /// released). This is the only timestamp `begin()` may hand out as
    /// a snapshot.
    watermark: AtomicU64,
    /// Max `ts - watermark` gap observed at allocation time: how far
    /// the pipeline has run ahead of the slowest in-flight commit.
    lag_max: AtomicU64,
    /// Signalled whenever the watermark advances ([`wait_visible`]
    /// parks here).
    visible: Condvar,
    /// Total nanoseconds committers spent in [`wait_visible`].
    visibility_wait_ns: AtomicU64,
}

impl CommitSequencer {
    /// A sequencer whose watermark starts at `start` (0 for a fresh
    /// database; the recovered last commit ts after replay).
    pub(crate) fn new(start: Ts) -> CommitSequencer {
        CommitSequencer {
            state: Mutex::new(SeqState {
                next_ts: start + 1,
                pending: BTreeMap::new(),
            }),
            watermark: AtomicU64::new(start),
            lag_max: AtomicU64::new(0),
            visible: Condvar::new(),
            visibility_wait_ns: AtomicU64::new(0),
        }
    }

    /// The newest gap-free commit timestamp (snapshot source).
    pub(crate) fn watermark(&self) -> Ts {
        self.watermark.load(Ordering::Acquire)
    }

    pub(crate) fn lag_max(&self) -> u64 {
        self.lag_max.load(Ordering::Relaxed)
    }

    pub(crate) fn visibility_wait_ns(&self) -> u64 {
        self.visibility_wait_ns.load(Ordering::Relaxed)
    }

    /// Claim the next commit timestamp. The caller must eventually
    /// [`resolve`](Self::resolve) it exactly once, or the watermark
    /// stalls forever at `ts - 1`.
    pub(crate) fn allocate(&self) -> Ts {
        let mut st = self.state.lock();
        let ts = st.next_ts;
        st.next_ts += 1;
        st.pending.insert(ts, None);
        // Watermark only moves under this same lock, so a relaxed load
        // is exact here.
        let lag = ts - self.watermark.load(Ordering::Relaxed);
        drop(st);
        bump_max(&self.lag_max, lag);
        ts
    }

    /// Resolve `ts`: the commit published its versions (or never will),
    /// and `frame` is its encoded log record, if it has one. Once every
    /// lower timestamp has resolved too, `ts` joins the watermark and
    /// its frame goes to `log` in that same step — whoever resolves the
    /// last missing timestamp appends the whole run, in timestamp order.
    /// A commit that unwound after encoding its frame still resolves
    /// with it: its versions may already be in the tables, and what a
    /// snapshot can see must reach the log.
    pub(crate) fn resolve(&self, ts: Ts, frame: Option<Vec<u8>>, log: Option<&GroupWal>) {
        let mut st = self.state.lock();
        match frame {
            Some(frame) => {
                let slot = st.pending.get_mut(&ts).expect("resolve of unallocated ts");
                *slot = Some(frame);
            }
            None => {
                st.pending.remove(&ts);
            }
        }
        self.advance(&mut st, log);
    }

    /// Commit wait: block until the watermark covers `ts`, i.e. until
    /// the caller's (already completed) commit is visible to new
    /// snapshots. Without this a session's *next* transaction could be
    /// handed a snapshot below its own previous commit — it would miss
    /// its own write and spuriously fail first-committer-wins against
    /// itself. The wait is bounded by the publication (pure memory
    /// work) of concurrently committing lower timestamps, never by the
    /// disk: every committer resolves its slot *before* it parks on WAL
    /// durability. Once it returns, the commit's frame is in the log's
    /// batch buffer.
    pub(crate) fn wait_visible(&self, ts: Ts) {
        if self.watermark.load(Ordering::Acquire) >= ts {
            return;
        }
        let start = Instant::now();
        let mut st = self.state.lock();
        while self.watermark.load(Ordering::Relaxed) < ts {
            self.visible.wait(&mut st);
        }
        drop(st);
        self.visibility_wait_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Recovery path: fold a replayed commit timestamp in directly.
    /// Only called single-threaded, before the pipeline is live.
    pub(crate) fn observe(&self, ts: Ts) {
        let mut st = self.state.lock();
        debug_assert!(st.pending.is_empty(), "observe with commits in flight");
        if ts >= st.next_ts {
            st.next_ts = ts + 1;
        }
        bump_max(&self.watermark, ts);
    }

    /// Advance the watermark over the contiguous prefix of resolved
    /// timestamps, appending their frames to `log` in order. An entry
    /// missing from `pending` (but below `next_ts`) resolved with no
    /// frame; `None` means still publishing — stop.
    fn advance(&self, st: &mut SeqState, log: Option<&GroupWal>) {
        let mut w = self.watermark.load(Ordering::Relaxed);
        while w + 1 < st.next_ts {
            let next = w + 1;
            if matches!(st.pending.get(&next), Some(None)) {
                break;
            }
            if let Some(Some(frame)) = st.pending.remove(&next) {
                log.expect("a commit with a frame has a log")
                    .append_commit(next, &frame);
            }
            w = next;
        }
        // Release pairs with the Acquire in `watermark()`: a snapshot
        // that observes `w` also observes every version published by
        // commits folded into it (publication happens-before `resolve`,
        // which happens-before this store via the state mutex).
        self.watermark.store(w, Ordering::Release);
        self.visible.notify_all();
    }
}

// ----------------------------------------------------------------- latch

#[derive(Debug, Default)]
struct LatchState {
    /// Shared holders (commits) currently inside the pipeline.
    shared: usize,
    /// An exclusive holder (DDL / a checkpoint's switch) is inside.
    exclusive: bool,
    /// Exclusive acquirers parked; new shared acquirers queue behind
    /// them (writer preference — a DDL is never starved by commits).
    exclusive_waiting: usize,
}

/// Writer-preferring shared/exclusive latch for the commit pipeline.
#[derive(Debug)]
pub(crate) struct CommitLatch {
    state: Mutex<LatchState>,
    cv: Condvar,
    /// Total nanoseconds commits spent blocked acquiring shared mode.
    shared_wait_ns: AtomicU64,
    /// Exclusive acquisitions that had to wait for the pipeline to
    /// quiesce.
    exclusive_stalls: AtomicU64,
}

impl CommitLatch {
    pub(crate) fn new() -> CommitLatch {
        CommitLatch {
            state: Mutex::new(LatchState::default()),
            cv: Condvar::new(),
            shared_wait_ns: AtomicU64::new(0),
            exclusive_stalls: AtomicU64::new(0),
        }
    }

    pub(crate) fn shared_wait_ns(&self) -> u64 {
        self.shared_wait_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn exclusive_stalls(&self) -> u64 {
        self.exclusive_stalls.load(Ordering::Relaxed)
    }

    /// Enter the pipeline as a commit. Blocks only while an exclusive
    /// holder (or one waiting its turn) has the latch.
    pub(crate) fn shared(&self) -> SharedGuard<'_> {
        let mut st = self.state.lock();
        if st.exclusive || st.exclusive_waiting > 0 {
            let start = Instant::now();
            while st.exclusive || st.exclusive_waiting > 0 {
                self.cv.wait(&mut st);
            }
            self.shared_wait_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        st.shared += 1;
        SharedGuard { latch: self }
    }

    /// Quiesce the pipeline (DDL, a checkpoint's switch). Blocks until
    /// every in-flight commit critical section has drained.
    pub(crate) fn exclusive(&self) -> ExclusiveGuard<'_> {
        let mut st = self.state.lock();
        if st.exclusive || st.shared > 0 {
            self.exclusive_stalls.fetch_add(1, Ordering::Relaxed);
        }
        st.exclusive_waiting += 1;
        while st.exclusive || st.shared > 0 {
            self.cv.wait(&mut st);
        }
        st.exclusive_waiting -= 1;
        st.exclusive = true;
        ExclusiveGuard { latch: self }
    }
}

#[derive(Debug)]
pub(crate) struct SharedGuard<'a> {
    latch: &'a CommitLatch,
}

impl Drop for SharedGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.latch.state.lock();
        st.shared -= 1;
        if st.shared == 0 {
            self.latch.cv.notify_all();
        }
    }
}

#[derive(Debug)]
pub(crate) struct ExclusiveGuard<'a> {
    latch: &'a CommitLatch,
}

impl Drop for ExclusiveGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.latch.state.lock();
        st.exclusive = false;
        self.latch.cv.notify_all();
    }
}

fn bump_max(cell: &AtomicU64, seen: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while cur < seen {
        match cell.compare_exchange_weak(cur, seen, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(c) => cur = c,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;
    use crate::wal::{encode_frame, DurabilityLevel, WalFile, WalRecord, WalTicket};

    #[test]
    fn watermark_waits_for_contiguous_prefix() {
        let seq = CommitSequencer::new(0);
        let t1 = seq.allocate();
        let t2 = seq.allocate();
        let t3 = seq.allocate();
        assert_eq!((t1, t2, t3), (1, 2, 3));
        // Out-of-order completion: the watermark must not expose ts 3
        // while 1 is still publishing.
        seq.resolve(t3, None, None);
        assert_eq!(seq.watermark(), 0);
        seq.resolve(t2, None, None);
        assert_eq!(seq.watermark(), 0);
        seq.resolve(t1, None, None);
        assert_eq!(seq.watermark(), 3);
        assert!(seq.lag_max() >= 3);
    }

    #[test]
    fn release_mid_window_does_not_stall_watermark() {
        let seq = CommitSequencer::new(10);
        let a = seq.allocate(); // 11
        let b = seq.allocate(); // 12
        let c = seq.allocate(); // 13
        seq.resolve(c, None, None);
        seq.resolve(a, None, None);
        assert_eq!(seq.watermark(), 11);
        // The aborted middle commit releases its slot; the watermark
        // skips over the hole and folds in everything behind it.
        seq.resolve(b, None, None);
        assert_eq!(seq.watermark(), 13);
        // Next allocation continues densely after the hole.
        assert_eq!(seq.allocate(), 14);
    }

    #[test]
    fn release_of_newest_ts_leaves_watermark_reachable() {
        let seq = CommitSequencer::new(0);
        let a = seq.allocate();
        let b = seq.allocate();
        seq.resolve(b, None, None);
        seq.resolve(a, None, None);
        assert_eq!(seq.watermark(), 2, "trailing released ts is folded in");
    }

    #[test]
    fn observe_replays_monotonically() {
        let seq = CommitSequencer::new(0);
        seq.observe(5);
        seq.observe(3); // out-of-date replay record: no regression
        assert_eq!(seq.watermark(), 5);
        assert_eq!(seq.allocate(), 6);
    }

    #[test]
    fn wait_visible_blocks_until_lower_ts_resolves() {
        let seq = Arc::new(CommitSequencer::new(0));
        let t1 = seq.allocate();
        let t2 = seq.allocate();
        seq.resolve(t2, None, None);
        // t2's committer is done publishing but t1 is still in flight:
        // visibility must wait for it.
        let waiter = {
            let seq = seq.clone();
            std::thread::spawn(move || {
                seq.wait_visible(t2);
                seq.watermark()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "became visible past a gap");
        seq.resolve(t1, None, None);
        assert_eq!(waiter.join().unwrap(), 2);
        assert!(seq.visibility_wait_ns() > 0);
        // Already-visible timestamps return immediately.
        seq.wait_visible(t1);
    }

    #[test]
    fn latch_exclusive_waits_for_shared_and_counts_stall() {
        let latch = Arc::new(CommitLatch::new());
        let held = Arc::new(AtomicBool::new(true));
        let s = latch.shared();
        let t = {
            let latch = latch.clone();
            let held = held.clone();
            std::thread::spawn(move || {
                let _x = latch.exclusive();
                // Must only get here once the shared guard dropped.
                assert!(!held.load(Ordering::SeqCst));
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        held.store(false, Ordering::SeqCst);
        drop(s);
        t.join().unwrap();
        assert_eq!(latch.exclusive_stalls(), 1);
    }

    #[test]
    fn latch_shared_queues_behind_waiting_exclusive() {
        // Writer preference: once an exclusive acquirer is parked, new
        // shared acquirers wait behind it instead of starving it.
        let latch = Arc::new(CommitLatch::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        let s = latch.shared();
        let excl = {
            let latch = latch.clone();
            let order = order.clone();
            std::thread::spawn(move || {
                let _x = latch.exclusive();
                order.lock().push("exclusive");
            })
        };
        // Wait until the exclusive acquirer is parked.
        while latch.state.lock().exclusive_waiting == 0 {
            std::thread::yield_now();
        }
        let shared2 = {
            let latch = latch.clone();
            let order = order.clone();
            std::thread::spawn(move || {
                let _s = latch.shared();
                order.lock().push("shared");
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(s);
        excl.join().unwrap();
        shared2.join().unwrap();
        assert_eq!(*order.lock(), vec!["exclusive", "shared"]);
        assert!(latch.shared_wait_ns() > 0);
    }

    #[test]
    fn concurrent_allocate_complete_keeps_watermark_dense() {
        let seq = Arc::new(CommitSequencer::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let seq = seq.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let ts = seq.allocate();
                    seq.resolve(ts, None, None);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Everything resolved: the watermark equals the newest allocated
        // ts and nothing is left pending.
        assert_eq!(seq.watermark(), 2000);
        assert!(seq.state.lock().pending.is_empty());
    }

    // The log half of `resolve`: frames reach the file in timestamp
    // order whatever order the timestamps resolve in.

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tendax-commit-test-{}-{:?}",
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

    fn frame(ts: Ts) -> Option<Vec<u8>> {
        Some(encode_frame(&meta(ts)))
    }

    fn open_log(path: &std::path::Path) -> GroupWal {
        let (vfs, level) = (crate::vfs::os_vfs(), DurabilityLevel::Buffered);
        let end = WalFile::replay_on(&*vfs, path, |_| Ok(())).unwrap();
        let (files, file) = crate::wal::LogFiles::open(vfs, path, end, level).unwrap();
        GroupWal::new(files, file, level)
    }

    #[test]
    fn out_of_order_resolves_hit_the_file_in_ts_order() {
        let path = tmpfile("ooo.wal");
        let seq = CommitSequencer::new(0);
        let wal = open_log(&path);
        let (t1, t2) = (seq.allocate(), seq.allocate());
        // ts 2 resolves *before* ts 1 — arrival order inverted.
        seq.resolve(t2, frame(t2), Some(&wal));
        seq.resolve(t1, frame(t1), Some(&wal));
        wal.wait_durable(WalTicket::Commit(t2)).unwrap();
        wal.wait_durable(WalTicket::Commit(t1)).unwrap();
        drop(wal);
        // The file holds them in timestamp order regardless.
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(1), meta(2)]);
    }

    #[test]
    fn resolve_without_frame_leaves_no_hole() {
        let path = tmpfile("skip.wal");
        let seq = CommitSequencer::new(0);
        let wal = open_log(&path);
        let (t1, t2) = (seq.allocate(), seq.allocate());
        // ts 2 resolves with its frame; ts 1 fails before encoding one.
        // Without stepping over ts 1, ts 2's frame (and its waiter)
        // would be stuck forever.
        seq.resolve(t2, frame(t2), Some(&wal));
        seq.resolve(t1, None, Some(&wal));
        assert_eq!(seq.watermark(), 2);
        wal.wait_durable(WalTicket::Commit(t2)).unwrap();
        drop(wal);
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(2)]);
    }

    #[test]
    fn concurrent_staggered_resolves_preserve_ts_order() {
        let path = tmpfile("staggered.wal");
        let seq = Arc::new(CommitSequencer::new(0));
        let wal = Arc::new(open_log(&path));
        let mut handles = Vec::new();
        for _ in 1..=16 {
            let ts = seq.allocate();
            let (seq, wal) = (seq.clone(), wal.clone());
            handles.push(std::thread::spawn(move || {
                // Higher timestamps tend to resolve earlier.
                std::thread::sleep(Duration::from_micros((17 - ts) * 100));
                seq.resolve(ts, frame(ts), Some(&wal));
                seq.wait_visible(ts);
                wal.wait_durable(WalTicket::Commit(ts)).unwrap();
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
    fn drop_writes_only_the_resolved_prefix() {
        let path = tmpfile("drop-prefix.wal");
        {
            let seq = CommitSequencer::new(0);
            let wal = open_log(&path);
            let (t1, _t2, t3) = (seq.allocate(), seq.allocate(), seq.allocate());
            seq.resolve(t1, frame(t1), Some(&wal));
            // ts 2 never resolves; ts 3 is parked behind the hole.
            seq.resolve(t3, frame(t3), Some(&wal));
            assert_eq!(seq.watermark(), 1);
        }
        // Only ts 1 may reach the file: writing ts 3 without ts 2 would
        // break the commit-order-prefix replay invariant.
        assert_eq!(WalFile::replay(&path).unwrap(), vec![meta(1)]);
    }
}
