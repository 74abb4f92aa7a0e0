//! Background maintenance: auto-vacuum and auto-checkpoint.
//!
//! TeNDaX turns every keystroke into a committed transaction, so a
//! long-lived document server accumulates superseded row versions and
//! WAL volume without bound. This module runs both reclamation paths on
//! a dedicated thread so neither ever sits on an editing session's
//! commit path:
//!
//! * **vacuum** prunes versions below the snapshot horizon once the
//!   pruneable-version estimate (or the number of commits since the last
//!   vacuum) crosses a threshold;
//! * **checkpoint** rotates the log once its live segment has grown past
//!   a byte or record budget: the commit lock covers only the switch to
//!   a new segment, and the base is written off it ([`crate::db`]).
//!
//! The subsystem is opt-in ([`crate::Options::maintenance`]); with it
//! disabled the engine behaves exactly as before — no thread is
//! spawned, no counter is touched.
//!
//! The thread holds only a [`Weak`] reference to the database, upgraded
//! once per tick: maintenance never keeps a database alive, and when the
//! last user handle drops the thread notices on its next tick (or is
//! joined eagerly by `DbInner::drop`).

use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::db::{Database, DbInner};

/// Tuning knobs for the background maintenance thread.
///
/// The defaults are sized for the paper's sustained multi-writer
/// editing workload: small enough that WAL growth and version-chain
/// length stay bounded, large enough that maintenance work is amortized
/// over many thousands of commits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceOptions {
    /// How often the thread wakes to evaluate the triggers below.
    pub interval: Duration,
    /// Run vacuum when the estimated number of pruneable versions
    /// (stored versions minus distinct rows, summed over all tables)
    /// reaches this count.
    pub vacuum_pruneable: usize,
    /// Also run vacuum after this many commits since the last one, even
    /// if the pruneable estimate stays low (bounds horizon staleness).
    pub vacuum_commit_interval: u64,
    /// Checkpoint when the WAL has grown by this many bytes since the
    /// last checkpoint (or since open).
    pub checkpoint_wal_bytes: u64,
    /// Checkpoint when the WAL has grown by this many records since the
    /// last checkpoint (or since open).
    pub checkpoint_wal_records: u64,
}

impl Default for MaintenanceOptions {
    fn default() -> Self {
        MaintenanceOptions {
            interval: Duration::from_millis(200),
            vacuum_pruneable: 10_000,
            vacuum_commit_interval: 50_000,
            checkpoint_wal_bytes: 32 << 20,
            checkpoint_wal_records: 200_000,
        }
    }
}

/// Stop signal shared between the database handle and the thread.
#[derive(Default)]
struct Ctl {
    stop: Mutex<bool>,
    cv: Condvar,
}

impl Ctl {
    /// Sleep for `timeout` or until stopped; returns `true` to stop.
    fn wait_stop(&self, timeout: Duration) -> bool {
        let mut stop = self.stop.lock();
        if !*stop {
            self.cv.wait_for(&mut stop, timeout);
        }
        *stop
    }

    fn signal_stop(&self) {
        *self.stop.lock() = true;
        self.cv.notify_all();
    }
}

/// Handle to a running maintenance thread, owned by `DbInner`.
#[derive(Debug)]
pub(crate) struct MaintenanceTask {
    ctl: Arc<Ctl>,
    join: Option<JoinHandle<()>>,
    thread_id: ThreadId,
}

impl std::fmt::Debug for Ctl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctl")
            .field("stop", &*self.stop.lock())
            .finish()
    }
}

impl MaintenanceTask {
    pub(crate) fn spawn(db: Weak<DbInner>, opts: MaintenanceOptions) -> MaintenanceTask {
        let ctl = Arc::new(Ctl::default());
        let thread_ctl = ctl.clone();
        let join = thread::Builder::new()
            .name("tendax-maintenance".into())
            .spawn(move || run(db, opts, thread_ctl))
            .expect("spawn maintenance thread");
        let thread_id = join.thread().id();
        MaintenanceTask {
            ctl,
            join: Some(join),
            thread_id,
        }
    }

    /// Signal the thread to stop and wait for it — unless we *are* the
    /// thread (the tick's temporary `Database` handle may be the last
    /// one alive, so `DbInner::drop` can run on the maintenance thread
    /// itself; joining there would self-deadlock, so detach instead —
    /// the thread observes the dead `Weak` and exits on its own).
    pub(crate) fn shutdown(mut self) {
        self.ctl.signal_stop();
        if let Some(join) = self.join.take() {
            if thread::current().id() != self.thread_id {
                let _ = join.join();
            }
        }
    }
}

fn run(db: Weak<DbInner>, opts: MaintenanceOptions, ctl: Arc<Ctl>) {
    // Commits at the last vacuum. Start at zero, not the current commit
    // count: a backlog that predates the thread (e.g. accumulated before
    // maintenance was enabled, or recovered from the WAL) still gets
    // vacuumed.
    let mut last_vacuum_commits = 0;
    loop {
        if ctl.wait_stop(opts.interval) {
            return;
        }
        // Upgrade per tick: if every user handle is gone, exit. The
        // strong handle lives only for the duration of the tick.
        let Some(inner) = db.upgrade() else { return };
        let db = Database::from_inner(inner);
        tick(&db, &opts, &mut last_vacuum_commits);
    }
}

fn tick(db: &Database, opts: &MaintenanceOptions, last_vacuum_commits: &mut u64) {
    let commits = db.stats().commits;
    let since_vacuum = commits.saturating_sub(*last_vacuum_commits);
    // The pruneable arm fires on its own (the estimate only drops when
    // vacuum reclaims something — or a pinning snapshot ends, in which
    // case re-running is exactly right); the commit-count arm
    // additionally requires progress since the last vacuum so an idle
    // database isn't rescanned every tick.
    // The cold-budget arm fires whenever the RAM-resident version count
    // exceeds the configured memtable budget (cold tier enabled only):
    // vacuum then *demotes* the prefix below the horizon into a cold
    // run instead of discarding it.
    if db.pruneable_estimate() >= opts.vacuum_pruneable
        || (since_vacuum > 0 && since_vacuum >= opts.vacuum_commit_interval)
        || db.cold_over_budget()
    {
        db.vacuum();
        db.note_auto_vacuum();
        *last_vacuum_commits = commits;
    }
    // Fold accumulated cold runs together once enough exist; bloom
    // filters keep reads cheap in between, so this is purely amortized.
    let _ = db.cold_compact_if_needed();

    // The live segment's growth since open or the last checkpoint's
    // switch. A failed checkpoint is tried again next tick; on a poisoned
    // log it fails before any I/O.
    let (bytes, records) = db.wal_size();
    if (bytes >= opts.checkpoint_wal_bytes || records >= opts.checkpoint_wal_records)
        && db.checkpoint().is_ok()
    {
        db.note_auto_checkpoint();
    }
}
