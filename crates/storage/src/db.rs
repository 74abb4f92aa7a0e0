//! The database: catalog, tables, transaction manager, WAL, recovery.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::{Mutex, RwLock};

use crate::clock::Clock;
use crate::cold::{ColdOptions, ColdStore};
use crate::commit::CommitLock;
use crate::error::{Result, StorageError};
use crate::maintenance::{MaintenanceOptions, MaintenanceTask};
use crate::observer::{CommitObserver, WriteSet};
use crate::row::RowId;
use crate::schema::{Catalog, TableDef, TableId};
use crate::table::{ResidentBytes, TableStore, Ts, VersionOp, TS_LATEST};
use crate::txn::{validate_writes, Transaction, TxnId, WriteOp};
use crate::vfs::{os_vfs, Vfs};
use crate::wal::{
    encode_frame, CheckpointFrames, DurabilityLevel, GroupWal, LogFiles, WalFile, WalOp, WalRecord,
    WalShardStats, WalTicket, WalWrite,
};

/// Database configuration.
#[derive(Debug, Clone)]
pub struct Options {
    pub durability: DurabilityLevel,
    /// Run a background maintenance thread (auto-vacuum + auto-
    /// checkpoint). `None` (the default) spawns nothing and leaves the
    /// engine's behaviour exactly as without the subsystem.
    pub maintenance: Option<MaintenanceOptions>,
    /// The file-system backend every durability-relevant operation goes
    /// through. The default, [`os_vfs`], is `std::fs` with behaviour
    /// byte-identical to the pre-VFS engine; tests substitute
    /// [`crate::vfs::SimVfs`] to simulate crashes and injected faults.
    pub vfs: Arc<dyn Vfs>,
    /// Tiered cold storage. `None` (the default) keeps every version in
    /// RAM until vacuum drops it — byte-identical to the pre-cold
    /// engine. `Some` attaches bloom-filtered sorted-run files next to
    /// the WAL: vacuum and checkpoint *demote* versions below the
    /// snapshot horizon into runs instead of discarding them, bounding
    /// RAM residency while keeping all history readable via
    /// [`Database::begin_at`]. Ignored by in-memory databases.
    pub cold_storage: Option<ColdOptions>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            durability: DurabilityLevel::Buffered,
            maintenance: None,
            vfs: os_vfs(),
            cold_storage: None,
        }
    }
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Transactions begun (`begin` + `begin_at`). With `commits` and
    /// `aborts` this gives the retry amplification a workload pays:
    /// `txns_begun / commits` > 1 means optimistic losers re-ran.
    pub txns_begun: u64,
    pub commits: u64,
    pub aborts: u64,
    pub conflicts: u64,
    pub active_txns: usize,
    pub tables: usize,
    pub last_commit_ts: Ts,
    /// WAL batches written by group-commit flush leaders.
    pub wal_batches_flushed: u64,
    /// WAL records covered by those batches (mean batch size =
    /// `wal_records_flushed / wal_batches_flushed`).
    pub wal_records_flushed: u64,
    /// At `Fsync`, syncs avoided versus one-fsync-per-commit.
    pub wal_fsyncs_saved: u64,
    /// Visible rows examined by scans (matching + skipped).
    pub rows_scanned: u64,
    /// Scanned rows rejected by a pushed-down predicate (never
    /// materialized into a result set).
    pub rows_skipped_by_predicate: u64,
    /// `Transaction::get` calls.
    pub point_gets: u64,
    /// Index lookups/range scans/cursor steps.
    pub index_lookups: u64,
    /// Vacuums run by the background maintenance thread.
    pub maintenance_vacuums: u64,
    /// Checkpoints run by the background maintenance thread.
    pub maintenance_checkpoints: u64,
    /// Versions reclaimed by vacuum (manual and automatic).
    pub versions_pruned: u64,
    /// Total nanoseconds commits waited for the commit lock while
    /// another commit, a DDL or a checkpoint's switch held it.
    pub commit_wait_ns: u64,
    /// 1 once a transaction has committed since open, else 0: commits
    /// run one at a time, so none is ever more than one timestamp ahead
    /// of the watermark. Kept while the benchmark reads it.
    pub watermark_lag_max: u64,
    /// DDL, checkpoint switches and observer registrations that found
    /// the commit lock held.
    pub ddl_stalls: u64,
    /// Always 0: commits no longer merge (DESIGN.md §5.8). Kept while
    /// the benchmark still reads it.
    pub commits_merged: u64,
    /// Live cold-tier run files (0 when the tier is disabled or empty).
    pub cold_runs: usize,
    /// Versions currently resident in cold runs.
    pub cold_versions: u64,
    /// Demotion batches published (vacuum + checkpoint).
    pub cold_demotions: u64,
    /// Versions written to cold runs by those demotions.
    pub cold_versions_demoted: u64,
    /// Point reads served from a cold run (RAM missed, cold hit).
    pub cold_reads: u64,
    /// Run probes skipped because the bloom filter excluded the row.
    pub cold_bloom_skips: u64,
    /// Run probes where the bloom filter passed but the run held no
    /// eligible version.
    pub cold_bloom_false_positives: u64,
    /// Cold-tier compactions (run merges) completed.
    pub cold_compactions: u64,
}

/// Per-table statistics (monitoring, planner diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    pub name: String,
    /// Rows visible at the latest snapshot.
    pub live_rows: usize,
    /// Stored versions including superseded/tombstoned ones.
    pub versions: usize,
    /// `(index name, entries, resident bytes)` per secondary index.
    pub indexes: Vec<(String, usize, u64)>,
    /// What the table's live rows cost in a checkpoint: the summed
    /// length of the frames the checkpoint encoder produces for them.
    /// It is the encoding's size, not a file's: an in-memory database
    /// reports it too.
    pub checkpoint_bytes: u64,
    /// Of `checkpoint_bytes`, what each column's values take, by column
    /// name in schema order. The rest is per row (its id, timestamp, op
    /// header, same-as-above bitmap and two-bit header) and per frame.
    pub column_bytes: Vec<(String, u64)>,
    /// What the table costs in RAM, every version included: rows,
    /// version chains and index entries, each counted
    /// by the structure that holds it.
    pub resident_bytes: ResidentBytes,
}

#[derive(Debug, Default)]
struct Counters {
    txns_begun: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    conflicts: AtomicU64,
    rows_scanned: AtomicU64,
    rows_skipped: AtomicU64,
    point_gets: AtomicU64,
    index_lookups: AtomicU64,
    maintenance_vacuums: AtomicU64,
    maintenance_checkpoints: AtomicU64,
    versions_pruned: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct DbInner {
    catalog: RwLock<Catalog>,
    tables: RwLock<BTreeMap<TableId, Arc<RwLock<TableStore>>>>,
    clock: Clock,
    /// Commits run one at a time under it; its watermark is what
    /// snapshots read. DDL, observer registration and a checkpoint's
    /// switch take it to keep commits out.
    commit_lock: CommitLock,
    next_txn_id: AtomicU64,
    /// Active transactions and their snapshots (for the vacuum horizon).
    active: Mutex<BTreeMap<TxnId, Ts>>,
    /// Set once at open for durable databases; never set for in-memory.
    wal: OnceLock<GroupWal>,
    counters: Counters,
    path: Option<PathBuf>,
    /// Background maintenance thread, if started.
    maintenance: Mutex<Option<MaintenanceTask>>,
    /// Highest vacuum horizon ever applied: versions visible strictly
    /// below it may be pruned, so `begin_at` refuses older snapshots.
    /// With a cold tier attached this tracks the *lineage retention*
    /// floor instead — demoted history above it stays readable from
    /// cold runs, so vacuum no longer raises it.
    vacuum_floor: AtomicU64,
    /// Tiered cold storage; set once at open for durable databases with
    /// `Options::cold_storage`, never for in-memory.
    cold: OnceLock<ColdStore>,
    /// Commit observers, held weakly: an observer nobody else keeps
    /// alive is skipped, and none of them can keep the database open.
    observers: RwLock<Vec<Weak<dyn CommitObserver>>>,
}

impl Drop for DbInner {
    fn drop(&mut self) {
        if let Some(task) = self.maintenance.get_mut().take() {
            task.shutdown();
        }
    }
}

/// A TeNDaX storage database. Cheap to clone (shared handle).
#[derive(Debug, Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Database {
    /// A fresh, purely in-memory database (no WAL).
    pub fn open_in_memory() -> Database {
        Self::empty(None)
    }

    fn empty(path: Option<PathBuf>) -> Database {
        Database {
            inner: Arc::new(DbInner {
                catalog: RwLock::new(Catalog::new()),
                tables: RwLock::new(BTreeMap::new()),
                clock: Clock::default(),
                commit_lock: CommitLock::default(),
                next_txn_id: AtomicU64::new(1),
                active: Mutex::new(BTreeMap::new()),
                wal: OnceLock::new(),
                counters: Counters::default(),
                path,
                maintenance: Mutex::new(None),
                vacuum_floor: AtomicU64::new(0),
                cold: OnceLock::new(),
                observers: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Rebuild a handle from the shared inner (maintenance-thread path).
    pub(crate) fn from_inner(inner: Arc<DbInner>) -> Database {
        Database { inner }
    }

    /// Open (or create) a durable database whose WAL lives at `path`.
    /// Replays the log, recovering all committed state.
    pub fn open(path: impl AsRef<Path>, options: Options) -> Result<Database> {
        let path = path.as_ref().to_path_buf();
        let db = Self::empty(Some(path.clone()));
        // Streamed: each frame is decoded, applied and dropped before
        // the next one is read.
        let end = {
            let mut catalog = db.inner.catalog.write();
            let mut tables = db.inner.tables.write();
            WalFile::replay_on(&*options.vfs, &path, |rec| {
                db.apply_record(&mut catalog, &mut tables, rec)
            })?
        };
        for table in db.inner.tables.read().values() {
            let mut table = table.write();
            // Replay staged every version's index entries: each index is
            // built once, from its entries sorted.
            table.build_indexes();
            // Expectations are not logged: a transaction begun at a
            // snapshot from before the reopen may have missed one, so
            // such a transaction can delete or expect no row.
            table.prune_expected(db.last_commit_ts());
        }
        // Writing resumes where the live segment's last frame ends: what
        // a crash left beside it is removed, a torn tail is cut first,
        // zeroed room kept.
        let (files, file) = LogFiles::open(options.vfs.clone(), &path, end, options.durability)?;
        let wal = GroupWal::new(files, file, options.durability);
        db.inner.wal.set(wal).expect("wal set once at open");
        if let Some(copts) = options.cold_storage {
            let cold = ColdStore::open(options.vfs.clone(), &path, copts)?;
            // `begin_at` below the lineage retention floor must keep
            // failing after a restart — compaction may already have
            // dropped that history.
            db.inner
                .vacuum_floor
                .fetch_max(cold.retention_floor(), Ordering::Relaxed);
            db.inner.cold.set(cold).expect("cold set once at open");
        }
        if let Some(m) = options.maintenance {
            db.start_maintenance(m);
        }
        Ok(db)
    }

    fn apply_record(
        &self,
        catalog: &mut Catalog,
        tables: &mut BTreeMap<TableId, Arc<RwLock<TableStore>>>,
        rec: WalRecord,
    ) -> Result<()> {
        match rec {
            // Read by the log reader, which checks the format and finds
            // the segments with them.
            WalRecord::Format { .. } | WalRecord::Base { .. } => {}
            WalRecord::Meta { next_ts, clock } => {
                self.inner.commit_lock.observe(next_ts.saturating_sub(1));
                self.inner.clock.observe(clock);
            }
            WalRecord::CreateTable { id, def } => {
                catalog.register_with_id(id, def.clone())?;
                tables.insert(id, Arc::new(RwLock::new(TableStore::new(id, def))));
            }
            WalRecord::DropTable { id } => {
                if let Ok(def) = catalog.definition(id) {
                    let name = def.name.clone();
                    catalog.remove(&name)?;
                }
                tables.remove(&id);
            }
            WalRecord::Commit { commit_ts, writes } => {
                for w in writes {
                    let store = tables
                        .get(&w.table)
                        .ok_or(StorageError::UnknownTableId(w.table))?;
                    let op = match w.op {
                        WalOp::Put(row) => VersionOp::Put(row),
                        WalOp::Delete => VersionOp::Delete,
                        // Compose the logged columns onto the row's
                        // newest replayed state: this is commit order,
                        // so the result is the row the commit published.
                        WalOp::Patch { fields, values } => {
                            let guard = store.read();
                            let base =
                                guard.visible(w.row, TS_LATEST).cloned().ok_or_else(|| {
                                    StorageError::Internal(format!(
                                        "WAL patch for row {:?} with no base version",
                                        w.row
                                    ))
                                })?;
                            drop(guard);
                            let written: Vec<_> = fields
                                .iter()
                                .zip(&values)
                                .map(|(&pos, val)| (pos as usize, val.view()))
                                .collect();
                            VersionOp::Put(base.with_updates(&written))
                        }
                    };
                    self.observe_row_clock(store.write().replay(w.row, commit_ts, op));
                }
                self.inner.commit_lock.observe(commit_ts);
            }
            WalRecord::SnapshotRows { table, rows } => {
                let mut store = tables
                    .get(&table)
                    .ok_or(StorageError::UnknownTableId(table))?
                    .write();
                for v in rows {
                    let op = match v.op {
                        WalOp::Put(r) => VersionOp::Put(r),
                        WalOp::Delete => VersionOp::Delete,
                        // Checkpoints compact to full rows; a patch here
                        // means the log writer and reader disagree.
                        WalOp::Patch { .. } => {
                            return Err(StorageError::Internal(
                                "snapshot row cannot be a patch".into(),
                            ))
                        }
                    };
                    self.observe_row_clock(store.replay(v.row, v.commit_ts, op));
                    self.inner.commit_lock.observe(v.commit_ts);
                }
            }
            WalRecord::Watermark { table, next_row_id } => {
                if let Some(store) = tables.get(&table) {
                    store
                        .read()
                        .observe_row_id(RowId(next_row_id.saturating_sub(1)));
                }
            }
        }
        Ok(())
    }

    /// During recovery, fast-forward the engine clock past every
    /// timestamp found in recovered rows (the newest each replayed
    /// version holds): post-restart timestamps must stay strictly greater
    /// than anything already persisted, even when no checkpoint Meta
    /// record exists.
    fn observe_row_clock(&self, newest: Option<i64>) {
        if let Some(t) = newest {
            self.inner.clock.observe(t);
        }
    }

    // ------------------------------------------------------------------ DDL

    /// Create a table. DDL is durable; it holds the commit lock so the
    /// catalog never changes under a commit's feet and its WAL record
    /// lands between commit frames.
    pub fn create_table(&self, def: TableDef) -> Result<TableId> {
        let ddl = self.inner.commit_lock.quiesce();
        let mut catalog = self.inner.catalog.write();
        let id = catalog.register(def.clone())?;
        self.inner
            .tables
            .write()
            .insert(id, Arc::new(RwLock::new(TableStore::new(id, def.clone()))));
        let ticket = self.wal_enqueue(&WalRecord::CreateTable { id, def })?;
        drop(catalog);
        drop(ddl);
        self.wal_wait(ticket)?;
        Ok(id)
    }

    /// Drop a table and all of its data.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let ddl = self.inner.commit_lock.quiesce();
        let mut catalog = self.inner.catalog.write();
        let id = catalog.remove(name)?;
        self.inner.tables.write().remove(&id);
        let ticket = self.wal_enqueue(&WalRecord::DropTable { id })?;
        drop(catalog);
        drop(ddl);
        self.wal_wait(ticket)
    }

    /// Resolve a table name to its id.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.inner.catalog.read().lookup(name)
    }

    /// A clone of the table's schema.
    pub fn table_def(&self, id: TableId) -> Result<TableDef> {
        Ok(self.inner.catalog.read().definition(id)?.clone())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let catalog = self.inner.catalog.read();
        let mut names: Vec<String> = catalog.tables().map(|(_, d)| d.name.clone()).collect();
        names.sort();
        names
    }

    // --------------------------------------------------------- transactions

    /// Begin a snapshot-isolated transaction.
    pub fn begin(&self) -> Transaction {
        let id = TxnId(self.inner.next_txn_id.fetch_add(1, Ordering::Relaxed));
        // The snapshot must be loaded *while holding* the `active` lock:
        // vacuum computes its horizon under this same lock, so a snapshot
        // read before registration could otherwise be overtaken by a
        // concurrent commit + vacuum, pruning versions this transaction
        // is entitled to see.
        let snapshot = {
            let mut active = self.inner.active.lock();
            let snapshot = self.inner.commit_lock.watermark();
            active.insert(id, snapshot);
            snapshot
        };
        // Counted once the snapshot is registered: a count that moved
        // means the transaction holds its snapshot.
        self.inner
            .counters
            .txns_begun
            .fetch_add(1, Ordering::Relaxed);
        Transaction::new(self.clone(), id, snapshot)
    }

    /// Begin a transaction pinned to an explicit snapshot timestamp: a
    /// read of history. Reads see the database as of `snapshot` (clamped
    /// to the current watermark), and a write commits only if no row it
    /// writes changed since then (first committer wins, as for
    /// [`Database::begin`]). Fails with [`StorageError::SnapshotTooOld`]
    /// if vacuum has already pruned versions the snapshot is entitled to.
    pub fn begin_at(&self, snapshot: Ts) -> Result<Transaction> {
        let id = TxnId(self.inner.next_txn_id.fetch_add(1, Ordering::Relaxed));
        let snapshot = {
            let mut active = self.inner.active.lock();
            let snapshot = snapshot.min(self.inner.commit_lock.watermark());
            // Checked under the `active` lock for the same reason as
            // `begin`: vacuum computes its horizon (and raises the
            // floor) under this lock, so the floor cannot overtake a
            // snapshot between the check and registration.
            let floor = self.inner.vacuum_floor.load(Ordering::Relaxed);
            if snapshot < floor {
                return Err(StorageError::SnapshotTooOld {
                    requested: snapshot,
                    floor,
                });
            }
            active.insert(id, snapshot);
            snapshot
        };
        self.inner
            .counters
            .txns_begun
            .fetch_add(1, Ordering::Relaxed);
        Ok(Transaction::new(self.clone(), id, snapshot))
    }

    pub(crate) fn abort_txn(&self, id: TxnId, counts_as_abort: bool) {
        self.inner.active.lock().remove(&id);
        if counts_as_abort {
            self.inner.counters.aborts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Register `observer` on the commit stream (see [`crate::observer`]).
    /// The database keeps a weak reference: the observer is called for
    /// as long as the caller keeps the `Arc` alive. Registration holds
    /// the commit lock, so every commit is either visible to any
    /// snapshot taken after this returns or reaches the observer.
    pub fn observe_commits(&self, observer: &Arc<dyn CommitObserver>) {
        let _quiesced = self.inner.commit_lock.quiesce();
        let mut observers = self.inner.observers.write();
        observers.retain(|o| o.strong_count() > 0);
        observers.push(Arc::downgrade(observer));
    }

    /// Validate, log and publish `txn`: once this returns the commit is
    /// visible to every later snapshot and cannot be retracted. What is
    /// left is the wait for its log record to reach the disk
    /// ([`Database::wal_wait`] on the ticket), which needs no lock.
    pub(crate) fn commit_txn(&self, txn: &mut Transaction) -> Result<(Ts, Option<WalTicket>)> {
        let mut writes = std::mem::take(&mut txn.writes);
        let created = std::mem::take(&mut txn.created);
        let expected = std::mem::take(&mut txn.expected);
        if writes.values().all(BTreeMap::is_empty) {
            self.inner.active.lock().remove(&txn.id());
            self.inner.counters.commits.fetch_add(1, Ordering::Relaxed);
            return Ok((txn.snapshot_ts(), None));
        }

        // Commits run one at a time: everything up to the frame in the
        // log's batch happens under the commit lock (see `crate::commit`).
        let last = self.inner.commit_lock.commit();
        // Lock the affected tables — those written and those only
        // expected unchanged — in id order.
        let mut locked: Vec<TableId> = writes.keys().copied().collect();
        locked.extend(expected.iter().map(|&(tid, _)| tid));
        locked.sort_unstable();
        locked.dedup();
        let handles: Vec<(TableId, Arc<RwLock<TableStore>>)> = {
            let tables = self.inner.tables.read();
            let mut hs = Vec::with_capacity(locked.len());
            for tid in locked {
                let h = tables
                    .get(&tid)
                    .ok_or(StorageError::UnknownTableId(tid))?
                    .clone();
                hs.push((tid, h));
            }
            hs
        };
        let mut guards: BTreeMap<TableId, _> =
            (handles.iter()).map(|(tid, h)| (*tid, h.write())).collect();
        let check = validate_writes(
            &writes,
            &created,
            &expected,
            txn.snapshot_ts(),
            txn.id(),
            &guards,
        );
        if let Err(e) = check {
            if matches!(e, StorageError::WriteConflict { .. }) {
                self.inner
                    .counters
                    .conflicts
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Err(e);
        }

        // A poisoned log refuses the commit before it takes a timestamp:
        // nothing is published and the transaction aborts cleanly.
        let wal = self.inner.wal.get();
        if let Some(wal) = wal {
            wal.healthy()?;
        }
        // From here on every exit, an unwind included, goes through this
        // guard's drop: it appends the frame once one is encoded, stores
        // the watermark and lets the lock go.
        let mut next = self.inner.commit_lock.next(last, wal);
        let commit_ts = next.ts;
        // An in-memory database encodes nothing.
        let ticket = wal.map(|_| {
            next.frame = Some(encode_frame(&commit_record(commit_ts, &writes)));
            WalTicket::Commit(commit_ts)
        });

        // Each write's row moves into its version; the keys stay behind
        // for the observers' view of the write set.
        for (tid, ws) in writes.iter_mut() {
            let guard = guards.get_mut(tid).expect("every written table is locked");
            for (&rid, op) in ws.iter_mut() {
                let vop = match std::mem::replace(op, WriteOp::Delete) {
                    // A put's row is the allocation its WAL record holds.
                    WriteOp::Put(r) | WriteOp::Patch { row: r, .. } => VersionOp::Put(r),
                    WriteOp::Delete => VersionOp::Delete,
                };
                guard.apply(rid, commit_ts, vop);
            }
        }
        // An expectation is recorded like a version, under the same
        // locks, so that a delete of the row from an older snapshot
        // conflicts with it (DESIGN §5.8). The records are pruned below
        // the oldest snapshot still running each time their number has
        // doubled.
        let mut prune = Vec::new();
        for &(tid, rid) in &expected {
            let guard = guards
                .get_mut(&tid)
                .expect("every expected table is locked");
            if !created.contains(&(tid, rid)) && guard.note_expected(rid, commit_ts) {
                prune.push(tid);
            }
        }
        if !prune.is_empty() {
            let horizon = self.oldest_snapshot();
            for tid in prune {
                guards
                    .get_mut(&tid)
                    .expect("every expected table is locked")
                    .prune_expected(horizon);
            }
        }
        // Observers hear of the commit while it is applied but not yet
        // visible, one commit at a time: what they record is in place
        // before a snapshot can contain it. A dropped observer stays
        // listed until the next registration and is skipped.
        let observers = self.inner.observers.read();
        if !observers.is_empty() {
            let view = WriteSet::new(commit_ts, &guards, &writes);
            for observer in observers.iter().filter_map(Weak::upgrade) {
                observer.committed(commit_ts, &view);
            }
        }
        drop(observers);
        // The frame joins the log's batch and the commit becomes visible.
        // Past this point it cannot be retracted: a durability failure
        // later must not be reported as an abort.
        drop(next);
        drop(guards);
        self.inner.active.lock().remove(&txn.id());
        self.inner.counters.commits.fetch_add(1, Ordering::Relaxed);
        Ok((commit_ts, ticket))
    }

    /// Stage a non-commit record with the group-commit coordinator
    /// (no-op for an in-memory database). Caller must hold the commit
    /// lock.
    fn wal_enqueue(&self, rec: &WalRecord) -> Result<Option<WalTicket>> {
        self.inner.wal.get().map(|w| w.enqueue(rec)).transpose()
    }

    /// Block until the logged record is durable at the configured level.
    /// Must be called with no locks held.
    pub(crate) fn wal_wait(&self, ticket: Option<WalTicket>) -> Result<()> {
        match (self.inner.wal.get(), ticket) {
            (Some(wal), Some(t)) => wal.wait_durable(t),
            _ => Ok(()),
        }
    }

    // ----------------------------------------------------------- facilities

    /// The shared store handle for a table (cached by transactions so the
    /// per-read global map lookup disappears from hot loops).
    pub(crate) fn table_handle(&self, id: TableId) -> Result<Arc<RwLock<TableStore>>> {
        self.inner
            .tables
            .read()
            .get(&id)
            .cloned()
            .ok_or(StorageError::UnknownTableId(id))
    }

    // Read-path accounting (relaxed: monitoring only, never ordering).

    pub(crate) fn note_scan(&self, scanned: u64, skipped: u64) {
        self.inner
            .counters
            .rows_scanned
            .fetch_add(scanned, Ordering::Relaxed);
        self.inner
            .counters
            .rows_skipped
            .fetch_add(skipped, Ordering::Relaxed);
    }

    pub(crate) fn note_point_get(&self) {
        self.inner
            .counters
            .point_gets
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_index_lookup(&self) {
        self.inner
            .counters
            .index_lookups
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A timestamp from the engine clock (used for row metadata).
    pub fn now(&self) -> i64 {
        self.inner.clock.now()
    }

    /// The oldest snapshot a running transaction holds, or the watermark
    /// when none runs: no transaction that can still commit reads below
    /// it (one begun at an older snapshot aside, which the callers treat
    /// conservatively).
    fn oldest_snapshot(&self) -> Ts {
        let active = self.inner.active.lock();
        (active.values().copied().min()).unwrap_or_else(|| self.inner.commit_lock.watermark())
    }

    /// The newest gap-free commit timestamp (the snapshot watermark):
    /// every commit at or below it has fully published.
    pub fn last_commit_ts(&self) -> Ts {
        self.inner.commit_lock.watermark()
    }

    /// Prune versions no live snapshot can see. Returns versions pruned.
    ///
    /// With a cold tier attached this *demotes* instead of discarding:
    /// the prunable versions are written to a durable cold run first,
    /// and only once the run is published does RAM let go of them — so
    /// the horizon can be the watermark itself (pinned snapshots read
    /// demoted history through the cold path) and `begin_at` keeps
    /// working all the way down to the lineage retention floor.
    pub fn vacuum(&self) -> usize {
        if let Some(cold) = self.inner.cold.get() {
            return self.vacuum_demote(cold);
        }
        let horizon = {
            let active = self.inner.active.lock();
            let horizon = active
                .values()
                .copied()
                .min()
                .unwrap_or_else(|| self.inner.commit_lock.watermark());
            // Record the floor while still holding `active`, so a
            // concurrent `begin_at` cannot slip a pinned snapshot under
            // the horizon this vacuum is about to prune to.
            self.inner
                .vacuum_floor
                .fetch_max(horizon, Ordering::Relaxed);
            horizon
        };
        let tables = self.inner.tables.read();
        let mut pruned = 0;
        for handle in tables.values() {
            pruned += handle.write().vacuum(horizon);
        }
        self.inner
            .counters
            .versions_pruned
            .fetch_add(pruned as u64, Ordering::Relaxed);
        pruned
    }

    /// The demoting vacuum: collect → publish cold → prune RAM.
    ///
    /// Ordering is the whole story. The batch is written and the run
    /// published (manifest swap, cold floor raised) *before* any table
    /// write lock is taken; readers do RAM-first-then-cold with the
    /// floor checked after the RAM miss, so whichever side of the prune
    /// a reader lands on, it sees the version — from RAM before, from
    /// the run after. On any demotion error nothing is pruned.
    fn vacuum_demote(&self, cold: &ColdStore) -> usize {
        // One demotion/compaction/checkpoint-capture at a time.
        let _demote = cold.exclusive();
        // The watermark, not the min active snapshot: pinned readers no
        // longer pin RAM, they follow their versions into the cold tier.
        let horizon = self.inner.commit_lock.watermark();
        let already_cold = cold.floor();
        let tables = self.inner.tables.read();
        let mut batch = Vec::new();
        for handle in tables.values() {
            handle
                .read()
                .collect_demotable(horizon, already_cold, &mut batch);
        }
        // A demotion that fails keeps everything in RAM, which is always
        // safe; under a power cut it is the expected outcome. At worst it
        // leaves an orphan run file, which the next open sweeps.
        if cold.demote(batch, horizon).is_err() {
            return 0;
        }
        let mut pruned = 0;
        for handle in tables.values() {
            pruned += handle.write().vacuum(horizon);
        }
        self.inner
            .counters
            .versions_pruned
            .fetch_add(pruned as u64, Ordering::Relaxed);
        pruned
    }

    /// Raise the lineage retention floor: history at or below `ts`
    /// stops being reachable via [`Database::begin_at`] and becomes
    /// droppable by cold-tier compaction. Clamped so it never overtakes
    /// an active snapshot. Monotonic; lowering is a no-op. Without a
    /// cold tier this is equivalent to what vacuum already enforces.
    pub fn set_lineage_retention(&self, ts: Ts) -> Result<()> {
        let effective = {
            let active = self.inner.active.lock();
            let cap = active
                .values()
                .copied()
                .min()
                .unwrap_or_else(|| self.inner.commit_lock.watermark());
            let effective = ts.min(cap);
            self.inner
                .vacuum_floor
                .fetch_max(effective, Ordering::Relaxed);
            effective
        };
        if let Some(cold) = self.inner.cold.get() {
            let _demote = cold.exclusive();
            cold.set_retention_floor(effective)?;
        }
        Ok(())
    }

    /// Merge cold runs when enough have accumulated, dropping history
    /// the lineage retention floor supersedes. Returns whether a
    /// compaction ran. A no-op without a cold tier.
    pub fn cold_compact_if_needed(&self) -> Result<bool> {
        match self.inner.cold.get() {
            Some(cold) => cold.compact_if_needed(),
            None => Ok(false),
        }
    }

    /// Versions currently resident in RAM across all tables — the
    /// number the cold tier's memtable budget bounds.
    pub fn ram_version_count(&self) -> usize {
        let tables = self.inner.tables.read();
        tables.values().map(|h| h.read().version_count()).sum()
    }

    /// Whether RAM residency exceeds the cold tier's memtable budget
    /// and a demoting vacuum could shed versions. Drives the
    /// maintenance thread's demotion arm.
    pub(crate) fn cold_over_budget(&self) -> bool {
        match self.inner.cold.get() {
            Some(cold) => {
                self.pruneable_estimate() > 0 && self.ram_version_count() > cold.memtable_budget()
            }
            None => false,
        }
    }

    pub(crate) fn cold_store(&self) -> Option<&ColdStore> {
        self.inner.cold.get()
    }

    /// Whether the tiered cold storage is attached to this database.
    pub fn cold_storage_enabled(&self) -> bool {
        self.inner.cold.get().is_some()
    }

    /// Compact the log to the state at the watermark W: a log rotation.
    ///
    /// Under the commit lock the checkpoint only reads W (with the clock,
    /// the catalog and each table's row-id watermark and handle), pins it
    /// with a snapshot and switches the log to a segment created
    /// beforehand. Off the lock (holding the demote lock with a cold
    /// tier) it waits for the old segment's seal, demotes the history
    /// at W and writes the rows visible at W, a row-slot page at a time,
    /// as the new base. A failure publishes nothing: the log stays
    /// writable and the old base in force.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = self.inner.wal.get() else {
            return Ok(()); // in-memory database: nothing to do
        };
        // Serializes checkpoints, and nothing else.
        let mut files = wal.files.lock();
        wal.healthy()?;
        // The history at W must still be in RAM when it is demoted.
        let cold = self.inner.cold.get();
        let _demote = cold.map(ColdStore::exclusive);
        let next = files.create_next()?;
        let quiesce = self.inner.commit_lock.quiesce();
        // Vacuum keeps every version the snapshot sees until it drops.
        let pin = self.begin();
        let w = pin.snapshot_ts();
        let meta = WalRecord::Meta {
            next_ts: w + 1,
            clock: self.inner.clock.peek(),
        };
        let catalog: Vec<_> = (self.inner.catalog.read().tables())
            .map(|(id, def)| WalRecord::CreateTable {
                id,
                def: def.clone(),
            })
            .collect();
        let tables: Vec<_> = (self.inner.tables.read().iter())
            .map(|(&id, handle)| (id, handle.read().row_id_watermark(), handle.clone()))
            .collect();
        let switched = wal.switch(next)?;
        drop(quiesce);
        wal.wait_durable(switched)?;
        if let Some(cold) = cold {
            let mut history = Vec::new();
            for (_, _, handle) in &tables {
                (handle.read()).collect_demotable(w, cold.floor(), &mut history);
            }
            cold.demote(history, w)?;
        }
        files.publish_base(|out| {
            let mut frames = CheckpointFrames::base(files.live);
            for rec in std::iter::once(&meta).chain(&catalog) {
                frames.record(rec);
            }
            for (id, next_row_id, handle) in &tables {
                let (table, next_row_id) = (*id, *next_row_id);
                frames.record(&WalRecord::Watermark { table, next_row_id });
                let mut page = Some(0);
                while let Some(from) = page {
                    page = put_rows(&mut frames, &handle.read(), from, w);
                    frames.drain_to(out)?;
                }
            }
            frames.close_batch();
            frames.drain_to(out)
        })
    }

    /// Start the background maintenance thread. Returns `false` (and
    /// does nothing) if one is already running. Works for in-memory
    /// databases too — checkpointing is a no-op there, but auto-vacuum
    /// still bounds version-chain growth.
    pub fn start_maintenance(&self, opts: MaintenanceOptions) -> bool {
        let mut slot = self.inner.maintenance.lock();
        if slot.is_some() {
            return false;
        }
        *slot = Some(MaintenanceTask::spawn(Arc::downgrade(&self.inner), opts));
        true
    }

    /// Stop the background maintenance thread, waiting for any tick in
    /// progress. Returns `false` if none was running.
    pub fn stop_maintenance(&self) -> bool {
        let task = self.inner.maintenance.lock().take();
        match task {
            Some(task) => {
                task.shutdown();
                true
            }
            None => false,
        }
    }

    /// `(bytes, records)` written to the live log segment, since open or
    /// the last checkpoint; `(0, 0)` for in-memory databases.
    pub fn wal_size(&self) -> (u64, u64) {
        self.inner.wal.get().map(GroupWal::size).unwrap_or((0, 0))
    }

    /// The WAL's flush counters (batches, records, fsyncs, bytes, and
    /// the time committers spent waiting for durability): one entry for
    /// a durable database, none for an in-memory one. There is one log
    /// and one counter set; the name and the `Vec` survive only because
    /// `benchmark/` reads them, until ROADMAP item 10's metrics registry
    /// replaces this accessor.
    pub fn wal_shard_stats(&self) -> Vec<WalShardStats> {
        self.inner
            .wal
            .get()
            .map(GroupWal::stats)
            .into_iter()
            .collect()
    }

    /// Estimated versions a vacuum could reclaim right now: stored
    /// versions minus distinct rows, summed over all tables. An upper
    /// bound (long-lived snapshots may pin some), cheap to compute.
    pub fn pruneable_estimate(&self) -> usize {
        let tables = self.inner.tables.read();
        tables
            .values()
            .map(|h| {
                let store = h.read();
                store.version_count().saturating_sub(store.chain_count())
            })
            .sum()
    }

    pub(crate) fn note_auto_vacuum(&self) {
        self.inner
            .counters
            .maintenance_vacuums
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_auto_checkpoint(&self) {
        self.inner
            .counters
            .maintenance_checkpoints
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> Stats {
        let wal = self
            .inner
            .wal
            .get()
            .map(GroupWal::stats)
            .unwrap_or_default();
        let cold = self
            .inner
            .cold
            .get()
            .map(ColdStore::counters)
            .unwrap_or_default();
        let commits = self.inner.counters.commits.load(Ordering::Relaxed);
        Stats {
            txns_begun: self.inner.counters.txns_begun.load(Ordering::Relaxed),
            commits,
            aborts: self.inner.counters.aborts.load(Ordering::Relaxed),
            conflicts: self.inner.counters.conflicts.load(Ordering::Relaxed),
            active_txns: self.inner.active.lock().len(),
            tables: self.inner.catalog.read().len(),
            last_commit_ts: self.last_commit_ts(),
            wal_batches_flushed: wal.batches_flushed,
            wal_records_flushed: wal.records_flushed,
            // One fsync per record would have issued `records_flushed`.
            wal_fsyncs_saved: match wal.fsyncs {
                0 => 0,
                n => wal.records_flushed.saturating_sub(n),
            },
            rows_scanned: self.inner.counters.rows_scanned.load(Ordering::Relaxed),
            rows_skipped_by_predicate: self.inner.counters.rows_skipped.load(Ordering::Relaxed),
            point_gets: self.inner.counters.point_gets.load(Ordering::Relaxed),
            index_lookups: self.inner.counters.index_lookups.load(Ordering::Relaxed),
            maintenance_vacuums: self
                .inner
                .counters
                .maintenance_vacuums
                .load(Ordering::Relaxed),
            maintenance_checkpoints: self
                .inner
                .counters
                .maintenance_checkpoints
                .load(Ordering::Relaxed),
            versions_pruned: self.inner.counters.versions_pruned.load(Ordering::Relaxed),
            commit_wait_ns: self.inner.commit_lock.wait_ns(),
            watermark_lag_max: u64::from(commits > 0),
            ddl_stalls: self.inner.commit_lock.stalls(),
            commits_merged: 0,
            cold_runs: cold.runs,
            cold_versions: cold.cold_versions,
            cold_demotions: cold.demotions,
            cold_versions_demoted: cold.versions_demoted,
            cold_reads: cold.reads,
            cold_bloom_skips: cold.bloom_skips,
            cold_bloom_false_positives: cold.bloom_false_positives,
            cold_compactions: cold.compactions,
        }
    }

    /// Per-table statistics, sorted by table name.
    pub fn table_stats(&self) -> Vec<TableStats> {
        let catalog = self.inner.catalog.read();
        let tables = self.inner.tables.read();
        let latest = self.last_commit_ts();
        let mut out = Vec::new();
        for (id, def) in catalog.tables() {
            let Some(handle) = tables.get(&id) else {
                continue;
            };
            let store = handle.read();
            let mut rows = CheckpointFrames::weigh();
            let mut page = Some(0);
            while let Some(from) = page {
                page = put_rows(&mut rows, &store, from, TS_LATEST);
            }
            rows.close_batch();
            let column_bytes = (def.columns.iter().enumerate())
                .map(|(i, c)| {
                    let bytes = rows.column_bytes().get(i).copied().unwrap_or(0);
                    (c.name.clone(), bytes)
                })
                .collect();
            out.push(TableStats {
                name: def.name.clone(),
                live_rows: store.count_visible(latest),
                versions: store.version_count(),
                indexes: store
                    .indexes()
                    .iter()
                    .map(|i| {
                        let name = i.definition().name.clone();
                        (name, i.entry_count(), i.resident_bytes() as u64)
                    })
                    .collect(),
                checkpoint_bytes: rows.len(),
                column_bytes,
                resident_bytes: store.resident_bytes(),
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Every entry of the index named `index` on `table`, in index
    /// order: its packed key and its row id. A diagnostic read, under no
    /// snapshot: the entries of every version RAM holds.
    pub fn index_entries(&self, table: TableId, index: &str) -> Result<Vec<(Vec<u8>, RowId)>> {
        let handle = self.table_handle(table)?;
        let store = handle.read();
        let (_, idx) = store
            .index_by_name(index)
            .ok_or_else(|| StorageError::UnknownIndex {
                table: store.definition().name.clone(),
                index: index.to_owned(),
            })?;
        let all = idx.prefix(&[]);
        Ok((idx.entries(all.as_ref()))
            .map(|(key, row)| (key.to_vec(), row))
            .collect())
    }

    /// Check that every index holds exactly the entries of the versions
    /// RAM holds, as a fresh build over them would, however it
    /// was built: on commits, at open or by vacuum. `Internal` names
    /// the first index that does not.
    pub fn check_indexes(&self) -> Result<()> {
        for handle in self.inner.tables.read().values() {
            let store = handle.read();
            if let Some(index) = store.index_mismatch() {
                let table = &store.definition().name;
                return Err(StorageError::Internal(format!(
                    "index {table}.{index} differs from its table's versions"
                )));
            }
        }
        Ok(())
    }

    /// The WAL path, if this database is durable.
    pub fn path(&self) -> Option<&Path> {
        self.inner.path.as_deref()
    }
}

/// The log record of a commit. It shares each buffered row's allocation
/// with the version the commit publishes: a written row was packed when
/// the client handed it to `insert`, and its frame is a copy of those
/// bytes.
fn commit_record(commit_ts: Ts, writes: &BTreeMap<TableId, BTreeMap<RowId, WriteOp>>) -> WalRecord {
    let writes = (writes.iter())
        .flat_map(|(&table, ws)| {
            ws.iter().map(move |(&row, op)| WalWrite {
                table,
                row,
                op: match op {
                    WriteOp::Put(r) => WalOp::Put(r.clone()),
                    WriteOp::Delete => WalOp::Delete,
                    // A column update logs only the columns it wrote:
                    // replay composes them onto the row's newest state,
                    // which is the row this commit replaced.
                    WriteOp::Patch { row: r, fields } => WalOp::Patch {
                        fields: fields.clone(),
                        values: (fields.iter())
                            .map(|&p| r.get(p as usize).expect("patched column exists").to_value())
                            .collect(),
                    },
                },
            })
        })
        .collect();
    WalRecord::Commit { commit_ts, writes }
}

/// The rows of `store` a checkpoint writes, from the first page of row
/// slots at or after page `from`: each row's newest version at or below
/// `ts` unless that is a tombstone (a dropped row is invisible to every
/// later snapshot, and the row-id watermark already protects the id
/// space), in row-id order. Returns the page after it, `None` past the
/// last.
fn put_rows(frames: &mut CheckpointFrames, store: &TableStore, from: u64, ts: Ts) -> Option<u64> {
    let (at, versions) = store.newest_versions_in_page(from, ts)?;
    for (rid, v) in versions {
        if let VersionOp::Put(row) = &v.op {
            frames.row(store.id(), rid, v.commit_ts, Some(row));
        }
    }
    Some(at + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::row::Row;
    use crate::value::{DataType, Value};

    fn docs_def() -> TableDef {
        TableDef::new("docs")
            .column("name", DataType::Text)
            .column("author", DataType::Id)
            .nullable_column("note", DataType::Text)
            .unique_index("docs_by_name", &["name"])
            .index("docs_by_author", &["author"])
    }

    fn doc_row(name: &str, author: u64) -> Row {
        Row::new(vec![
            Value::Text(name.into()),
            Value::Id(author),
            Value::Null,
        ])
    }

    #[test]
    fn insert_commit_read_back() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        let rid = txn.insert(t, doc_row("a", 1)).unwrap();
        // Uncommitted: other transactions don't see it.
        let other = db.begin();
        assert!(other.get(t, rid).unwrap().is_none());
        // But the writer does (read-own-writes).
        assert!(txn.get(t, rid).unwrap().is_some());
        let ts = txn.commit().unwrap();
        assert!(ts > 0);
        let after = db.begin();
        assert_eq!(
            after
                .get(t, rid)
                .unwrap()
                .unwrap()
                .get(0)
                .unwrap()
                .as_text(),
            Some("a")
        );
        // The old snapshot still can't see it.
        assert!(other.get(t, rid).unwrap().is_none());
    }

    #[test]
    fn snapshot_isolation_for_scans() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut w = db.begin();
        w.insert(t, doc_row("a", 1)).unwrap();
        w.commit().unwrap();

        let reader = db.begin(); // snapshot: 1 row
        let mut w2 = db.begin();
        w2.insert(t, doc_row("b", 1)).unwrap();
        w2.commit().unwrap();

        assert_eq!(reader.count(t, &Predicate::True).unwrap(), 1);
        assert_eq!(db.begin().count(t, &Predicate::True).unwrap(), 2);
    }

    #[test]
    fn write_write_conflict_first_committer_wins() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut setup = db.begin();
        let rid = setup.insert(t, doc_row("a", 1)).unwrap();
        setup.commit().unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.set(t, rid, &[("author", Value::Id(10))]).unwrap();
        t2.set(t, rid, &[("author", Value::Id(20))]).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, StorageError::WriteConflict { .. }));
        assert_eq!(db.stats().conflicts, 1);
        // The first committer's value stands.
        let r = db.begin().get(t, rid).unwrap().unwrap();
        assert_eq!(r.get(1).unwrap().as_id(), Some(10));
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut setup = db.begin();
        let r1 = setup.insert(t, doc_row("a", 1)).unwrap();
        let r2 = setup.insert(t, doc_row("b", 1)).unwrap();
        setup.commit().unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.set(t, r1, &[("author", Value::Id(10))]).unwrap();
        t2.set(t, r2, &[("author", Value::Id(20))]).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // no conflict: different rows
    }

    #[test]
    fn unique_index_rejects_duplicates_across_txns() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut a = db.begin();
        a.insert(t, doc_row("same", 1)).unwrap();
        a.commit().unwrap();
        let mut b = db.begin();
        b.insert(t, doc_row("same", 2)).unwrap();
        assert!(matches!(
            b.commit().unwrap_err(),
            StorageError::UniqueViolation { .. }
        ));
    }

    #[test]
    fn unique_index_rejects_duplicates_within_txn() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut a = db.begin();
        a.insert(t, doc_row("same", 1)).unwrap();
        a.insert(t, doc_row("same", 2)).unwrap();
        assert!(matches!(
            a.commit().unwrap_err(),
            StorageError::UniqueViolation { .. }
        ));
    }

    #[test]
    fn unique_key_can_move_between_rows_in_one_txn() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut setup = db.begin();
        let rid = setup.insert(t, doc_row("taken", 1)).unwrap();
        setup.commit().unwrap();
        // Delete the holder and re-insert the key in the same transaction.
        let mut mv = db.begin();
        mv.delete(t, rid).unwrap();
        mv.insert(t, doc_row("taken", 2)).unwrap();
        mv.commit().unwrap();
        let rows = db
            .begin()
            .scan(
                t,
                &Predicate::Eq("name".into(), Value::Text("taken".into())),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.get(1).unwrap().as_id(), Some(2));
    }

    #[test]
    fn delete_of_own_insert_vanishes() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        let rid = txn.insert(t, doc_row("ephemeral", 1)).unwrap();
        txn.delete(t, rid).unwrap();
        txn.commit().unwrap();
        assert_eq!(db.begin().count(t, &Predicate::True).unwrap(), 0);
    }

    #[test]
    fn update_missing_row_errors() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        assert!(matches!(
            txn.set(t, RowId(999), &[("author", Value::Id(1))]),
            Err(StorageError::RowNotFound { .. })
        ));
        assert!(matches!(
            txn.delete(t, RowId(999)),
            Err(StorageError::RowNotFound { .. })
        ));
    }

    #[test]
    fn abort_discards_writes() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        txn.insert(t, doc_row("x", 1)).unwrap();
        txn.abort();
        assert_eq!(db.begin().count(t, &Predicate::True).unwrap(), 0);
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn drop_aborts_active_txn() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        {
            let mut txn = db.begin();
            txn.insert(t, doc_row("x", 1)).unwrap();
            // dropped here without commit
        }
        assert_eq!(db.begin().count(t, &Predicate::True).unwrap(), 0);
        // The dropped writer and the temporary reader are both deregistered.
        assert_eq!(db.stats().active_txns, 0);
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn closed_txn_rejects_operations() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        txn.insert(t, doc_row("x", 1)).unwrap();
        let _ = &txn;
        let txn2 = db.begin();
        drop(txn);
        // A dropped/aborted handle can't be used (compile-time: moved).
        // Verify TxnClosed via commit-after-state-change path instead:
        assert!(txn2.get(t, RowId(1)).unwrap().is_none());
    }

    #[test]
    fn index_scan_and_planner_agree_with_full_scan() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        for i in 0..50u64 {
            txn.insert(t, doc_row(&format!("d{i}"), i % 5)).unwrap();
        }
        txn.commit().unwrap();
        let reader = db.begin();
        let via_index = reader
            .scan(t, &Predicate::Eq("author".into(), Value::Id(3)))
            .unwrap();
        assert_eq!(via_index.len(), 10);
        let via_full = reader
            .scan(
                t,
                &Predicate::Contains("name".into(), "d".into())
                    .and(Predicate::Eq("author".into(), Value::Id(3))),
            )
            .unwrap();
        assert_eq!(via_index.len(), via_full.len());
    }

    #[test]
    fn index_range_orders_by_key() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        for (name, author) in [("c", 3u64), ("a", 1), ("b", 2)] {
            txn.insert(t, doc_row(name, author)).unwrap();
        }
        txn.commit().unwrap();
        let reader = db.begin();
        let rows = reader
            .index_range(
                t,
                "docs_by_name",
                std::ops::Bound::Unbounded,
                std::ops::Bound::Unbounded,
            )
            .unwrap();
        let names: Vec<&str> = rows
            .iter()
            .map(|(_, r)| r.get(0).unwrap().as_text().unwrap())
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn index_range_sees_own_writes() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut setup = db.begin();
        let rid = setup.insert(t, doc_row("m", 1)).unwrap();
        setup.commit().unwrap();

        let mut txn = db.begin();
        txn.insert(t, doc_row("a", 1)).unwrap();
        txn.set(t, rid, &[("name", Value::Text("z".into()))])
            .unwrap();
        let rows = txn
            .index_range(
                t,
                "docs_by_name",
                std::ops::Bound::Unbounded,
                std::ops::Bound::Unbounded,
            )
            .unwrap();
        let names: Vec<&str> = rows
            .iter()
            .map(|(_, r)| r.get(0).unwrap().as_text().unwrap())
            .collect();
        assert_eq!(names, vec!["a", "z"]);
    }

    #[test]
    fn index_prev_walks_newest_first() {
        let db = Database::open_in_memory();
        let t = db
            .create_table(
                TableDef::new("log")
                    .column("doc", DataType::Id)
                    .column("ts", DataType::Timestamp)
                    .index("by_doc_ts", &["doc", "ts"]),
            )
            .unwrap();
        let mut setup = db.begin();
        for (doc, ts) in [(1u64, 10i64), (1, 30), (1, 20), (2, 99)] {
            setup
                .insert(t, Row::new(vec![Value::Id(doc), Value::Timestamp(ts)]))
                .unwrap();
        }
        setup.commit().unwrap();

        let txn = db.begin();
        let prefix = [Value::Id(1)];
        let (k1, _, r1) = txn
            .index_prev(t, "by_doc_ts", &prefix, None)
            .unwrap()
            .unwrap();
        assert_eq!(r1.get(1).unwrap().as_timestamp(), Some(30));
        let (k2, _, r2) = txn
            .index_prev(t, "by_doc_ts", &prefix, Some(&k1))
            .unwrap()
            .unwrap();
        assert_eq!(r2.get(1).unwrap().as_timestamp(), Some(20));
        let (k3, _, r3) = txn
            .index_prev(t, "by_doc_ts", &prefix, Some(&k2))
            .unwrap()
            .unwrap();
        assert_eq!(r3.get(1).unwrap().as_timestamp(), Some(10));
        assert!(txn
            .index_prev(t, "by_doc_ts", &prefix, Some(&k3))
            .unwrap()
            .is_none());
        // A different prefix never bleeds in.
        let (_, _, r) = txn
            .index_prev(t, "by_doc_ts", &[Value::Id(2)], None)
            .unwrap()
            .unwrap();
        assert_eq!(r.get(1).unwrap().as_timestamp(), Some(99));
        assert!(txn
            .index_prev(t, "by_doc_ts", &[Value::Id(3)], None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn index_prev_sees_own_writes_and_skips_overwritten() {
        let db = Database::open_in_memory();
        let t = db
            .create_table(
                TableDef::new("log")
                    .column("doc", DataType::Id)
                    .column("ts", DataType::Timestamp)
                    .index("by_doc_ts", &["doc", "ts"]),
            )
            .unwrap();
        let mut setup = db.begin();
        let old = setup
            .insert(t, Row::new(vec![Value::Id(1), Value::Timestamp(50)]))
            .unwrap();
        setup.commit().unwrap();

        let mut txn = db.begin();
        // Own insert with a newer ts wins.
        txn.insert(t, Row::new(vec![Value::Id(1), Value::Timestamp(70)]))
            .unwrap();
        let (_, _, r) = txn
            .index_prev(t, "by_doc_ts", &[Value::Id(1)], None)
            .unwrap()
            .unwrap();
        assert_eq!(r.get(1).unwrap().as_timestamp(), Some(70));
        // Overwriting the committed row moves it in the cursor's view.
        txn.set(t, old, &[("ts", Value::Timestamp(90))]).unwrap();
        let (_, rid, r) = txn
            .index_prev(t, "by_doc_ts", &[Value::Id(1)], None)
            .unwrap()
            .unwrap();
        assert_eq!(rid, old);
        assert_eq!(r.get(1).unwrap().as_timestamp(), Some(90));
        // Deleting it hides it.
        txn.delete(t, old).unwrap();
        let (_, _, r) = txn
            .index_prev(t, "by_doc_ts", &[Value::Id(1)], None)
            .unwrap()
            .unwrap();
        assert_eq!(r.get(1).unwrap().as_timestamp(), Some(70));
    }

    #[test]
    fn ddl_lifecycle() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        assert_eq!(db.table_id("docs").unwrap(), t);
        assert_eq!(db.table_names(), vec!["docs".to_string()]);
        assert!(matches!(
            db.create_table(docs_def()),
            Err(StorageError::TableExists(_))
        ));
        db.drop_table("docs").unwrap();
        assert!(db.table_id("docs").is_err());
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn vacuum_respects_active_snapshots() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        let rid = txn.insert(t, doc_row("v", 1)).unwrap();
        txn.commit().unwrap();
        let old_reader = db.begin(); // pins the current snapshot
        for i in 0..5u64 {
            let mut w = db.begin();
            w.set(t, rid, &[("author", Value::Id(i + 10))]).unwrap();
            w.commit().unwrap();
        }
        // With the old reader live, its snapshot's version must survive.
        db.vacuum();
        let r = old_reader.get(t, rid).unwrap().unwrap();
        assert_eq!(r.get(1).unwrap().as_id(), Some(1));
        drop(old_reader);
        let pruned = db.vacuum();
        assert!(pruned > 0);
        let r = db.begin().get(t, rid).unwrap().unwrap();
        assert_eq!(r.get(1).unwrap().as_id(), Some(14));
    }

    /// Regression: `begin` used to load `last_commit_ts` *before*
    /// registering in `active`. In that window a concurrent commit +
    /// vacuum computed a horizon past the already-loaded snapshot and
    /// pruned the only version it could see — the reader then observed a
    /// row vanish (`get` returned `None` for a row that existed in its
    /// snapshot). With the snapshot now allocated under the `active`
    /// lock, the horizon can never overtake an unregistered snapshot.
    #[test]
    fn begin_snapshot_cannot_be_overtaken_by_vacuum() {
        use std::sync::atomic::AtomicBool;

        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut setup = db.begin();
        let rid = setup.insert(t, doc_row("contended", 1)).unwrap();
        setup.commit().unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        // Writer: keeps superseding the row so there is always a version
        // for vacuum to prune.
        let writer = {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut w = db.begin();
                    w.set(t, rid, &[("author", Value::Id(i % 100 + 1))])
                        .unwrap();
                    w.commit().unwrap();
                    i += 1;
                }
            })
        };
        // Vacuumer: tightens the horizon as aggressively as possible.
        let vacuumer = {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    db.vacuum();
                }
            })
        };
        // Readers racing begin() against the writer+vacuumer: the row
        // has existed since before any thread started, so every snapshot
        // must see *some* version of it.
        for _ in 0..2_000 {
            let r = db.begin();
            assert!(
                r.get(t, rid).unwrap().is_some(),
                "snapshot observed a vacuumed-away row: begin/vacuum race"
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        vacuumer.join().unwrap();
    }

    #[test]
    fn maintenance_auto_vacuums_in_memory_db() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut setup = db.begin();
        let rid = setup.insert(t, doc_row("hot", 1)).unwrap();
        setup.commit().unwrap();
        for i in 0..50u64 {
            let mut w = db.begin();
            w.set(t, rid, &[("author", Value::Id(i + 2))]).unwrap();
            w.commit().unwrap();
        }
        assert!(db.pruneable_estimate() >= 50);
        assert!(db.start_maintenance(MaintenanceOptions {
            interval: std::time::Duration::from_millis(1),
            vacuum_pruneable: 10,
            ..MaintenanceOptions::default()
        }));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while db.stats().maintenance_vacuums == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "auto-vacuum never ran"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(db.stats().versions_pruned >= 50);
        assert_eq!(db.pruneable_estimate(), 0);
        assert!(db.stop_maintenance());
        assert!(!db.stop_maintenance(), "second stop must be a no-op");
    }

    #[test]
    fn maintenance_thread_exits_when_database_drops() {
        let db = Database::open_in_memory();
        assert!(db.start_maintenance(MaintenanceOptions {
            interval: std::time::Duration::from_millis(1),
            ..MaintenanceOptions::default()
        }));
        assert!(!db.start_maintenance(MaintenanceOptions::default()));
        // DbInner::drop joins the thread; returning from this test
        // without hanging is the assertion.
        drop(db);
    }

    #[test]
    fn savepoints_roll_back_partial_work() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut setup = db.begin();
        let keep = setup.insert(t, doc_row("keep", 1)).unwrap();
        setup.commit().unwrap();

        let mut txn = db.begin();
        txn.set(t, keep, &[("author", Value::Id(2))]).unwrap();
        let sp = txn.savepoint();
        let temp = txn.insert(t, doc_row("temp", 3)).unwrap();
        txn.set(t, keep, &[("author", Value::Id(99))]).unwrap();
        // Roll back the inner work; the outer update survives.
        txn.rollback_to(&sp).unwrap();
        assert!(txn.get(t, temp).unwrap().is_none());
        assert_eq!(
            txn.get(t, keep).unwrap().unwrap().get(1).unwrap().as_id(),
            Some(2)
        );
        txn.commit().unwrap();

        let reader = db.begin();
        assert_eq!(reader.count(t, &Predicate::True).unwrap(), 1);
        let row = reader.get(t, keep).unwrap().unwrap();
        assert_eq!(row.get(1).unwrap().as_id(), Some(2));
    }

    #[test]
    fn nested_savepoints() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        txn.insert(t, doc_row("a", 1)).unwrap();
        let sp1 = txn.savepoint();
        txn.insert(t, doc_row("b", 1)).unwrap();
        let sp2 = txn.savepoint();
        txn.insert(t, doc_row("c", 1)).unwrap();
        txn.rollback_to(&sp2).unwrap();
        assert_eq!(txn.write_count(), 2); // a, b
        txn.rollback_to(&sp1).unwrap();
        assert_eq!(txn.write_count(), 1); // a
        txn.commit().unwrap();
        assert_eq!(db.begin().count(t, &Predicate::True).unwrap(), 1);
    }

    #[test]
    fn empty_commit_is_cheap_and_valid() {
        let db = Database::open_in_memory();
        let txn = db.begin();
        let ts = txn.commit().unwrap();
        assert_eq!(ts, 0);
        assert_eq!(db.stats().commits, 1);
    }

    #[test]
    fn table_stats_report_live_and_versioned() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut txn = db.begin();
        let a = txn.insert(t, doc_row("a", 1)).unwrap();
        txn.insert(t, doc_row("b", 2)).unwrap();
        txn.commit().unwrap();
        let mut w = db.begin();
        w.set(t, a, &[("author", Value::Id(9))]).unwrap();
        w.commit().unwrap();
        let mut d = db.begin();
        d.delete(t, a).unwrap();
        d.commit().unwrap();

        let stats = db.table_stats();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.name, "docs");
        assert_eq!(s.live_rows, 1);
        assert_eq!(s.versions, 4); // 2 inserts + update + delete
        assert_eq!(s.indexes.len(), 2);
        let by_name = s
            .indexes
            .iter()
            .find(|(n, _, _)| n == "docs_by_name")
            .unwrap();
        assert_eq!(by_name.1, 2); // "a", "b": one entry each for its versions
        assert!(by_name.2 > 0);
    }

    #[test]
    fn clock_modes() {
        let db = Database::open_in_memory();
        assert_eq!(db.now(), 1);
        assert_eq!(db.now(), 2);
    }

    // ------------------------------------------------------ durability tests

    fn tmp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tendax-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn recovery_restores_tables_and_rows() {
        let path = tmp_wal("recover.wal");
        let rid;
        let t;
        {
            let db = Database::open(&path, Options::default()).unwrap();
            t = db.create_table(docs_def()).unwrap();
            let mut txn = db.begin();
            rid = txn.insert(t, doc_row("persisted", 7)).unwrap();
            txn.commit().unwrap();
        }
        let db = Database::open(&path, Options::default()).unwrap();
        let t2 = db.table_id("docs").unwrap();
        assert_eq!(t2, t);
        let row = db.begin().get(t2, rid).unwrap().unwrap();
        assert_eq!(row.get(0).unwrap().as_text(), Some("persisted"));
        assert_eq!(row.get(1).unwrap().as_id(), Some(7));
    }

    #[test]
    fn recovery_preserves_row_id_allocation() {
        let path = tmp_wal("rowids.wal");
        let first;
        {
            let db = Database::open(&path, Options::default()).unwrap();
            let t = db.create_table(docs_def()).unwrap();
            let mut txn = db.begin();
            first = txn.insert(t, doc_row("a", 1)).unwrap();
            txn.commit().unwrap();
        }
        let db = Database::open(&path, Options::default()).unwrap();
        let t = db.table_id("docs").unwrap();
        let mut txn = db.begin();
        let second = txn.insert(t, doc_row("b", 1)).unwrap();
        txn.commit().unwrap();
        assert!(second > first, "row ids must never be reused");
    }

    #[test]
    fn recovery_restores_logical_clock_from_row_timestamps() {
        let path = tmp_wal("clock.wal");
        let high_ts;
        {
            let db = Database::open(&path, Options::default()).unwrap();
            let t = db
                .create_table(TableDef::new("evts").column("at", DataType::Timestamp))
                .unwrap();
            for _ in 0..50 {
                db.now();
            }
            high_ts = db.now();
            let mut txn = db.begin();
            txn.insert(t, Row::new(vec![Value::Timestamp(high_ts)]))
                .unwrap();
            txn.commit().unwrap();
            // No checkpoint: crash without a Meta record.
        }
        let db = Database::open(&path, Options::default()).unwrap();
        // The next timestamp must exceed everything persisted, or undo
        // ordering (and any ts-ordered metadata) would break.
        assert!(db.now() > high_ts, "clock regressed across recovery");
    }

    #[test]
    fn checkpoint_compacts_and_recovers() {
        let path = tmp_wal("checkpoint.wal");
        let rid;
        {
            let db = Database::open(&path, Options::default()).unwrap();
            let t = db.create_table(docs_def()).unwrap();
            let mut txn = db.begin();
            rid = txn.insert(t, doc_row("keep", 1)).unwrap();
            let gone = txn.insert(t, doc_row("gone", 2)).unwrap();
            txn.commit().unwrap();
            for i in 0..10u64 {
                let mut w = db.begin();
                w.set(t, rid, &[("author", Value::Id(i))]).unwrap();
                w.commit().unwrap();
            }
            let mut d = db.begin();
            d.delete(t, gone).unwrap();
            d.commit().unwrap();
            db.checkpoint().unwrap();
        }
        let size_after = std::fs::metadata(&path).unwrap().len();
        let db = Database::open(&path, Options::default()).unwrap();
        let t = db.table_id("docs").unwrap();
        let reader = db.begin();
        assert_eq!(reader.count(t, &Predicate::True).unwrap(), 1);
        let row = reader.get(t, rid).unwrap().unwrap();
        assert_eq!(row.get(1).unwrap().as_id(), Some(9));
        // Deleted row's id is not reused after checkpoint+restart.
        let mut txn = db.begin();
        let fresh = txn.insert(t, doc_row("fresh", 1)).unwrap();
        txn.commit().unwrap();
        assert!(fresh.0 > rid.0 + 1);
        assert!(size_after > 0);
    }

    #[test]
    fn recovery_after_drop_table() {
        let path = tmp_wal("droptable.wal");
        {
            let db = Database::open(&path, Options::default()).unwrap();
            db.create_table(docs_def()).unwrap();
            db.create_table(TableDef::new("other").column("x", DataType::Int))
                .unwrap();
            db.drop_table("docs").unwrap();
        }
        let db = Database::open(&path, Options::default()).unwrap();
        assert!(db.table_id("docs").is_err());
        assert!(db.table_id("other").is_ok());
    }

    #[test]
    fn torn_tail_drops_only_last_txn() {
        let path = tmp_wal("torn.wal");
        {
            let db = Database::open(&path, Options::default()).unwrap();
            let t = db.create_table(docs_def()).unwrap();
            for i in 0..3u64 {
                let mut txn = db.begin();
                txn.insert(t, doc_row(&format!("d{i}"), i)).unwrap();
                txn.commit().unwrap();
            }
        }
        // Tear the final record.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let db = Database::open(&path, Options::default()).unwrap();
        let t = db.table_id("docs").unwrap();
        assert_eq!(db.begin().count(t, &Predicate::True).unwrap(), 2);
    }

    #[test]
    fn concurrent_inserters_all_commit() {
        let db = Database::open_in_memory();
        let t = db.create_table(docs_def()).unwrap();
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let mut txn = db.begin();
                    txn.insert(t, doc_row(&format!("w{w}-i{i}"), w)).unwrap();
                    txn.commit().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.begin().count(t, &Predicate::True).unwrap(), 400);
        assert_eq!(db.stats().commits, 400);
        assert_eq!(db.stats().conflicts, 0);
    }
}
