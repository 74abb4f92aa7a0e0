//! What one pass over a workload leaves behind, and the end-to-end
//! metrics computed from it.

use tendax_collab::TransportStats;
use tendax_storage::{Database, Stats};

use crate::agg::{median_f64, slice_factors, steady, SLICES};
use crate::trace::{Class, Delta, Samples, Tracer};

/// WAL flush counters summed over the shard files.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalCounters {
    pub batches: u64,
    pub records: u64,
    pub fsyncs: u64,
    pub flush_wait_ns: u64,
}

impl WalCounters {
    pub fn read(db: &Database) -> WalCounters {
        let mut c = WalCounters::default();
        for s in db.wal_shard_stats() {
            c.batches += s.batches_flushed;
            c.records += s.records_flushed;
            c.fsyncs += s.fsyncs;
            c.flush_wait_ns += s.flush_wait_ns;
        }
        c
    }

    pub fn since(&self, earlier: &WalCounters) -> WalCounters {
        WalCounters {
            batches: self.batches - earlier.batches,
            records: self.records - earlier.records,
            fsyncs: self.fsyncs - earlier.fsyncs,
            flush_wait_ns: self.flush_wait_ns - earlier.flush_wait_ns,
        }
    }
}

/// Bytes appended to the WAL over the measured phase. `wal_size()`
/// counts from the last checkpoint, so the meter is paused around each
/// checkpoint and restarted after it. (`wal_shard_stats().bytes_flushed`
/// reads 0 in the single-file layout.)
#[derive(Debug, Default, Clone, Copy)]
pub struct WalBytes {
    mark: u64,
    pub total: u64,
}

impl WalBytes {
    pub fn restart(&mut self, db: &Database) {
        self.mark = db.wal_size().0;
    }

    pub fn pause(&mut self, db: &Database) {
        self.total += db.wal_size().0.saturating_sub(self.mark);
    }
}

/// Server and bus counter movement over the measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetCounters {
    pub events_forwarded: u64,
    pub frames_dropped: u64,
    pub slow_disconnects: u64,
    pub pool_spurious_wakeups: u64,
    pub threads_peak: u64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct BusCounters {
    pub published: u64,
    pub delivered: u64,
    pub dropped: u64,
}

impl BusCounters {
    pub fn between(before: &TransportStats, after: &TransportStats) -> BusCounters {
        BusCounters {
            published: after.published - before.published,
            delivered: after.delivered - before.delivered,
            dropped: after.dropped - before.dropped,
        }
    }
}

/// Counter movement per op class (filled only when tracing).
#[derive(Debug, Default, Clone, Copy)]
pub struct ClassDeltas {
    pub edit: Delta,
    pub open: Delta,
    pub paste: Delta,
    pub folder: Delta,
    pub search: Delta,
    pub mining: Delta,
    pub lineage: Delta,
    pub task: Delta,
}

/// A one-off operation timed several times over (set-ups, reopens),
/// each with the machine factor of the calibration bursts around it.
#[derive(Debug, Default, Clone)]
pub struct OneOff {
    pub secs: Vec<f64>,
    pub factors: Vec<f64>,
}

impl OneOff {
    pub fn push(&mut self, secs: f64, factor: f64) {
        self.secs.push(secs);
        self.factors.push(factor);
    }

    /// Median time as measured, seconds.
    pub fn raw_s(&self) -> f64 {
        median_f64(&self.secs)
    }

    /// Median of the times, each at the reference machine state.
    pub fn steady_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .secs
            .iter()
            .zip(&self.factors)
            .map(|(s, f)| s / f)
            .collect();
        median_f64(&scaled)
    }

    /// Median factor over the repetitions.
    pub fn factor(&self) -> f64 {
        median_f64(&self.factors)
    }
}

#[derive(Debug, Default)]
pub struct RunRecord {
    pub samples: Samples,
    pub tracer: Tracer,
    pub setups: OneOff,
    pub reopens: OneOff,
    /// Resident memory of the calibration kernel's own data, which
    /// `peak_rss_mb` leaves out.
    pub calib_rss_mb: f64,
    /// Bytes on disk before and after the final checkpoint.
    pub bytes_before_checkpoint: u64,
    pub stored_bytes: u64,
    pub user_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub schedule_digest: u64,
    pub model_digest: u64,
    pub doc_digest: u64,
    /// Edits in the measured phase (warm-up excluded).
    pub edits: u64,
    pub deltas: ClassDeltas,
    /// Engine counters at the start and end of the measured phase.
    pub engine: (Stats, Stats),
    pub wal: WalCounters,
    pub wal_bytes: WalBytes,
    pub wal_size_end: u64,
    pub ram_versions_end: u64,
    pub net: NetCounters,
    pub bus: BusCounters,
    pub session_retries: u64,
    pub events_reordered: u64,
    pub folder_changes: u64,
    pub maint_cycles: u64,
    /// `typing_durable` only: charged I/O ops per edit on the simulated
    /// disk, from the crash check.
    pub io_ops_per_edit: f64,
    pub crash_edits_lost: u64,
    /// Cold workloads, traced pass only: point reads at the oldest
    /// snapshot, nanoseconds each.
    pub cold_get_ns: Vec<u64>,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn problem(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Compare texts read back from the system with the model's; each
    /// document that differs is a failed op.
    pub fn check_texts(&mut self, what: &str, got: &[String], want: &[String]) {
        for (d, (g, w)) in got.iter().zip(want).enumerate() {
            if g != w {
                self.problem(format!(
                    "{what}: document {d} differs from the reference model ({} vs {} chars)",
                    g.chars().count(),
                    w.chars().count()
                ));
            }
        }
    }

    /// The calibration samples taken once a round: `(memory, socket)`.
    fn calib(&self) -> (&[u64], &[u64]) {
        (
            self.samples.of(Class::CalibMem),
            self.samples.of(Class::CalibNet),
        )
    }

    /// Percentile `p` of `class` over the measured phase at the reference
    /// machine state (see `agg::steady`), nanoseconds.
    pub fn steady_ns(&self, class: Class, p: f64) -> f64 {
        steady(self.samples.of(class), p, Some(self.calib()))
    }

    /// The same as measured, without the machine factor.
    pub fn raw_ns(&self, class: Class, p: f64) -> f64 {
        steady(self.samples.of(class), p, None)
    }

    pub fn p50_us(&self, class: Class) -> f64 {
        self.steady_ns(class, 0.5) / 1e3
    }

    /// The run's machine factor: geometric mean over its slices.
    pub fn factor(&self) -> f64 {
        let (mem, net) = self.calib();
        let f = slice_factors(mem, net, SLICES.min(mem.len()).max(1));
        (f.iter().map(|f| f.ln()).sum::<f64>() / f.len() as f64).exp()
    }

    /// p50 of the first `n` samples of `class`, microseconds, at the
    /// reference machine state of the rounds they fell in.
    pub fn head_p50_us(&self, class: Class, n: usize) -> f64 {
        let all = self.samples.of(class);
        let n = n.min(all.len());
        if n == 0 {
            return 0.0;
        }
        let (mem, net) = self.calib();
        let rounds = (mem.len() * n).div_ceil(all.len());
        steady(&all[..n], 0.5, Some((&mem[..rounds], &net[..rounds]))) / 1e3
    }

    /// Edits per second of the time rounds spend on their edits.
    fn edits_per_s(&self, round_edits_ns: f64) -> f64 {
        let s = &self.samples;
        let per_round = s.of(Class::EditVisible).len() / s.of(Class::RoundEdits).len().max(1);
        per_round as f64 / (round_edits_ns / 1e9)
    }

    /// Every end-to-end metric in catalog order: `(name, value at the
    /// reference machine state, value as measured)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, f64)> {
        let both = |class, scale: f64| {
            (
                self.steady_ns(class, 0.5) / scale,
                self.raw_ns(class, 0.5) / scale,
            )
        };
        let pair = |name, (steady, raw): (f64, f64)| (name, steady, raw);
        let same = |name, v: f64| (name, v, v);
        let round_edits = both(Class::RoundEdits, 1.0);
        vec![
            pair("setup_s", (self.setups.steady_s(), self.setups.raw_s())),
            pair("edit_ack_p50_us", both(Class::EditAck, 1e3)),
            pair("edit_visible_p50_us", both(Class::EditVisible, 1e3)),
            pair(
                "edits_per_s",
                (
                    self.edits_per_s(round_edits.0),
                    self.edits_per_s(round_edits.1),
                ),
            ),
            pair("doc_open_p50_us", both(Class::DocOpen, 1e3)),
            pair("round_ms", both(Class::Round, 1e6)),
            pair("round_short_ops_ms", both(Class::RoundShort, 1e6)),
            same(
                "stored_bytes_per_user_byte",
                self.stored_bytes as f64 / self.user_bytes.max(1) as f64,
            ),
            pair(
                "recovery_s",
                (self.reopens.steady_s(), self.reopens.raw_s()),
            ),
            same(
                "peak_rss_mb",
                crate::fixture::peak_rss_mb() - self.calib_rss_mb,
            ),
        ]
    }
}
