//! Per-layer metrics: counter movement and spans of the traced pass,
//! the ladder's rungs, and the two driver checks that tie them to the
//! untraced end-to-end number.

use crate::agg::percentile;
use crate::ladder::Values;
use crate::record::RunRecord;
use crate::trace::{Class, Delta};

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// p50 of `ns` in microseconds at the reference machine state (`factor`
/// is the run's); 0 when there are no samples.
fn p50_us(ns: &[u64], factor: f64) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        percentile(ns, 0.5) / 1e3 / factor
    }
}

pub fn assemble(base: &RunRecord, traced: &RunRecord, mut v: Values) -> Values {
    let t = traced;
    let d = &t.deltas;
    let (e0, e1) = &t.engine;
    // Timings from spans and counters are divided by the run's factor.
    let factor = t.factor();
    let span_p50_us = |name: &str| p50_us(&t.tracer.durations(name), factor);
    let edits = t.edits;
    let commits = e1.commits - e0.commits;

    // ------------------------------------------------------------ storage
    let per_edit = |total: u64| Delta::per_op(&d.edit, total);
    v.insert("storage.commit.commits_per_edit", per_edit(d.edit.commits));
    v.insert(
        "storage.commit.txns_begun_per_edit",
        per_edit(d.edit.txns_begun),
    );
    v.insert(
        "storage.commit.conflicts",
        (e1.conflicts - e0.conflicts) as f64,
    );
    v.insert(
        "storage.commit.merged",
        (e1.commits_merged - e0.commits_merged) as f64,
    );
    v.insert(
        "storage.commit.wait_us_per_commit",
        ratio(e1.commit_wait_ns - e0.commit_wait_ns, commits) / 1e3 / factor,
    );
    v.insert(
        "storage.commit.watermark_lag_max",
        e1.watermark_lag_max as f64,
    );
    v.insert(
        "storage.read.point_gets_per_edit",
        per_edit(d.edit.point_gets),
    );
    v.insert(
        "storage.read.index_lookups_per_edit",
        per_edit(d.edit.index_lookups),
    );
    for (name, delta) in [
        ("storage.read.rows_scanned_per_folder_refresh", &d.folder),
        ("storage.read.rows_scanned_per_search", &d.search),
        ("storage.read.rows_scanned_per_mining", &d.mining),
        ("storage.read.rows_scanned_per_lineage", &d.lineage),
        ("storage.read.rows_scanned_per_doc_open", &d.open),
    ] {
        v.insert(name, delta.per_op(delta.rows_scanned));
    }
    let scanned = e1.rows_scanned - e0.rows_scanned;
    let skipped = e1.rows_skipped_by_predicate - e0.rows_skipped_by_predicate;
    v.insert(
        "storage.read.scan_selectivity",
        ratio(scanned - skipped.min(scanned), scanned),
    );

    v.insert(
        "storage.wal.bytes_per_edit",
        ratio(t.wal_bytes.total, edits),
    );
    v.insert("storage.wal.fsyncs_per_edit", ratio(t.wal.fsyncs, edits));
    v.insert(
        "storage.wal.records_per_batch",
        ratio(t.wal.records, t.wal.batches),
    );
    v.insert(
        "storage.wal.flush_wait_us_per_commit",
        ratio(t.wal.flush_wait_ns, commits) / 1e3 / factor,
    );
    v.insert("storage.wal.io_ops_per_edit", t.io_ops_per_edit);
    v.insert("storage.wal.size_bytes_end", t.wal_size_end as f64);

    v.insert(
        "storage.maint.checkpoint_ms",
        p50_us(t.samples.of(Class::Checkpoint), factor) / 1e3,
    );
    v.insert(
        "storage.maint.vacuum_ms",
        p50_us(t.samples.of(Class::Vacuum), factor) / 1e3,
    );
    v.insert(
        "storage.maint.versions_pruned",
        (e1.versions_pruned - e0.versions_pruned) as f64,
    );
    v.insert(
        "storage.maint.bytes_after_checkpoint",
        t.stored_bytes as f64,
    );
    v.insert(
        "storage.cold.versions_demoted",
        (e1.cold_versions_demoted - e0.cold_versions_demoted) as f64,
    );
    v.insert("storage.cold.runs_end", e1.cold_runs as f64);
    v.insert(
        "storage.cold.compactions",
        (e1.cold_compactions - e0.cold_compactions) as f64,
    );
    v.insert("storage.cold.get_us", p50_us(&t.cold_get_ns, factor));
    let probes = e1.cold_bloom_skips + e1.cold_reads + e1.cold_bloom_false_positives;
    v.insert(
        "storage.cold.bloom_skip_ratio",
        ratio(e1.cold_bloom_skips, probes),
    );
    v.insert(
        "storage.cold.bloom_false_positives",
        e1.cold_bloom_false_positives as f64,
    );
    v.insert("storage.ram_versions_end", t.ram_versions_end as f64);
    let recovery_ms = t.reopens.steady_s() * 1e3;
    v.insert(
        "storage.recovery.ms_per_mb",
        recovery_ms / (t.bytes_before_checkpoint.max(1) as f64 / 1e6),
    );

    // ------------------------------------------------- collab, net, spans
    v.insert(
        "collab.bus.delivered_per_publish",
        ratio(t.bus.delivered, t.bus.published),
    );
    v.insert("collab.bus.dropped", t.bus.dropped as f64);
    if t.session_retries > 0 || t.events_reordered > 0 {
        // The replay's own counts, where it can see them, beat the rung's.
        v.insert("collab.retries_per_edit", ratio(t.session_retries, edits));
        v.insert("collab.events_reordered", t.events_reordered as f64);
    }
    let fanout: Vec<u64> = t
        .samples
        .of(Class::EditVisible)
        .iter()
        .zip(t.samples.of(Class::EditAck))
        .map(|(vis, ack)| vis - ack)
        .collect();
    if v.contains_key("net.insert_us") {
        v.insert("net.fanout_us", p50_us(&fanout, factor));
        v.insert("net.subscribe_us", span_p50_us("net.resubscribe"));
        v.insert(
            "net.events_forwarded_per_edit",
            ratio(t.net.events_forwarded, edits),
        );
        v.insert("net.frames_dropped", t.net.frames_dropped as f64);
        v.insert("net.slow_disconnects", t.net.slow_disconnects as f64);
        v.insert(
            "net.pool_spurious_wakeups_per_edit",
            ratio(t.net.pool_spurious_wakeups, edits),
        );
        v.insert("net.threads_peak", t.net.threads_peak as f64);
    }

    // ------------------------------------------------------ meta, process
    for (metric, span) in [
        ("meta.folder.evaluate_us", "meta.folder.evaluate"),
        ("meta.folder.refresh_us", "meta.folder.refresh"),
        ("meta.search.update_us", "meta.search.update"),
        ("meta.search.query_us", "meta.search.query"),
        ("meta.mining.features_us", "meta.mining.features"),
        ("meta.mining.pca_kmeans_us", "meta.mining.pca_kmeans"),
        ("meta.lineage.build_us", "meta.lineage.build"),
        ("meta.lineage.provenance_us", "meta.lineage.provenance"),
        ("process.define_us", "process.define"),
        ("process.inbox_us", "process.inbox"),
        ("process.complete_us", "process.complete"),
        ("process.route_us", "task_route"),
    ] {
        v.insert(metric, span_p50_us(span));
    }
    v.insert(
        "meta.folder.changes_per_refresh",
        ratio(t.folder_changes, d.folder.ops),
    );
    v.insert("process.commits_per_route", d.task.per_op(d.task.commits));
    if !t.tracer.durations("collab.paste").is_empty() {
        // In the workload that pastes for real, report the real pastes.
        v.insert("text.copy_us", span_p50_us("text.copy"));
        v.insert("text.paste_us", span_p50_us("collab.paste"));
        v.insert("text.render_us", span_p50_us("text.render"));
    }

    // ------------------------------------------------------------- driver
    let untraced = base.p50_us(Class::EditAck);
    let traced_ack = t.p50_us(Class::EditAck);
    let ladder_top = v
        .get("bench.ladder.edit_ack_p50_us")
        .copied()
        .unwrap_or(0.0);
    v.insert("bench.untraced.edit_ack_p50_us", untraced);
    v.insert("bench.traced.edit_ack_p50_us", traced_ack);
    // The rungs replay the first edits of the measured phase, and costs
    // grow during a run, so the ladder is held against the untraced
    // pass's median over those same edits. The self times telescope to
    // the top rung: what the ladder leaves unexplained is that median
    // minus the top rung.
    let ladder_edits = v.remove("bench.ladder.edits").unwrap_or(0.0) as usize;
    let same_edits = base.head_p50_us(Class::EditAck, ladder_edits);
    v.insert("bench.untraced.same_edits_p50_us", same_edits);
    v.insert("bench.unattributed_us", same_edits - ladder_top);
    v.insert(
        "bench.trace_overhead_pct",
        (traced_ack - untraced) / untraced * 100.0,
    );
    v.insert(
        "bench.edit_ack_p99_us",
        base.steady_ns(Class::EditAck, 0.99) / 1e3,
    );
    v.insert("bench.machine_factor", factor);
    v.insert("bench.maintenance_cycles", t.maint_cycles as f64);
    v.insert("bench.crash_check.edits_lost", t.crash_edits_lost as f64);
    v.insert("bench.spans", t.tracer.spans.len() as f64);
    v
}
