//! Every workload and metric by name. `BENCHMARK.json` lists the same
//! names (a test keeps the two in step); `--describe` prints this table
//! for the README.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "typing_tcp",
        "Two clients type into 8 hot 4k-char documents over TCP, Buffered flush: net, collab and text do the work, the WAL never waits. One op in flight on one pinned CPU: parallel speed-up is out of scope.",
    ),
    (
        "typing_durable",
        "The same typing at DurabilityLevel::Fsync: the difference from typing_tcp isolates the WAL flush, the only workload where storage.wal waits show.",
    ),
    (
        "workspace_services",
        "In-process, no TCP: 64 documents, folders, search, mining, lineage and task routing between edits; meta, process and the storage read path work, net does nothing.",
    ),
    (
        "big_doc_churn",
        "Single-char churn on one 24k-char document with a watcher re-opening it, cold tier on, vacuum and checkpoint cycling: reads beside writes on data larger than the version budget.",
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub about: &'static str,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        about: "Median of five set-ups: open the database, create users and pre-populated documents, start the server, connect and subscribe both clients.",
    },
    EndToEnd {
        name: "edit_ack_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        about: "Keystroke to acknowledgement: the typist's insert/delete call until it returns. Mean over 32 slices of the run of the slice's p50.",
    },
    EndToEnd {
        name: "edit_visible_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        about: "Keystroke to the other screen: from the same start until the other user's view holds the edit (wait_synced, or sync in-process).",
    },
    EndToEnd {
        name: "edits_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        about: "Edits per second of the time spent on edits (keystroke to visible), closed loop, one in flight: edits per round over the median round's edit time, per slice, then the mean over the slices.",
    },
    EndToEnd {
        name: "doc_open_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        about: "A user closes a document and opens it again: unsubscribe + subscribe with a full snapshot over TCP, EditorSession::open_id in-process.",
    },
    EndToEnd {
        name: "round_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        about: "Wall time of one round of the workload's fixed bundle of ops (on workspace_services: edits, paste, folder refresh, search, mining, lineage, task route, open). Inverse throughput of the whole mix.",
    },
    EndToEnd {
        name: "round_short_ops_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        about: "The part of a round spent on its short ops: everything except whole-document and whole-corpus reads (document opens, folder refresh, mining sweep). On workspace_services: edits, paste, state change, search, lineage, task route; on the TCP workloads: the edits. round_ms is nine tenths folder refresh and mining there, so this is what guards the cheap services.",
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        about: "Every file of the database directory after the final checkpoint, divided by the bytes of text users typed or pasted.",
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        about: "Median of seven Tendax::open calls on the files the run left (last periodic checkpoint plus the WAL tail); every reopen is verified against the model.",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        about: "VmHWM of the workload's process, less the resident size of the calibration kernel's own data.",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const COMMIT: &str = "edit_ack_p50_us on every workload, by at most its ladder share (a few us of hundreds over TCP)";
const READ: &str = "round_ms and round_short_ops_ms on workspace_services (meta.* explains which op), doc_open_p50_us on big_doc_churn";
const WAL: &str = "edit_ack_p50_us, edit_ack_p99_us, edits_per_s on typing_durable; stored_bytes_per_user_byte and recovery_s everywhere; flat on the other workloads' latencies";
const MAINT: &str = "stored_bytes_per_user_byte, recovery_s, peak_rss_mb and edit_ack_p99_us spikes on big_doc_churn";
const TEXT: &str = "edit_ack_p50_us, edit_visible_p50_us, edits_per_s on every workload; largest share on workspace_services";
const COLLAB: &str = "edit_ack_p50_us, edit_visible_p50_us, edits_per_s on typing_tcp and big_doc_churn; the whole ack on workspace_services";
const NET: &str = "edit_ack_p50_us, edit_visible_p50_us, edits_per_s on typing_tcp (largest share), growing with document size on big_doc_churn, smaller share on typing_durable, nothing on workspace_services";
const OPEN: &str = "doc_open_p50_us on the TCP workloads, most on big_doc_churn";
const META: &str = "round_ms on workspace_services; nothing elsewhere";
const META_SHORT: &str = "round_short_ops_ms on workspace_services; nothing elsewhere";
const DRIVER: &str = "nothing: checks that the ladder accounts for edit_ack_p50_us";

pub const PER_LAYER: [PerLayer; 88] = [
    // ------------------------------------------------------------ storage
    l("storage.commit.txn_us", "us", Lower, COMMIT),
    l("storage.commit.commits_per_edit", "count", Lower, COMMIT),
    l("storage.commit.txns_begun_per_edit", "count", Lower, COMMIT),
    l("storage.commit.conflicts", "count", Lower, COMMIT),
    l("storage.commit.merged", "count", Higher, COMMIT),
    l("storage.commit.wait_us_per_commit", "us", Lower, COMMIT),
    l("storage.commit.watermark_lag_max", "count", Lower, COMMIT),
    l("storage.read.point_gets_per_edit", "count", Lower, COMMIT),
    l(
        "storage.read.index_lookups_per_edit",
        "count",
        Lower,
        COMMIT,
    ),
    l(
        "storage.read.rows_scanned_per_folder_refresh",
        "count",
        Lower,
        READ,
    ),
    l("storage.read.rows_scanned_per_search", "count", Lower, READ),
    l("storage.read.rows_scanned_per_mining", "count", Lower, READ),
    l(
        "storage.read.rows_scanned_per_lineage",
        "count",
        Lower,
        READ,
    ),
    l(
        "storage.read.rows_scanned_per_doc_open",
        "count",
        Lower,
        READ,
    ),
    l("storage.read.scan_selectivity", "ratio", Higher, READ),
    l("storage.wal.bytes_per_edit", "bytes", Lower, WAL),
    l("storage.wal.fsyncs_per_edit", "count", Lower, WAL),
    l("storage.wal.records_per_batch", "count", Higher, WAL),
    l("storage.wal.flush_wait_us_per_commit", "us", Lower, WAL),
    l("storage.wal.io_ops_per_edit", "count", Lower, WAL),
    l("storage.wal.size_bytes_end", "bytes", Lower, WAL),
    l("storage.maint.checkpoint_ms", "ms", Lower, MAINT),
    l("storage.maint.vacuum_ms", "ms", Lower, MAINT),
    l("storage.maint.versions_pruned", "count", Higher, MAINT),
    l(
        "storage.maint.bytes_after_checkpoint",
        "bytes",
        Lower,
        MAINT,
    ),
    l("storage.cold.versions_demoted", "count", Higher, MAINT),
    l("storage.cold.runs_end", "count", Lower, MAINT),
    l("storage.cold.compactions", "count", Lower, MAINT),
    l("storage.cold.get_us", "us", Lower, MAINT),
    l("storage.cold.bloom_skip_ratio", "ratio", Higher, MAINT),
    l("storage.cold.bloom_false_positives", "count", Lower, MAINT),
    l("storage.ram_versions_end", "count", Lower, MAINT),
    l("storage.recovery.ms_per_mb", "ms/MB", Lower, WAL),
    // --------------------------------------------------------------- text
    l("text.insert_us", "us", Lower, TEXT),
    l("text.delete_us", "us", Lower, TEXT),
    l("text.open_us", "us", Lower, OPEN),
    l("text.render_us", "us", Lower, OPEN),
    l("text.copy_us", "us", Lower, META_SHORT),
    l("text.paste_us", "us", Lower, META_SHORT),
    l("text.rows_written_per_char", "count", Lower, TEXT),
    l("text.self_us", "us", Lower, TEXT),
    // ------------------------------------------------------------- collab
    l("collab.type_us", "us", Lower, COLLAB),
    l("collab.sync_us", "us", Lower, COLLAB),
    l("collab.self_us", "us", Lower, COLLAB),
    l("collab.retries_per_edit", "count", Lower, COLLAB),
    l("collab.events_reordered", "count", Lower, COLLAB),
    l("collab.bus.delivered_per_publish", "count", Lower, COLLAB),
    l("collab.bus.dropped", "count", Lower, COLLAB),
    // ---------------------------------------------------------------- net
    l("net.insert_us", "us", Lower, NET),
    l("net.self_us", "us", Lower, NET),
    l("net.fanout_us", "us", Lower, NET),
    l("net.ping_us", "us", Lower, NET),
    l("net.subscribe_us", "us", Lower, OPEN),
    l("net.codec.encode_us", "us", Lower, NET),
    l("net.codec.decode_us", "us", Lower, NET),
    l("net.wire_bytes_per_edit", "bytes", Lower, NET),
    l("net.snapshot_bytes_per_open", "bytes", Lower, OPEN),
    l("net.events_forwarded_per_edit", "count", Lower, NET),
    l("net.frames_dropped", "count", Lower, NET),
    l("net.slow_disconnects", "count", Lower, NET),
    l("net.pool_spurious_wakeups_per_edit", "count", Lower, NET),
    l("net.threads_peak", "count", Lower, NET),
    // --------------------------------------------------------------- meta
    l("meta.folder.evaluate_us", "us", Lower, META),
    l("meta.folder.refresh_us", "us", Lower, META),
    l("meta.folder.changes_per_refresh", "count", Lower, META),
    l("meta.search.build_us", "us", Lower, META_SHORT),
    l("meta.search.update_us", "us", Lower, META_SHORT),
    l("meta.search.query_us", "us", Lower, META_SHORT),
    l("meta.mining.features_us", "us", Lower, META),
    l("meta.mining.pca_kmeans_us", "us", Lower, META),
    l("meta.lineage.build_us", "us", Lower, META_SHORT),
    l("meta.lineage.provenance_us", "us", Lower, META_SHORT),
    // ------------------------------------------------------------ process
    l("process.define_us", "us", Lower, META_SHORT),
    l("process.inbox_us", "us", Lower, META_SHORT),
    l("process.complete_us", "us", Lower, META_SHORT),
    l("process.route_us", "us", Lower, META_SHORT),
    l("process.commits_per_route", "count", Lower, META_SHORT),
    // ------------------------------------------------------------- driver
    l("bench.unattributed_us", "us", Lower, DRIVER),
    l("bench.trace_overhead_pct", "%", Lower, DRIVER),
    l("bench.untraced.edit_ack_p50_us", "us", Lower, DRIVER),
    l("bench.traced.edit_ack_p50_us", "us", Lower, DRIVER),
    l("bench.untraced.same_edits_p50_us", "us", Lower, DRIVER),
    l("bench.ladder.edit_ack_p50_us", "us", Lower, DRIVER),
    l("bench.edit_ack_p99_us", "us", Lower, DRIVER),
    l("bench.machine_factor", "ratio", Lower, DRIVER),
    l("bench.maintenance_cycles", "count", Higher, MAINT),
    l("bench.crash_check.edits_lost", "count", Lower, WAL),
    l("bench.spans", "count", Higher, DRIVER),
];

/// `--describe`: the metric tables as markdown.
pub fn describe() -> String {
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for (name, why) in WORKLOADS {
        out.push_str(&format!("| `{name}` | {why} |\n"));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.about
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | moves |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

/// `--describe-json`: `BENCHMARK.json`, from this catalog.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let list = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&list(
        WORKLOADS
            .iter()
            .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        u.len() <= 16
            && !u.is_empty()
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, why) in WORKLOADS {
            assert!(valid_name(n) && seen.insert(n), "{n}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{n}");
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root is this catalog, byte for
    /// byte (`--describe-json` regenerates it).
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find("\"run_seconds\": ").expect("run_seconds") + 15;
        let seconds: u64 = text[start..]
            .split(',')
            .next()
            .and_then(|s| s.trim().parse().ok())
            .expect("run_seconds is a number");
        assert_eq!(text, benchmark_json(seconds));
        assert!(text.len() < 64 * 1024);
    }
}
