//! Samples, spans and counter deltas: everything a run records.
//!
//! Spans are taken around the public calls the drivers make, never
//! inside the program. They stay in memory until the run ends and are
//! then written to `benchmark/out/trace_<workload>.jsonl`.

use std::io::Write as _;
use std::path::Path;

use tendax_storage::Stats;

/// The op classes a run keeps latency samples for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    EditAck,
    EditVisible,
    DocOpen,
    Round,
    Paste,
    Folder,
    Search,
    Mining,
    Lineage,
    Task,
    Checkpoint,
    Vacuum,
    CalibMem,
    CalibNet,
    /// Time one round spent on its edits, call to visible, summed.
    RoundEdits,
    /// Time one round spent on its short ops: everything it timed except
    /// the reads of a whole document or corpus (document opens, folder
    /// refresh, mining sweep) and maintenance.
    RoundShort,
}

pub const CLASSES: usize = Class::RoundShort as usize + 1;

/// Latency samples per class, nanoseconds, in the order they occurred.
#[derive(Debug, Default)]
pub struct Samples {
    by_class: [Vec<u64>; CLASSES],
}

impl Samples {
    pub fn push(&mut self, class: Class, ns: u64) {
        self.by_class[class as usize].push(ns);
    }

    pub fn of(&self, class: Class) -> &[u64] {
        &self.by_class[class as usize]
    }

    pub fn clear(&mut self) {
        for v in &mut self.by_class {
            v.clear();
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Which op of the schedule this span belongs to.
    pub op: u32,
    /// Index of the causing span plus one; 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Record a span; returns its id for children to name as parent.
    pub fn span(&mut self, name: &'static str, op: u32, parent: u32, start: u64, end: u64) -> u32 {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
        });
        self.spans.len() as u32
    }

    /// Start a span whose end is not known yet, so that its children can
    /// name it as their parent.
    pub fn open(&mut self, name: &'static str, op: u32, start: u64) -> u32 {
        self.span(name, op, 0, start, start)
    }

    pub fn close(&mut self, id: u32, end: u64) {
        if id > 0 {
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Durations of every span called `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.name,
                s.op,
                s.parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Engine counter movement attributed to one op class.
#[derive(Debug, Default, Clone, Copy)]
pub struct Delta {
    pub ops: u64,
    pub txns_begun: u64,
    pub commits: u64,
    pub conflicts: u64,
    pub merged: u64,
    pub commit_wait_ns: u64,
    pub point_gets: u64,
    pub index_lookups: u64,
    pub rows_scanned: u64,
    pub rows_skipped: u64,
}

impl Delta {
    pub fn add(&mut self, before: &Stats, after: &Stats) {
        self.ops += 1;
        self.txns_begun += after.txns_begun - before.txns_begun;
        self.commits += after.commits - before.commits;
        self.conflicts += after.conflicts - before.conflicts;
        self.merged += after.commits_merged - before.commits_merged;
        self.commit_wait_ns += after.commit_wait_ns - before.commit_wait_ns;
        self.point_gets += after.point_gets - before.point_gets;
        self.index_lookups += after.index_lookups - before.index_lookups;
        self.rows_scanned += after.rows_scanned - before.rows_scanned;
        self.rows_skipped += after.rows_skipped_by_predicate - before.rows_skipped_by_predicate;
    }

    pub fn per_op(&self, total: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total as f64 / self.ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, 0, 0, 5), 0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_name_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.open("edit", 7, 10);
        let child = t.span("net.insert", 7, root, 10, 30);
        t.close(root, 50);
        assert_eq!((root, child), (1, 2));
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.durations("edit"), vec![40]);
        assert_eq!(t.durations("net.insert"), vec![20]);
    }
}
