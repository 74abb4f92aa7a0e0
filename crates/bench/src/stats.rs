//! Shared latency/throughput observability for the bench harness.
//!
//! Every bench in this crate used to carry its own percentile helper;
//! this module is the one audited implementation. [`LatencyHistogram`]
//! records raw nanosecond samples and reports p50/p99/max in
//! microseconds, [`percentile`] is the underlying nearest-rank helper,
//! and [`json_object`] assembles the one-line JSON summaries the
//! `bench_results/` series and `scripts/bench_compare.py` consume.

/// Nearest-rank percentile over an ascending-sorted slice of nanosecond
/// samples, reported in microseconds. `frac` is in `[0, 1]`; `1.0` is
/// the maximum. Panics on an empty slice (a bench that recorded nothing
/// has nothing to report).
pub fn percentile(sorted_ns: &[u64], frac: f64) -> f64 {
    assert!(!sorted_ns.is_empty(), "percentile of zero samples");
    let idx = ((sorted_ns.len() as f64 - 1.0) * frac).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Summary of one latency distribution, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub count: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// A raw-sample latency recorder: exact percentiles, no bucketing error.
/// Bench workloads record at most a few million samples, so keeping the
/// raw `u64`s is cheaper than being clever.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    samples_ns: Vec<u64>,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        LatencyHistogram {
            samples_ns: Vec::with_capacity(n),
        }
    }

    /// Record one sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.samples_ns.push(ns);
    }

    /// Record an elapsed [`std::time::Duration`].
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_ns(elapsed.as_nanos() as u64);
    }

    /// Sort and summarize. Returns `None` when nothing was recorded.
    pub fn summary(&mut self) -> Option<LatencySummary> {
        if self.samples_ns.is_empty() {
            return None;
        }
        self.samples_ns.sort_unstable();
        Some(LatencySummary {
            count: self.samples_ns.len() as u64,
            p50_us: percentile(&self.samples_ns, 0.50),
            p99_us: percentile(&self.samples_ns, 0.99),
            max_us: percentile(&self.samples_ns, 1.0),
        })
    }
}

/// A JSON scalar for the one-line summary format. The bench series are
/// flat objects of numbers and bools, so this tiny enum is all the JSON
/// the benches need (no serde in the workspace).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    U64(u64),
    F64(f64),
    Bool(bool),
}

impl std::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonValue::U64(v) => write!(f, "{v}"),
            // One decimal, like every existing series: enough for
            // latency in µs and throughput in ops/s, and diff-stable.
            JsonValue::F64(v) => write!(f, "{v:.1}"),
            JsonValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Assemble `pairs` (insertion-ordered) into one flat JSON object line.
pub fn json_object(pairs: &[(String, JsonValue)]) -> String {
    let fields: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// Append one JSON line to the bench-series file at `path`, creating it
/// if needed (the `bench_results/` convention: one run per line, newest
/// last).
pub fn append_json_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile(&ns, 0.0), 1.0);
        assert_eq!(percentile(&ns, 1.0), 100.0);
        assert_eq!(percentile(&ns, 0.50), 51.0); // nearest-rank round
        assert_eq!(percentile(&ns, 0.99), 99.0);
    }

    #[test]
    fn histogram_summary() {
        let mut a = LatencyHistogram::new();
        assert!(a.summary().is_none());
        for ns in [5_000, 1_000, 9_000, 3_000] {
            a.record_ns(ns);
        }
        let s = a.summary().unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.max_us, 9.0);
        // idx = round((4-1) * 0.5) = 2 → the third sample.
        assert_eq!(s.p50_us, 5.0);
    }

    #[test]
    fn json_object_is_flat_and_ordered() {
        let line = json_object(&[
            ("a".into(), JsonValue::U64(1)),
            ("b".into(), JsonValue::F64(2.25)),
            ("c".into(), JsonValue::Bool(true)),
        ]);
        assert_eq!(line, "{\"a\":1,\"b\":2.2,\"c\":true}");
    }
}
