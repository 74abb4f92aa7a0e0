//! # tendax-bench
//!
//! Four binaries: two regenerate the paper's figures and two time the
//! ablations that no `benchmark/` metric carries.
//!
//! * `figure1_lineage` — the data-lineage visualization (Figure 1),
//! * `figure2_mining` — the visual-mining document space (Figure 2),
//! * `ablation_position_index` — A1, the treap against a linear walk,
//! * `ablation_compaction` — A3, the text-level tombstone purge.
//!
//! The end-to-end keystroke benchmark, which carries every other
//! experiment's numbers, is the stand-alone `benchmark/` package.
//! [`workload`] holds the deterministic synthetic corpora the figures are
//! drawn from (see the substitution table in `DESIGN.md` §3).

pub mod workload;

pub use workload::{add_paste_web, build_corpus, Corpus};

use std::time::Instant;

/// `--quick` on the command line: smaller sizes and fewer samples, a
/// smoke run rather than a measurement.
pub fn quick() -> bool {
    std::env::args().skip(1).any(|a| a == "--quick")
}

/// Median wall-clock nanoseconds per call of `f`, over `samples` timed
/// batches of `iters` calls each.
pub fn median_ns(samples: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// A duration in nanoseconds as the EXPERIMENTS tables print it.
pub fn fmt_ns(ns: f64) -> String {
    match ns {
        ns if ns < 1e3 => format!("{ns:.0} ns"),
        ns if ns < 1e6 => format!("{:.1} µs", ns / 1e3),
        ns => format!("{:.1} ms", ns / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_calls_each_batch_in_full() {
        let mut calls = 0;
        let ns = median_ns(5, 7, || calls += 1);
        assert_eq!(calls, 35);
        assert!(ns >= 0.0);
    }

    #[test]
    fn durations_print_in_the_unit_the_tables_use() {
        assert_eq!(fmt_ns(37.4), "37 ns");
        assert_eq!(fmt_ns(6_700.0), "6.7 µs");
        assert_eq!(fmt_ns(7_200_000.0), "7.2 ms");
    }
}
