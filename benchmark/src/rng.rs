//! The benchmark's own PRNG (splitmix64) and Zipf sampler, copied in so
//! the schedule never changes when a product crate or shim does.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for a named purpose under the same seed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The modulo bias is
    /// below 2^-40 for every `n` the schedules use.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Index in `[0, n)` with weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "empty distribution");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// `n` indices with each index's share as close to its weight as
    /// whole numbers allow (largest remainders first), in index order.
    pub fn apportion(&self, n: usize) -> Vec<usize> {
        let total = self.cumulative[self.cumulative.len() - 1];
        let weight = |k: usize| {
            let below = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
            (self.cumulative[k] - below) / total
        };
        let mut counts: Vec<usize> = (0..self.cumulative.len())
            .map(|k| (weight(k) * n as f64).floor() as usize)
            .collect();
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            let frac = |k: usize| weight(k) * n as f64 - counts[k] as f64;
            frac(b).partial_cmp(&frac(a)).expect("weights are finite")
        });
        let short = n - counts.iter().sum::<usize>();
        for &k in by_remainder.iter().take(short) {
            counts[k] += 1;
        }
        counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect()
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let x = rng.unit_f64() * total;
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn zipf_prefers_low_indices() {
        let z = Zipf::new(8, 1.1);
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 8];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > 2 * hits[7]);
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn apportion_is_exact_and_zipf_shaped() {
        let docs = Zipf::new(8, 1.1).apportion(1000);
        assert_eq!(docs.len(), 1000);
        let count = |k| docs.iter().filter(|&&d| d == k).count();
        assert!(count(0) > 2 * count(7) && count(7) > 0);
        assert_eq!(Zipf::new(1, 0.0).apportion(5), vec![0; 5]);
    }

    #[test]
    fn shuffle_keeps_the_multiset() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
