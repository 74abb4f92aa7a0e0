//! Engine clock.
//!
//! TeNDaX stamps every character and document with creation metadata.
//! The stamps come from a strictly monotonic logical counter, so runs are
//! deterministic.

use std::sync::atomic::{AtomicI64, Ordering};

/// The engine clock; all timestamps in the database come from here.
#[derive(Debug, Default)]
pub struct Clock {
    last: AtomicI64,
}

impl Clock {
    /// Next timestamp: strictly greater than every previously returned
    /// one, starting at 1.
    pub fn now(&self) -> i64 {
        self.last.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The most recently returned timestamp (0 if none yet).
    pub fn peek(&self) -> i64 {
        self.last.load(Ordering::Relaxed)
    }

    /// Fast-forward so the next timestamp exceeds `seen` (recovery).
    pub fn observe(&self, seen: i64) {
        let mut prev = self.last.load(Ordering::Relaxed);
        while prev < seen {
            match self
                .last
                .compare_exchange_weak(prev, seen, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(p) => prev = p,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_is_strictly_monotonic() {
        let c = Clock::default();
        let a = c.now();
        let b = c.now();
        let d = c.now();
        assert!(a < b && b < d);
        assert_eq!(a, 1);
    }

    #[test]
    fn observe_fast_forwards() {
        let c = Clock::default();
        c.observe(500);
        assert!(c.now() > 500);
        c.observe(10); // never moves backwards
        assert!(c.now() > 501);
    }

    #[test]
    fn threads_see_unique_timestamps() {
        let c = std::sync::Arc::new(Clock::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.now()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
