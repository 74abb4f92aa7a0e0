//! Machine-state calibration.
//!
//! On the shared two-core container the same binary on the same inputs
//! runs 20 to 60 % slower for seconds to minutes at a time (neighbours
//! on the host contend for the caches). A benchmark-owned kernel is timed
//! at the start of every round, and in a burst beside every one-off
//! timing; each slice of a run is divided by its own calibration factor
//! (see `agg::steady`), so a slow phase of the machine cancels out of
//! the slice it slowed. `REPEATABILITY.md` has every metric's spread
//! with and without the division.
//!
//! The kernel has two halves, because the product has two kinds of cost:
//! ordered-map lookups over 20 MB (caches and memory) and four echo
//! round trips on a loopback socket (system calls and thread switches).
//! Of nine kernels tried (pointer chase, copy, allocation churn, hash
//! map, register loop, channel hand-off, ordered-map inserts, fsync)
//! none tracked the product's slow-downs better than these two together.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;

use crate::agg::percentile;
use crate::fixture::{now_ns, rss_mb};

/// Median kernel times that define the reference machine state, factor
/// 1.0: the reference container (2 vCPUs, Firecracker) when quiet.
#[derive(Debug, Clone, Copy)]
pub struct Nominal {
    mem_ns: f64,
    net_ns: f64,
}

/// The kernel timed once a round, between the product's ops: it finds
/// the caches as the product left them.
pub const PER_ROUND: Nominal = Nominal {
    mem_ns: 420_000.0,
    net_ns: 52_000.0,
};

/// The kernel timed [`BURST`] times back to back beside a one-off timing
/// (a set-up, a reopen): it warms the caches for itself.
pub const IN_BURST: Nominal = Nominal {
    mem_ns: 240_000.0,
    net_ns: 30_000.0,
};

pub const BURST: usize = 25;
const MEM_LOOKUPS: usize = 800;
const NET_ROUND_TRIPS: usize = 4;

/// `(memory ns, socket ns)` samples in the order they were taken.
pub type Log = (Vec<u64>, Vec<u64>);

pub struct Calib {
    map: BTreeMap<u64, [u64; 4]>,
    x: u64,
    sock: TcpStream,
    echo: Option<JoinHandle<()>>,
    /// Resident memory the kernel's own data took, MB.
    pub footprint_mb: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calib {
    pub fn new() -> Calib {
        let rss_before = rss_mb();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let map: BTreeMap<u64, [u64; 4]> = (0..400_000)
            .map(|_| {
                let k = xorshift(&mut x);
                (k, [k; 4])
            })
            .collect();
        let footprint_mb = (rss_mb() - rss_before).max(0.0);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the calibration echo");
        let addr = listener.local_addr().expect("echo address");
        let echo = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut buf = [0u8; 32];
            while let Ok(n) = s.read(&mut buf) {
                if n == 0 || s.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        });
        let sock = TcpStream::connect(addr).expect("connect to the calibration echo");
        sock.set_nodelay(true).expect("nodelay");
        Calib {
            map,
            x,
            sock,
            echo: Some(echo),
            footprint_mb,
        }
    }

    /// One timing of each half: `(memory ns, socket ns)`.
    pub fn sample(&mut self) -> (u64, u64) {
        let t0 = now_ns();
        let mut acc = 0u64;
        for _ in 0..MEM_LOOKUPS {
            let k = xorshift(&mut self.x);
            if let Some((_, v)) = self.map.range(k..).next() {
                acc = acc.wrapping_add(v[1]);
            }
        }
        std::hint::black_box(acc);
        let t1 = now_ns();
        let mut buf = [0u8; 16];
        for _ in 0..NET_ROUND_TRIPS {
            self.sock.write_all(&[1u8; 16]).expect("echo write");
            self.sock.read_exact(&mut buf).expect("echo read");
        }
        (t1 - t0, now_ns() - t1)
    }

    /// [`BURST`] samples back to back.
    pub fn burst(&mut self) -> Log {
        let mut log = (Vec::new(), Vec::new());
        for _ in 0..BURST {
            let (mem, net) = self.sample();
            log.0.push(mem);
            log.1.push(net);
        }
        log
    }
}

impl Drop for Calib {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
        if let Some(h) = self.echo.take() {
            let _ = h.join();
        }
    }
}

/// How much slower than the reference state the machine was while these
/// samples were taken: the geometric mean of the two halves' medians
/// over their nominal values. 1.0 when there are no samples.
pub fn factor(mem_ns: &[u64], net_ns: &[u64], nominal: &Nominal) -> f64 {
    if mem_ns.is_empty() || net_ns.is_empty() {
        return 1.0;
    }
    let mem = percentile(mem_ns, 0.5) / nominal.mem_ns;
    let net = percentile(net_ns, 0.5) / nominal.net_ns;
    (mem * net).sqrt()
}

/// The factor of the bursts taken right before and right after a
/// one-off timing.
pub fn factor_around(before: &Log, after: &Log) -> f64 {
    let join = |a: &[u64], b: &[u64]| [a, b].concat();
    factor(
        &join(&before.0, &after.0),
        &join(&before.1, &after.1),
        &IN_BURST,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_one_at_nominal_and_scales_with_both_halves() {
        let at = |m: f64, n: f64| {
            factor(
                &[(PER_ROUND.mem_ns * m) as u64],
                &[(PER_ROUND.net_ns * n) as u64],
                &PER_ROUND,
            )
        };
        assert!((at(1.0, 1.0) - 1.0).abs() < 1e-9);
        assert!((at(4.0, 1.0) - 2.0).abs() < 1e-6);
        assert!((at(2.0, 2.0) - 2.0).abs() < 1e-6);
        assert_eq!(factor(&[], &[], &PER_ROUND), 1.0);
    }

    #[test]
    fn kernel_runs_and_stops() {
        let mut c = Calib::new();
        let (mem, net) = c.sample();
        assert!(mem > 0 && net > 0);
        let (a, b) = (c.burst(), c.burst());
        assert_eq!(a.0.len(), BURST);
        assert!(factor_around(&a, &b) > 0.0);
        assert!(c.footprint_mb > 1.0, "{}", c.footprint_mb);
    }
}
