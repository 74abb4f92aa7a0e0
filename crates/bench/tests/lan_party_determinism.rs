//! The lan-party harness's reproducibility contract: the same seed
//! must produce a byte-identical op schedule (provable via the digest)
//! AND byte-identical final documents, in both the in-process and the
//! TCP drivers. Without this, `bench_results/lan_party.json` lines from
//! different machines or different dates would not be comparable.

use tendax_bench::lanparty::{generate, run_in_process, run_tcp, WorkloadConfig};

fn cfg(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        users: 3,
        docs: 5,
        ops: 60,
        seed,
        ..WorkloadConfig::default()
    }
}

#[test]
fn same_seed_reproduces_schedule_digest() {
    let a = generate(&cfg(1234));
    let b = generate(&cfg(1234));
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.ops.len(), b.ops.len());
    for (x, y) in a.ops.iter().zip(&b.ops) {
        assert_eq!(x, y);
    }
    // And a different seed diverges (the digest actually discriminates).
    assert_ne!(generate(&cfg(1235)).digest(), a.digest());
}

#[test]
fn in_process_runs_are_byte_identical() {
    let schedule = generate(&cfg(77));
    let r1 = run_in_process(&schedule);
    let r2 = run_in_process(&schedule);
    assert_eq!(r1.schedule_digest, r2.schedule_digest);
    assert_eq!(
        r1.doc_digest, r2.doc_digest,
        "two in-process runs of one schedule must end on identical bytes"
    );
    assert_eq!(r1.commits, r2.commits);
}

#[test]
fn tcp_and_rerun_are_byte_identical() {
    let schedule = generate(&cfg(79));
    let r1 = run_tcp(&schedule);
    let r2 = run_tcp(&schedule);
    assert_eq!(r1.schedule_digest, r2.schedule_digest);
    assert_eq!(r1.doc_digest, r2.doc_digest);
    assert_eq!(r1.commits, r2.commits);
}
