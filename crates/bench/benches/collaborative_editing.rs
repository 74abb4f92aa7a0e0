//! Experiment **D1** — collaborative editing ("we will concurrently work
//! with multiple users on the same document").
//!
//! Measures multi-user editing throughput on a single shared document as
//! the number of concurrent editors grows, and under worst-case
//! same-position contention. In-process editors are views of the
//! server's one copy of the document, so a remote editor has nothing to
//! catch up: there is no sync cost to measure. The shape to reproduce:
//! edits from several editors neither conflict nor retry.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tendax_bench::shared_document;

fn bench_concurrent_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("d1_concurrent_editors_throughput");
    group.sample_size(10);
    const OPS_PER_EDITOR: usize = 25;
    for &n_editors in &[1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((n_editors * OPS_PER_EDITOR) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(n_editors),
            &n_editors,
            |b, &n| {
                b.iter(|| {
                    let (tendax, sessions, _doc) = shared_document(n);
                    let mut handles = Vec::new();
                    for (i, session) in sessions.into_iter().enumerate() {
                        handles.push(std::thread::spawn(move || {
                            let mut doc = session.open("shared").expect("open");
                            for k in 0..OPS_PER_EDITOR {
                                doc.sync();
                                let pos = (i * 37 + k * 11) % (doc.len() + 1);
                                doc.type_text(pos, "w").expect("typed");
                            }
                        }));
                    }
                    for h in handles {
                        h.join().expect("editor thread");
                    }
                    tendax.stats().commits
                });
            },
        );
    }
    group.finish();
}

fn bench_same_position_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("d1_same_position_contention");
    group.sample_size(10);
    // Everyone hammers position 0: the document's lock serialises the
    // commits, so the worst case conflicts no more than the best.
    for &n_editors in &[2usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(n_editors),
            &n_editors,
            |b, &n| {
                b.iter(|| {
                    let (tendax, sessions, _doc) = shared_document(n);
                    let mut handles = Vec::new();
                    for session in sessions {
                        handles.push(std::thread::spawn(move || {
                            let mut doc = session.open("shared").expect("open");
                            for _ in 0..10 {
                                doc.type_text(0, "c").expect("typed under contention");
                            }
                        }));
                    }
                    for h in handles {
                        h.join().expect("editor thread");
                    }
                    tendax.stats().conflicts
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_concurrent_throughput,
    bench_same_position_contention
);
criterion_main!(benches);
