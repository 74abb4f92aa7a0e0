//! Experiment **D5** — visual mining (Figure 2's backing computation).
//!
//! Measures the document-space pipeline (feature collection → PCA →
//! k-means → layout) against corpus size, and the text-mining term
//! extraction.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tendax_bench::{add_paste_web, build_corpus, edit_documents};
use tendax_core::{top_terms, DocumentSpace};

fn bench_space_vs_corpus(c: &mut Criterion) {
    let mut group = c.benchmark_group("d5_document_space_vs_corpus");
    group.sample_size(10);
    for &n_docs in &[10usize, 50, 150] {
        let corpus = build_corpus(5, n_docs, 40, 42);
        add_paste_web(&corpus, n_docs, 8, 43);
        let tdb = corpus.tendax.textdb().clone();
        group.bench_with_input(BenchmarkId::from_parameter(n_docs), &n_docs, |b, _| {
            b.iter(|| DocumentSpace::build(&tdb, 3).expect("space"));
        });
    }
    group.finish();
}

/// Steady state: k of n documents edited between two sweeps. The edits
/// are set-up, the sweep is what is timed.
fn bench_space_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("d5_document_space_steady_state");
    group.sample_size(10);
    let corpus = build_corpus(5, 200, 40, 42);
    let tdb = corpus.tendax.textdb().clone();
    let mut next = 0;
    for k in [0usize, 1, 8] {
        group.bench_function(format!("{k}_of_200_edited"), |b| {
            b.iter_batched(
                || {
                    edit_documents(&corpus, next, k);
                    next += k;
                },
                |()| DocumentSpace::build(&tdb, 3).expect("space"),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_render(c: &mut Criterion) {
    let mut group = c.benchmark_group("d5_render_ascii");
    group.sample_size(20);
    let corpus = build_corpus(5, 60, 40, 42);
    let space = corpus.tendax.document_space(4).expect("space");
    group.bench_function("render_64x20", |b| {
        b.iter(|| space.render_ascii(64, 20));
    });
    group.finish();
}

fn bench_text_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("d5_text_mining_top_terms");
    group.sample_size(10);
    for &n_docs in &[10usize, 50] {
        let corpus = build_corpus(4, n_docs, 50, 7);
        let tdb = corpus.tendax.textdb().clone();
        let probe = corpus.docs[0];
        group.bench_with_input(BenchmarkId::from_parameter(n_docs), &n_docs, |b, _| {
            b.iter(|| top_terms(&tdb, probe, 5).expect("terms"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_space_vs_corpus,
    bench_space_steady_state,
    bench_render,
    bench_text_mining
);
criterion_main!(benches);
