//! Experiment **D3** — dynamic folders ("its content is fluent and may
//! change within seconds").
//!
//! Measures folder evaluation latency against corpus size and rule
//! complexity, and the incremental refresh path after churn (the
//! "changes within seconds" behaviour).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tendax_bench::{build_corpus, edit_documents};
use tendax_core::FolderRule;

fn bench_evaluate_vs_corpus(c: &mut Criterion) {
    let mut group = c.benchmark_group("d3_folder_eval_vs_corpus_size");
    group.sample_size(10);
    for &n_docs in &[10usize, 50, 200] {
        let corpus = build_corpus(5, n_docs, 30, 42);
        let folders = corpus.tendax.folders().clone();
        let rule = FolderRule::ReadBy {
            user: corpus.users[1].0,
            since: 0,
        };
        group.bench_with_input(BenchmarkId::from_parameter(n_docs), &n_docs, |b, _| {
            b.iter(|| folders.evaluate_rule(&rule).expect("evaluated"));
        });
    }
    group.finish();
}

fn bench_rule_complexity(c: &mut Criterion) {
    let mut group = c.benchmark_group("d3_folder_rule_complexity");
    group.sample_size(10);
    let corpus = build_corpus(5, 50, 30, 42);
    let folders = corpus.tendax.folders().clone();
    let user = corpus.users[0].0;

    let cheap = FolderRule::CreatedBy { user };
    let medium = FolderRule::CreatedBy { user }
        .and(FolderRule::StateIs("draft".into()))
        .and(FolderRule::MinSize(10));
    let expensive = FolderRule::ContentContains("database".into());

    for (name, rule) in [
        ("metadata_only", &cheap),
        ("conjunction", &medium),
        ("content_scan", &expensive),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| folders.evaluate_rule(rule).expect("evaluated"));
        });
    }
    group.finish();
}

fn bench_refresh_after_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("d3_folder_refresh_latency");
    group.sample_size(10);
    let corpus = build_corpus(4, 40, 20, 7);
    let tendax = corpus.tendax.clone();
    let folders = tendax.folders().clone();
    let watcher_user = corpus.users[2];
    let f = folders
        .create_folder(
            "recently-read",
            watcher_user,
            FolderRule::ReadBy {
                user: watcher_user.0,
                since: 0,
            },
        )
        .expect("folder");
    let mut set = folders.watch(f).expect("watch");
    let mut i = 0;
    group.bench_function("refresh_after_one_read_event", |b| {
        b.iter(|| {
            // Churn: the watcher reads one more document.
            let doc = corpus.docs[i % corpus.docs.len()];
            let _ = tendax.textdb().open(doc, watcher_user).expect("read");
            i += 1;
            set.refresh().expect("refreshed")
        });
    });

    // Steady state: k of n documents edited between two refreshes of a
    // folder whose rule reads what an edit writes. The edits are set-up,
    // the refresh is what is timed.
    let corpus = build_corpus(4, 200, 20, 7);
    let folders = corpus.tendax.folders().clone();
    let f = folders
        .create_folder("sizeable", corpus.users[0], FolderRule::MinSize(100))
        .expect("folder");
    let mut set = folders.watch(f).expect("watch");
    let mut next = 0;
    for k in [0usize, 1, 8] {
        group.bench_function(format!("steady_{k}_of_200_edited"), |b| {
            b.iter_batched(
                || {
                    edit_documents(&corpus, next, k);
                    next += k;
                },
                |()| set.refresh().expect("refreshed"),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_evaluate_vs_corpus,
    bench_rule_complexity,
    bench_refresh_after_churn
);
criterion_main!(benches);
