//! Ablation **A2** — write-ahead-log durability levels.
//!
//! Measures editing-transaction commit latency under the three
//! durability policies: no WAL (in-memory), buffered writes, and fsync
//! per commit. The expected shape: None ≈ Buffered ≪ Fsync, quantifying
//! what the paper's "everything … is stored persistently" costs at
//! keystroke granularity.

use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, Criterion};
use tendax_core::{DurabilityLevel, Options, Platform, Tendax};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tendax-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn editor(tx: &Tendax) -> (tendax_core::EditorSession, tendax_core::EditorDoc) {
    tx.create_user("u").expect("user");
    let u = tx.textdb().user_by_name("u").expect("u");
    tx.create_document("d", u).expect("doc");
    let s = tx.connect("u", Platform::Linux).expect("session");
    let mut d = s.open("d").expect("open");
    d.type_text(0, &"seed ".repeat(100)).expect("seed");
    (s, d)
}

fn bench_commit_by_durability(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_commit_latency_by_durability");
    group.sample_size(20);

    // In-memory (no log).
    {
        let tx = Tendax::in_memory().expect("instance");
        let (_s, mut doc) = editor(&tx);
        group.bench_function("none_in_memory", |b| {
            b.iter(|| doc.type_text(doc.len() / 2, "x").expect("typed"));
        });
    }

    // Buffered WAL.
    {
        let tx = Tendax::open(
            tmp("buffered.wal"),
            Options {
                durability: DurabilityLevel::Buffered,
                ..Options::default()
            },
        )
        .expect("instance");
        let (_s, mut doc) = editor(&tx);
        group.bench_function("buffered_wal", |b| {
            b.iter(|| doc.type_text(doc.len() / 2, "x").expect("typed"));
        });
    }

    // Fsync-per-commit WAL.
    {
        let tx = Tendax::open(
            tmp("fsync.wal"),
            Options {
                durability: DurabilityLevel::Fsync,
                ..Options::default()
            },
        )
        .expect("instance");
        let (_s, mut doc) = editor(&tx);
        group.sample_size(10);
        group.bench_function("fsync_wal", |b| {
            b.iter(|| doc.type_text(doc.len() / 2, "x").expect("typed"));
        });
    }
    group.finish();
}

fn bench_recovery_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_recovery_vs_log_size");
    group.sample_size(10);
    for &ops in &[100usize, 1000] {
        let path = tmp(&format!("recover-{ops}.wal"));
        {
            let tx = Tendax::open(&path, Options::default()).expect("instance");
            let (_s, mut doc) = editor(&tx);
            for i in 0..ops {
                doc.type_text(i % doc.len(), "r").expect("typed");
            }
        }
        group.bench_function(format!("replay_{ops}_ops"), |b| {
            b.iter(|| Tendax::open(&path, Options::default()).expect("reopened"));
        });
    }
    group.finish();
}

fn bench_checkpoint_effect(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_checkpoint_compaction");
    group.sample_size(10);
    let path = tmp("ckpt.wal");
    {
        let tx = Tendax::open(&path, Options::default()).expect("instance");
        let (_s, mut doc) = editor(&tx);
        for i in 0..1000 {
            doc.type_text(i % doc.len(), "c").expect("typed");
        }
        tx.textdb().database().checkpoint().expect("checkpoint");
    }
    group.bench_function("replay_after_checkpoint_1000_ops", |b| {
        b.iter(|| Tendax::open(&path, Options::default()).expect("reopened"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_commit_by_durability,
    bench_recovery_time,
    bench_checkpoint_effect
);
criterion_main!(benches);
