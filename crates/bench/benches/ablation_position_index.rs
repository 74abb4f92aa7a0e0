//! Ablation **A1** — the order-statistics position index.
//!
//! The chain cache maps visible positions to character ids in O(log n).
//! The ablation compares it against the naive alternative (a linear walk
//! over the chain, which is what a system without the cache would do on
//! every keystroke) across document sizes. The expected shape: the treap
//! stays flat while the linear walk grows linearly, with the crossover
//! far below interactive document sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tendax_text::chain::Chain;
use tendax_text::{CharId, CharInfo, DocId, StyleId, UserId};

/// A character's info: visible or not, the rest blank.
fn info(visible: bool) -> CharInfo {
    CharInfo {
        ch: 'x',
        deleted: !visible,
        style: StyleId::NONE,
        author: UserId::NONE,
        created_at: 0,
        version: 0,
        src_doc: DocId::NONE,
        src_char: CharId::NONE,
        external_src: None,
    }
}

fn chain_of(n: usize) -> Chain {
    Chain::build((1..=n as u64).map(|i| (CharId(i), info(i % 7 != 0)))).expect("unique ids")
}

fn bench_position_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_position_to_id");
    group.sample_size(30);
    for &n in &[1_000usize, 10_000, 100_000] {
        let chain = chain_of(n);
        let probe = chain.visible_len() / 2;
        group.bench_with_input(BenchmarkId::new("treap", n), &n, |b, _| {
            b.iter(|| chain.id_at_visible(probe).expect("hit"));
        });
        // The ablated variant: linear scan over the chain order.
        let order: Vec<(CharId, bool)> = chain
            .iter_total()
            .into_iter()
            .map(|id| (id, chain.is_visible(id).expect("known")))
            .collect();
        group.bench_with_input(BenchmarkId::new("linear_scan", n), &n, |b, _| {
            b.iter(|| {
                let mut seen = 0usize;
                for (id, vis) in &order {
                    if *vis {
                        if seen == probe {
                            return *id;
                        }
                        seen += 1;
                    }
                }
                unreachable!("probe within bounds")
            });
        });
    }
    group.finish();
}

fn bench_rank_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_id_to_position");
    group.sample_size(30);
    for &n in &[1_000usize, 10_000, 100_000] {
        let chain = chain_of(n);
        let probe = CharId((n / 2) as u64 | 1);
        group.bench_with_input(BenchmarkId::new("treap", n), &n, |b, _| {
            b.iter(|| chain.visible_rank(probe));
        });
    }
    group.finish();
}

fn bench_insert_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_insert_maintenance");
    group.sample_size(20);
    for &n in &[1_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::new("treap_insert", n), &n, |b, &n| {
            let mut chain = chain_of(n);
            let mut next = n as u64 + 1;
            let anchor = chain
                .slot_at_visible(chain.visible_len() / 2)
                .expect("anchor");
            b.iter(|| {
                // An insert after the anchor, ahead of the characters
                // inserted there before.
                chain
                    .insert_at(Some(anchor), CharId(next), info(true))
                    .expect("fresh id");
                next += 1;
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_position_lookup,
    bench_rank_lookup,
    bench_insert_maintenance
);
criterion_main!(benches);
