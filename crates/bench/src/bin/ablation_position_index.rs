//! Ablation **A1** — the order-statistics position index.
//!
//! An open document's chain maps a visible position to a character id
//! in O(log n). The ablated variant is a linear walk over the chain, what
//! a system without the index would do on every keystroke. Expected
//! shape: the treap stays near flat while the walk grows with the
//! document, far below interactive document sizes.
//!
//! Run with: `cargo run --release -p tendax-bench --bin
//! ablation_position_index [-- --quick]`

use std::hint::black_box;

use tendax_bench::{fmt_ns, median_ns, quick};
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

/// `n` characters, every seventh a tombstone.
fn chain_of(n: usize) -> Chain {
    Chain::build((1..=n as u64).map(|i| (CharId(i), info(i % 7 != 0)))).expect("unique ids")
}

/// The ablated lookup: the `rank`-th visible id by a walk in chain order.
fn linear_walk(order: &[(CharId, bool)], rank: usize) -> CharId {
    order
        .iter()
        .filter(|(_, visible)| *visible)
        .nth(rank)
        .expect("rank within bounds")
        .0
}

fn main() {
    let quick = quick();
    let (sizes, samples): (&[usize], usize) = if quick {
        (&[1_000, 10_000], 3)
    } else {
        (&[1_000, 10_000, 100_000], 15)
    };
    println!(
        "A1 — position index: the treap against a linear walk (median of {samples} batches)\n"
    );
    println!("| n chars | treap pos→id | linear scan | speedup | treap id→pos | treap insert |");
    println!("|---|---|---|---|---|---|");
    for &n in sizes {
        let mut chain = chain_of(n);
        let probe = chain.visible_len() / 2;
        let order: Vec<(CharId, bool)> = chain
            .iter_total()
            .into_iter()
            .map(|id| (id, chain.is_visible(id).expect("known")))
            .collect();
        let hit = chain.id_at_visible(probe).expect("hit");
        assert_eq!(linear_walk(&order, probe), hit, "both lookups find one id");

        let treap = median_ns(samples, 20_000, || {
            black_box(chain.id_at_visible(black_box(probe)));
        });
        let walk_iters = (2_000_000 / n).max(10) as u32;
        let linear = median_ns(samples, walk_iters, || {
            black_box(linear_walk(black_box(&order), black_box(probe)));
        });
        let rank = median_ns(samples, 20_000, || {
            black_box(chain.visible_rank(black_box(hit)));
        });
        // Inserts after one anchor, each ahead of those inserted there
        // before: the tree grows by `samples · 1 000` characters.
        let anchor = chain.slot_at_visible(probe).expect("anchor");
        let mut next = n as u64 + 1;
        let insert = median_ns(samples, 1_000, || {
            chain
                .insert_at(Some(anchor), CharId(next), info(true))
                .expect("fresh id");
            next += 1;
        });
        println!(
            "| {n} | {} | {} | {:.0}× | {} | {} |",
            fmt_ns(treap),
            fmt_ns(linear),
            linear / treap,
            fmt_ns(rank),
            fmt_ns(insert),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_finds_what_the_treap_finds_at_every_rank() {
        let chain = chain_of(200);
        let order: Vec<(CharId, bool)> = chain
            .iter_total()
            .into_iter()
            .map(|id| (id, chain.is_visible(id).expect("known")))
            .collect();
        for rank in 0..chain.visible_len() {
            let id = chain.id_at_visible(rank).expect("hit");
            assert_eq!(linear_walk(&order, rank), id);
            assert_eq!(chain.visible_rank(id), Some(rank));
        }
    }
}
