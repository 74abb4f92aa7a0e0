//! Ablation **A3** — tombstone purging (the text-level vacuum).
//!
//! Tombstones keep undo and lineage alive but make every document open
//! proportional to all characters ever typed, not the visible text. This
//! binary times an open under a growing tombstone load, the same open
//! after `purge_tombstones`, again once the storage vacuum has pruned the
//! versions the purge deleted, and the purge itself.
//!
//! Run with: `cargo run --release -p tendax-bench --bin
//! ablation_compaction [-- --quick]`

use std::hint::black_box;

use tendax_bench::{fmt_ns, median_ns, quick};
use tendax_core::{DocId, Tendax, UserId};

/// Visible characters of the opened documents.
const LIVE: usize = 2_000;

/// A document with `live` visible characters and `dead` tombstones.
fn churned_doc(live: usize, dead: usize) -> (Tendax, DocId, UserId) {
    let tx = Tendax::in_memory().expect("instance");
    let u = tx.create_user("u").expect("user");
    let doc = tx.create_document("d", u).expect("doc");
    let mut h = tx.textdb().open(doc, u).expect("open");
    h.insert_text(0, &"x".repeat(live)).expect("live text");
    // Churn: insert then delete in chunks to accumulate tombstones.
    let mut remaining = dead;
    while remaining > 0 {
        let n = remaining.min(100);
        h.insert_text(live / 2, &"y".repeat(n))
            .expect("churn insert");
        h.delete_range(live / 2, n).expect("churn delete");
        remaining -= n;
    }
    (tx, doc, u)
}

/// Purge every tombstone of `doc`, checking that all `dead` went.
fn purge(tx: &Tendax, doc: DocId, dead: usize) {
    let stats = tx
        .textdb()
        .purge_tombstones(doc, tx.textdb().now())
        .expect("purge");
    assert_eq!(stats.purged_chars, dead, "every tombstone is purged");
}

fn main() {
    let quick = quick();
    let (loads, purges, samples): (&[usize], &[usize], usize) = if quick {
        (&[0, 2_000], &[1_000], 3)
    } else {
        (&[0, 2_000, 20_000], &[1_000, 10_000], 10)
    };
    println!(
        "A3 — tombstone purging: open with {LIVE} live characters (median of {samples} opens)\n"
    );
    println!("| tombstones | open, unpurged | open, purged | open, purged and vacuumed |");
    println!("|---|---|---|---|");
    for &dead in loads {
        let (tx, doc, u) = churned_doc(LIVE, dead);
        let open = || {
            black_box(tx.textdb().open(doc, u).expect("open"));
        };
        let unpurged = median_ns(samples, 1, open);
        let (purged, vacuumed) = if dead > 0 {
            purge(&tx, doc, dead);
            let purged = median_ns(samples, 1, open);
            tx.textdb().database().vacuum();
            (fmt_ns(purged), fmt_ns(median_ns(samples, 1, open)))
        } else {
            ("—".to_string(), "—".to_string())
        };
        println!("| {dead} | {} | {purged} | {vacuumed} |", fmt_ns(unpurged));
    }

    println!("\n| tombstones | purge |");
    println!("|---|---|");
    for &dead in purges {
        let mut times: Vec<f64> = (0..samples)
            .map(|_| {
                let (tx, doc, _) = churned_doc(500, dead);
                median_ns(1, 1, || purge(&tx, doc, dead))
            })
            .collect();
        times.sort_by(f64::total_cmp);
        println!("| {dead} | {} |", fmt_ns(times[times.len() / 2]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_purge_leaves_the_live_text_of_a_churned_document() {
        let (tx, doc, u) = churned_doc(50, 250);
        purge(&tx, doc, 250);
        assert_eq!(tx.textdb().open(doc, u).expect("open").len(), 50);
    }
}
