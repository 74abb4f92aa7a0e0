//! The character chain position index.
//!
//! TeNDaX stores a document's characters as database tuples linked by
//! `prev`/`next` references; deleted characters remain in the chain as
//! tombstones (they carry history, lineage and undo state). An editor,
//! however, addresses text by *visible position*. This module provides the
//! per-open-document cache that maps between the two: an order-statistics
//! treap over the full chain (tombstones included) where each node carries
//! a visibility flag, giving `O(log n)`:
//!
//! * visible position → character id ([`Chain::id_at_visible`])
//! * character id → visible position ([`Chain::visible_rank`])
//! * insertion after an arbitrary chain element ([`Chain::insert_after`])
//! * visibility toggling for delete/undelete ([`Chain::set_visible`])
//!
//! The treap is a pure cache: it is rebuilt from the database on open and
//! maintained incrementally from committed operations. The ablation bench
//! `ablation_position_index` measures what it buys over a naive scan.

use crate::ids::{CharId, CharMap};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    id: CharId,
    pri: u64,
    left: usize,
    right: usize,
    parent: usize,
    /// Nodes in this subtree (tombstones included).
    total: usize,
    /// Visible nodes in this subtree.
    visible_count: usize,
    visible: bool,
}

/// Order-statistics treap over a document's character chain.
#[derive(Debug, Clone, Default)]
pub struct Chain {
    nodes: Vec<Node>,
    map: CharMap<usize>,
    root: usize,
}

/// A structural edit referenced a character the cache doesn't agree on.
/// Both variants mean the cache is incoherent with the database — the
/// caller's recovery is a refresh/rebuild, not a data-level fixup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// `insert_after` was asked to add an id already in the chain.
    DuplicateId(CharId),
    /// The insertion anchor is not in the chain (stale anchor).
    UnknownAnchor(CharId),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::DuplicateId(id) => write!(f, "duplicate chain insert of {id}"),
            ChainError::UnknownAnchor(id) => write!(f, "anchor {id} not in chain"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Deterministic priority: SplitMix64 of the character id. Char ids are
/// allocated sequentially, and SplitMix64 scatters them uniformly, which
/// is exactly what a treap needs — no RNG state to carry around.
fn priority(id: CharId) -> u64 {
    let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Chain {
    pub fn new() -> Self {
        Chain {
            nodes: Vec::new(),
            map: CharMap::default(),
            root: NIL,
        }
    }

    /// Build from the full chain in order (id, visible). Fails on a
    /// duplicate id.
    ///
    /// Linear time: the input arrives in order, so the treap is its
    /// Cartesian tree — each node is linked once while a stack holds the
    /// right spine, instead of `n` split/merge insertions. The shape is
    /// the one [`Chain::insert_after`] would have produced: distinct
    /// priorities admit exactly one heap-ordered tree over a sequence.
    pub fn build(items: impl IntoIterator<Item = (CharId, bool)>) -> Result<Self, ChainError> {
        let items = items.into_iter();
        let expected = items.size_hint().0;
        let mut chain = Chain {
            nodes: Vec::with_capacity(expected),
            map: CharMap::with_capacity_and_hasher(expected, Default::default()),
            root: NIL,
        };
        // The right spine, root first. A node's subtree is final — and its
        // counts can be summed — once it leaves the spine.
        let mut spine: Vec<usize> = Vec::new();
        for (id, visible) in items {
            let n = chain.nodes.len();
            if chain.map.insert(id, n).is_some() {
                return Err(ChainError::DuplicateId(id));
            }
            let pri = priority(id);
            // Same tie rule as `merge`: the later node goes on top.
            let mut left = NIL;
            while let Some(&top) = spine.last() {
                if chain.nodes[top].pri > pri {
                    break;
                }
                spine.pop();
                chain.update(top);
                left = top;
            }
            let parent = spine.last().copied().unwrap_or(NIL);
            chain.nodes.push(Node {
                id,
                pri,
                left,
                right: NIL,
                parent,
                total: 1,
                visible_count: visible as usize,
                visible,
            });
            if left != NIL {
                chain.nodes[left].parent = n;
            }
            if parent != NIL {
                chain.nodes[parent].right = n;
            }
            spine.push(n);
        }
        while let Some(top) = spine.pop() {
            chain.update(top);
            chain.root = top;
        }
        Ok(chain)
    }

    /// Total chain length, tombstones included.
    pub fn total_len(&self) -> usize {
        self.subtree_total(self.root)
    }

    /// Number of visible characters.
    pub fn visible_len(&self) -> usize {
        self.subtree_visible(self.root)
    }

    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    pub fn contains(&self, id: CharId) -> bool {
        self.map.contains_key(&id)
    }

    pub fn is_visible(&self, id: CharId) -> Option<bool> {
        self.map.get(&id).map(|&n| self.nodes[n].visible)
    }

    fn subtree_total(&self, n: usize) -> usize {
        if n == NIL {
            0
        } else {
            self.nodes[n].total
        }
    }

    fn subtree_visible(&self, n: usize) -> usize {
        if n == NIL {
            0
        } else {
            self.nodes[n].visible_count
        }
    }

    fn update(&mut self, n: usize) {
        let (l, r) = (self.nodes[n].left, self.nodes[n].right);
        self.nodes[n].total = 1 + self.subtree_total(l) + self.subtree_total(r);
        self.nodes[n].visible_count =
            self.nodes[n].visible as usize + self.subtree_visible(l) + self.subtree_visible(r);
    }

    fn merge(&mut self, a: usize, b: usize) -> usize {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a].pri > self.nodes[b].pri {
            let r = self.merge(self.nodes[a].right, b);
            self.nodes[a].right = r;
            self.nodes[r].parent = a;
            self.update(a);
            a
        } else {
            let l = self.merge(a, self.nodes[b].left);
            self.nodes[b].left = l;
            self.nodes[l].parent = b;
            self.update(b);
            b
        }
    }

    /// Split into (first `k` by total order, rest).
    fn split(&mut self, t: usize, k: usize) -> (usize, usize) {
        if t == NIL {
            return (NIL, NIL);
        }
        let lsize = self.subtree_total(self.nodes[t].left);
        if k <= lsize {
            let (l, m) = self.split(self.nodes[t].left, k);
            self.nodes[t].left = m;
            if m != NIL {
                self.nodes[m].parent = t;
            }
            self.update(t);
            self.nodes[t].parent = NIL;
            if l != NIL {
                self.nodes[l].parent = NIL;
            }
            (l, t)
        } else {
            let (m, r) = self.split(self.nodes[t].right, k - lsize - 1);
            self.nodes[t].right = m;
            if m != NIL {
                self.nodes[m].parent = t;
            }
            self.update(t);
            self.nodes[t].parent = NIL;
            if r != NIL {
                self.nodes[r].parent = NIL;
            }
            (t, r)
        }
    }

    /// Number of chain elements strictly before `id` (tombstones included).
    pub fn total_rank(&self, id: CharId) -> Option<usize> {
        let &n = self.map.get(&id)?;
        let mut rank = self.subtree_total(self.nodes[n].left);
        let mut cur = n;
        loop {
            let p = self.nodes[cur].parent;
            if p == NIL {
                break;
            }
            if self.nodes[p].right == cur {
                rank += self.subtree_total(self.nodes[p].left) + 1;
            }
            cur = p;
        }
        Some(rank)
    }

    /// Visible position of `id`, if it is visible.
    pub fn visible_rank(&self, id: CharId) -> Option<usize> {
        let &n = self.map.get(&id)?;
        if !self.nodes[n].visible {
            return None;
        }
        let mut rank = self.subtree_visible(self.nodes[n].left);
        let mut cur = n;
        loop {
            let p = self.nodes[cur].parent;
            if p == NIL {
                break;
            }
            if self.nodes[p].right == cur {
                rank += self.subtree_visible(self.nodes[p].left) + self.nodes[p].visible as usize;
            }
            cur = p;
        }
        Some(rank)
    }

    /// Chain element at total-order position `rank`.
    pub fn id_at_total(&self, mut rank: usize) -> Option<CharId> {
        let mut cur = self.root;
        if rank >= self.total_len() {
            return None;
        }
        loop {
            let l = self.nodes[cur].left;
            let lsize = self.subtree_total(l);
            if rank < lsize {
                cur = l;
            } else if rank == lsize {
                return Some(self.nodes[cur].id);
            } else {
                rank -= lsize + 1;
                cur = self.nodes[cur].right;
            }
        }
    }

    /// Visible character at visible position `rank`.
    pub fn id_at_visible(&self, mut rank: usize) -> Option<CharId> {
        if rank >= self.visible_len() {
            return None;
        }
        let mut cur = self.root;
        loop {
            let l = self.nodes[cur].left;
            let lvis = self.subtree_visible(l);
            if rank < lvis {
                cur = l;
            } else if rank == lvis && self.nodes[cur].visible {
                return Some(self.nodes[cur].id);
            } else {
                rank -= lvis + self.nodes[cur].visible as usize;
                cur = self.nodes[cur].right;
            }
        }
    }

    /// Number of *visible* characters among the first `total_rank + 1`
    /// chain elements — i.e. the caret position immediately after the
    /// element at `total_rank`, even when that element is a tombstone.
    /// This is what keeps a cursor anchored to a character as remote
    /// edits land around (or delete) it.
    pub fn visible_count_through(&self, total_rank: usize) -> usize {
        let mut remaining = total_rank + 1;
        let mut cur = self.root;
        let mut count = 0;
        while cur != NIL && remaining > 0 {
            let l = self.nodes[cur].left;
            let lsize = self.subtree_total(l);
            if remaining <= lsize {
                cur = l;
            } else {
                count += self.subtree_visible(l);
                remaining -= lsize;
                if remaining == 1 {
                    count += self.nodes[cur].visible as usize;
                    break;
                }
                count += self.nodes[cur].visible as usize;
                remaining -= 1;
                cur = self.nodes[cur].right;
            }
        }
        count
    }

    /// Insert `id` immediately after `anchor` in the total order (`None`
    /// inserts at the chain head).
    ///
    /// Returns [`ChainError`] if `anchor` is not in the chain or `id`
    /// already is. Both indicate the cache has drifted from the
    /// database — in a shared collab server that happens when a remote
    /// effect outruns a session's view, so it must be a recoverable
    /// (refresh + retry) condition, not a process abort. The
    /// `debug_assert!`s keep the old fail-fast behaviour in debug builds
    /// at call sites that have already validated their anchors.
    pub fn insert_after(
        &mut self,
        anchor: Option<CharId>,
        id: CharId,
        visible: bool,
    ) -> Result<(), ChainError> {
        if self.map.contains_key(&id) {
            return Err(ChainError::DuplicateId(id));
        }
        let rank = match anchor {
            None => 0,
            Some(a) => match self.total_rank(a) {
                Some(r) => r + 1,
                None => return Err(ChainError::UnknownAnchor(a)),
            },
        };
        let n = self.nodes.len();
        self.nodes.push(Node {
            id,
            pri: priority(id),
            left: NIL,
            right: NIL,
            parent: NIL,
            total: 1,
            visible_count: visible as usize,
            visible,
        });
        self.map.insert(id, n);
        let (l, r) = self.split(self.root, rank);
        let lr = self.merge(l, n);
        self.root = self.merge(lr, r);
        if self.root != NIL {
            self.nodes[self.root].parent = NIL;
        }
        Ok(())
    }

    /// Toggle visibility (delete = false, undelete = true). Returns the
    /// previous visibility, or `None` if the id is unknown.
    pub fn set_visible(&mut self, id: CharId, visible: bool) -> Option<bool> {
        let &n = self.map.get(&id)?;
        let was = self.nodes[n].visible;
        if was != visible {
            self.nodes[n].visible = visible;
            let mut cur = n;
            while cur != NIL {
                self.update(cur);
                cur = self.nodes[cur].parent;
            }
        }
        Some(was)
    }

    /// Visit every chain element in order, tombstones included, as
    /// `(id, visible)`.
    pub fn for_each_total(&self, mut f: impl FnMut(CharId, bool)) {
        self.in_order(self.root, &mut |node: &Node| f(node.id, node.visible));
    }

    /// All chain ids in order (tombstones included).
    pub fn iter_total(&self) -> Vec<CharId> {
        let mut out = Vec::with_capacity(self.total_len());
        self.for_each_total(|id, _| out.push(id));
        out
    }

    /// Visible ids in order.
    pub fn iter_visible(&self) -> Vec<CharId> {
        let mut out = Vec::with_capacity(self.visible_len());
        self.in_order(self.root, &mut |node: &Node| {
            if node.visible {
                out.push(node.id);
            }
        });
        out
    }

    fn in_order(&self, root: usize, f: &mut impl FnMut(&Node)) {
        // Iterative traversal: documents can be large and recursion depth
        // is probabilistic in a treap.
        let mut stack = Vec::new();
        let mut cur = root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur].left;
            }
            let n = stack.pop().expect("stack non-empty by loop condition");
            f(&self.nodes[n]);
            cur = self.nodes[n].right;
        }
    }

    /// The visible character ids spanning positions `[pos, pos + len)`.
    pub fn visible_range(&self, pos: usize, len: usize) -> Vec<CharId> {
        (pos..pos + len)
            .map_while(|p| self.id_at_visible(p))
            .collect()
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        fn walk(c: &Chain, n: usize, parent: usize) -> (usize, usize) {
            if n == NIL {
                return (0, 0);
            }
            assert_eq!(c.nodes[n].parent, parent, "parent pointer broken");
            if parent != NIL {
                assert!(c.nodes[n].pri <= c.nodes[parent].pri, "heap order broken");
            }
            let (lt, lv) = walk(c, c.nodes[n].left, n);
            let (rt, rv) = walk(c, c.nodes[n].right, n);
            assert_eq!(c.nodes[n].total, lt + rt + 1, "total size broken");
            assert_eq!(
                c.nodes[n].visible_count,
                lv + rv + c.nodes[n].visible as usize,
                "visible size broken"
            );
            (lt + rt + 1, lv + rv + c.nodes[n].visible as usize)
        }
        walk(self, self.root, NIL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u64]) -> Vec<CharId> {
        v.iter().map(|&x| CharId(x)).collect()
    }

    #[test]
    fn build_and_iterate() {
        let c = Chain::build([(CharId(1), true), (CharId(2), false), (CharId(3), true)]).unwrap();
        assert_eq!(c.total_len(), 3);
        assert_eq!(c.visible_len(), 2);
        assert_eq!(c.iter_total(), ids(&[1, 2, 3]));
        assert_eq!(c.iter_visible(), ids(&[1, 3]));
        c.check_invariants();
    }

    #[test]
    fn insert_at_head_and_after() {
        let mut c = Chain::new();
        c.insert_after(None, CharId(10), true).unwrap();
        c.insert_after(None, CharId(20), true).unwrap(); // new head
        c.insert_after(Some(CharId(10)), CharId(30), true).unwrap();
        assert_eq!(c.iter_total(), ids(&[20, 10, 30]));
        c.check_invariants();
    }

    #[test]
    fn visible_position_mapping_skips_tombstones() {
        let c = Chain::build([
            (CharId(1), true),
            (CharId(2), false),
            (CharId(3), true),
            (CharId(4), false),
            (CharId(5), true),
        ])
        .unwrap();
        assert_eq!(c.id_at_visible(0), Some(CharId(1)));
        assert_eq!(c.id_at_visible(1), Some(CharId(3)));
        assert_eq!(c.id_at_visible(2), Some(CharId(5)));
        assert_eq!(c.id_at_visible(3), None);
        assert_eq!(c.visible_rank(CharId(3)), Some(1));
        assert_eq!(c.visible_rank(CharId(2)), None); // tombstone
        assert_eq!(c.total_rank(CharId(2)), Some(1));
        assert_eq!(c.id_at_total(3), Some(CharId(4)));
    }

    #[test]
    fn visible_count_through_counts_inclusively() {
        let c = Chain::build([
            (CharId(1), true),
            (CharId(2), false),
            (CharId(3), true),
            (CharId(4), false),
            (CharId(5), true),
        ])
        .unwrap();
        assert_eq!(c.visible_count_through(0), 1); // through id 1
        assert_eq!(c.visible_count_through(1), 1); // tombstone adds nothing
        assert_eq!(c.visible_count_through(2), 2);
        assert_eq!(c.visible_count_through(3), 2);
        assert_eq!(c.visible_count_through(4), 3);
        // Agreement with a naive count for a larger randomized chain.
        let items: Vec<(CharId, bool)> = (1..=200u64).map(|i| (CharId(i), i % 3 != 0)).collect();
        let c = Chain::build(items.clone()).unwrap();
        for k in 0..items.len() {
            let naive = items[..=k].iter().filter(|(_, v)| *v).count();
            assert_eq!(c.visible_count_through(k), naive, "at rank {k}");
        }
    }

    #[test]
    fn set_visible_toggles_and_reports_previous() {
        let mut c = Chain::build([(CharId(1), true), (CharId(2), true)]).unwrap();
        assert_eq!(c.set_visible(CharId(1), false), Some(true));
        assert_eq!(c.visible_len(), 1);
        assert_eq!(c.id_at_visible(0), Some(CharId(2)));
        assert_eq!(c.set_visible(CharId(1), false), Some(false)); // idempotent
        assert_eq!(c.set_visible(CharId(1), true), Some(false));
        assert_eq!(c.visible_len(), 2);
        assert_eq!(c.set_visible(CharId(99), true), None);
        c.check_invariants();
    }

    #[test]
    fn visible_range_extraction() {
        let c = Chain::build([
            (CharId(1), true),
            (CharId(2), false),
            (CharId(3), true),
            (CharId(4), true),
        ])
        .unwrap();
        assert_eq!(c.visible_range(1, 2), ids(&[3, 4]));
        assert_eq!(c.visible_range(2, 5), ids(&[4])); // clamped at end
        assert!(c.visible_range(9, 2).is_empty());
    }

    /// Regression (stale-anchor panic): incoherent edits must surface as
    /// recoverable errors, not process aborts — a shared collab server
    /// would otherwise lose every session to one stale cache.
    #[test]
    fn duplicate_insert_is_an_error_not_a_panic() {
        let mut c = Chain::new();
        c.insert_after(None, CharId(1), true).unwrap();
        assert_eq!(
            c.insert_after(None, CharId(1), true),
            Err(ChainError::DuplicateId(CharId(1)))
        );
        // The failed insert must not have corrupted the chain.
        c.check_invariants();
        assert_eq!(c.total_len(), 1);
    }

    #[test]
    fn unknown_anchor_is_an_error_not_a_panic() {
        let mut c = Chain::new();
        assert_eq!(
            c.insert_after(Some(CharId(42)), CharId(1), true),
            Err(ChainError::UnknownAnchor(CharId(42)))
        );
        c.check_invariants();
        assert!(c.is_empty());
        // The rejected id was never registered; inserting it properly works.
        c.insert_after(None, CharId(1), true).unwrap();
        assert_eq!(c.total_len(), 1);
    }

    #[test]
    fn large_sequential_build_stays_balanced_enough() {
        // Sequential ids through SplitMix64 priorities: depth should be
        // logarithmic in practice. Just verify correctness at size.
        let n = 10_000u64;
        let mut c = Chain::new();
        let mut last = None;
        for i in 1..=n {
            c.insert_after(last, CharId(i), true).unwrap();
            last = Some(CharId(i));
        }
        assert_eq!(c.visible_len(), n as usize);
        assert_eq!(c.id_at_visible(0), Some(CharId(1)));
        assert_eq!(c.id_at_visible((n - 1) as usize), Some(CharId(n)));
        assert_eq!(c.visible_rank(CharId(5000)), Some(4999));
    }

    // ------------------------------------------------------ property tests

    #[derive(Debug, Clone)]
    enum ChainOp {
        InsertAfterRank(usize),
        ToggleAtRank(usize),
    }

    fn arb_chain_op() -> impl Strategy<Value = ChainOp> {
        prop_oneof![
            any::<usize>().prop_map(ChainOp::InsertAfterRank),
            any::<usize>().prop_map(ChainOp::ToggleAtRank),
        ]
    }

    /// Two chains answer every positional query alike (and `a` is a sound
    /// treap).
    fn agree(a: &Chain, b: &Chain) -> Result<(), TestCaseError> {
        a.check_invariants();
        prop_assert_eq!(a.iter_total(), b.iter_total());
        prop_assert_eq!(a.iter_visible(), b.iter_visible());
        for (rank, id) in a.iter_total().into_iter().enumerate() {
            prop_assert_eq!(a.total_rank(id), Some(rank));
            prop_assert_eq!(a.visible_rank(id), b.visible_rank(id));
            prop_assert_eq!(a.visible_count_through(rank), b.visible_count_through(rank));
        }
        for pos in 0..=a.visible_len() {
            prop_assert_eq!(a.id_at_visible(pos), b.id_at_visible(pos));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The linear bulk build is the tree `n` insertions would have
        /// made — same answers to every positional query — and it stays a
        /// sound treap under the edits that follow an open.
        #[test]
        fn bulk_build_equals_repeated_insertion(
            items in proptest::collection::vec((1u64..5_000, any::<bool>()), 0..300),
            script in proptest::collection::vec(arb_chain_op(), 0..40),
        ) {
            // Distinct ids in arbitrary (non-monotonic) chain order.
            let mut seen = std::collections::HashSet::new();
            let items: Vec<(CharId, bool)> = items
                .into_iter()
                .filter(|(id, _)| seen.insert(*id))
                .map(|(id, visible)| (CharId(id), visible))
                .collect();

            let mut bulk = Chain::build(items.clone()).unwrap();
            let mut stepwise = Chain::new();
            let mut last = None;
            for &(id, visible) in &items {
                stepwise.insert_after(last, id, visible).unwrap();
                last = Some(id);
            }
            agree(&bulk, &stepwise)?;

            let mut next_id = 10_000u64;
            for op in script {
                match op {
                    ChainOp::InsertAfterRank(r) => {
                        let anchor = match r % (bulk.total_len() + 1) {
                            0 => None,
                            r => bulk.id_at_total(r - 1),
                        };
                        for chain in [&mut bulk, &mut stepwise] {
                            chain.insert_after(anchor, CharId(next_id), true).unwrap();
                        }
                        next_id += 1;
                    }
                    ChainOp::ToggleAtRank(r) => {
                        if let Some(id) = bulk.id_at_total(r % bulk.total_len().max(1)) {
                            let flipped = !bulk.is_visible(id).unwrap();
                            for chain in [&mut bulk, &mut stepwise] {
                                chain.set_visible(id, flipped);
                            }
                        }
                    }
                }
                agree(&bulk, &stepwise)?;
            }
        }

        /// A repeated id is refused, wherever it sits.
        #[test]
        fn bulk_build_rejects_duplicates(n in 2usize..50, at in any::<usize>(), of in any::<usize>()) {
            let mut items: Vec<(CharId, bool)> = (1..=n as u64).map(|i| (CharId(i), true)).collect();
            let (at, of) = (at % n, of % n);
            if at != of {
                items[at].0 = items[of].0;
                prop_assert_eq!(
                    Chain::build(items).err(),
                    Some(ChainError::DuplicateId(CharId(of as u64 + 1)))
                );
            }
        }

        /// The treap agrees with a naive Vec model under arbitrary edits.
        #[test]
        fn chain_matches_vec_model(script in proptest::collection::vec(arb_chain_op(), 1..120)) {
            let mut chain = Chain::new();
            let mut model: Vec<(CharId, bool)> = Vec::new();
            let mut next_id = 1u64;

            for op in script {
                match op {
                    ChainOp::InsertAfterRank(r) => {
                        let id = CharId(next_id);
                        next_id += 1;
                        if model.is_empty() {
                            chain.insert_after(None, id, true).unwrap();
                            model.insert(0, (id, true));
                        } else {
                            let r = r % (model.len() + 1);
                            let anchor = if r == 0 { None } else { Some(model[r - 1].0) };
                            chain.insert_after(anchor, id, true).unwrap();
                            model.insert(r, (id, true));
                        }
                    }
                    ChainOp::ToggleAtRank(r) => {
                        if !model.is_empty() {
                            let r = r % model.len();
                            let (id, vis) = model[r];
                            chain.set_visible(id, !vis);
                            model[r].1 = !vis;
                        }
                    }
                }
            }

            chain.check_invariants();
            let expect_total: Vec<CharId> = model.iter().map(|(id, _)| *id).collect();
            let expect_visible: Vec<CharId> =
                model.iter().filter(|(_, v)| *v).map(|(id, _)| *id).collect();
            prop_assert_eq!(chain.iter_total(), expect_total);
            prop_assert_eq!(&chain.iter_visible(), &expect_visible);
            prop_assert_eq!(chain.visible_len(), expect_visible.len());
            prop_assert_eq!(chain.total_len(), model.len());
            for (i, id) in expect_visible.iter().enumerate() {
                prop_assert_eq!(chain.id_at_visible(i), Some(*id));
                prop_assert_eq!(chain.visible_rank(*id), Some(i));
            }
        }
    }
}
