//! The character chain: everything an open document keeps of its
//! characters, in one structure.
//!
//! TeNDaX stores a document's characters as database tuples, each
//! naming its anchor, the character it was inserted after, whose tree
//! fixes the document order; deleted characters remain in the chain as
//! tombstones (they carry history, lineage and undo state). An editor,
//! however, addresses text by *visible position*. A [`Chain`] maps between
//! the two: an order-statistics treap over the full chain (tombstones
//! included) whose nodes hold each character's [`CharInfo`], the cached
//! `chars` row. A node is visible unless its info says `deleted`. It gives
//! `O(log n)`:
//!
//! * visible position → slot ([`Chain::slot_at_visible`]) and id
//!   ([`Chain::id_at_visible`])
//! * character id → visible position ([`Chain::visible_rank`])
//! * insertion after a chain element found by position
//!   ([`Chain::insert_at`])
//! * visibility toggling for delete/undelete ([`Chain::set_visible`]),
//!   which writes the info's `deleted` flag
//!
//! and a walk in chain order that hands out every character's info
//! without a lookup ([`Chain::for_each`]) — what a wire snapshot, the
//! text and a render are written from.
//!
//! ## Layout
//!
//! A character lives in a slot, in three parts with the same slot number:
//! the tree node (its id, links, subtree counts and visibility, 32 bytes),
//! its info, and the slot of its successor in chain order (4 bytes).
//! Position lookups descend the tree and touch only nodes, two to a cache
//! line; whole-document walks follow the successors from the head slot
//! instead of walking the tree in order, which would push and pop a stack
//! per node. The info is read where a character's fields are. The
//! successor links only grow: an insert links the new slot after its
//! predecessor, which its caller already holds, and nothing unlinks — a
//! purge rebuilds the chain. The characters a load places fill one block
//! of each part, allocated for exactly that many, in the order the rows
//! are stored; the characters inserted after it fill pages of `PAGE`
//! (256) slots. Nothing is ever reallocated, so a slot number names its
//! character for the life of the chain, and the tree and successor links
//! are slot numbers. An id finds its slot through the one hash map, id →
//! slot. Code that has walked the tree to a position keeps the slot and
//! reads or writes the character there without going back through the
//! map.
//!
//! ## Inserting
//!
//! A load links every character at once, as the Cartesian tree of the
//! sequence ([`Chain::link`]). A typed character is added bottom-up, the
//! textbook treap insertion (Seidel & Aragon, *Randomized Search Trees*,
//! 1996): attached as a leaf next to its predecessor — whose slot the
//! caller holds, and whose old successor the links name — its count added
//! on the path to the root, then rotated up while its priority beats its
//! parent's. Nothing descends from the root and nothing is split or
//! merged. Priorities are distinct, so the tree is unique: node for node
//! the one a load of the same sequence links.
//!
//! Pages, not one growing vector, for the reason the client mirror has
//! them (DESIGN §5.7): a vector's doubling reallocations leave freed heap
//! behind that malloc keeps. The block makes an open a fixed number of
//! allocations whatever the document's size.
//!
//! The chain is a pure cache: it is rebuilt from the database on open and
//! maintained incrementally from committed operations. The ablation bench
//! `ablation_position_index` measures what the treap buys over a naive
//! scan.

use std::collections::hash_map::Entry;

use crate::document::CharInfo;
use crate::ids::{CharId, CharMap};

/// Slots in a page.
const PAGE: usize = 256;

/// The slot number that names no slot: an absent child or parent, an
/// empty chain's root.
const NIL: u32 = u32::MAX;

/// A character's half of the treap. `total` is 0 while the node is placed
/// and not yet linked ([`Chain::place`]).
#[derive(Debug, Clone)]
struct Node {
    id: CharId,
    left: u32,
    right: u32,
    parent: u32,
    /// Nodes in this subtree (tombstones included).
    total: u32,
    /// Visible nodes in this subtree.
    visible_count: u32,
    /// Not `deleted`: the info's flag, kept here too because every count
    /// reads it.
    visible: bool,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32);

impl Node {
    /// A one-node subtree.
    fn leaf(id: CharId, visible: bool) -> Self {
        Node {
            id,
            left: NIL,
            right: NIL,
            parent: NIL,
            total: 1,
            visible_count: visible as u32,
            visible,
        }
    }
}

/// Values in slots: slot `s` is `block[s]` below `block.len()` and
/// `pages[t / PAGE][t % PAGE]` for `t = s - block.len()` above it.
#[derive(Debug, Clone)]
struct Slots<T> {
    /// Allocated once, for exactly the values a build places; full once
    /// `pages` has any.
    block: Vec<T>,
    /// Each page is allocated with room for `PAGE` values.
    pages: Vec<Vec<T>>,
}

impl<T> Slots<T> {
    fn with_capacity(n: usize) -> Self {
        Slots::from_block(Vec::with_capacity(n))
    }

    fn from_block(block: Vec<T>) -> Self {
        Slots {
            block,
            pages: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.block.len()
            + (self.pages.last()).map_or(0, |p| (self.pages.len() - 1) * PAGE + p.len())
    }

    /// Store `value` in the next slot: the block while it has room, then
    /// the last page, opening one when that is full.
    fn push(&mut self, value: T) {
        if self.pages.is_empty() && self.block.len() < self.block.capacity() {
            self.block.push(value);
            return;
        }
        match self.pages.last_mut() {
            Some(page) if page.len() < PAGE => page.push(value),
            _ => {
                let mut page = Vec::with_capacity(PAGE);
                page.push(value);
                self.pages.push(page);
            }
        }
    }

    fn get(&self, s: u32) -> &T {
        let s = s as usize;
        match s.checked_sub(self.block.len()) {
            None => &self.block[s],
            Some(t) => &self.pages[t / PAGE][t % PAGE],
        }
    }

    fn get_mut(&mut self, s: u32) -> &mut T {
        let s = s as usize;
        match s.checked_sub(self.block.len()) {
            None => &mut self.block[s],
            Some(t) => &mut self.pages[t / PAGE][t % PAGE],
        }
    }
}

/// Order-statistics treap over a document's character chain, holding each
/// character's [`CharInfo`].
#[derive(Debug, Clone)]
pub struct Chain {
    nodes: Slots<Node>,
    infos: Slots<CharInfo>,
    /// Each slot's successor in chain order; `NIL` after the last.
    succ: Slots<u32>,
    /// Character id → slot.
    map: CharMap<u32>,
    root: u32,
    /// The first slot in chain order; `NIL` when empty.
    head: u32,
}

impl Default for Chain {
    fn default() -> Self {
        Chain::new()
    }
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

/// A tree as [`Chain::shape`] spells it: the root's id, and per character
/// its id, its children's ids and its `(total, visible_count)`.
#[cfg(test)]
type Shape = (
    Option<CharId>,
    Vec<(CharId, Option<CharId>, Option<CharId>, (u32, u32))>,
);

/// Why [`Chain::link`] could not thread the placed characters into one
/// chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkError {
    /// The walk from the head came back to a character it had passed.
    Cycle,
    /// The walk from the head ended after this many characters, short of
    /// all of them.
    Reached(usize),
}

/// Deterministic priority: SplitMix64 of the character id. Char ids are
/// allocated sequentially, and SplitMix64 scatters them uniformly, which
/// is exactly what a treap needs — no RNG state to carry around, and none
/// stored in a node either (it costs less to recompute than to fetch).
///
/// The mix is a bijection on `u64`: an added constant, and twice an
/// xor-shift (`z ^ (z >> k)`, undone by repeating it) followed by a
/// multiplication by an odd constant (invertible modulo 2^64). So two
/// distinct ids never tie, and the treap over a sequence is unique: the
/// tree [`Chain::insert_at`] builds a node at a time is the one
/// [`Chain::link`] builds at once.
fn priority(id: CharId) -> u64 {
    let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Chain {
    pub fn new() -> Self {
        Chain::with_capacity(0)
    }

    /// Build from the full chain in order, each character's info written
    /// once, into the slot it keeps. Fails on a duplicate id. The slots
    /// are the block, sized by the iterator's lower bound.
    pub fn build(items: impl IntoIterator<Item = (CharId, CharInfo)>) -> Result<Self, ChainError> {
        let items = items.into_iter();
        let mut chain = Chain::with_capacity(items.size_hint().0);
        for (id, info) in items {
            let s = chain.place(id, info)?;
            if s > 0 {
                chain.set_next(s - 1, s);
            }
        }
        let head = (chain.nodes.len() > 0).then_some(0);
        chain.link(head).expect("consecutive slots are one chain");
        Ok(chain)
    }

    /// An empty chain whose first `n` characters go into the block.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Chain {
            nodes: Slots::with_capacity(n),
            infos: Slots::with_capacity(n),
            succ: Slots::with_capacity(n),
            map: CharMap::with_capacity_and_hasher(n, Default::default()),
            root: NIL,
            head: NIL,
        }
    }

    /// Put a character in the next slot, not yet in the tree: then
    /// [`Chain::set_next`] names the slot of its successor and
    /// [`Chain::link`] threads every placed character into the treap. This
    /// is how a document is loaded: each row decoded once, in storage
    /// order, straight into the slot it keeps.
    pub(crate) fn place(&mut self, id: CharId, info: CharInfo) -> Result<u32, ChainError> {
        let s = self.claim(id)?;
        let node = Node::leaf(id, !info.deleted);
        self.push(Node { total: 0, ..node }, info);
        Ok(s)
    }

    /// Name slot `next` as the successor of placed slot `s`.
    pub(crate) fn set_next(&mut self, s: u32, next: u32) {
        *self.succ.get_mut(s) = next;
    }

    /// Link every placed character into the treap, walking from `head`
    /// along each one's successor, and make `head` the chain's first slot.
    ///
    /// Linear time: the walk meets the nodes in chain order, so the treap
    /// is their Cartesian tree — each node is linked once while a stack
    /// holds the right spine, instead of `n` insertions. The shape is the
    /// one [`Chain::insert_at`] would have produced: distinct priorities
    /// admit exactly one heap-ordered tree over a sequence.
    pub(crate) fn link(&mut self, head: Option<u32>) -> Result<(), LinkError> {
        // The right spine, root first, with each node's priority. A
        // node's subtree is final — and its counts can be summed — once
        // it leaves the spine.
        let mut spine: Vec<(u32, u64)> = Vec::new();
        let mut reached = 0;
        self.head = head.unwrap_or(NIL);
        let mut cur = self.head;
        while cur != NIL {
            let node = self.node(cur);
            if node.total != 0 {
                return Err(LinkError::Cycle);
            }
            let (next, pri) = (*self.succ.get(cur), priority(node.id));
            // Priorities never tie (`priority` is a bijection), so `<=`
            // pops only nodes of lower priority.
            let mut left = NIL;
            while let Some(&(top, top_pri)) = spine.last() {
                if top_pri > pri {
                    break;
                }
                spine.pop();
                self.update(top);
                left = top;
            }
            let parent = spine.last().map_or(NIL, |&(p, _)| p);
            let node = self.node_mut(cur);
            node.left = left;
            node.parent = parent;
            node.total = 1;
            if left != NIL {
                self.node_mut(left).parent = cur;
            }
            if parent != NIL {
                self.node_mut(parent).right = cur;
            }
            spine.push((cur, pri));
            reached += 1;
            cur = next;
        }
        while let Some((top, _)) = spine.pop() {
            self.update(top);
            self.root = top;
        }
        if reached == self.nodes.len() {
            Ok(())
        } else {
            Err(LinkError::Reached(reached))
        }
    }

    /// Store a character's node and info in the next slot, with no
    /// successor yet.
    fn push(&mut self, node: Node, info: CharInfo) {
        self.nodes.push(node);
        self.infos.push(info);
        self.succ.push(NIL);
    }

    /// Register `id` under the next slot number, or refuse it if it is
    /// already in the chain.
    fn claim(&mut self, id: CharId) -> Result<u32, ChainError> {
        let s = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&s| s != NIL)
            .expect("fewer than 2^32 - 1 characters");
        match self.map.entry(id) {
            Entry::Occupied(_) => Err(ChainError::DuplicateId(id)),
            Entry::Vacant(v) => {
                v.insert(s);
                Ok(s)
            }
        }
    }

    fn node(&self, s: u32) -> &Node {
        self.nodes.get(s)
    }

    fn node_mut(&mut self, s: u32) -> &mut Node {
        self.nodes.get_mut(s)
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
        Some(self.node(self.slot_of(id)?).visible)
    }

    /// The slot holding `id`.
    pub fn slot_of(&self, id: CharId) -> Option<u32> {
        self.map.get(&id).copied()
    }

    /// The character in slot `s`.
    pub fn id_at(&self, s: u32) -> CharId {
        self.node(s).id
    }

    /// The info of the character in slot `s`.
    pub fn info_at(&self, s: u32) -> &CharInfo {
        self.infos.get(s)
    }

    /// The info of the character in slot `s`, to fold a committed write
    /// into. The `deleted` flag is not written here but through
    /// [`Chain::set_visible_at`], which keeps the counts.
    pub(crate) fn info_at_mut(&mut self, s: u32) -> &mut CharInfo {
        self.infos.get_mut(s)
    }

    /// The slot after slot `s` in chain order, or the head for `None`;
    /// `None` past the end.
    #[cfg(test)]
    pub(crate) fn next_slot(&self, s: Option<u32>) -> Option<u32> {
        let next = s.map_or(self.head, |s| *self.succ.get(s));
        (next != NIL).then_some(next)
    }

    /// The info of `id`, visible or tombstoned.
    pub fn info(&self, id: CharId) -> Option<&CharInfo> {
        Some(self.info_at(self.slot_of(id)?))
    }

    fn subtree_total(&self, n: u32) -> usize {
        if n == NIL {
            0
        } else {
            self.node(n).total as usize
        }
    }

    fn subtree_visible(&self, n: u32) -> usize {
        if n == NIL {
            0
        } else {
            self.node(n).visible_count as usize
        }
    }

    fn update(&mut self, n: u32) {
        let (l, r) = (self.node(n).left, self.node(n).right);
        let total = 1 + self.subtree_total(l) + self.subtree_total(r);
        let visible =
            self.node(n).visible as usize + self.subtree_visible(l) + self.subtree_visible(r);
        let node = self.node_mut(n);
        node.total = total as u32;
        node.visible_count = visible as u32;
    }

    /// Number of chain elements strictly before `id` (tombstones included).
    pub fn total_rank(&self, id: CharId) -> Option<usize> {
        Some(self.total_rank_at(self.slot_of(id)?))
    }

    /// Number of chain elements strictly before slot `s`.
    pub fn total_rank_at(&self, s: u32) -> usize {
        let mut rank = self.subtree_total(self.node(s).left);
        let mut cur = s;
        loop {
            let p = self.node(cur).parent;
            if p == NIL {
                break;
            }
            if self.node(p).right == cur {
                rank += self.subtree_total(self.node(p).left) + 1;
            }
            cur = p;
        }
        rank
    }

    /// Visible position of `id`, if it is visible.
    pub fn visible_rank(&self, id: CharId) -> Option<usize> {
        let n = self.slot_of(id)?;
        if !self.node(n).visible {
            return None;
        }
        let mut rank = self.subtree_visible(self.node(n).left);
        let mut cur = n;
        loop {
            let p = self.node(cur).parent;
            if p == NIL {
                break;
            }
            if self.node(p).right == cur {
                rank += self.subtree_visible(self.node(p).left) + self.node(p).visible as usize;
            }
            cur = p;
        }
        Some(rank)
    }

    /// Chain element at total-order position `rank`.
    pub fn id_at_total(&self, mut rank: usize) -> Option<CharId> {
        if rank >= self.total_len() {
            return None;
        }
        let mut cur = self.root;
        loop {
            let l = self.node(cur).left;
            let lsize = self.subtree_total(l);
            if rank < lsize {
                cur = l;
            } else if rank == lsize {
                return Some(self.node(cur).id);
            } else {
                rank -= lsize + 1;
                cur = self.node(cur).right;
            }
        }
    }

    /// Slot of the visible character at visible position `rank`.
    pub fn slot_at_visible(&self, mut rank: usize) -> Option<u32> {
        if rank >= self.visible_len() {
            return None;
        }
        let mut cur = self.root;
        loop {
            let node = self.node(cur);
            let lvis = self.subtree_visible(node.left);
            if rank < lvis {
                cur = node.left;
            } else if rank == lvis && node.visible {
                return Some(cur);
            } else {
                rank -= lvis + node.visible as usize;
                cur = node.right;
            }
        }
    }

    /// Visible character at visible position `rank`.
    pub fn id_at_visible(&self, rank: usize) -> Option<CharId> {
        Some(self.id_at(self.slot_at_visible(rank)?))
    }

    /// The slots of the visible characters at positions `[pos, pos + len)`
    /// (clamped at the end).
    pub fn visible_slots(&self, pos: usize, len: usize) -> Vec<u32> {
        (pos..pos + len)
            .map_while(|p| self.slot_at_visible(p))
            .collect()
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
            let node = self.node(cur);
            let lsize = self.subtree_total(node.left);
            if remaining <= lsize {
                cur = node.left;
            } else {
                count += self.subtree_visible(node.left);
                remaining -= lsize;
                count += node.visible as usize;
                if remaining == 1 {
                    break;
                }
                remaining -= 1;
                cur = node.right;
            }
        }
        count
    }

    /// Insert `id` with its info immediately after `anchor` in the total
    /// order (`None` inserts at the chain head); returns its slot. The
    /// character is visible unless `info.deleted`. The tests' model of an
    /// insert: a document finds the anchor's slot as it resolves the
    /// position, and calls [`Chain::insert_at`].
    ///
    /// Returns [`ChainError`] if `id` already is in the chain or `anchor`
    /// is not.
    #[cfg(test)]
    pub fn insert_after(
        &mut self,
        anchor: Option<CharId>,
        id: CharId,
        info: CharInfo,
    ) -> Result<u32, ChainError> {
        if self.contains(id) {
            return Err(ChainError::DuplicateId(id));
        }
        let prev = match anchor {
            None => None,
            Some(a) => Some(self.slot_of(a).ok_or(ChainError::UnknownAnchor(a))?),
        };
        self.insert_at(prev, id, info)
    }

    /// Insert `id` with its info right after slot `prev` (`None`: at the
    /// chain head); returns its slot. The info is written once, into the
    /// slot the character keeps.
    ///
    /// Bottom-up, in three steps, none of which descends from the root:
    ///
    /// 1. *Leaf attach.* The new node goes where an in-order walk meets
    ///    it, right after `prev`: as `prev`'s right child if that is free,
    ///    else as the left child of `prev`'s old successor — the leftmost
    ///    node under `prev.right`, or at the head the leftmost node of the
    ///    tree, which has no left child either way. The successor links
    ///    name that node, so finding it costs nothing.
    /// 2. *Count bump.* Each ancestor's subtree gains the node: `total`
    ///    and, if it is visible, `visible_count` grow by one on the path
    ///    to the root.
    /// 3. *Rotations.* While the node's priority beats its parent's it is
    ///    rotated above it; a rotation recomputes the two nodes it moves.
    ///
    /// Priorities are distinct (see `priority`), and a sequence with
    /// distinct priorities has exactly one heap-ordered search tree, so
    /// the result is node for node the tree [`Chain::build`] links over
    /// the same sequence.
    pub fn insert_at(
        &mut self,
        prev: Option<u32>,
        id: CharId,
        info: CharInfo,
    ) -> Result<u32, ChainError> {
        let s = self.claim(id)?;
        let visible = !info.deleted;
        self.push(Node::leaf(id, visible), info);
        let before = match prev {
            None => std::mem::replace(&mut self.head, s),
            Some(p) => std::mem::replace(self.succ.get_mut(p), s),
        };
        *self.succ.get_mut(s) = before;

        let parent = match prev {
            Some(p) if self.node(p).right == NIL => {
                self.node_mut(p).right = s;
                p
            }
            _ if before != NIL => {
                debug_assert_eq!(self.node(before).left, NIL, "the successor is leftmost");
                self.node_mut(before).left = s;
                before
            }
            _ => {
                self.root = s;
                return Ok(s);
            }
        };
        self.node_mut(s).parent = parent;
        let mut cur = parent;
        while cur != NIL {
            let node = self.node_mut(cur);
            node.total += 1;
            node.visible_count += visible as u32;
            cur = node.parent;
        }
        let pri = priority(id);
        loop {
            let p = self.node(s).parent;
            if p == NIL || priority(self.node(p).id) > pri {
                break;
            }
            self.rotate_up(s);
        }
        Ok(s)
    }

    /// Rotate the node in slot `s` above its parent, keeping the in-order
    /// sequence: `s` takes the parent's place and counts, and the parent
    /// takes the subtree of `s` on the side facing it.
    fn rotate_up(&mut self, s: u32) {
        let p = self.node(s).parent;
        let (g, total, visible_count) = {
            let pn = self.node(p);
            (pn.parent, pn.total, pn.visible_count)
        };
        let inner = if self.node(p).left == s {
            let inner = self.node(s).right;
            self.node_mut(p).left = inner;
            self.node_mut(s).right = p;
            inner
        } else {
            let inner = self.node(s).left;
            self.node_mut(p).right = inner;
            self.node_mut(s).left = p;
            inner
        };
        if inner != NIL {
            self.node_mut(inner).parent = p;
        }
        self.node_mut(p).parent = s;
        self.update(p);
        let node = self.node_mut(s);
        node.parent = g;
        node.total = total;
        node.visible_count = visible_count;
        if g == NIL {
            self.root = s;
        } else if self.node(g).left == p {
            self.node_mut(g).left = s;
        } else {
            self.node_mut(g).right = s;
        }
    }

    /// Toggle visibility (delete = false, undelete = true), writing the
    /// character's `deleted` flag. Returns the previous visibility, or
    /// `None` if the id is unknown.
    pub fn set_visible(&mut self, id: CharId, visible: bool) -> Option<bool> {
        let s = self.slot_of(id)?;
        Some(self.set_visible_at(s, visible))
    }

    /// [`Chain::set_visible`] of the character in slot `s`.
    pub fn set_visible_at(&mut self, s: u32, visible: bool) -> bool {
        let was = self.node(s).visible;
        if was != visible {
            self.infos.get_mut(s).deleted = !visible;
            self.node_mut(s).visible = visible;
            let mut cur = s;
            while cur != NIL {
                let node = self.node_mut(cur);
                if visible {
                    node.visible_count += 1;
                } else {
                    node.visible_count -= 1;
                }
                cur = node.parent;
            }
        }
        was
    }

    /// Visit every chain element in order, tombstones included, with its
    /// info. No lookup and no tree: the walk follows the successors.
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(CharId, &'a CharInfo)) {
        self.walk(|s, node| f(node.id, self.infos.get(s)));
    }

    /// Visit the visible characters in order, with their info.
    pub fn for_each_visible<'a>(&'a self, mut f: impl FnMut(CharId, &'a CharInfo)) {
        self.walk(|s, node| {
            if node.visible {
                f(node.id, self.infos.get(s))
            }
        });
    }

    /// All chain ids in order (tombstones included).
    pub fn iter_total(&self) -> Vec<CharId> {
        let mut out = Vec::with_capacity(self.total_len());
        self.for_each(|id, _| out.push(id));
        out
    }

    /// Visible ids in order.
    pub fn iter_visible(&self) -> Vec<CharId> {
        let mut out = Vec::with_capacity(self.visible_len());
        self.for_each_visible(|id, _| out.push(id));
        out
    }

    /// Every slot and its node in chain order, from the head along the
    /// successors.
    fn walk<'a>(&'a self, mut f: impl FnMut(u32, &'a Node)) {
        let mut s = self.head;
        while s != NIL {
            f(s, self.node(s));
            s = *self.succ.get(s);
        }
    }

    /// The tree's slots in order: what the successors must agree with.
    #[cfg(test)]
    fn in_order<'a>(&'a self, mut f: impl FnMut(u32, &'a Node)) {
        // Iterative traversal: documents can be large and recursion depth
        // is probabilistic in a treap.
        let mut stack = Vec::new();
        let mut cur = self.root;
        loop {
            while cur != NIL {
                stack.push(cur);
                cur = self.node(cur).left;
            }
            let Some(n) = stack.pop() else { break };
            let node = self.node(n);
            f(n, node);
            cur = node.right;
        }
    }

    /// The tree as ids, whatever slots hold them: the root, then per
    /// character in chain order its children and counts.
    #[cfg(test)]
    fn shape(&self) -> Shape {
        let id = |s: u32| (s != NIL).then(|| self.node(s).id);
        let mut nodes = Vec::with_capacity(self.nodes.len());
        self.walk(|_, n| {
            let counts = (n.total, n.visible_count);
            nodes.push((n.id, id(n.left), id(n.right), counts))
        });
        (id(self.root), nodes)
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        fn subtree(c: &Chain, n: u32, parent: u32) -> (usize, usize) {
            if n == NIL {
                return (0, 0);
            }
            let node = c.node(n);
            assert_eq!(node.parent, parent, "parent pointer broken");
            if parent != NIL {
                assert!(
                    priority(node.id) <= priority(c.node(parent).id),
                    "heap order broken"
                );
            }
            assert_eq!(c.slot_of(node.id), Some(n), "id map broken");
            let (lt, lv) = subtree(c, node.left, n);
            let (rt, rv) = subtree(c, node.right, n);
            assert_eq!(node.visible, !c.info_at(n).deleted, "flag halves disagree");
            let visible = node.visible as usize;
            assert_eq!(node.total as usize, lt + rt + 1, "total size broken");
            assert_eq!(
                node.visible_count as usize,
                lv + rv + visible,
                "visible size broken"
            );
            (lt + rt + 1, lv + rv + visible)
        }
        let (total, _) = subtree(self, self.root, NIL);
        assert_eq!(total, self.nodes.len(), "a slot is outside the tree");
        assert_eq!(self.infos.len(), self.nodes.len(), "slot parts disagree");
        assert_eq!(self.succ.len(), self.nodes.len(), "slot parts disagree");
        let mut tree = Vec::with_capacity(total);
        self.in_order(|s, _| tree.push(s));
        let mut chain = Vec::with_capacity(total);
        self.walk(|s, _| {
            assert!(chain.len() < total, "the successors loop");
            chain.push(s)
        });
        assert_eq!(chain, tree, "the successors leave the tree's order");
        assert_eq!(self.map.len(), self.nodes.len(), "map and slots disagree");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DocId, StyleId, UserId};
    use proptest::prelude::*;

    fn ids(v: &[u64]) -> Vec<CharId> {
        v.iter().map(|&x| CharId(x)).collect()
    }

    /// The info of a character that is `visible` or not; the rest blank.
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

    fn chars(items: &[(u64, bool)]) -> Vec<(CharId, CharInfo)> {
        items.iter().map(|&(id, v)| (CharId(id), info(v))).collect()
    }

    #[test]
    fn build_and_iterate() {
        let c = Chain::build(chars(&[(1, true), (2, false), (3, true)])).unwrap();
        assert_eq!(c.total_len(), 3);
        assert_eq!(c.visible_len(), 2);
        assert_eq!(c.iter_total(), ids(&[1, 2, 3]));
        assert_eq!(c.iter_visible(), ids(&[1, 3]));
        c.check_invariants();
    }

    #[test]
    fn insert_at_head_and_after() {
        let mut c = Chain::new();
        c.insert_after(None, CharId(10), info(true)).unwrap();
        c.insert_after(None, CharId(20), info(true)).unwrap(); // new head
        c.insert_after(Some(CharId(10)), CharId(30), info(true))
            .unwrap();
        assert_eq!(c.iter_total(), ids(&[20, 10, 30]));
        c.check_invariants();
    }

    #[test]
    fn visible_position_mapping_skips_tombstones() {
        let c = Chain::build(chars(&[
            (1, true),
            (2, false),
            (3, true),
            (4, false),
            (5, true),
        ]))
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
        let c = Chain::build(chars(&[
            (1, true),
            (2, false),
            (3, true),
            (4, false),
            (5, true),
        ]))
        .unwrap();
        assert_eq!(c.visible_count_through(0), 1); // through id 1
        assert_eq!(c.visible_count_through(1), 1); // tombstone adds nothing
        assert_eq!(c.visible_count_through(2), 2);
        assert_eq!(c.visible_count_through(3), 2);
        assert_eq!(c.visible_count_through(4), 3);
        // Agreement with a naive count for a larger randomized chain.
        let items: Vec<(u64, bool)> = (1..=200u64).map(|i| (i, i % 3 != 0)).collect();
        let c = Chain::build(chars(&items)).unwrap();
        for k in 0..items.len() {
            let naive = items[..=k].iter().filter(|(_, v)| *v).count();
            assert_eq!(c.visible_count_through(k), naive, "at rank {k}");
        }
    }

    #[test]
    fn set_visible_toggles_and_reports_previous() {
        let mut c = Chain::build(chars(&[(1, true), (2, true)])).unwrap();
        assert_eq!(c.set_visible(CharId(1), false), Some(true));
        assert!(c.info(CharId(1)).unwrap().deleted, "the flag is the info's");
        assert_eq!(c.visible_len(), 1);
        assert_eq!(c.id_at_visible(0), Some(CharId(2)));
        assert_eq!(c.set_visible(CharId(1), false), Some(false)); // idempotent
        assert_eq!(c.set_visible(CharId(1), true), Some(false));
        assert!(!c.info(CharId(1)).unwrap().deleted);
        assert_eq!(c.visible_len(), 2);
        assert_eq!(c.set_visible(CharId(99), true), None);
        c.check_invariants();
    }

    #[test]
    fn visible_range_extraction() {
        let c = Chain::build(chars(&[(1, true), (2, false), (3, true), (4, true)])).unwrap();
        let range = |pos, len| -> Vec<CharId> {
            let slots = c.visible_slots(pos, len);
            slots.into_iter().map(|s| c.id_at(s)).collect()
        };
        assert_eq!(range(1, 2), ids(&[3, 4]));
        assert_eq!(range(2, 5), ids(&[4])); // clamped at end
        assert!(range(9, 2).is_empty());
    }

    /// Regression (stale-anchor panic): incoherent edits must surface as
    /// recoverable errors, not process aborts — a shared collab server
    /// would otherwise lose every session to one stale cache.
    #[test]
    fn duplicate_insert_is_an_error_not_a_panic() {
        let mut c = Chain::new();
        c.insert_after(None, CharId(1), info(true)).unwrap();
        assert_eq!(
            c.insert_after(None, CharId(1), info(true)),
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
            c.insert_after(Some(CharId(42)), CharId(1), info(true)),
            Err(ChainError::UnknownAnchor(CharId(42)))
        );
        c.check_invariants();
        assert!(c.is_empty());
        // The rejected id was never registered; inserting it properly works.
        c.insert_after(None, CharId(1), info(true)).unwrap();
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
            c.insert_after(last, CharId(i), info(true)).unwrap();
            last = Some(CharId(i));
        }
        assert_eq!(c.visible_len(), n as usize);
        assert_eq!(c.id_at_visible(0), Some(CharId(1)));
        assert_eq!(c.id_at_visible((n - 1) as usize), Some(CharId(n)));
        assert_eq!(c.visible_rank(CharId(5000)), Some(4999));
    }

    /// Characters placed out of chain order are linked along their
    /// successors; a walk that loops or stops short is refused.
    #[test]
    fn placed_characters_link_in_chain_order() {
        // Slots 0..5 hold ids 10..15; the chain is 12, 10, 14, 11, 13.
        let next = [Some(4), Some(3), Some(0), None, Some(1)];
        let mut c = Chain::with_capacity(5);
        for (s, n) in next.into_iter().enumerate() {
            assert_eq!(c.place(CharId(10 + s as u64), info(s != 4)), Ok(s as u32));
            if let Some(n) = n {
                c.set_next(s as u32, n);
            }
        }
        c.link(Some(2)).unwrap();
        c.check_invariants();
        assert_eq!(c.iter_total(), ids(&[12, 10, 14, 11, 13]));
        assert_eq!(c.iter_visible(), ids(&[12, 10, 11, 13]));
        // Inserts after a load link into the loaded successors.
        c.insert_after(Some(CharId(11)), CharId(20), info(true))
            .unwrap();
        c.insert_after(Some(CharId(13)), CharId(21), info(true))
            .unwrap();
        c.check_invariants();
        assert_eq!(c.iter_total(), ids(&[12, 10, 14, 11, 20, 13, 21]));

        let mut looped = Chain::new();
        for (s, n) in [(0, 1), (1, 0)] {
            looped.place(CharId(s as u64 + 1), info(true)).unwrap();
            looped.set_next(s, n);
        }
        assert_eq!(looped.link(Some(0)), Err(LinkError::Cycle));

        let mut short = Chain::new();
        short.place(CharId(1), info(true)).unwrap();
        short.place(CharId(2), info(true)).unwrap();
        assert_eq!(short.link(Some(1)), Err(LinkError::Reached(1)));
        assert_eq!(Chain::new().link(None), Ok(()));
    }

    /// Inserts at the head and after the last character move the head
    /// and extend the tail of the successor links, on an empty chain and
    /// on a loaded one.
    #[test]
    fn inserts_at_head_and_tail_follow_the_successors() {
        for loaded in [vec![], vec![(1, true), (2, false), (3, true)]] {
            let mut c = Chain::build(chars(&loaded)).unwrap();
            let mut expect: Vec<u64> = loaded.iter().map(|&(id, _)| id).collect();
            for i in 0..20u64 {
                let id = 100 + i;
                if i % 2 == 0 {
                    c.insert_after(None, CharId(id), info(i % 3 != 0)).unwrap();
                    expect.insert(0, id);
                } else {
                    let last = expect.last().map(|&l| CharId(l));
                    c.insert_after(last, CharId(id), info(true)).unwrap();
                    expect.push(id);
                }
                c.check_invariants();
                assert_eq!(c.iter_total(), ids(&expect));
                let head = c.next_slot(None).map(|s| c.id_at(s));
                assert_eq!(head, Some(CharId(expect[0])));
                let tail = c.slot_of(CharId(*expect.last().unwrap())).unwrap();
                assert_eq!(c.next_slot(Some(tail)), None);
            }
        }
    }

    /// A built chain fills its block; inserts after it open pages, and
    /// every slot keeps its character across both.
    #[test]
    fn slots_outlive_the_block_and_the_pages() {
        let items: Vec<(u64, bool)> = (1..=300).map(|i| (i, i % 5 != 0)).collect();
        let mut c = Chain::build(chars(&items)).unwrap();
        assert_eq!((c.nodes.block.len(), c.nodes.pages.len()), (300, 0));
        let first = c.slot_of(CharId(1)).unwrap();
        for i in 0..600u64 {
            let rank = i as usize * 7 % (c.total_len() + 1);
            let prev = rank.checked_sub(1).map(|r| {
                let id = c.id_at_total(r).unwrap();
                c.slot_of(id).unwrap()
            });
            let s = c.insert_at(prev, CharId(1_000 + i), info(i % 3 != 0));
            assert_eq!(c.id_at(s.unwrap()), CharId(1_000 + i));
        }
        assert_eq!((c.nodes.block.len(), c.nodes.pages.len()), (300, 3));
        assert_eq!(c.slot_of(CharId(1)), Some(first));
        assert_eq!(c.total_len(), 900);
        c.check_invariants();
        for (id, i) in c.iter_total().into_iter().zip(0..) {
            assert_eq!(c.total_rank(id), Some(i));
        }
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

    /// Where a shape-oracle insert goes.
    #[derive(Debug, Clone)]
    enum Place {
        Head,
        /// After the character at this total rank (modulo the length).
        Middle(usize),
        Tail,
    }

    #[derive(Debug, Clone)]
    enum ShapeOp {
        /// A run of characters typed one after another, each after the
        /// slot of the one before, as an edit's fold links them; each
        /// visible or not.
        Insert(Place, Vec<bool>),
        ToggleAtRank(usize),
    }

    fn arb_shape_op() -> impl Strategy<Value = ShapeOp> {
        let place = prop_oneof![
            Just(Place::Head),
            any::<usize>().prop_map(Place::Middle),
            Just(Place::Tail),
        ];
        prop_oneof![
            3 => (place, proptest::collection::vec((0u8..5).prop_map(|x| x != 0), 1..6))
                .prop_map(|(at, run)| ShapeOp::Insert(at, run)),
            1 => any::<usize>().prop_map(ShapeOp::ToggleAtRank),
        ]
    }

    /// `c` is node for node the tree a build links over its sequence, and
    /// a sound treap.
    fn same_tree_as_a_build(c: &Chain) -> Result<(), TestCaseError> {
        c.check_invariants();
        let mut items = Vec::with_capacity(c.total_len());
        c.for_each(|id, info| items.push((id, info.clone())));
        prop_assert_eq!(c.shape(), Chain::build(items).unwrap().shape());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The shape oracle: inserts at the head, in the middle and at
        /// the tail, runs typed in a row and visibility toggles leave,
        /// after every step, the same root, and per character the same
        /// children and counts, as a build over the same sequence.
        #[test]
        fn inserts_keep_the_tree_a_build_links(
            loaded in proptest::collection::vec(any::<bool>(), 0..60),
            script in proptest::collection::vec(arb_shape_op(), 1..80),
        ) {
            let items: Vec<(u64, bool)> = (1..).zip(loaded).collect();
            let mut c = Chain::build(chars(&items)).unwrap();
            same_tree_as_a_build(&c)?;
            let mut next_id = 1_000u64;
            for op in script {
                match op {
                    ShapeOp::Insert(at, run) => {
                        let n = c.total_len();
                        let mut prev = match at {
                            Place::Head => None,
                            Place::Middle(r) if n > 0 => c.id_at_total(r % n).and_then(|id| c.slot_of(id)),
                            Place::Middle(_) => None,
                            Place::Tail => c.id_at_total(n.wrapping_sub(1)).and_then(|id| c.slot_of(id)),
                        };
                        for visible in run {
                            prev = Some(c.insert_at(prev, CharId(next_id), info(visible)).unwrap());
                            next_id += 1;
                        }
                    }
                    ShapeOp::ToggleAtRank(r) => {
                        if let Some(id) = c.id_at_total(r % c.total_len().max(1)) {
                            c.set_visible(id, !c.is_visible(id).unwrap());
                        }
                    }
                }
                same_tree_as_a_build(&c)?;
            }
        }

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
            let items: Vec<(u64, bool)> =
                items.into_iter().filter(|(id, _)| seen.insert(*id)).collect();

            let mut bulk = Chain::build(chars(&items)).unwrap();
            let mut stepwise = Chain::new();
            let mut last = None;
            for (id, i) in chars(&items) {
                stepwise.insert_after(last, id, i).unwrap();
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
                            chain.insert_after(anchor, CharId(next_id), info(true)).unwrap();
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

        /// A load places the rows in storage order, which is not chain
        /// order: linked along their successors, they read back in chain
        /// order, and inserts after the load keep the links.
        #[test]
        fn shuffled_placement_links_in_chain_order(
            visible in proptest::collection::vec(any::<bool>(), 1..200),
            keys in proptest::collection::vec(any::<u64>(), 200),
            anchors in proptest::collection::vec(any::<usize>(), 0..20),
        ) {
            // Chain position p holds id p + 1; storage order sorts the
            // positions by an arbitrary key.
            let n = visible.len();
            let mut stored: Vec<usize> = (0..n).collect();
            stored.sort_by_key(|&p| keys[p]);
            let mut slot_of_pos = vec![0u32; n];
            let mut c = Chain::with_capacity(n);
            for &p in &stored {
                slot_of_pos[p] = c.place(CharId(p as u64 + 1), info(visible[p])).unwrap();
            }
            for p in 1..n {
                c.set_next(slot_of_pos[p - 1], slot_of_pos[p]);
            }
            c.link(Some(slot_of_pos[0])).unwrap();
            c.check_invariants();
            let mut expect: Vec<u64> = (1..=n as u64).collect();
            prop_assert_eq!(c.iter_total(), ids(&expect));

            for (i, a) in anchors.into_iter().enumerate() {
                let at = a % (expect.len() + 1);
                let anchor = at.checked_sub(1).map(|p| CharId(expect[p]));
                let id = 10_000 + i as u64;
                c.insert_after(anchor, CharId(id), info(true)).unwrap();
                expect.insert(at, id);
            }
            c.check_invariants();
            prop_assert_eq!(c.iter_total(), ids(&expect));
        }

        /// A repeated id is refused, wherever it sits.
        #[test]
        fn bulk_build_rejects_duplicates(n in 2usize..50, at in any::<usize>(), of in any::<usize>()) {
            let mut items: Vec<(u64, bool)> = (1..=n as u64).map(|i| (i, true)).collect();
            let (at, of) = (at % n, of % n);
            if at != of {
                items[at].0 = items[of].0;
                prop_assert_eq!(
                    Chain::build(chars(&items)).err(),
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
                            chain.insert_after(None, id, info(true)).unwrap();
                            model.insert(0, (id, true));
                        } else {
                            let r = r % (model.len() + 1);
                            let anchor = if r == 0 { None } else { Some(model[r - 1].0) };
                            chain.insert_after(anchor, id, info(true)).unwrap();
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
            for (id, visible) in &model {
                prop_assert_eq!(chain.info(*id).map(|i| i.deleted), Some(!visible));
            }
        }
    }
}
