//! Open documents: the `DocHandle`.
//!
//! A `DocHandle` is what an editor client holds for an open document. It
//! caches the character chain — one [`Chain`], whose treap nodes hold
//! each character's [`CharInfo`], found by id through the chain's one
//! hash map — and funnels every edit through database transactions. An
//! edit resolves a position to a chain slot and reads and writes the
//! character there; a snapshot is an in-order walk over the slots. The
//! cache only ever contains *committed* state: each editing call commits
//! synchronously and folds its own writes into the chain, and other
//! handles' commits reach it only through a full [`DocHandle::refresh`]
//! (the editors of a live document share one handle, and a network
//! client applies events to a mirror of its own).

use tendax_storage::{Row, RowId, SharedRow, Transaction, Ts, Value};

use crate::chain::Chain;
use crate::error::{Result, TextError};
use crate::ids::{CharId, DocId, StyleId, UserId};
use crate::security::Permission;
use crate::textdb::TextDb;

/// Cached per-character state (mirror of the `chars` row), held in the
/// character's [`Chain`] slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharInfo {
    pub ch: char,
    pub deleted: bool,
    pub style: StyleId,
    pub author: UserId,
    pub created_at: i64,
    pub version: i64,
    pub src_doc: DocId,
    pub src_char: CharId,
    pub external_src: Option<String>,
}

/// An open document bound to a user.
#[derive(Debug)]
pub struct DocHandle {
    pub(crate) tdb: TextDb,
    pub(crate) doc: DocId,
    pub(crate) user: UserId,
    pub(crate) chain: Chain,
    /// Snapshot (commit) timestamp of the last full rebuild: everything
    /// committed at or before this is reflected in the cache.
    pub(crate) synced_ts: tendax_storage::Ts,
}

/// Decode a `chars` row in one walk over its columns: the character's
/// anchor and its cached metadata. (A loop over `iter()`, not `cols([..])`
/// of ten positions, which measured twice as slow here.)
fn decode_char_row(row: &SharedRow) -> (CharId, CharInfo) {
    let mut anchor = CharId::NONE;
    let mut info = CharInfo {
        ch: '\u{FFFD}',
        author: UserId::NONE,
        created_at: 0,
        version: 0,
        deleted: false,
        style: StyleId::NONE,
        src_doc: DocId::NONE,
        src_char: CharId::NONE,
        external_src: None,
    };
    for (pos, v) in row.iter().enumerate() {
        match pos {
            1 => anchor = CharId::from_value(v),
            2 => {
                info.ch = v
                    .as_text()
                    .and_then(|s| s.chars().next())
                    .unwrap_or(info.ch)
            }
            3 => info.author = UserId::from_value(v),
            4 => info.created_at = v.as_timestamp().unwrap_or(0),
            5 => info.version = v.as_int().unwrap_or(0),
            6 => info.deleted = v.as_bool().unwrap_or(false),
            9 => info.style = StyleId::from_value(v),
            10 => info.src_doc = DocId::from_value(v),
            11 => info.src_char = CharId::from_value(v),
            12 => info.external_src = v.as_text().map(str::to_owned),
            _ => {}
        }
    }
    (anchor, info)
}

/// No row: an absent child or sibling.
const NIL: u32 = u32::MAX;

/// The tree a document's anchors make, over its `chars` rows in id order
/// (the order the `chars_by_doc` lookup returns them in), and the one
/// place that knows the document order it fixes: the preorder walk, each
/// character's children newest (highest id) first. That is where every
/// insert lands — right after its anchor, in front of what was there —
/// and what the client mirror's RGA rule reaches (DESIGN.md §5.7). A load
/// and a purge both order rows by it.
///
/// Two `u32`s a row: its newest child and its next older sibling, plus
/// one child list for the document head. No allocation per row.
pub(crate) struct AnchorTree {
    /// Newest child of each row; the last entry is the head's.
    child: Vec<u32>,
    /// Next older sibling of each row.
    sibling: Vec<u32>,
}

impl AnchorTree {
    pub(crate) fn with_capacity(rows: usize) -> Self {
        let mut child = Vec::with_capacity(rows + 1);
        child.resize(rows + 1, NIL);
        AnchorTree {
            child,
            sibling: Vec::with_capacity(rows),
        }
    }

    /// Hang row `at` of `rows` — the next one, in id order — under its
    /// `anchor`, in front of the children hung before it. The anchor is
    /// found among `rows` (most often the row just before: a typed run),
    /// wherever it sits: a purge may anchor a row on a newer one. An
    /// anchor that is not a row of the document is returned as the error.
    pub(crate) fn hang(
        &mut self,
        rows: &[(RowId, SharedRow)],
        at: usize,
        anchor: CharId,
    ) -> std::result::Result<(), CharId> {
        debug_assert_eq!(at, self.sibling.len(), "rows are hung in order");
        let parent = if anchor.is_none() {
            rows.len()
        } else {
            match at.checked_sub(1).map(|p| (p, rows[p].0 .0)) {
                Some((p, id)) if id == anchor.0 => p,
                _ => (rows.binary_search_by_key(&anchor.0, |(r, _)| r.0)).map_err(|_| anchor)?,
            }
        };
        self.sibling.push(self.child[parent]);
        self.child[parent] = at as u32;
        Ok(())
    }

    /// Visit the rows in document order; returns how many were reached.
    /// A row the walk cannot reach sits on an anchor cycle: every other
    /// row's anchors lead to the head.
    pub(crate) fn walk(&self, mut visit: impl FnMut(u32)) -> usize {
        // Older siblings still to visit, innermost last: a typed run is
        // a path and leaves this empty.
        let mut pending = Vec::new();
        let mut reached = 0;
        let mut cur = self.child[self.sibling.len()];
        loop {
            if cur == NIL {
                match pending.pop() {
                    Some(s) => cur = s,
                    None => return reached,
                }
            }
            visit(cur);
            reached += 1;
            let i = cur as usize;
            if self.sibling[i] != NIL {
                pending.push(self.sibling[i]);
            }
            cur = self.child[i];
        }
    }
}

impl TextDb {
    /// Open `doc` as `user`: [`TextDb::record_read`], then
    /// [`TextDb::load`]. The read is recorded before the chain walk, so
    /// an open refused for want of [`Permission::Read`] walks nothing,
    /// and a load that fails after it leaves its read event committed.
    pub fn open(&self, doc: DocId, user: UserId) -> Result<DocHandle> {
        self.record_read(doc, user)?;
        self.load(doc, user)
    }

    /// Check [`Permission::Read`] and record a read event (metadata for
    /// "read by" folders and ranking), in one transaction: every open's
    /// account of its reader, and all a reader pays who is shown a copy
    /// already loaded (a server's live document). The only writer of
    /// `reads` rows.
    ///
    /// The event commits visible and does not wait for the disk
    /// ([`Durability::with_next_flush`](tendax_storage::Durability::with_next_flush)):
    /// the next flush writes it, and nobody is told it is durable. A
    /// power cut at `Fsync`, or a process crash at `Buffered`, can lose
    /// read events committed since the last flush, never an edit. A
    /// poisoned log still refuses the commit.
    pub fn record_read(&self, doc: DocId, user: UserId) -> Result<()> {
        let mut txn = self.database().begin();
        self.check_permission_txn(&txn, doc, user, Permission::Read)?;
        self.insert_read(&mut txn, doc, user)?;
        let (_, durability) = txn.commit_visible()?;
        durability.with_next_flush();
        Ok(())
    }

    fn insert_read(&self, txn: &mut Transaction, doc: DocId, user: UserId) -> Result<()> {
        txn.insert(
            self.tables().reads,
            Row::new(vec![
                doc.value(),
                user.value(),
                Value::Timestamp(self.now()),
            ]),
        )?;
        Ok(())
    }

    /// The visible text of `doc`, loaded without opening it: no permission
    /// check and no read event. This is how the metadata services
    /// (folders, search, mining) read content — they index on behalf of
    /// the system, and a service that recorded reads would rewrite the
    /// very metadata (`ReadBy` folders, reader lists, read counts) it is
    /// asked to evaluate.
    pub fn document_text(&self, doc: DocId) -> Result<String> {
        self.document_info(doc)?; // an unknown document stays a typed error
        Ok(self.load(doc, UserId::NONE)?.text())
    }

    /// A handle on `doc` with its cache built from the database; checks
    /// and records nothing. For callers that keep one copy on behalf of
    /// many readers and account for each reader themselves
    /// ([`TextDb::record_read`]).
    pub fn load(&self, doc: DocId, user: UserId) -> Result<DocHandle> {
        let mut handle = DocHandle {
            tdb: self.clone(),
            doc,
            user,
            chain: Chain::new(),
            synced_ts: 0,
        };
        handle.rebuild()?;
        Ok(handle)
    }
}

/// Where a metadata service reads a document's visible text: the
/// database, or a server's copies of the documents its editors hold
/// (`tendax-collab`'s live documents), which answer from memory what they
/// can and ask the database for the rest. A source checks no rights and
/// records no read, as [`TextDb::document_text`] does not.
pub trait TextSource: Send + Sync {
    /// The database the texts are of.
    fn textdb(&self) -> &TextDb;

    /// `doc`'s visible text and a snapshot `at` it holds at: every commit
    /// at or before `at` is in the text (a later one may be too).
    fn visible_text(&self, doc: DocId) -> Result<(String, Ts)>;
}

/// A source prints as its kind alone: a server's live documents would
/// print every copy they hold.
impl std::fmt::Debug for dyn TextSource + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TextSource")
    }
}

/// Loads the document from its rows.
impl TextSource for TextDb {
    fn textdb(&self) -> &TextDb {
        self
    }

    fn visible_text(&self, doc: DocId) -> Result<(String, Ts)> {
        // Every text read below is read at this snapshot or a later one.
        let at = self.database().last_commit_ts();
        Ok((self.document_text(doc)?, at))
    }
}

impl DocHandle {
    pub fn doc(&self) -> DocId {
        self.doc
    }

    pub fn user(&self) -> UserId {
        self.user
    }

    pub fn textdb(&self) -> &TextDb {
        &self.tdb
    }

    /// Visible document length in characters.
    pub fn len(&self) -> usize {
        self.chain.visible_len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The visible text.
    pub fn text(&self) -> String {
        let mut text = String::with_capacity(self.len());
        self.chain.for_each_visible(|_, info| text.push(info.ch));
        text
    }

    /// Visible text of `[pos, pos + len)` (clamped at document end).
    pub fn text_range(&self, pos: usize, len: usize) -> String {
        (self.chain.visible_slots(pos, len).into_iter())
            .map(|s| self.chain.info_at(s).ch)
            .collect()
    }

    /// The character id at visible position `pos`.
    pub fn char_at(&self, pos: usize) -> Option<CharId> {
        self.chain.id_at_visible(pos)
    }

    /// Cached info for a character (visible or tombstoned).
    pub fn char_info(&self, id: CharId) -> Option<&CharInfo> {
        self.chain.info(id)
    }

    /// Visible position of a character id.
    pub fn position_of(&self, id: CharId) -> Option<usize> {
        self.chain.visible_rank(id)
    }

    /// Caret position immediately after `anchor`, even if the anchor has
    /// been tombstoned by a remote delete — the primitive an editor uses
    /// to keep its cursor attached to the text it was typed next to.
    pub fn caret_after(&self, anchor: CharId) -> Option<usize> {
        let rank = self.chain.total_rank(anchor)?;
        Some(self.chain.visible_count_through(rank))
    }

    /// Total chain length including tombstones (exposed for mining).
    pub fn chain_len(&self) -> usize {
        self.chain.total_len()
    }

    /// Visit the full chain in order — tombstones included — with each
    /// character's cached info. This is what a wire snapshot is written
    /// from: a remote replica needs the tombstones too, because committed
    /// effects anchor on chain predecessors that may themselves be
    /// deleted, so a live-text-only snapshot could not replay them. The
    /// walk reads each character's slot; it looks nothing up.
    pub fn for_each_char(&self, f: impl FnMut(CharId, &CharInfo)) {
        self.chain.for_each(f);
    }

    /// Remote events with a commit at or below this are already
    /// reflected in the cache: the snapshot of the last full rebuild, or
    /// a later frontier the owner vouched for
    /// ([`DocHandle::advance_synced`]).
    pub fn synced_ts(&self) -> tendax_storage::Ts {
        self.synced_ts
    }

    /// Number of whitespace-separated words in the visible text.
    pub fn word_count(&self) -> usize {
        self.text().split_whitespace().count()
    }

    /// Visible position of the first occurrence of `needle` at or after
    /// `from`.
    pub fn find(&self, needle: &str, from: usize) -> Option<usize> {
        if needle.is_empty() {
            return Some(from.min(self.len()));
        }
        let chars: Vec<char> = self.text().chars().collect();
        let pat: Vec<char> = needle.chars().collect();
        if from + pat.len() > chars.len() {
            return None;
        }
        (from..=chars.len() - pat.len()).find(|&i| chars[i..i + pat.len()] == pat[..])
    }

    /// Edit as `user` from here on: a handle shared by several editors
    /// commits each operation in its author's name, so permission and
    /// range-protection checks, `author` columns and the operation log
    /// say who typed.
    pub fn act_as(&mut self, user: UserId) {
        self.user = user;
    }

    /// Declare everything committed at or before `ts` reflected in the
    /// cache. Only a caller that has applied every such commit itself
    /// may say so (see `tendax-collab`'s live documents); the handle
    /// cannot check it.
    pub fn advance_synced(&mut self, ts: tendax_storage::Ts) {
        self.synced_ts = self.synced_ts.max(ts);
    }

    /// Discard the cache and rebuild it from the database.
    pub fn refresh(&mut self) -> Result<()> {
        self.rebuild()
    }

    pub(crate) fn rebuild(&mut self) -> Result<()> {
        let t = self.tdb.tables();
        let txn = self.tdb.database().begin();
        let rows = txn.index_lookup(t.chars, "chars_by_doc", &[self.doc.value()])?;

        // One pass over the rows, in row order — character-id order, as
        // the index lookup returns it: each row is decoded once, straight
        // into the chain slot it keeps (slot = row index), and hung under
        // its anchor. Then the anchor tree's walk names each slot's
        // successor, and one walk from the head links the slots in chain
        // order. No second copy of any character's info is made.
        let mut chain = Chain::with_capacity(rows.len());
        let mut tree = AnchorTree::with_capacity(rows.len());
        let corrupt = |msg: String| TextError::ChainCorrupt(format!("{msg} in {}", self.doc));
        for (at, (rid, row)) in rows.iter().enumerate() {
            let id = CharId::from_row(*rid);
            let (anchor, info) = decode_char_row(row);
            chain
                .place(id, info)
                .map_err(|e| corrupt(format!("rebuilding: {e}")))?;
            tree.hang(&rows, at, anchor)
                .map_err(|a| corrupt(format!("dangling anchor {a} of {id}")))?;
        }
        let (mut head, mut last) = (None, None);
        let reached = tree.walk(|s| {
            match last {
                Some(p) => chain.set_next(p, s),
                None => head = Some(s),
            }
            last = Some(s);
        });
        if reached < rows.len() {
            return Err(corrupt(format!(
                "anchor cycle: the walk reached {reached} of {} characters",
                rows.len()
            )));
        }
        // The walk named each reached slot once: one path from the head.
        chain
            .link(head)
            .map_err(|e| corrupt(format!("linking the walk: {e:?}")))?;
        self.chain = chain;
        self.synced_ts = txn.snapshot_ts();
        Ok(())
    }

    // Every writer of a character's flags or style bumps the row's
    // `version` in the same write; the chain follows.

    /// Fold a committed write of the `deleted` flag of the character in
    /// slot `s` into the chain.
    pub(crate) fn fold_flag(&mut self, s: u32, deleted: bool) {
        self.chain.set_visible_at(s, !deleted);
        self.chain.info_at_mut(s).version += 1;
    }

    /// Fold a committed restyle of the character in slot `s`.
    pub(crate) fn fold_style(&mut self, s: u32, style: StyleId) {
        let info = self.chain.info_at_mut(s);
        info.style = style;
        info.version += 1;
    }

    /// Validate that `[pos, pos+len)` addresses visible characters.
    pub(crate) fn check_range(&self, pos: usize, len: usize) -> Result<()> {
        let doc_len = self.len();
        if pos + len > doc_len {
            return Err(TextError::InvalidPosition { pos, len, doc_len });
        }
        Ok(())
    }

    /// Begin a transaction on the underlying database.
    pub(crate) fn begin(&self) -> Transaction {
        self.tdb.database().begin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TextDb, UserId, DocId) {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        (tdb, user, doc)
    }

    #[test]
    fn open_empty_document() {
        let (tdb, user, doc) = setup();
        let h = tdb.open(doc, user).unwrap();
        assert_eq!(h.len(), 0);
        assert!(h.is_empty());
        assert_eq!(h.text(), "");
        assert_eq!(h.char_at(0), None);
    }

    #[test]
    fn open_records_read_event() {
        let (tdb, user, doc) = setup();
        let _h = tdb.open(doc, user).unwrap();
        let _h2 = tdb.open(doc, user).unwrap();
        let txn = tdb.database().begin();
        let reads = txn
            .scan(tdb.tables().reads, &tendax_storage::Predicate::True)
            .unwrap();
        assert_eq!(reads.len(), 2);
    }

    #[test]
    fn open_requires_read_permission() {
        let (tdb, alice, doc) = setup();
        let bob = tdb.create_user("bob").unwrap();
        tdb.set_access(
            doc,
            alice,
            crate::security::Principal::User(alice),
            Permission::Read,
            true,
        )
        .unwrap();
        assert!(matches!(
            tdb.open(doc, bob),
            Err(TextError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn find_and_word_count() {
        let (tdb, user, doc) = setup();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "the quick brown fox the end").unwrap();
        assert_eq!(h.word_count(), 6);
        assert_eq!(h.find("the", 0), Some(0));
        assert_eq!(h.find("the", 1), Some(20));
        assert_eq!(h.find("fox", 0), Some(16));
        assert_eq!(h.find("zebra", 0), None);
        assert_eq!(h.find("", 3), Some(3));
        assert_eq!(h.find("end", 25), None); // past the last match
    }

    /// Anchors that describe no document order are a typed error from
    /// the rebuild, whichever way they are broken — never a panic, a hang
    /// or a silently shorter document. (Two characters anchored on the
    /// head are no damage: they are siblings, the newer first.)
    #[test]
    fn corrupt_chains_are_typed_errors() {
        // In "abcd" (each character anchored on the one before): the
        // character whose anchor to rewrite, what to point it at, and the
        // complaint that must name the damage.
        type Target = fn(&DocHandle) -> CharId;
        let cases: [(usize, Target, &str); 3] = [
            (1, |_| CharId(9_999), "dangling anchor"),
            // b → d → c → b: three characters no walk from the head
            // reaches.
            (1, |h| h.char_at(3).unwrap(), "the walk reached 1 of 4"),
            (2, |h| h.char_at(2).unwrap(), "the walk reached 2 of 4"),
        ];
        for (at, target, complaint) in cases {
            let (tdb, user, doc) = setup();
            let mut h = tdb.open(doc, user).unwrap();
            h.insert_text(0, "abcd").unwrap();
            let mut txn = tdb.database().begin();
            txn.set(
                tdb.tables().chars,
                h.char_at(at).unwrap().row(),
                &[("anchor", target(&h).opt_value())],
            )
            .unwrap();
            txn.commit().unwrap();

            for outcome in [h.refresh(), tdb.open(doc, user).map(drop)] {
                match outcome {
                    Err(TextError::ChainCorrupt(msg)) => {
                        assert!(msg.contains(complaint), "{complaint}: got {msg:?}")
                    }
                    other => panic!("{complaint}: expected ChainCorrupt, got {other:?}"),
                }
            }
            // The failed rebuild left the handle's last good cache alone.
            assert_eq!(h.text(), "abcd");
        }
        // A second head is a sibling: "c" anchored on the head goes first.
        let (tdb, user, doc) = setup();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "abcd").unwrap();
        let mut txn = tdb.database().begin();
        let c = h.char_at(2).unwrap();
        txn.set(tdb.tables().chars, c.row(), &[("anchor", Value::Null)])
            .unwrap();
        txn.commit().unwrap();
        h.refresh().unwrap();
        assert_eq!(h.text(), "cdab");
    }

    /// Services read content without leaving a trace in the metadata.
    #[test]
    fn document_text_records_nothing() {
        let (tdb, user, doc) = setup();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "hello world").unwrap();
        h.delete_range(0, 6).unwrap();
        let commits = tdb.database().stats().commits;
        assert_eq!(tdb.document_text(doc).unwrap(), "world");
        assert_eq!(tdb.read_count(doc).unwrap(), 1);
        assert_eq!(tdb.database().stats().commits, commits);
        assert!(matches!(
            tdb.document_text(DocId(404)),
            Err(TextError::UnknownDocumentId(_))
        ));
    }

    #[test]
    fn check_range_rejects_out_of_bounds() {
        let (tdb, user, doc) = setup();
        let h = tdb.open(doc, user).unwrap();
        assert!(matches!(
            h.check_range(0, 1),
            Err(TextError::InvalidPosition { .. })
        ));
        assert!(h.check_range(0, 0).is_ok());
    }
}
