//! Open documents: the `DocHandle`.
//!
//! A `DocHandle` is what an editor client holds for an open document. It
//! caches the character chain — one [`Chain`], whose treap nodes hold
//! each character's [`CharInfo`], found by id through the chain's one
//! hash map — and funnels every edit through database transactions. An
//! edit resolves a position to a chain slot and reads and writes the
//! character there; a snapshot is an in-order walk over the slots. The
//! cache only ever contains *committed* state: each editing call commits
//! synchronously, and remote editors' committed operations are applied
//! through [`DocHandle::apply_remote`] (fed by the collaboration bus) or
//! by a full [`DocHandle::refresh`].

use tendax_storage::{Row, SharedRow, Transaction, Value};

use crate::chain::{Chain, ChainError, LinkError};
use crate::error::{Result, TextError};
use crate::ids::{CharId, DocId, StyleId, UserId};
use crate::ops::Effect;
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
/// `prev` and `next` links and its cached metadata. (A loop over
/// `iter()`, not `cols([..])` of eleven positions, which measured twice
/// as slow here.)
fn decode_char_row(row: &SharedRow) -> (CharId, CharId, CharInfo) {
    let (mut prev, mut next) = (CharId::NONE, CharId::NONE);
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
            1 => prev = CharId::from_value(v),
            2 => next = CharId::from_value(v),
            3 => {
                info.ch = v
                    .as_text()
                    .and_then(|s| s.chars().next())
                    .unwrap_or(info.ch)
            }
            4 => info.author = UserId::from_value(v),
            5 => info.created_at = v.as_timestamp().unwrap_or(0),
            6 => info.version = v.as_int().unwrap_or(0),
            7 => info.deleted = v.as_bool().unwrap_or(false),
            10 => info.style = StyleId::from_value(v),
            11 => info.src_doc = DocId::from_value(v),
            12 => info.src_char = CharId::from_value(v),
            13 => info.external_src = v.as_text().map(str::to_owned),
            _ => {}
        }
    }
    (prev, next, info)
}

impl TextDb {
    /// Open `doc` as `user`: checks [`Permission::Read`], builds the
    /// position index from the stored character chain and records a read
    /// event (metadata for dynamic folders / ranking).
    pub fn open(&self, doc: DocId, user: UserId) -> Result<DocHandle> {
        self.check_permission(doc, user, Permission::Read)?;
        let handle = self.load(doc, user)?;
        // Read event in its own transaction: opening is itself an action
        // that generates creation-process metadata.
        let mut txn = self.database().begin();
        self.insert_read(&mut txn, doc, user)?;
        txn.commit()?;
        Ok(handle)
    }

    /// The half of [`TextDb::open`] a reader pays who is shown a copy
    /// that is already loaded (a server's live document): the
    /// [`Permission::Read`] check and the read event, in one transaction,
    /// and no chain walk.
    pub fn record_read(&self, doc: DocId, user: UserId) -> Result<()> {
        let mut txn = self.database().begin();
        self.check_permission_txn(&txn, doc, user, Permission::Read)?;
        self.insert_read(&mut txn, doc, user)?;
        txn.commit()?;
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
        // into the chain slot it keeps, with the slot of its successor.
        // That is the next row for a typing run and found by binary search
        // otherwise. Then one walk from the head links the slots in chain
        // order. No second copy of any character's info is made.
        let mut chain = Chain::with_capacity(rows.len());
        let mut head: Option<u32> = None;
        let corrupt =
            |e: ChainError| TextError::ChainCorrupt(format!("rebuilding {}: {e}", self.doc));
        for (at, (rid, row)) in rows.iter().enumerate() {
            let id = CharId::from_row(*rid);
            let (prev, next, info) = decode_char_row(row);
            let s = chain.place(id, info).map_err(corrupt)?;
            if prev.is_none() {
                if let Some(h) = head {
                    return Err(TextError::ChainCorrupt(format!(
                        "two chain heads in {}: {} and {id}",
                        self.doc,
                        CharId::from_row(rows[h as usize].0)
                    )));
                }
                head = Some(s);
            }
            if !next.is_none() {
                let succ = match rows.get(at + 1) {
                    Some((r, _)) if r.0 == next.0 => at + 1,
                    _ => rows
                        .binary_search_by_key(&next.0, |(r, _)| r.0)
                        .map_err(|_| {
                            TextError::ChainCorrupt(format!("dangling next pointer to {next}"))
                        })?,
                };
                chain.set_next(s, succ as u32);
            }
        }
        chain.link(head).map_err(|e| {
            TextError::ChainCorrupt(match e {
                LinkError::Cycle => format!("cycle in character chain of {}", self.doc),
                LinkError::Reached(reached) => format!(
                    "chain walk reached {reached} of {} characters in {}",
                    rows.len(),
                    self.doc
                ),
            })
        })?;
        self.chain = chain;
        self.synced_ts = txn.snapshot_ts();
        Ok(())
    }

    /// Whether `effects` can be applied against the current cache: every
    /// insert anchor and every touched character must already be known
    /// (or be created earlier in the same effect list). Publishing
    /// happens after commit outside the commit lock, so a fast editor
    /// can broadcast an operation that *depends* on a slightly older,
    /// not-yet-delivered one — callers hold such events back until their
    /// dependencies arrive.
    ///
    /// An id introduced earlier in the list is looked for among the
    /// list's own earlier inserts, from the back: a typed run names the
    /// insert just before it. Nothing is allocated.
    pub fn effects_applicable(&self, effects: &[Effect]) -> bool {
        effects.iter().enumerate().all(|(i, e)| {
            let known = |id: &CharId| {
                self.chain.contains(*id)
                    || effects[..i]
                        .iter()
                        .rev()
                        .any(|e| matches!(e, Effect::Insert { char, .. } if char == id))
            };
            match e {
                Effect::Insert { prev, .. } => prev.as_ref().is_none_or(known),
                Effect::Delete { char, .. }
                | Effect::Undelete { char }
                | Effect::SetStyle { char, .. } => known(char),
            }
        })
    }

    /// Apply a remote editor's committed effects to the local cache.
    ///
    /// The application is idempotent, so redelivery (including echo of
    /// this handle's own operations) is harmless. Callers must ensure
    /// [`DocHandle::effects_applicable`] (holding back out-of-order
    /// deliveries).
    ///
    /// Returns [`TextError::StaleCache`] if an insert anchor turns out
    /// to be missing anyway — the cache has drifted from the database
    /// and the caller should refresh (which supersedes the effects) and
    /// retry. Nothing has been committed on this path, so the retry is
    /// safe.
    pub fn apply_remote(&mut self, effects: &[Effect]) -> Result<()> {
        for e in effects {
            match e {
                Effect::Insert {
                    char,
                    prev,
                    ch,
                    author,
                    ts,
                    style,
                    src_doc,
                    src_char,
                    external,
                } => {
                    let info = CharInfo {
                        ch: *ch,
                        deleted: false,
                        style: *style,
                        author: *author,
                        created_at: *ts,
                        version: 0,
                        src_doc: *src_doc,
                        src_char: *src_char,
                        external_src: external.clone(),
                    };
                    match self.chain.insert_after(*prev, *char, info) {
                        // A known id is the echo of our own op or a
                        // redelivery.
                        Ok(_) | Err(ChainError::DuplicateId(_)) => {}
                        // Even with `effects_applicable` vetting, a remote
                        // stream can outrun this cache (a peer's incoherent
                        // republish): treat a bad anchor as a recoverable
                        // stale cache, never a crash.
                        Err(ChainError::UnknownAnchor(_)) => {
                            return Err(TextError::StaleCache(self.doc))
                        }
                    }
                }
                Effect::Delete { char, .. } | Effect::Undelete { char } => {
                    if let Some(s) = self.chain.slot_of(*char) {
                        self.fold_flag(s, matches!(e, Effect::Delete { .. }));
                    }
                }
                Effect::SetStyle { char, new, .. } => {
                    if let Some(s) = self.chain.slot_of(*char) {
                        self.fold_style(s, *new);
                    }
                }
            }
        }
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

    /// A remote insert anchored on a character this handle has never
    /// seen (what `effects_applicable` would have held back) is refused by
    /// the chain as a retryable `StaleCache`, never a panic, and the
    /// handle still refreshes and edits.
    #[test]
    fn an_incoherent_remote_event_is_a_stale_cache() {
        let (tdb, user, doc) = setup();
        let mut h = tdb.open(doc, user).unwrap();
        h.insert_text(0, "solid").unwrap();
        let forged = [Effect::Insert {
            char: CharId(u64::MAX - 1),
            prev: Some(CharId(u64::MAX - 2)),
            ch: '!',
            author: user,
            ts: 0,
            style: StyleId::NONE,
            src_doc: doc,
            src_char: CharId::NONE,
            external: None,
        }];
        assert!(!h.effects_applicable(&forged));
        let err = h.apply_remote(&forged).unwrap_err();
        assert_eq!(err, TextError::StaleCache(doc));
        assert!(err.is_retryable());
        assert_eq!(h.text(), "solid");
        h.refresh().unwrap();
        h.insert_text(5, "!").unwrap();
        assert_eq!(h.text(), "solid!");
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

    /// A chain the stored links do not describe is a typed error from the
    /// rebuild, whichever way it is broken — never a panic, a hang or a
    /// silently shorter document.
    #[test]
    fn corrupt_chains_are_typed_errors() {
        // In "abcd": the character whose link to break, the link, what to
        // point it at, and the complaint that must name the damage.
        type Target = fn(&DocHandle) -> CharId;
        let cases: [(usize, &str, Target, &str); 4] = [
            (2, "prev", |_| CharId::NONE, "two chain heads"),
            (1, "next", |_| CharId(9_999), "dangling next pointer"),
            (
                3,
                "next",
                |h| h.char_at(1).unwrap(),
                "cycle in character chain",
            ),
            (1, "next", |_| CharId::NONE, "chain walk reached 2 of 4"),
        ];
        for (at, column, target, complaint) in cases {
            let (tdb, user, doc) = setup();
            let mut h = tdb.open(doc, user).unwrap();
            h.insert_text(0, "abcd").unwrap();
            let mut txn = tdb.database().begin();
            txn.set(
                tdb.tables().chars,
                h.char_at(at).unwrap().row(),
                &[(column, target(&h).opt_value())],
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
