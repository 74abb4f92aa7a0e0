//! Editing operations as real-time database transactions.
//!
//! Every editor action — typing, deleting, pasting — is one ACID
//! transaction against the character tables. An insertion addresses a
//! *neighbour character id*, its anchor, not an integer offset, and
//! writes only its own new rows: concurrent inserts never touch a shared
//! row, so they commute — two at one spot both commit, the newer in front
//! (DESIGN.md §5.7). The commit depends on the anchor without writing it
//! (`TextDb::expect_anchor`): an anchor purged or changed since the
//! snapshot, or given another child since, fails the insert retryably.
//! This is the paper's substitute for OT/CRDT machinery: the DBMS
//! serializes everything.
//!
//! Each operation also writes one `oplog` row plus relational `op_effects`
//! rows, one per run of consecutive character ids (consumed by
//! undo/redo), and, for pastes, a `paste_events` row (consumed by data
//! lineage).

use tendax_storage::{Durability, RowId, Transaction, Ts, Value, ValueRef};

use crate::document::{CharInfo, DocHandle};
use crate::error::{Result, TextError};
use crate::ids::{CharId, DocId, OpId, StyleId, UserId};
use crate::security::{Access, Permission};
use crate::textdb::TextDb;

/// Operation kinds that undo treats as undoable edits.
pub const EDIT_KINDS: [&str; 8] = [
    "insert",
    "delete",
    "paste",
    "style",
    "structure",
    "note",
    "object",
    "restore",
];

/// A committed operation's observable effect, used for undo bookkeeping,
/// editor cache maintenance, and collaboration broadcast.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    Insert {
        char: CharId,
        /// The anchor: the chain predecessor at commit time (`None` =
        /// document head).
        prev: Option<CharId>,
        ch: char,
        author: UserId,
        ts: i64,
        style: StyleId,
        src_doc: DocId,
        src_char: CharId,
        external: Option<String>,
    },
    Delete {
        char: CharId,
        by: UserId,
        ts: i64,
    },
    Undelete {
        char: CharId,
    },
    SetStyle {
        char: CharId,
        old: StyleId,
        new: StyleId,
    },
}

/// Result of a successful editing transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct EditReceipt {
    pub op: OpId,
    pub commit_ts: Ts,
    pub effects: Vec<Effect>,
}

impl EditReceipt {
    fn empty() -> Self {
        EditReceipt {
            op: OpId::NONE,
            commit_ts: 0,
            effects: Vec::new(),
        }
    }
}

/// Wait for the disk — what an editing call does last, unless its caller
/// asked to do the waiting (the `*_visible` calls).
fn settled(done: Result<(EditReceipt, Durability)>) -> Result<EditReceipt> {
    let (receipt, durability) = done?;
    durability.wait()?;
    Ok(receipt)
}

/// A copied span: the source characters with their ids (provenance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clip {
    pub src_doc: DocId,
    pub chars: Vec<(CharId, char)>,
}

impl Clip {
    pub fn text(&self) -> String {
        self.chars.iter().map(|(_, c)| *c).collect()
    }

    pub fn len(&self) -> usize {
        self.chars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }
}

/// What a new character carries besides its glyph.
struct NewChar {
    ch: char,
    src_doc: DocId,
    src_char: CharId,
    external: Option<String>,
}

/// Where text inserted at a visible position goes in the chain.
pub(crate) struct Anchor {
    /// The slot it follows; `None` at the chain head.
    slot: Option<u32>,
    /// That slot's character: the new text's anchor.
    prev: Option<CharId>,
}

struct PasteEventInfo {
    src_doc: DocId,
    external: Option<String>,
    n_chars: usize,
}

/// Payload of an embedded object, written in the same transaction as its
/// anchor character.
pub(crate) struct ObjectPayload {
    pub kind: String,
    pub name: String,
    pub data: Vec<u8>,
}

impl DocHandle {
    // ------------------------------------------------------------- writing

    /// Type `text` at visible position `pos`.
    pub fn insert_text(&mut self, pos: usize, text: &str) -> Result<EditReceipt> {
        settled(self.insert_text_visible(pos, text))
    }

    /// [`DocHandle::insert_text`] up to the point where the commit is
    /// visible and folded into this handle's cache; the wait for the disk
    /// is handed back. A handle shared behind a lock types with this and
    /// waits once the lock is released, so the typists queued behind it
    /// share a group-commit flush (see `Transaction::commit_visible`).
    pub fn insert_text_visible(
        &mut self,
        pos: usize,
        text: &str,
    ) -> Result<(EditReceipt, Durability)> {
        let chars: Vec<NewChar> = text
            .chars()
            .map(|ch| NewChar {
                ch,
                src_doc: DocId::NONE,
                src_char: CharId::NONE,
                external: None,
            })
            .collect();
        self.insert_chars(pos, chars, "insert", None, None)
    }

    /// Copy `[pos, pos + len)` — reads the local committed cache, no
    /// transaction needed.
    pub fn copy(&self, pos: usize, len: usize) -> Result<Clip> {
        self.check_range(pos, len)?;
        let chars = (self.chain.visible_slots(pos, len).into_iter())
            .map(|s| (self.chain.id_at(s), self.chain.info_at(s).ch))
            .collect();
        Ok(Clip {
            src_doc: self.doc,
            chars,
        })
    }

    /// Paste a clip at `pos`, recording per-character provenance and a
    /// paste event (the raw material of data lineage, Fig. 1 of the
    /// paper).
    pub fn paste(&mut self, pos: usize, clip: &Clip) -> Result<EditReceipt> {
        let chars: Vec<NewChar> = clip
            .chars
            .iter()
            .map(|(src_char, ch)| NewChar {
                ch: *ch,
                src_doc: clip.src_doc,
                src_char: *src_char,
                external: None,
            })
            .collect();
        let n = chars.len();
        settled(self.insert_chars(
            pos,
            chars,
            "paste",
            Some(PasteEventInfo {
                src_doc: clip.src_doc,
                external: None,
                n_chars: n,
            }),
            None,
        ))
    }

    /// Paste text originating outside TeNDaX (another application, the
    /// web, …), tagged with its external source.
    pub fn paste_external(&mut self, pos: usize, text: &str, source: &str) -> Result<EditReceipt> {
        let chars: Vec<NewChar> = text
            .chars()
            .map(|ch| NewChar {
                ch,
                src_doc: DocId::NONE,
                src_char: CharId::NONE,
                external: Some(source.to_owned()),
            })
            .collect();
        let n = chars.len();
        settled(self.insert_chars(
            pos,
            chars,
            "paste",
            Some(PasteEventInfo {
                src_doc: DocId::NONE,
                external: Some(source.to_owned()),
                n_chars: n,
            }),
            None,
        ))
    }

    /// Delete `[pos, pos + len)`. Characters become tombstones: their
    /// metadata (author, lineage, undo state) survives deletion.
    pub fn delete_range(&mut self, pos: usize, len: usize) -> Result<EditReceipt> {
        settled(self.delete_range_visible(pos, len))
    }

    /// [`DocHandle::delete_range`] split like
    /// [`DocHandle::insert_text_visible`].
    pub fn delete_range_visible(
        &mut self,
        pos: usize,
        len: usize,
    ) -> Result<(EditReceipt, Durability)> {
        if len == 0 {
            return Ok((EditReceipt::empty(), Durability::none()));
        }
        self.check_range(pos, len)?;
        let slots = self.chain.visible_slots(pos, len);
        let ids: Vec<CharId> = slots.iter().map(|&s| self.chain.id_at(s)).collect();
        let t = *self.tdb.tables();
        let mut txn = self.begin();
        let access = self.tdb.access(&txn, self.doc, self.user)?;
        access.require(Permission::Write)?;
        self.check_protected(&access, Permission::Write, &ids, None)?;
        let ts = self.tdb.now();
        for (&s, id) in slots.iter().zip(&ids) {
            let version = self.chain.info_at(s).version + 1;
            txn.set(
                t.chars,
                id.row(),
                &[
                    ("deleted", Value::Bool(true)),
                    ("deleted_by", self.user.value()),
                    ("deleted_at", Value::Timestamp(ts)),
                    ("version", Value::Int(version)),
                ],
            )?;
        }
        let op = self.log_op(&mut txn, "delete", OpId::NONE, ts)?;
        self.tdb.log_effects(&mut txn, op, "del", &ids, &[], None)?;
        let (commit_ts, durability) = txn.commit_visible()?;

        let mut effects = Vec::with_capacity(ids.len());
        for (s, id) in slots.into_iter().zip(ids) {
            self.fold_flag(s, true);
            effects.push(Effect::Delete {
                char: id,
                by: self.user,
                ts,
            });
        }
        let receipt = EditReceipt {
            op,
            commit_ts,
            effects,
        };
        Ok((receipt, durability))
    }

    /// Atomically move `[pos, pos + len)` from this document into
    /// `dst` at `dst_pos` — delete, insert, provenance stamping and both
    /// operation-log entries commit in **one** transaction. A file-based
    /// editor cannot do this; a database-based one gets it for free
    /// (either both documents change or neither does).
    ///
    /// Returns `(delete_receipt, insert_receipt)` for the source and
    /// destination respectively.
    pub fn move_to(
        &mut self,
        pos: usize,
        len: usize,
        dst: &mut DocHandle,
        dst_pos: usize,
    ) -> Result<(EditReceipt, EditReceipt)> {
        if len == 0 {
            return Ok((EditReceipt::empty(), EditReceipt::empty()));
        }
        self.check_range(pos, len)?;
        if dst_pos > dst.len() {
            return Err(TextError::InvalidPosition {
                pos: dst_pos,
                len,
                doc_len: dst.len(),
            });
        }
        let src_slots = self.chain.visible_slots(pos, len);
        let src_ids: Vec<CharId> = src_slots.iter().map(|&s| self.chain.id_at(s)).collect();
        let t = *self.tdb.tables();

        let anchor = dst.anchor_at(dst_pos);
        let mut txn = self.begin();
        // One read of each document's rights: a move within a document,
        // by one user, asks all four questions of the same copy.
        let src_access = self.tdb.access(&txn, self.doc, self.user)?;
        let other = (dst.doc, dst.user) != (self.doc, self.user);
        let dst_access = match other {
            true => Some(self.tdb.access(&txn, dst.doc, dst.user)?),
            false => None,
        };
        let dst_access = dst_access.as_ref().unwrap_or(&src_access);
        src_access.require(Permission::Write)?;
        dst_access.require(Permission::Write)?;
        self.check_protected(&src_access, Permission::Write, &src_ids, None)?;
        dst.check_protected(dst_access, Permission::Write, &[], Some(&anchor))?;

        let ts = self.tdb.now();
        // 1) Tombstone the source characters.
        for (&s, id) in src_slots.iter().zip(&src_ids) {
            let version = self.chain.info_at(s).version + 1;
            txn.set(
                t.chars,
                id.row(),
                &[
                    ("deleted", Value::Bool(true)),
                    ("deleted_by", self.user.value()),
                    ("deleted_at", Value::Timestamp(ts)),
                    ("version", Value::Int(version)),
                ],
            )?;
        }
        let del_op = self.log_op(&mut txn, "delete", OpId::NONE, ts)?;
        self.tdb
            .log_effects(&mut txn, del_op, "del", &src_ids, &[], None)?;

        // 2) Insert copies into the destination with provenance.
        let moved: Vec<NewChar> = (src_slots.iter().zip(&src_ids))
            .map(|(&s, &src_char)| NewChar {
                ch: self.chain.info_at(s).ch,
                src_doc: self.doc,
                src_char,
                external: None,
            })
            .collect();
        let new_ids = dst.write_chars(&mut txn, anchor.prev, &moved, ts)?;
        let ins_op = dst.log_op(&mut txn, "paste", OpId::NONE, ts)?;
        dst.tdb
            .log_effects(&mut txn, ins_op, "ins", &new_ids, &[], None)?;
        txn.insert_refs(
            t.paste_events,
            &[
                dst.doc.view(),
                dst.user.view(),
                ValueRef::Timestamp(ts),
                self.doc.view(),
                ValueRef::Null,
                ValueRef::Int(moved.len() as i64),
            ],
        )?;
        let commit_ts = txn.commit()?;

        // Publish to both caches.
        let mut del_effects = Vec::with_capacity(src_ids.len());
        for (s, id) in src_slots.into_iter().zip(src_ids) {
            self.fold_flag(s, true);
            del_effects.push(Effect::Delete {
                char: id,
                by: self.user,
                ts,
            });
        }
        let ins_effects = dst.fold_inserted(anchor, &new_ids, moved, ts)?;
        Ok((
            EditReceipt {
                op: del_op,
                commit_ts,
                effects: del_effects,
            },
            EditReceipt {
                op: ins_op,
                commit_ts,
                effects: ins_effects,
            },
        ))
    }

    /// Replace `[pos, pos + len)` with `text` (delete + insert, two
    /// transactions, each independently undoable — matching how the
    /// TeNDaX editor issued them).
    pub fn replace_range(&mut self, pos: usize, len: usize, text: &str) -> Result<EditReceipt> {
        let mut receipt = self.delete_range(pos, len)?;
        let ins = self.insert_text(pos, text)?;
        receipt.effects.extend(ins.effects);
        receipt.op = ins.op;
        receipt.commit_ts = ins.commit_ts;
        Ok(receipt)
    }

    // ----------------------------------------------------------- internals

    pub(crate) fn insert_object_chars(
        &mut self,
        pos: usize,
        payload: ObjectPayload,
    ) -> Result<EditReceipt> {
        // The object replacement character anchors the object in the text.
        let chars = vec![NewChar {
            ch: '\u{FFFC}',
            src_doc: DocId::NONE,
            src_char: CharId::NONE,
            external: None,
        }];
        settled(self.insert_chars(pos, chars, "object", None, Some(payload)))
    }

    fn insert_chars(
        &mut self,
        pos: usize,
        chars: Vec<NewChar>,
        kind: &str,
        paste: Option<PasteEventInfo>,
        object: Option<ObjectPayload>,
    ) -> Result<(EditReceipt, Durability)> {
        let doc_len = self.len();
        if pos > doc_len {
            return Err(TextError::InvalidPosition {
                pos,
                len: chars.len(),
                doc_len,
            });
        }
        if chars.is_empty() {
            return Ok((EditReceipt::empty(), Durability::none()));
        }
        let t = *self.tdb.tables();

        let anchor = self.anchor_at(pos);
        let mut txn = self.begin();
        let access = self.tdb.access(&txn, self.doc, self.user)?;
        access.require(Permission::Write)?;
        self.check_protected(&access, Permission::Write, &[], Some(&anchor))?;

        let ts = self.tdb.now();
        let ids = self.write_chars(&mut txn, anchor.prev, &chars, ts)?;
        let op = self.log_op(&mut txn, kind, OpId::NONE, ts)?;
        self.tdb.log_effects(&mut txn, op, "ins", &ids, &[], None)?;
        if let Some(obj) = &object {
            txn.insert_refs(
                t.objects,
                &[
                    self.doc.view(),
                    ids[0].view(),
                    ValueRef::Text(&obj.kind),
                    ValueRef::Text(&obj.name),
                    ValueRef::Bytes(&obj.data),
                    self.user.view(),
                    ValueRef::Timestamp(ts),
                ],
            )?;
        }
        if let Some(pe) = &paste {
            txn.insert_refs(
                t.paste_events,
                &[
                    self.doc.view(),
                    self.user.view(),
                    ValueRef::Timestamp(ts),
                    pe.src_doc.opt_view(),
                    pe.external
                        .as_deref()
                        .map_or(ValueRef::Null, ValueRef::Text),
                    ValueRef::Int(pe.n_chars as i64),
                ],
            )?;
        }
        let (commit_ts, durability) = txn.commit_visible()?;
        let effects = self.fold_inserted(anchor, &ids, chars, ts)?;
        let receipt = EditReceipt {
            op,
            commit_ts,
            effects,
        };
        Ok((receipt, durability))
    }

    /// Write `chars` as new rows of this document, typed by this
    /// handle's user at `ts`: the first anchored on `anchor`, each other
    /// on the one before it. They are the only `chars` rows an insert
    /// writes. Its commit depends on the anchor ([`TextDb::expect_anchor`]).
    /// Each row is packed once, from values borrowed where they are: the
    /// character's UTF-8 from the stack.
    fn write_chars(
        &self,
        txn: &mut Transaction,
        anchor: Option<CharId>,
        chars: &[NewChar],
        ts: i64,
    ) -> Result<Vec<CharId>> {
        let t = self.tdb.tables();
        self.tdb.expect_anchor(txn, self.doc, anchor)?;
        let mut ids: Vec<CharId> = Vec::with_capacity(chars.len());
        for nc in chars {
            let anchor = ids.last().copied().or(anchor);
            let mut utf8 = [0; 4];
            let rid = txn.insert_refs(
                t.chars,
                &[
                    self.doc.view(),
                    anchor.map_or(ValueRef::Null, CharId::view),
                    ValueRef::Text(nc.ch.encode_utf8(&mut utf8)),
                    self.user.view(),
                    ValueRef::Timestamp(ts),
                    ValueRef::Int(0),
                    ValueRef::Bool(false),
                    ValueRef::Null,
                    ValueRef::Null,
                    ValueRef::Null,
                    nc.src_doc.opt_view(),
                    nc.src_char.opt_view(),
                    nc.external
                        .as_deref()
                        .map_or(ValueRef::Null, ValueRef::Text),
                ],
            )?;
            ids.push(CharId::from_row(rid));
        }
        Ok(ids)
    }

    /// Fold the characters this handle's commit inserted at `anchor` —
    /// `ids`, written from `chars` by [`DocHandle::write_chars`] — into
    /// the chain, and return their effects.
    ///
    /// This runs *after* the commit succeeded: the database holds the
    /// edit whatever the cache thinks, so a chain that refuses one must
    /// not surface as a retryable error (a retry would commit the insert
    /// a second time). The cache is rebuilt instead; for our own
    /// just-committed ids this is unreachable — hence the debug_assert.
    fn fold_inserted(
        &mut self,
        anchor: Anchor,
        ids: &[CharId],
        chars: Vec<NewChar>,
        ts: i64,
    ) -> Result<Vec<Effect>> {
        let mut effects = Vec::with_capacity(ids.len());
        let (mut prev, mut prev_slot) = (anchor.prev, anchor.slot);
        let mut stale = false;
        for (nc, &id) in chars.into_iter().zip(ids) {
            let info = CharInfo {
                ch: nc.ch,
                deleted: false,
                style: StyleId::NONE,
                author: self.user,
                created_at: ts,
                version: 0,
                src_doc: nc.src_doc,
                src_char: nc.src_char,
                external_src: nc.external.clone(),
            };
            let inserted = self.chain.insert_at(prev_slot, id, info);
            debug_assert!(
                inserted.is_ok(),
                "own committed insert rejected: {inserted:?}"
            );
            stale |= inserted.is_err();
            prev_slot = inserted.ok();
            effects.push(Effect::Insert {
                char: id,
                prev,
                ch: nc.ch,
                author: self.user,
                ts,
                style: StyleId::NONE,
                src_doc: nc.src_doc,
                src_char: nc.src_char,
                external: nc.external,
            });
            prev = Some(id);
        }
        if stale {
            self.rebuild()?;
        }
        Ok(effects)
    }

    /// Where an insert at visible position `pos` goes: after the visible
    /// character before it (`None` at the head), in front of that one's
    /// successor. One descent to the anchor's slot.
    fn anchor_at(&self, pos: usize) -> Anchor {
        let slot = pos
            .checked_sub(1)
            .and_then(|p| self.chain.slot_at_visible(p));
        Anchor {
            slot,
            prev: slot.map(|s| self.chain.id_at(s)),
        }
    }

    /// Write the oplog row for an operation.
    pub(crate) fn log_op(
        &self,
        txn: &mut Transaction,
        kind: &str,
        target: OpId,
        ts: i64,
    ) -> Result<OpId> {
        let t = self.tdb.tables();
        let rid = txn.insert_refs(
            t.oplog,
            &[
                self.doc.view(),
                self.user.view(),
                ValueRef::Timestamp(ts),
                ValueRef::Text(kind),
                target.opt_view(),
                ValueRef::Bool(false),
            ],
        )?;
        Ok(OpId::from_row(rid))
    }

    /// Reject the operation if it touches a character range `access`
    /// protects against this user. `ids` are the characters being modified;
    /// `insert` is where an insertion goes.
    pub(crate) fn check_protected(
        &self,
        access: &Access,
        perm: Permission,
        ids: &[CharId],
        insert: Option<&Anchor>,
    ) -> Result<()> {
        let denied = access.denied_ranges(perm);
        if denied.is_empty() {
            return Ok(());
        }
        // The total-order rank the first inserted character takes.
        let insert_at_total = insert.map(|a| a.slot.map_or(0, |s| self.chain.total_rank_at(s) + 1));
        for (from, to) in denied {
            let (Some(lo), Some(hi)) = (self.chain.total_rank(from), self.chain.total_rank(to))
            else {
                continue; // protected chars no longer in chain: stale rule
            };
            for id in ids {
                if let Some(r) = self.chain.total_rank(*id) {
                    if r >= lo && r <= hi {
                        return Err(TextError::RangeProtected {
                            doc: self.doc,
                            pos: self.chain.visible_rank(*id).unwrap_or(r),
                        });
                    }
                }
            }
            if let Some(p) = insert_at_total {
                if p > lo && p <= hi {
                    return Err(TextError::RangeProtected {
                        doc: self.doc,
                        pos: p,
                    });
                }
            }
        }
        Ok(())
    }
}

/// One `op_effects` row, decoded: the `count` consecutive ids from
/// `first`, all with one kind and one old/new style.
#[derive(Debug, Clone)]
pub(crate) struct EffectRange {
    /// The `op_effects` row itself.
    pub row: RowId,
    pub kind: String,
    pub first: u64,
    pub count: u64,
    pub old: Option<StyleId>,
    pub new: Option<StyleId>,
}

impl EffectRange {
    /// The range's ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = CharId> {
        (self.first..self.first.saturating_add(self.count)).map(CharId)
    }

    /// Whether the ids are characters (not a structure element or note).
    pub fn names_chars(&self) -> bool {
        matches!(self.kind.as_str(), "ins" | "del" | "sty")
    }
}

/// A stored style id; anything unparsable reads as no style.
fn parse_style(s: &str) -> StyleId {
    s.parse().map(StyleId).unwrap_or(StyleId::NONE)
}

impl TextDb {
    /// `op`'s effect rows, in row-id order — the order
    /// [`TextDb::log_effects`] wrote them.
    pub(crate) fn effect_ranges(&self, txn: &Transaction, op: OpId) -> Result<Vec<EffectRange>> {
        let rows = txn.index_lookup(self.tables().op_effects, "op_effects_by_op", &[op.value()])?;
        Ok((rows.into_iter())
            .map(|(row_id, row)| {
                let [kind, first, count, old, new] = row.cols([1, 2, 3, 4, 5]);
                EffectRange {
                    row: row_id,
                    kind: kind.as_text().unwrap_or_default().to_owned(),
                    first: CharId::from_value(first).0,
                    count: count.as_int().map_or(0, |n| n.max(0) as u64),
                    old: old.as_text().map(parse_style),
                    new: new.as_text().map(parse_style),
                }
            })
            .collect())
    }

    /// Write `op`'s effects on `ids`, in order: one `op_effects` row per
    /// maximal run where each id is its predecessor plus one and, for a
    /// style change, the old style is the same. `olds` is empty or holds
    /// each id's old style; `new` is the style set. Ids allocated apart —
    /// a concurrent inserter took one in between, a delete spans two
    /// typists' characters — simply make more runs; no run names an id
    /// that is not in `ids`.
    pub(crate) fn log_effects(
        &self,
        txn: &mut Transaction,
        op: OpId,
        kind: &str,
        ids: &[CharId],
        olds: &[StyleId],
        new: Option<StyleId>,
    ) -> Result<()> {
        debug_assert!(olds.is_empty() || olds.len() == ids.len());
        // A style is stored as its number's text: made only for a style
        // change, once for the new style.
        let new = new.map(|s| s.0.to_string());
        let new = new.as_deref().map_or(ValueRef::Null, ValueRef::Text);
        let mut start = 0;
        while start < ids.len() {
            let mut end = start + 1;
            while end < ids.len()
                && ids[end].0 == ids[end - 1].0 + 1
                && olds.get(end) == olds.get(start)
            {
                end += 1;
            }
            let old = olds.get(start).map(|s| s.0.to_string());
            txn.insert_refs(
                self.tables().op_effects,
                &[
                    op.view(),
                    ValueRef::Text(kind),
                    ids[start].view(),
                    ValueRef::Int((end - start) as i64),
                    old.as_deref().map_or(ValueRef::Null, ValueRef::Text),
                    new,
                ],
            )?;
            start = end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TextDb, UserId, DocHandle) {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", user).unwrap();
        let h = tdb.open(doc, user).unwrap();
        (tdb, user, h)
    }

    #[test]
    fn typing_builds_text() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "hello").unwrap();
        assert_eq!(h.text(), "hello");
        h.insert_text(5, " world").unwrap();
        assert_eq!(h.text(), "hello world");
        h.insert_text(5, ",").unwrap();
        assert_eq!(h.text(), "hello, world");
        assert_eq!(h.len(), 12);
    }

    #[test]
    fn insert_at_invalid_position_errors() {
        let (_tdb, _u, mut h) = setup();
        assert!(matches!(
            h.insert_text(1, "x"),
            Err(TextError::InvalidPosition { .. })
        ));
    }

    #[test]
    fn empty_insert_is_a_noop() {
        let (_tdb, _u, mut h) = setup();
        let r = h.insert_text(0, "").unwrap();
        assert!(r.effects.is_empty());
        assert!(r.op.is_none());
    }

    #[test]
    fn delete_makes_tombstones() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "hello world").unwrap();
        h.delete_range(5, 6).unwrap();
        assert_eq!(h.text(), "hello");
        assert_eq!(h.len(), 5);
        // Tombstones remain in the chain with metadata.
        assert_eq!(h.chain_len(), 11);
    }

    #[test]
    fn delete_out_of_bounds_errors() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "abc").unwrap();
        assert!(matches!(
            h.delete_range(2, 5),
            Err(TextError::InvalidPosition { .. })
        ));
        // Zero-length delete is a no-op.
        let r = h.delete_range(1, 0).unwrap();
        assert!(r.effects.is_empty());
    }

    #[test]
    fn replace_range_works() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "hello world").unwrap();
        h.replace_range(6, 5, "TeNDaX").unwrap();
        assert_eq!(h.text(), "hello TeNDaX");
    }

    #[test]
    fn reload_reconstructs_from_database() {
        let (tdb, user, mut h) = setup();
        h.insert_text(0, "persistent ").unwrap();
        h.insert_text(11, "text").unwrap();
        h.delete_range(0, 1).unwrap();
        let expect = h.text();
        // A fresh handle rebuilds the chain purely from stored tuples.
        let h2 = tdb.open(h.doc(), user).unwrap();
        assert_eq!(h2.text(), expect);
        assert_eq!(h2.text(), "ersistent text");
    }

    #[test]
    fn character_metadata_is_captured() {
        let (tdb, user, mut h) = setup();
        h.insert_text(0, "ab").unwrap();
        let id = h.char_at(0).unwrap();
        let info = h.char_info(id).unwrap();
        assert_eq!(info.author, user);
        assert!(info.created_at > 0);
        assert!(!info.deleted);
        assert_eq!(info.ch, 'a');
        // And it survives a reload.
        let h2 = tdb.open(h.doc(), user).unwrap();
        assert_eq!(h2.char_info(id).unwrap().author, user);
    }

    #[test]
    fn copy_paste_carries_provenance() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("alice").unwrap();
        let d1 = tdb.create_document("src", u).unwrap();
        let d2 = tdb.create_document("dst", u).unwrap();
        let mut h1 = tdb.open(d1, u).unwrap();
        h1.insert_text(0, "original material").unwrap();
        let clip = h1.copy(0, 8).unwrap();
        assert_eq!(clip.text(), "original");

        let mut h2 = tdb.open(d2, u).unwrap();
        h2.insert_text(0, "copy: ").unwrap();
        h2.paste(6, &clip).unwrap();
        assert_eq!(h2.text(), "copy: original");

        let id = h2.char_at(6).unwrap();
        let info = h2.char_info(id).unwrap();
        assert_eq!(info.src_doc, d1);
        assert_eq!(info.src_char, clip.chars[0].0);

        // One paste event was recorded.
        let txn = tdb.database().begin();
        let events = txn
            .scan(tdb.tables().paste_events, &tendax_storage::Predicate::True)
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1.get(5).unwrap().as_int(), Some(8));
    }

    #[test]
    fn external_paste_records_source() {
        let (tdb, _u, mut h) = setup();
        h.paste_external(0, "from the web", "https://example.org")
            .unwrap();
        assert_eq!(h.text(), "from the web");
        let id = h.char_at(0).unwrap();
        assert_eq!(
            h.char_info(id).unwrap().external_src.as_deref(),
            Some("https://example.org")
        );
        let txn = tdb.database().begin();
        let events = txn
            .scan(tdb.tables().paste_events, &tendax_storage::Predicate::True)
            .unwrap();
        assert_eq!(
            events[0].1.get(4).unwrap().as_text(),
            Some("https://example.org")
        );
    }

    #[test]
    fn atomic_move_across_documents() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("alice").unwrap();
        let d1 = tdb.create_document("src", u).unwrap();
        let d2 = tdb.create_document("dst", u).unwrap();
        let mut h1 = tdb.open(d1, u).unwrap();
        h1.insert_text(0, "keep MOVED keep").unwrap();
        let mut h2 = tdb.open(d2, u).unwrap();
        h2.insert_text(0, "[]").unwrap();

        let (del, ins) = h1.move_to(5, 5, &mut h2, 1).unwrap();
        assert_eq!(del.commit_ts, ins.commit_ts, "single transaction");
        assert_eq!(h1.text(), "keep  keep");
        assert_eq!(h2.text(), "[MOVED]");
        // Provenance points back at the source document.
        let meta = h2.char_meta(1).unwrap();
        assert!(matches!(
            meta.provenance,
            crate::meta::Provenance::CopiedFrom { doc, .. } if doc == d1
        ));
        // Fresh handles agree (it all committed).
        assert_eq!(tdb.open(d1, u).unwrap().text(), "keep  keep");
        assert_eq!(tdb.open(d2, u).unwrap().text(), "[MOVED]");
        // Both sides are undoable (they are separate logged ops).
        h2.undo().unwrap();
        assert_eq!(h2.text(), "[]");
        h1.undo().unwrap();
        assert_eq!(h1.text(), "keep MOVED keep");
    }

    #[test]
    fn move_to_is_atomic_under_destination_permission_failure() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let d1 = tdb.create_document("src", bob).unwrap();
        let d2 = tdb.create_document("locked", alice).unwrap();
        tdb.set_access(
            d2,
            alice,
            crate::security::Principal::User(alice),
            Permission::Write,
            true,
        )
        .unwrap();
        let mut h1 = tdb.open(d1, bob).unwrap();
        h1.insert_text(0, "cannot leave").unwrap();
        let mut h2 = tdb.open(d2, bob).unwrap();
        // Bob may edit src but not dst: the whole move must fail with
        // nothing changed anywhere.
        assert!(matches!(
            h1.move_to(0, 6, &mut h2, 0),
            Err(TextError::PermissionDenied { .. })
        ));
        assert_eq!(tdb.open(d1, bob).unwrap().text(), "cannot leave");
        assert_eq!(tdb.open(d2, bob).unwrap().text(), "");
    }

    #[test]
    fn move_within_one_document() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("alice").unwrap();
        let d = tdb.create_document("doc", u).unwrap();
        let mut h1 = tdb.open(d, u).unwrap();
        h1.insert_text(0, "abc XYZ").unwrap();
        let mut h2 = tdb.open(d, u).unwrap();
        let (_, _) = h1.move_to(4, 3, &mut h2, 0).unwrap();
        // h2 moved XYZ to the front; h1 tombstoned its copy.
        let fresh = tdb.open(d, u).unwrap();
        assert_eq!(fresh.text(), "XYZabc ");
    }

    #[test]
    fn oplog_and_effects_are_written() {
        let (tdb, _u, mut h) = setup();
        let r = h.insert_text(0, "abc").unwrap();
        assert_eq!(r.effects.len(), 3);
        let txn = tdb.database().begin();
        let ops = txn
            .scan(tdb.tables().oplog, &tendax_storage::Predicate::True)
            .unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].1.get(3).unwrap().as_text(), Some("insert"));
        // One range row for the three characters (before range effects:
        // three rows).
        let effects = txn
            .index_lookup(tdb.tables().op_effects, "op_effects_by_op", &[r.op.value()])
            .unwrap();
        assert_eq!(effects.len(), 1);
        assert_eq!(effects[0].1.get(3).unwrap().as_int(), Some(3));
    }

    /// Two handles insert at the same spot from the same view: nothing
    /// the two transactions write is shared, so both commit, with no
    /// retry, and the newer one comes first — right after the anchor, in
    /// front of what was there.
    #[test]
    fn concurrent_inserts_at_the_same_position_commute() {
        let tdb = TextDb::in_memory();
        let u1 = tdb.create_user("alice").unwrap();
        let u2 = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", u1).unwrap();
        let mut h1 = tdb.open(doc, u1).unwrap();
        h1.insert_text(0, "base").unwrap();

        // Bob opens at the same state, both insert at position 0.
        let mut h2 = tdb.open(doc, u2).unwrap();
        h1.insert_text(0, "A").unwrap();
        h2.insert_text(0, "B").unwrap();
        assert_eq!(tdb.database().stats().conflicts, 0);
        let h3 = tdb.open(doc, u1).unwrap();
        assert_eq!(h3.text(), "BAbase");
        // Bob's view lacks only Alice's character, in its place.
        assert_eq!(h2.text(), "Bbase");
    }

    #[test]
    fn concurrent_inserts_at_different_positions_commit() {
        let tdb = TextDb::in_memory();
        let u1 = tdb.create_user("alice").unwrap();
        let u2 = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", u1).unwrap();
        let mut h1 = tdb.open(doc, u1).unwrap();
        h1.insert_text(0, "0123456789").unwrap();

        let mut h2 = tdb.open(doc, u2).unwrap();
        // Alice edits near the front, Bob near the back: disjoint rows.
        h1.insert_text(2, "X").unwrap();
        h2.insert_text(8, "Y").unwrap();
        let fresh = tdb.open(doc, u1).unwrap();
        assert_eq!(fresh.text(), "01X234567Y89");
    }

    /// Two head inserts into an empty document from the same view are
    /// two children of the head, not two chains: both commit, the newer
    /// first.
    #[test]
    fn empty_document_head_race_commutes() {
        let tdb = TextDb::in_memory();
        let u1 = tdb.create_user("alice").unwrap();
        let u2 = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", u1).unwrap();
        let mut h1 = tdb.open(doc, u1).unwrap();
        let mut h2 = tdb.open(doc, u2).unwrap();
        h1.insert_text(0, "first").unwrap();
        h2.insert_text(0, "second").unwrap();
        assert_eq!(tdb.database().stats().conflicts, 0);
        let fresh = tdb.open(doc, u1).unwrap();
        assert_eq!(fresh.text(), "secondfirst");
    }

    /// An insert writes its own `chars` rows and no other: the anchor
    /// and the character after it keep their one version, and the
    /// document row is not touched, at the head or mid-text.
    #[test]
    fn an_insert_writes_only_its_own_character_rows() {
        let (tdb, _u, mut h) = setup();
        h.insert_text(0, "ac").unwrap();
        let versions = |tdb: &TextDb| {
            let stats = tdb.database().table_stats();
            let of = |name: &str| stats.iter().find(|t| t.name == name).unwrap().versions;
            (of("chars"), of("documents"))
        };
        let (chars, documents) = versions(&tdb);
        h.insert_text(1, "b").unwrap();
        h.insert_text(0, "<").unwrap();
        h.paste_external(4, "!?", "elsewhere").unwrap();
        assert_eq!(versions(&tdb), (chars + 4, documents));
        assert_eq!(h.text(), "<abc!?");
    }

    #[test]
    fn write_permission_enforced_on_edits() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        tdb.set_access(
            doc,
            alice,
            crate::security::Principal::User(alice),
            Permission::Write,
            true,
        )
        .unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        assert!(matches!(
            hb.insert_text(0, "nope"),
            Err(TextError::PermissionDenied { .. })
        ));
    }
}
