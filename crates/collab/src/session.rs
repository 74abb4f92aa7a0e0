//! Editor sessions and open collaborative documents.
//!
//! [`EditorSession`] models one running editor (one user, one platform).
//! [`EditorDoc`] is a document opened in that editor: a [`LiveEditor`] on
//! the server's one copy of the document ([`crate::live`]), plus a cursor
//! anchored to the text and the presence it advertises. Every editing call
//! commits on the shared copy in this session's name, then publishes — so
//! every other editor of the document, in process or at the far end of a
//! wire, has the edit as soon as it is stored. A network connection's
//! editor is the bare [`LiveEditor`] ([`EditorSession::open_live`]): its
//! client keeps its own copy at the other end of the wire.

use tendax_storage::Ts;
use tendax_text::{CharId, Clip, DocHandle, DocId, EditReceipt, Result, StyleId, UserId};

use crate::awareness::Platform;
use crate::bus::{EventKind, SessionId};
use crate::live::{Committed, DocView, Join, LiveEditor};
use crate::server::CollabServer;

/// One running editor instance.
#[derive(Debug)]
pub struct EditorSession {
    server: CollabServer,
    id: SessionId,
    user: UserId,
    user_name: String,
    platform: Platform,
}

impl EditorSession {
    pub(crate) fn new(
        server: CollabServer,
        id: SessionId,
        user: UserId,
        user_name: String,
        platform: Platform,
    ) -> Self {
        EditorSession {
            server,
            id,
            user,
            user_name,
            platform,
        }
    }

    pub fn id(&self) -> SessionId {
        self.id
    }

    pub fn user(&self) -> UserId {
        self.user
    }

    pub fn user_name(&self) -> &str {
        &self.user_name
    }

    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    pub fn server(&self) -> &CollabServer {
        &self.server
    }

    /// Open a document by name.
    pub fn open(&self, doc_name: &str) -> Result<EditorDoc> {
        let doc = self.server.textdb().document_by_name(doc_name)?;
        self.open_id(doc)
    }

    /// Open a document by id: checks `Permission::Read` and records one
    /// read event, like any open.
    pub fn open_id(&self, doc: DocId) -> Result<EditorDoc> {
        Ok(EditorDoc {
            live: LiveEditor::attach(&self.server, doc, self.id, self.user)?,
            cursor: 0,
            cursor_anchor: None,
        })
    }

    /// Open a document for a network client, who keeps its copy at the
    /// other end of the wire — and may have kept one, up to `from`, since
    /// it last closed the document. Like any open it checks
    /// `Permission::Read` and records one read event; `view` is handed the
    /// live document with `synced_ts` at a commit frontier and, for a
    /// `from` the tail covers, the events since (see [`crate::live`]),
    /// under the document's lock — no commit of the document lands while
    /// it runs — and its result is the client's first view.
    pub fn open_live<T>(
        &self,
        doc: DocId,
        from: Option<Ts>,
        view: impl FnOnce(&Join<'_>) -> T,
    ) -> Result<(LiveEditor, T)> {
        LiveEditor::open(&self.server, doc, self.id, self.user, from, view)
    }
}

impl Drop for EditorSession {
    fn drop(&mut self) {
        self.server.awareness().remove(self.id);
    }
}

/// Per-document editing statistics of one editor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditorStats {
    /// Operations successfully committed by this editor.
    pub ops: u64,
    /// Retries after a try found the document's copy stale.
    pub retries: u64,
    /// Remote events applied: 0, an editor reads the one shared copy.
    pub events_applied: u64,
    /// Remote events held back for their dependencies: 0.
    pub events_reordered: u64,
    /// Resynchronisations after a lost event stream: 0.
    pub resyncs: u64,
    /// Rebuilds of the document's copy this editor's retries forced.
    pub refreshes: u64,
}

/// A document open in an editor session. Dropping it clears the presence
/// it advertised — a session whose editor window is gone must not keep
/// showing up in `editors_on(doc)` as a ghost — and lets go of the
/// document.
#[derive(Debug)]
pub struct EditorDoc {
    live: LiveEditor,
    cursor: usize,
    /// The character the cursor sits after (None = document start). The
    /// anchor keeps the cursor attached to its text as others edit.
    cursor_anchor: Option<CharId>,
}

impl EditorDoc {
    pub fn doc(&self) -> DocId {
        self.live.doc()
    }

    pub fn session(&self) -> SessionId {
        self.live.session()
    }

    /// The text, as the document holds it now.
    pub fn text(&self) -> String {
        self.handle().text()
    }

    pub fn len(&self) -> usize {
        self.handle().len()
    }

    pub fn is_empty(&self) -> bool {
        self.handle().is_empty()
    }

    /// Read access to the document (metadata queries): the server's copy,
    /// under the document's lock until the view is dropped.
    ///
    /// The borrow checker refuses an edit through this editor while the
    /// view is alive:
    ///
    /// ```compile_fail,E0502
    /// # use tendax_collab::{CollabServer, Platform};
    /// # use tendax_text::TextDb;
    /// # let tdb = TextDb::in_memory();
    /// # let alice = tdb.create_user("alice").unwrap();
    /// # tdb.create_document("notes", alice).unwrap();
    /// # let server = CollabServer::new(tdb);
    /// # let session = server.connect("alice", Platform::Linux).unwrap();
    /// let mut doc = session.open("notes").unwrap();
    /// let view = doc.handle();
    /// doc.type_text(0, "x").unwrap();
    /// drop(view);
    /// ```
    ///
    /// It cannot see other editors: a thread that holds the view and then
    /// edits, views, opens or closes the same document through another
    /// editor deadlocks. Take what you need and drop the view. (A metadata
    /// service built over the server's live documents does not wait for
    /// the view: it reads the document from the database.)
    pub fn handle(&self) -> DocView<'_> {
        self.live.view()
    }

    /// This editor's activity counters.
    pub fn stats(&self) -> EditorStats {
        self.live.stats()
    }

    /// Move the cursor back onto its anchor, which other editors' edits
    /// may have shifted, so presence follows them. The text needs no
    /// catching up — it is the server's copy, current the moment anyone
    /// commits — so this applies nothing and returns 0.
    pub fn sync(&mut self) -> usize {
        self.reanchor_cursor();
        0
    }

    /// Where this editor's cursor is.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Move the cursor (published through awareness). The cursor anchors
    /// to the character it sits after, so others' edits move it with its
    /// text.
    pub fn set_cursor(&mut self, pos: usize) {
        let view = self.live.view();
        self.cursor = pos.min(view.len());
        self.cursor_anchor = self.cursor.checked_sub(1).and_then(|p| view.char_at(p));
        drop(view);
        self.publish_cursor();
    }

    /// Recompute the cursor from its anchor.
    fn reanchor_cursor(&mut self) {
        let view = self.live.view();
        let pos = match self.cursor_anchor {
            None => 0,
            Some(a) => view.caret_after(a).unwrap_or_else(|| {
                // Anchor purged from the chain entirely: clamp.
                self.cursor_anchor = None;
                self.cursor.min(view.len())
            }),
        };
        drop(view);
        if pos != self.cursor {
            self.cursor = pos;
            self.publish_cursor();
        }
    }

    fn publish_cursor(&self) {
        let cursor = self.cursor;
        self.live
            .server()
            .presence_update(self.session(), |p| p.cursor = Some(cursor));
    }

    /// Select a range (published through awareness).
    pub fn select(&mut self, from: usize, to: usize) {
        self.live
            .server()
            .presence_update(self.session(), |p| p.selection = Some((from, to)));
    }

    // ------------------------------------------------------------- editing

    /// Type text at `pos` of the document as it is when the call takes
    /// its lock. A position beyond the end yields
    /// [`tendax_text::TextError::InvalidPosition`].
    pub fn type_text(&mut self, pos: usize, text: &str) -> Result<EditReceipt> {
        let done = self
            .live
            .edit_deferred(EventKind::Insert, |h| h.insert_text_visible(pos, text));
        let receipt = self.published(done)?;
        self.set_cursor(pos + text.chars().count());
        Ok(receipt)
    }

    /// Delete a range; positions as in [`EditorDoc::type_text`].
    pub fn delete(&mut self, pos: usize, len: usize) -> Result<EditReceipt> {
        let done = self
            .live
            .edit_deferred(EventKind::Delete, |h| h.delete_range_visible(pos, len));
        let receipt = self.published(done)?;
        self.set_cursor(pos);
        Ok(receipt)
    }

    pub fn copy(&self, pos: usize, len: usize) -> Result<Clip> {
        self.handle().copy(pos, len)
    }

    pub fn paste(&mut self, pos: usize, clip: &Clip) -> Result<EditReceipt> {
        self.published(self.live.paste(pos, clip))
    }

    pub fn paste_external(&mut self, pos: usize, text: &str, source: &str) -> Result<EditReceipt> {
        self.published(self.live.paste_external(pos, text, source))
    }

    pub fn apply_style(&mut self, pos: usize, len: usize, style: StyleId) -> Result<EditReceipt> {
        self.published(self.live.apply_style(pos, len, style))
    }

    /// Atomically move text into another open document (one database
    /// transaction across both documents). Each editor publishes its
    /// half of the change; within one document this one publishes both.
    pub fn move_text(
        &mut self,
        pos: usize,
        len: usize,
        dst: &mut EditorDoc,
        dst_pos: usize,
    ) -> Result<(EditReceipt, EditReceipt)> {
        let ((del, moved_out), (ins, moved_in)) =
            self.live.move_text(pos, len, &dst.live, dst_pos)?;
        self.live.publish(moved_out);
        dst.live.publish(moved_in);
        Ok((del, ins))
    }

    pub fn undo(&mut self) -> Result<EditReceipt> {
        self.published(self.live.undo())
    }

    pub fn redo(&mut self) -> Result<EditReceipt> {
        self.published(self.live.redo())
    }

    pub fn global_undo(&mut self) -> Result<EditReceipt> {
        self.published(self.live.global_undo())
    }

    pub fn global_redo(&mut self) -> Result<EditReceipt> {
        self.published(self.live.global_redo())
    }

    /// Run an arbitrary handle operation under the edit protocol (notes,
    /// objects, structure, versions, …), then publish it. See
    /// [`LiveEditor::with_handle`] for what `f` must not do.
    pub fn with_handle<T>(
        &mut self,
        kind: &str,
        f: impl FnMut(&mut DocHandle) -> Result<(T, EditReceipt)>,
    ) -> Result<(T, EditReceipt)> {
        let (value, receipt, ticket) = self.live.with_handle(kind, f)?;
        self.live.publish(ticket);
        Ok((value, receipt))
    }

    /// Publish a committed edit; hand back its receipt.
    fn published(&self, done: Committed) -> Result<EditReceipt> {
        let (receipt, ticket) = done?;
        self.live.publish(ticket);
        Ok(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::EDIT_RETRIES;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use tendax_text::{TextDb, TextError};

    fn lan() -> (CollabServer, EditorSession, EditorSession) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        tdb.create_user("bob").unwrap();
        tdb.create_document("shared", alice).unwrap();
        let server = CollabServer::new(tdb);
        let sa = server.connect("alice", Platform::WindowsXp).unwrap();
        let sb = server.connect("bob", Platform::Linux).unwrap();
        (server, sa, sb)
    }

    #[test]
    fn two_editors_converge_via_bus() {
        let (_server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();

        da.type_text(0, "hello").unwrap();
        db.sync();
        assert_eq!(db.text(), "hello");

        db.type_text(5, " world").unwrap();
        da.sync();
        assert_eq!(da.text(), "hello world");
        assert_eq!(da.text(), db.text());
    }

    #[test]
    fn same_position_race_retries_transparently() {
        let (_server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();
        da.type_text(0, "base").unwrap();
        // Bob doesn't sync; his view is stale. The session retries for him.
        let receipt = db.type_text(0, "X").unwrap();
        assert!(!receipt.effects.is_empty());
        da.sync();
        db.sync();
        assert_eq!(da.text(), db.text());
        assert!(da.text().contains('X'));
        assert!(da.text().contains("base"));
    }

    #[test]
    fn awareness_tracks_cursor_and_doc() {
        let (server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let _db = sb.open("shared").unwrap();
        da.type_text(0, "hi").unwrap();
        let editors = server.editors_on(da.doc());
        assert_eq!(editors.len(), 2);
        let alice = editors.iter().find(|p| p.user_name == "alice").unwrap();
        assert_eq!(alice.cursor, Some(2)); // cursor after typed text
        da.select(0, 2);
        let editors = server.editors_on(da.doc());
        let alice = editors.iter().find(|p| p.user_name == "alice").unwrap();
        assert_eq!(alice.selection, Some((0, 2)));
    }

    #[test]
    fn undo_and_global_undo_across_sessions() {
        let (_server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();
        da.type_text(0, "alice ").unwrap();
        db.sync();
        db.type_text(6, "bob").unwrap();
        da.sync();
        assert_eq!(da.text(), "alice bob");

        // Alice's local undo removes her own text, not Bob's.
        da.undo().unwrap();
        db.sync();
        assert_eq!(db.text(), "bob");

        // Bob global-undoes... his own edit is the newest edit.
        db.global_undo().unwrap();
        da.sync();
        assert_eq!(da.text(), "");

        db.global_redo().unwrap();
        da.sync();
        assert_eq!(da.text(), "bob");
    }

    #[test]
    fn editor_stats_count_ops_retries_and_events() {
        let (server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();
        da.type_text(0, "base").unwrap();
        db.sync();
        // An edit lands through a raw handle, bypassing the editors: the
        // shared copy misses it, and the document's change stamp shows
        // it, so Bob's next edit rebuilds the copy before its first try
        // and needs no retry.
        let tdb = server.textdb().clone();
        let alice = tdb.user_by_name("alice").unwrap();
        let mut raw = tdb.open(da.doc(), alice).unwrap();
        raw.insert_text(0, "!").unwrap();
        let loads = server.live().stats().loads;
        db.type_text(0, "X").unwrap();
        assert_eq!(server.live().stats().loads, loads + 1);
        let b = db.stats();
        assert_eq!(b.ops, 1);
        assert_eq!((b.retries, b.refreshes), (0, 0));
        let a = da.stats();
        assert_eq!(a.ops, 1);
        assert_eq!(a.retries, 0);
        // Bob's edit rebuilt the one copy Alice reads too: there are no
        // remote events to apply.
        assert_eq!(da.sync(), 0);
        assert_eq!(da.stats().events_applied, 0);
        assert_eq!(da.text(), "X!base");
    }

    #[test]
    fn cursor_follows_remote_edits() {
        let (_server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();
        da.type_text(0, "hello world").unwrap();
        db.sync();
        // Alice puts her cursor after "hello" (position 5).
        da.set_cursor(5);
        assert_eq!(da.cursor(), 5);
        // Bob inserts at the front; Alice's cursor shifts right.
        db.type_text(0, ">> ").unwrap();
        da.sync();
        assert_eq!(da.text(), ">> hello world");
        assert_eq!(da.cursor(), 8);
        // Bob deletes text spanning Alice's anchor region.
        db.delete(0, 5).unwrap(); // removes ">> he"
        da.sync();
        assert_eq!(da.text(), "llo world");
        // The anchor char ('o' of hello) survived: cursor sits after it.
        assert_eq!(da.cursor(), 3);
        // Bob deletes the anchor char itself: cursor degrades gracefully
        // to the position where the anchor used to be.
        db.delete(2, 1).unwrap();
        da.sync();
        assert_eq!(da.text(), "ll world");
        assert_eq!(da.cursor(), 2);
    }

    #[test]
    fn cross_document_move_propagates_to_both_audiences() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        tdb.create_user("bob").unwrap();
        tdb.create_document("src", alice).unwrap();
        tdb.create_document("dst", alice).unwrap();
        let server = CollabServer::new(tdb);
        let sa = server.connect("alice", Platform::WindowsXp).unwrap();
        let sb = server.connect("bob", Platform::Linux).unwrap();

        let mut a_src = sa.open("src").unwrap();
        let mut a_dst = sa.open("dst").unwrap();
        let mut b_src = sb.open("src").unwrap();
        let mut b_dst = sb.open("dst").unwrap();
        a_src.type_text(0, "take THIS away").unwrap();
        b_src.sync();

        a_src.move_text(5, 4, &mut a_dst, 0).unwrap();
        assert_eq!(a_src.text(), "take  away");
        assert_eq!(a_dst.text(), "THIS");
        // Watchers of each document read the same copies.
        b_src.sync();
        b_dst.sync();
        assert_eq!(b_src.text(), "take  away");
        assert_eq!(b_dst.text(), "THIS");
    }

    /// Both ends of a move in one document share its one copy: the move
    /// goes through a second handle and the copy is rebuilt once. It is
    /// one commit, so one event: the deletion's effects, then the
    /// insertion's. (Two events of one commit_ts made a mirror skip the
    /// second as a duplicate.)
    #[test]
    fn a_move_within_one_document_lands_once() {
        let (server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();
        da.type_text(0, "abcXYZ").unwrap();
        let loads = server.live().stats().loads;
        let events = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&events);
        server
            .transport()
            .register_publish_hook(Box::new(move |ev| {
                log.lock().push(Arc::clone(ev));
                true
            }));
        let (del, ins) = da.move_text(3, 3, &mut db, 0).unwrap();
        assert_eq!(da.text(), "XYZabc");
        assert_eq!(server.live().stats().loads, loads + 1);
        let events = events.lock();
        let [moved] = &events[..] else {
            panic!("one event: {:?}", *events);
        };
        assert_eq!(moved.commit_ts, del.commit_ts);
        assert_eq!(moved.effects, [del.effects, ins.effects].concat());
        let fresh = server.textdb().load(da.doc(), sa.user()).unwrap();
        assert_eq!(fresh.text(), "XYZabc");
    }

    /// Regression (retry livelock): the loop used to end with
    /// `last.expect("retry loop ran")`, surfacing whatever transient
    /// error happened to be last. Exhaustion is now its own signal —
    /// carrying the final attempt's underlying error as its source, and
    /// feeding the server's per-session retry registry.
    #[test]
    fn exhausted_retries_surface_retries_exhausted() {
        let (server, sa, _sb) = lan();
        let session = sa.id();
        let mut da = sa.open("shared").unwrap();
        let conflict = || {
            TextError::Storage(tendax_storage::StorageError::WriteConflict {
                table: "chars".into(),
                txn: tendax_storage::TxnId(1),
            })
        };
        let err = da
            .with_handle::<()>("doomed", |_h| Err(conflict()))
            .unwrap_err();
        assert_eq!(
            err,
            TextError::RetriesExhausted {
                attempts: EDIT_RETRIES,
                last: Some(Box::new(conflict())),
            }
        );
        let src = std::error::Error::source(&err).expect("carries a source");
        assert!(src.to_string().contains("conflict"), "{src}");
        assert_eq!(da.stats().retries as usize, EDIT_RETRIES - 1);
        assert_eq!(server.session_retries(session) as usize, EDIT_RETRIES - 1);
        assert_eq!(
            server.retries_by_session().get(&session).copied(),
            Some((EDIT_RETRIES - 1) as u64)
        );
    }

    /// Regression (ghost awareness): `open_id` set `p.doc`/`p.cursor`
    /// but nothing ever cleared them, so a closed editor window kept
    /// showing up in `editors_on(doc)` forever. Dropping the
    /// `EditorDoc` now clears the presence it advertised.
    #[test]
    fn dropping_editor_doc_clears_presence() {
        let (server, sa, _sb) = lan();
        let da = sa.open("shared").unwrap();
        let doc = da.doc();
        assert_eq!(server.editors_on(doc).len(), 1);
        drop(da);
        assert!(
            server.editors_on(doc).is_empty(),
            "closed editor must not haunt editors_on()"
        );
        // The session itself is still online, just not focused anywhere.
        let online = server.who_is_online();
        assert_eq!(online.len(), 2);
        assert_eq!(online[0].doc, None);
        assert_eq!(online[0].cursor, None);
    }

    /// Focus moves with the editor windows: closing an *older* window
    /// must not clear presence that now points at a newer document.
    #[test]
    fn dropping_stale_editor_doc_keeps_newer_focus() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        tdb.create_document("first", alice).unwrap();
        tdb.create_document("second", alice).unwrap();
        let server = CollabServer::new(tdb);
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let d1 = sa.open("first").unwrap();
        let d2 = sa.open("second").unwrap();
        // Focus is on "second" (opened later). Closing "first" must not
        // blank it out.
        drop(d1);
        let second = d2.doc();
        assert_eq!(server.editors_on(second).len(), 1);
        drop(d2);
        assert!(server.editors_on(second).is_empty());
    }

    #[test]
    fn with_handle_runs_arbitrary_ops() {
        let (_server, sa, _sb) = lan();
        let mut da = sa.open("shared").unwrap();
        da.type_text(0, "annotate me").unwrap();
        let (note, receipt) = da
            .with_handle("note", |h| {
                let id = h.add_note(0, 8, "check")?;
                Ok((
                    id,
                    EditReceipt {
                        op: tendax_text::OpId::NONE,
                        commit_ts: 0,
                        effects: vec![],
                    },
                ))
            })
            .unwrap();
        assert!(!note.is_none());
        assert!(receipt.effects.is_empty());
        assert_eq!(da.handle().notes().unwrap().len(), 1);
    }
}
