//! Editor sessions and open collaborative documents.
//!
//! [`EditorSession`] models one running editor (one user, one platform,
//! one simulated network link). [`EditorDoc`] is a document opened in
//! that editor: it owns a replica of the document (a [`DocHandle`] fed
//! from the document's event stream), publishes its own committed
//! operations, and transparently retries edits that lose an
//! optimistic-concurrency race — exactly the behaviour the TeNDaX editor
//! exhibits when several people type into the same paragraph. A network
//! connection's editor owns no replica: [`EditorSession::open_live`]
//! borrows the server's ([`crate::live`]).
//!
//! Either kind holds its document's slot among the server's live
//! documents from open to close, and makes each commit attempt under the
//! slot's lock ([`crate::live`]): the document's live copy, if the server
//! has one, has the commit before anyone else can look. Every editing
//! call commits, then publishes.

use std::time::Duration;

use tendax_storage::Durability;
use tendax_text::{Clip, DocHandle, DocId, EditReceipt, Result, StyleId, UserId};

use crate::awareness::Platform;
use crate::bus::SessionId;
use crate::live::{Hold, LiveEditor};
use crate::replica::{Actor, Replica};
use crate::server::CollabServer;

/// One running editor instance.
#[derive(Debug)]
pub struct EditorSession {
    server: CollabServer,
    id: SessionId,
    user: UserId,
    user_name: String,
    platform: Platform,
    latency: Duration,
}

impl EditorSession {
    pub(crate) fn new(
        server: CollabServer,
        id: SessionId,
        user: UserId,
        user_name: String,
        platform: Platform,
        latency: Duration,
    ) -> Self {
        EditorSession {
            server,
            id,
            user,
            user_name,
            platform,
            latency,
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

    /// Open a document by id.
    pub fn open_id(&self, doc: DocId) -> Result<EditorDoc> {
        let hold = self.server.live().hold(doc);
        // Subscribe, then load: an event published between the load's
        // snapshot and the subscription would never be delivered, and one
        // the load already covers is skipped by the replica's floor.
        let sub = self.server.transport().subscribe(doc, self.latency);
        let handle = self.server.textdb().open(doc, self.user)?;
        self.server.presence_update(self.id, |p| {
            p.doc = Some(doc);
            p.cursor = Some(0);
        });
        Ok(EditorDoc {
            replica: Replica::new(handle, Some(sub)),
            hold,
            server: self.server.clone(),
            session: self.id,
            cursor: 0,
            cursor_anchor: None,
        })
    }

    /// Open a document on the server's live copy instead of a replica of
    /// this session's own — what a network connection does for its
    /// client, who keeps the replica at the other end of the wire. Like
    /// any open it checks `Permission::Read` and records one read event;
    /// `snapshot` is handed the live handle with `synced_ts` at a commit
    /// frontier (see [`crate::live`]), and its result is the client's
    /// first view.
    pub fn open_live<T>(
        &self,
        doc: DocId,
        snapshot: impl FnOnce(&DocHandle) -> T,
    ) -> Result<(LiveEditor, T)> {
        LiveEditor::open(&self.server, doc, self.id, self.user, snapshot)
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
    /// Commit retries after optimistic-concurrency losses.
    pub retries: u64,
    /// Remote events applied.
    pub events_applied: u64,
    /// Remote events that had to wait in the reorder buffer.
    pub events_reordered: u64,
    /// Full refreshes forced by transport eviction (lagged out) — the
    /// editor fell so far behind the broadcast stream that it had to
    /// resynchronize from the database and re-subscribe.
    pub resyncs: u64,
    /// Rebuilds of the view from the database, whatever forced them: a
    /// retry, a stale cache, an eviction.
    pub refreshes: u64,
}

/// A document open in an editor session.
#[derive(Debug)]
pub struct EditorDoc {
    replica: Replica,
    hold: Hold,
    server: CollabServer,
    session: SessionId,
    cursor: usize,
    /// The character the cursor sits after (None = document start). The
    /// anchor keeps the cursor attached to its text as remote edits land.
    cursor_anchor: Option<tendax_text::CharId>,
}

impl EditorDoc {
    pub fn doc(&self) -> DocId {
        self.replica.handle.doc()
    }

    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The local view of the text.
    pub fn text(&self) -> String {
        self.replica.handle.text()
    }

    pub fn len(&self) -> usize {
        self.replica.handle.len()
    }

    pub fn is_empty(&self) -> bool {
        self.replica.handle.is_empty()
    }

    /// Direct read access to the underlying handle (metadata queries).
    pub fn handle(&self) -> &DocHandle {
        &self.replica.handle
    }

    /// This editor's activity counters.
    pub fn stats(&self) -> EditorStats {
        self.replica.stats
    }

    /// Run `f` on the replica in this session's name, with the hold its
    /// commits go through, then re-anchor the cursor if remote edits
    /// landed in the view meanwhile.
    fn with_replica<T>(&mut self, f: impl FnOnce(&mut Replica, Actor<'_>, &Hold) -> T) -> T {
        let landed = |r: &Replica| (r.stats.events_applied, r.stats.refreshes);
        let before = landed(&self.replica);
        let who = Actor {
            server: &self.server,
            session: self.session,
        };
        let out = f(&mut self.replica, who, &self.hold);
        if landed(&self.replica) != before {
            self.reanchor_cursor();
        }
        out
    }

    /// Pull and apply all deliverable remote events (buffering those
    /// whose dependencies have not arrived). Returns how many were
    /// applied.
    pub fn sync(&mut self) -> usize {
        self.with_replica(|r, who, _| r.catch_up(who, None))
    }

    /// Keep syncing until work arrives or the timeout elapses.
    pub fn sync_timeout(&mut self, timeout: Duration) -> usize {
        self.with_replica(|r, who, _| r.catch_up(who, Some(timeout)))
    }

    /// Where this editor's cursor is.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Move the cursor (published through awareness). The cursor anchors
    /// to the character it sits after, so remote edits move it naturally.
    pub fn set_cursor(&mut self, pos: usize) {
        self.cursor = pos.min(self.len());
        self.cursor_anchor = if self.cursor == 0 {
            None
        } else {
            self.replica.handle.char_at(self.cursor - 1)
        };
        let cursor = self.cursor;
        self.server
            .presence_update(self.session, |p| p.cursor = Some(cursor));
    }

    /// Recompute the cursor from its anchor after remote changes.
    fn reanchor_cursor(&mut self) {
        let new_pos = match self.cursor_anchor {
            None => 0,
            Some(a) => match self.replica.handle.caret_after(a) {
                Some(p) => p,
                None => {
                    // Anchor purged from the chain entirely: clamp.
                    self.cursor_anchor = None;
                    self.cursor.min(self.len())
                }
            },
        };
        if new_pos != self.cursor {
            self.cursor = new_pos;
            let cursor = self.cursor;
            self.server
                .presence_update(self.session, |p| p.cursor = Some(cursor));
        }
    }

    /// Select a range (published through awareness).
    pub fn select(&mut self, from: usize, to: usize) {
        self.server
            .presence_update(self.session, |p| p.selection = Some((from, to)));
    }

    // ------------------------------------------------------------- editing

    /// Type text at `pos`, retrying transparently on commit races.
    ///
    /// `pos` is interpreted against the caller's view at the moment of
    /// the call: it is anchored to the character it follows before the
    /// pre-edit sync runs, so concurrent remote edits move the insertion
    /// point with the text instead of shifting it by raw index. A
    /// position beyond the current view yields
    /// [`tendax_text::TextError::InvalidPosition`].
    pub fn type_text(&mut self, pos: usize, text: &str) -> Result<EditReceipt> {
        let (at, receipt) = self.edit_at("insert", pos, |h, p| h.insert_text_visible(p, text))?;
        self.set_cursor(at + text.chars().count());
        Ok(receipt)
    }

    /// Delete a range, retrying transparently on commit races. The start
    /// position is anchored like [`EditorDoc::type_text`]'s.
    pub fn delete(&mut self, pos: usize, len: usize) -> Result<EditReceipt> {
        let (at, receipt) = self.edit_at("delete", pos, |h, p| h.delete_range_visible(p, len))?;
        self.set_cursor(at);
        Ok(receipt)
    }

    pub fn copy(&self, pos: usize, len: usize) -> Result<Clip> {
        self.replica.handle.copy(pos, len)
    }

    pub fn paste(&mut self, pos: usize, clip: &Clip) -> Result<EditReceipt> {
        let done = self.edit_at("paste", pos, |h, p| settled(h.paste(p, clip)));
        done.map(|(_, receipt)| receipt)
    }

    pub fn paste_external(&mut self, pos: usize, text: &str, source: &str) -> Result<EditReceipt> {
        let done = self.edit_at("paste", pos, |h, p| {
            settled(h.paste_external(p, text, source))
        });
        done.map(|(_, receipt)| receipt)
    }

    pub fn apply_style(&mut self, pos: usize, len: usize, style: StyleId) -> Result<EditReceipt> {
        let done = self.edit_at("style", pos, |h, p| settled(h.apply_style(p, len, style)));
        done.map(|(_, receipt)| receipt)
    }

    /// Atomically move text into another open document (one database
    /// transaction across both documents). Both editors publish their
    /// half of the change to their respective subscribers.
    pub fn move_text(
        &mut self,
        pos: usize,
        len: usize,
        dst: &mut EditorDoc,
        dst_pos: usize,
    ) -> Result<(EditReceipt, EditReceipt)> {
        let (src_doc, dst_doc) = (self.doc(), dst.doc());
        // The destination follows the source through the retry protocol:
        // caught up before the first attempt, rebuilt before every other.
        let mut first = true;
        let (del, ins) = self.with_replica(|src, who, hold| {
            src.retry(who, |h| {
                dst.sync();
                if !std::mem::take(&mut first) {
                    dst.replica.refresh()?;
                }
                hold.commit(
                    Some(&dst.hold),
                    |_| h.move_to(pos, len, &mut dst.replica.handle, dst_pos),
                    |(del, ins), fold| {
                        fold(src_doc, del);
                        fold(dst_doc, ins);
                    },
                )
            })
        })?;
        self.replica.stats.ops += 1;
        dst.replica.stats.ops += 1;
        let moved_out = self.replica.event(self.session, "delete", &del);
        self.server.publish(self.session, moved_out);
        let moved_in = dst.replica.event(dst.session, "paste", &ins);
        dst.server.publish(dst.session, moved_in);
        Ok((del, ins))
    }

    pub fn undo(&mut self) -> Result<EditReceipt> {
        self.edit("undo", |h| h.undo())
    }

    pub fn redo(&mut self) -> Result<EditReceipt> {
        self.edit("redo", |h| h.redo())
    }

    pub fn global_undo(&mut self) -> Result<EditReceipt> {
        self.edit("undo", |h| h.global_undo())
    }

    pub fn global_redo(&mut self) -> Result<EditReceipt> {
        self.edit("redo", |h| h.global_redo())
    }

    /// Run an arbitrary handle operation under the session's retry/publish
    /// protocol (for notes, objects, structure, versions, …). Each call of
    /// `f` holds the document's lock, so `f` must not open this document
    /// live or snapshot it: the lock is not reentrant.
    pub fn with_handle<T>(
        &mut self,
        kind: &str,
        mut f: impl FnMut(&mut DocHandle) -> Result<(T, EditReceipt)>,
    ) -> Result<(T, EditReceipt)> {
        let (value, receipt) = self.with_replica(|r, who, hold| {
            r.retry(who, |h| {
                hold.commit(
                    None,
                    |_| f(h),
                    |(_, receipt), fold| fold(hold.doc(), receipt),
                )
            })
        })?;
        self.replica.stats.ops += 1;
        let event = self.replica.event(self.session, kind, &receipt);
        self.server.publish(self.session, event);
        Ok((value, receipt))
    }

    /// [`EditorDoc::with_handle`] of an operation that returns nothing
    /// else.
    fn edit(
        &mut self,
        kind: &str,
        mut f: impl FnMut(&mut DocHandle) -> Result<EditReceipt>,
    ) -> Result<EditReceipt> {
        let (_, receipt) = self.with_handle(kind, |h| Ok(((), f(h)?)))?;
        Ok(receipt)
    }

    /// [`EditorDoc::edit`] for an operation addressed by a visible
    /// position (see [`Replica::perform_at`]), which hands back the wait
    /// for the disk: it comes after the lock is released, and before the
    /// publication. Also returns the position the operation ran at.
    fn edit_at(
        &mut self,
        kind: &str,
        pos: usize,
        mut f: impl FnMut(&mut DocHandle, usize) -> Result<(EditReceipt, Durability)>,
    ) -> Result<(usize, EditReceipt)> {
        let mut durability = Durability::none();
        let (at, receipt, event) = self.with_replica(|r, who, hold| {
            r.perform_at(who, kind, pos, |h, p| {
                let attempt = |_: Option<&mut Replica>| {
                    let (receipt, owed) = f(h, p)?;
                    durability = owed;
                    Ok(receipt)
                };
                hold.commit(None, attempt, |receipt, fold| fold(hold.doc(), receipt))
            })
        })?;
        durability.wait()?;
        self.server.publish(self.session, event);
        Ok((at, receipt))
    }
}

/// An operation that waited for the disk itself, in the shape of one that
/// hands the wait back.
fn settled(done: Result<EditReceipt>) -> Result<(EditReceipt, Durability)> {
    done.map(|receipt| (receipt, Durability::none()))
}

impl Drop for EditorDoc {
    /// Closing a document clears the awareness it advertised: a session
    /// whose editor window is gone must not keep showing up in
    /// `editors_on(doc)` as a ghost.
    fn drop(&mut self) {
        self.server.clear_focus(self.session, self.doc());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::bus::DocEvent;
    use crate::replica::EDIT_RETRIES;
    use tendax_text::{TextDb, TextError};

    impl EditorDoc {
        /// What `sync` does with the events it polled.
        fn apply_events(&mut self, events: Vec<Arc<DocEvent>>) -> usize {
            let session = self.session;
            self.with_replica(|r, _, _| r.integrate(events, |ev| ev.origin == session))
        }
    }

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
    fn latency_delays_but_preserves_convergence() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        tdb.create_user("bob").unwrap();
        tdb.create_document("shared", alice).unwrap();
        let server = CollabServer::with_latency(tdb, Duration::from_millis(20));
        let sa = server.connect("alice", Platform::MacOsX).unwrap();
        let sb = server.connect("bob", Platform::Linux).unwrap();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();

        da.type_text(0, "slow network").unwrap();
        // Immediately, Bob sees nothing.
        assert_eq!(db.sync(), 0);
        assert_eq!(db.text(), "");
        // After the latency elapses, the event arrives.
        let applied = db.sync_timeout(Duration::from_millis(500));
        assert_eq!(applied, 1);
        assert_eq!(db.text(), "slow network");
    }

    #[test]
    fn editor_stats_count_ops_retries_and_events() {
        let (server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();
        da.type_text(0, "base").unwrap();
        db.sync();
        // An edit lands through a raw handle, bypassing the bus: Bob's
        // pre-edit sync cannot help, so his next edit must retry.
        let tdb = server.textdb().clone();
        let alice = tdb.user_by_name("alice").unwrap();
        let mut raw = tdb.open(da.doc(), alice).unwrap();
        raw.insert_text(0, "!").unwrap();
        db.type_text(0, "X").unwrap();
        let b = db.stats();
        assert_eq!(b.ops, 1);
        assert!(b.retries >= 1, "stale view must have forced a retry");
        let a = da.stats();
        assert_eq!(a.ops, 1);
        assert_eq!(a.retries, 0);
        da.sync();
        assert!(da.stats().events_applied >= 1);
    }

    #[test]
    fn out_of_order_delivery_is_reordered() {
        let (server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();
        // Two dependent ops from Alice: "a" then "b" (b's anchor is a).
        let r1 = da.type_text(0, "a").unwrap();
        let r2 = da.type_text(1, "b").unwrap();
        db.sync(); // consume the normally-ordered events first
        assert_eq!(db.text(), "ab");

        // Now craft an out-of-order redelivery of two further ops.
        let r3 = da.type_text(2, "c").unwrap();
        let r4 = da.type_text(3, "d").unwrap();
        // Publish d-before-c to a third editor that hasn't seen either.
        let sc = server
            .connect("alice", crate::awareness::Platform::MacOsX)
            .unwrap();
        let mut dc = sc.open("shared").unwrap();
        // dc's rebuild already contains everything; force staleness by
        // rebuilding a fresh view *before* two new ops, then deliver
        // them inverted through the bus.
        let r5 = da.type_text(4, "e").unwrap();
        let r6 = da.type_text(5, "f").unwrap();
        let mk = |r: &EditReceipt, kind: &str| DocEvent {
            doc: da.doc(),
            op: r.op,
            commit_ts: r.commit_ts,
            user: da.handle().user(),
            origin: SessionId(9999), // foreign origin
            kind: kind.into(),
            effects: r.effects.clone(),
        };
        // Deliver f before e: the reorder buffer must hold f until e.
        dc.apply_events(vec![
            Arc::new(mk(&r6, "insert")),
            Arc::new(mk(&r5, "insert")),
        ]);
        assert_eq!(dc.text(), "abcdef");
        let _ = (r1, r2, r3, r4);
    }

    #[test]
    fn stale_events_below_rebuild_snapshot_are_dropped() {
        let (_server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let r = da.type_text(0, "x").unwrap();
        // Bob opens AFTER the edit: his rebuild contains it already.
        let mut db = sb.open("shared").unwrap();
        assert_eq!(db.text(), "x");
        // Redelivering the old event must be a no-op (not a duplicate).
        let ev = DocEvent {
            doc: da.doc(),
            op: r.op,
            commit_ts: r.commit_ts,
            user: da.handle().user(),
            origin: SessionId(9999),
            kind: "insert".into(),
            effects: r.effects.clone(),
        };
        let applied = db.apply_events(vec![Arc::new(ev)]);
        assert_eq!(applied, 0);
        assert_eq!(db.text(), "x");
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
        // Watchers of each document converge via their own buses.
        b_src.sync();
        b_dst.sync();
        assert_eq!(b_src.text(), "take  away");
        assert_eq!(b_dst.text(), "THIS");
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
        let doc = da.doc();
        let err = da
            .with_handle::<()>("doomed", |_h| Err(TextError::StaleView(doc)))
            .unwrap_err();
        assert_eq!(
            err,
            TextError::RetriesExhausted {
                attempts: EDIT_RETRIES,
                last: Some(Box::new(TextError::StaleView(doc))),
            }
        );
        let src = std::error::Error::source(&err).expect("carries a source");
        assert!(src.to_string().contains("stale"));
        assert_eq!(da.stats().retries as usize, EDIT_RETRIES - 1);
        assert_eq!(server.session_retries(session) as usize, EDIT_RETRIES - 1);
        assert_eq!(
            server.retries_by_session().get(&session).copied(),
            Some((EDIT_RETRIES - 1) as u64)
        );
    }

    /// Regression (stale-anchor panic): a remote event whose anchor the
    /// local cache has never heard of used to panic the process inside
    /// `Chain::insert_after`. It must instead fall back to a refresh and
    /// leave the editor consistent with the database.
    #[test]
    fn incoherent_remote_event_recovers_via_refresh() {
        use tendax_text::{CharId, Effect, StyleId, UserId};
        let (_server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        let db = sb.open("shared").unwrap();
        da.type_text(0, "solid").unwrap();
        // A forged event: inserts after an anchor that exists in the
        // database-backed view of *nobody*. `effects_applicable` would
        // buffer it forever; a second effect in the same event names the
        // phantom as introduced, so the batch passes the vet and the
        // chain itself must reject it.
        let phantom = CharId(u64::MAX - 1);
        let ev = DocEvent {
            doc: da.doc(),
            op: tendax_text::OpId::NONE,
            commit_ts: da.handle().synced_ts() + 1_000_000,
            user: db.handle().user(),
            origin: SessionId(9999),
            kind: "insert".into(),
            effects: vec![Effect::Insert {
                char: phantom,
                prev: Some(CharId(u64::MAX - 2)), // unknown anchor
                ch: '!',
                author: UserId(1),
                ts: 0,
                style: StyleId::NONE,
                src_doc: da.doc(),
                src_char: CharId::NONE,
                external: None,
            }],
        };
        // The vet rejects it (unknown anchor), so it parks in the
        // reorder buffer rather than panicking...
        da.apply_events(vec![Arc::new(ev.clone())]);
        assert_eq!(da.text(), "solid");
        // ...and a direct apply (the path a vet false-positive would
        // take) returns StaleCache instead of crashing.
        let err = da.replica.handle.apply_remote(&ev.effects).unwrap_err();
        assert!(matches!(err, TextError::StaleCache(_)));
        assert!(err.is_retryable());
        // The session heals: refresh + further edits work.
        da.replica.handle.refresh().unwrap();
        da.type_text(5, "!").unwrap();
        assert_eq!(da.text(), "solid!");
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

    /// An editor evicted from the bus for lagging recovers on its
    /// next sync: full refresh from the database plus a fresh
    /// subscription, counted in `EditorStats::resyncs`.
    #[test]
    fn evicted_editor_recovers_via_refresh() {
        use crate::bus::{BusPolicy, LanBus};
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        tdb.create_user("bob").unwrap();
        tdb.create_document("shared", alice).unwrap();
        let bus = LanBus::with_policy(BusPolicy {
            capacity: 2,
            lag_limit: 3,
        });
        let server = CollabServer::with_bus(tdb, bus);
        let sa = server.connect("alice", Platform::WindowsXp).unwrap();
        let sb = server.connect("bob", Platform::Linux).unwrap();
        let mut da = sa.open("shared").unwrap();
        let mut db = sb.open("shared").unwrap();
        // Bob never syncs while Alice types far past his queue bound.
        for i in 0..12 {
            da.type_text(i, "x").unwrap();
        }
        assert_eq!(server.transport().stats().evicted, 1);
        // Bob's next sync heals: refresh + re-subscribe.
        db.sync();
        assert_eq!(db.stats().resyncs, 1);
        assert_eq!(db.text(), da.text());
        // And the fresh subscription delivers future events normally.
        da.type_text(0, "!").unwrap();
        db.sync();
        assert_eq!(db.text(), da.text());
    }

    /// Regression (open mid-burst): `open_id` used to load, then
    /// subscribe. An operation published in between — here while the
    /// open commits its read event, after the load's snapshot — was never
    /// delivered: a deleted character stayed visible to the new editor
    /// for good.
    #[test]
    fn an_operation_published_while_opening_is_delivered() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use tendax_storage::{CommitObserver, TableId, Ts, WriteSet};
        use tendax_text::Effect;

        struct DeleteDuringOpen {
            armed: AtomicBool,
            reads: TableId,
            bus: crate::bus::LanBus,
            event: DocEvent,
        }
        impl CommitObserver for DeleteDuringOpen {
            fn committed(&self, commit_ts: Ts, writes: &WriteSet<'_>) {
                if writes.tables().any(|t| t.table() == self.reads)
                    && self.armed.swap(false, Ordering::SeqCst)
                {
                    self.bus.publish(Arc::new(DocEvent {
                        commit_ts,
                        ..self.event.clone()
                    }));
                }
            }
        }

        let (server, sa, sb) = lan();
        let mut da = sa.open("shared").unwrap();
        da.type_text(0, "abc").unwrap();
        let b = da.handle().char_at(1).unwrap();
        let database = server.textdb().database();
        let observer = Arc::new(DeleteDuringOpen {
            armed: AtomicBool::new(true),
            reads: database.table_id("reads").unwrap(),
            bus: server.transport().clone(),
            event: DocEvent {
                doc: da.doc(),
                op: tendax_text::OpId::NONE,
                commit_ts: 0,
                user: sa.user(),
                origin: sa.id(),
                kind: "delete".into(),
                effects: vec![Effect::Delete {
                    char: b,
                    by: sa.user(),
                    ts: 0,
                }],
            },
        });
        let as_observer: Arc<dyn CommitObserver> = observer.clone();
        database.observe_commits(&as_observer);

        let mut db = sb.open_id(da.doc()).unwrap();
        assert!(
            !observer.armed.load(Ordering::SeqCst),
            "the open committed no read event"
        );
        db.sync();
        assert_eq!(db.text(), "ac");
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
