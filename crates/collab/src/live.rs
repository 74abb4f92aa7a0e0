//! Live documents: the server's own copy of each document its network
//! clients have open.
//!
//! TeNDaX editors are thin views on a document the server holds. A
//! [`CollabServer`] keeps one [`Replica`] per document that at least one
//! [`LiveEditor`] is attached to — loaded from the database by the first,
//! dropped with the last — and every attached editor *borrows* it:
//!
//! * an edit locks the document, commits through its one handle in the
//!   editor's name, and has folded its effects in before the lock is
//!   released, so edits through the live document apply in commit order
//!   and never race one another's view. The lock is released once the
//!   commit is *visible*; the wait for the disk comes after, so typists
//!   on one document still share a group-commit flush;
//! * commits made elsewhere on the server (an in-process
//!   [`crate::EditorDoc`]) are applied by [`CollabServer`]'s publish, on
//!   their committing thread, through the same reorder buffer an editor's
//!   own replica uses;
//! * a snapshot is an encode of the chain under the lock — no database
//!   read.
//!
//! ## The frontier
//!
//! A snapshot says "everything committed at or before `synced_ts` is in
//! here". The newest commit *applied* is not that: an editor's commit is
//! in the database before its event is published. So the server counts,
//! per document, the commits that have begun in an editor and are not yet
//! published ([`InFlight`], which travels with the event from commit to
//! publish). A snapshot reads the database's commit watermark `F` and
//! *then*, still under the document's lock, that count: at zero, every
//! commit at or below `F` was made through the live document (folded in
//! under the lock) or has been published (applied by the publish, under
//! the lock, before the guard drops) — `F` is a frontier. Otherwise it
//! lets go of the lock and waits for the count to drain; it never
//! guesses. Commits that bypass the
//! server's editors altogether (a raw `DocHandle`) are not seen until a
//! conflicting edit forces a rebuild; serve such documents from editors.
//!
//! Lock order: the document's lock is taken with no registry lock held,
//! and the in-flight table's lock only inside it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};
use tendax_storage::{Durability, Ts};
use tendax_text::{DocHandle, DocId, EditReceipt, Permission, Result, TextDb, UserId};

use crate::bus::{DocEvent, SessionId};
use crate::replica::{Actor, Replica};
use crate::server::CollabServer;

/// Counters of a server's live documents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Documents live right now.
    pub documents: usize,
    /// Rebuilds from the database: a first editor attaching, or a view
    /// found stale (a lost commit race, an event out of commit order).
    pub loads: u64,
    /// Snapshots served from a live chain.
    pub snapshots: u64,
    /// Snapshots that had to wait for an unpublished commit first.
    pub frontier_waits: u64,
}

#[derive(Debug, Default)]
struct LiveState {
    /// `None` until the first attached editor has loaded it.
    replica: Option<Replica>,
    /// Commits made through this copy (folded in under the lock) whose
    /// events are yet to be published: those events are echoes here.
    unpublished: Vec<Ts>,
}

type LiveDoc = Mutex<LiveState>;

#[derive(Debug)]
struct Attached {
    live: Arc<LiveDoc>,
    editors: usize,
}

/// A server's live documents and its count of unpublished commits.
#[derive(Debug)]
pub struct LiveDocs {
    tdb: TextDb,
    docs: RwLock<HashMap<DocId, Attached>>,
    in_flight: Mutex<InFlightTable>,
    /// Signalled when a document's count returns to zero while a
    /// snapshot waits.
    drained: Condvar,
    loads: AtomicU64,
    snapshots: AtomicU64,
    frontier_waits: AtomicU64,
}

#[derive(Debug, Default)]
struct InFlightTable {
    /// Commits begun in an editor and not yet published, per document.
    counts: HashMap<DocId, usize>,
    /// Snapshots waiting on `drained`: every keystroke passes through
    /// here, and a notification nobody hears is still a system call.
    waiters: usize,
}

/// One commit between its beginning and the end of its publication (see
/// the module docs). Dropping it counts the commit as published.
#[derive(Debug)]
pub(crate) struct InFlight {
    docs: Arc<LiveDocs>,
    doc: DocId,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        let mut table = self.docs.in_flight.lock();
        if let Some(left) = table.counts.get_mut(&self.doc) {
            *left -= 1;
            if *left == 0 {
                table.counts.remove(&self.doc);
                if table.waiters > 0 {
                    self.docs.drained.notify_all();
                }
            }
        }
    }
}

impl LiveDocs {
    pub(crate) fn new(tdb: TextDb) -> Self {
        LiveDocs {
            tdb,
            docs: RwLock::default(),
            in_flight: Mutex::default(),
            drained: Condvar::new(),
            loads: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            frontier_waits: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> LiveStats {
        LiveStats {
            documents: self.docs.read().len(),
            loads: self.loads.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            frontier_waits: self.frontier_waits.load(Ordering::Relaxed),
        }
    }

    /// Count a commit on `doc` as begun; it counts as published when the
    /// guard is dropped.
    pub(crate) fn begin_commit(self: &Arc<Self>, doc: DocId) -> InFlight {
        *self.in_flight.lock().counts.entry(doc).or_insert(0) += 1;
        InFlight {
            docs: Arc::clone(self),
            doc,
        }
    }

    fn get(&self, doc: DocId) -> Option<Arc<LiveDoc>> {
        self.docs.read().get(&doc).map(|a| Arc::clone(&a.live))
    }

    /// Attach an editor, loading the document if it is the first.
    fn attach(&self, doc: DocId) -> Result<Arc<LiveDoc>> {
        let live = {
            let mut docs = self.docs.write();
            let attached = docs.entry(doc).or_insert_with(|| Attached {
                live: Arc::default(),
                editors: 0,
            });
            attached.editors += 1;
            Arc::clone(&attached.live)
        };
        let mut state = live.lock();
        if state.replica.is_none() {
            // Events published from here on wait for this lock and find
            // the replica; the load covers whatever committed before.
            match self.tdb.load(doc, UserId::NONE) {
                Ok(handle) => {
                    self.loads.fetch_add(1, Ordering::Relaxed);
                    state.replica = Some(Replica::new(handle, None));
                }
                Err(e) => {
                    drop(state);
                    self.detach(doc);
                    return Err(e);
                }
            }
        }
        drop(state);
        Ok(live)
    }

    /// Detach an editor; the last one out drops the document.
    fn detach(&self, doc: DocId) {
        let mut docs = self.docs.write();
        if let Some(attached) = docs.get_mut(&doc) {
            attached.editors -= 1;
            if attached.editors == 0 {
                docs.remove(&doc);
            }
        }
    }

    /// Integrate a commit made elsewhere on the server into the
    /// document's live copy, if it has one. Called by
    /// [`CollabServer`]'s publish before the commit's [`InFlight`] guard
    /// drops, which the frontier depends on.
    pub(crate) fn apply(&self, ev: &Arc<DocEvent>) {
        let Some(live) = self.get(ev.doc) else {
            return;
        };
        let mut state = live.lock();
        let LiveState {
            replica: Some(replica),
            unpublished,
        } = &mut *state
        else {
            return; // still loading, and the load will cover it
        };
        if let Some(echo) = unpublished.iter().position(|&ts| ts == ev.commit_ts) {
            unpublished.swap_remove(echo);
            return; // committed through this copy, folded in then
        }
        // Publication can invert commit order. Applied late, an insert
        // would land in front of a newer one behind the same anchor, and
        // a delete could undo its own undo; the database has them in
        // order.
        let late =
            ev.commit_ts < replica.newest_applied() && ev.commit_ts > replica.handle.synced_ts();
        let refreshed = if late {
            replica.refresh().is_ok()
        } else {
            replica
                .integrate(std::iter::once(Arc::clone(ev)), |_| false)
                .refreshed
        };
        if refreshed {
            self.loads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A transport repair — resync, lost-stream recovery: the live
    /// document's snapshot for a reader who has it open already. Checks
    /// [`Permission::Read`] and records nothing. `None` if the document
    /// is not live.
    pub fn snapshot<T>(
        &self,
        doc: DocId,
        user: UserId,
        f: impl FnOnce(&DocHandle) -> T,
    ) -> Result<Option<T>> {
        let Some(live) = self.get(doc) else {
            return Ok(None);
        };
        self.tdb.check_permission(doc, user, Permission::Read)?;
        Ok(self.at_frontier(&live, doc, f))
    }

    /// Run `f` on the live handle with its `synced_ts` at a frontier
    /// (see the module docs).
    fn at_frontier<T>(
        &self,
        live: &LiveDoc,
        doc: DocId,
        f: impl FnOnce(&DocHandle) -> T,
    ) -> Option<T> {
        let mut waited = false;
        loop {
            let mut state = live.lock();
            let replica = state.replica.as_mut()?;
            let frontier = self.tdb.database().last_commit_ts();
            // Read after the frontier: a commit at or below it began, and
            // was counted, before it.
            let mut table = self.in_flight.lock();
            if !table.counts.contains_key(&doc) {
                drop(table);
                replica.handle.advance_synced(frontier);
                self.snapshots.fetch_add(1, Ordering::Relaxed);
                self.frontier_waits
                    .fetch_add(waited as u64, Ordering::Relaxed);
                return Some(f(&replica.handle));
            }
            // Its publication needs the document's lock.
            drop(state);
            waited = true;
            table.waiters += 1;
            while table.counts.contains_key(&doc) {
                self.drained.wait(&mut table);
            }
            table.waiters -= 1;
        }
    }
}

/// What an edit through a live document returns: the receipt, and the
/// broadcast its caller owes to [`LiveEditor::publish`].
pub type Committed = Result<(EditReceipt, Option<DocEvent>)>;

/// One session's hold on a live document: the server-side editor of a
/// network connection. Dropping it clears the presence it advertised and
/// lets go of the document.
#[derive(Debug)]
pub struct LiveEditor {
    server: CollabServer,
    live: Arc<LiveDoc>,
    doc: DocId,
    session: SessionId,
    user: UserId,
}

impl LiveEditor {
    /// Open `doc` for `session`: the [`Permission::Read`] check and read
    /// event of any open, a hold on the live document, and `f` of its
    /// handle at a frontier.
    pub(crate) fn open<T>(
        server: &CollabServer,
        doc: DocId,
        session: SessionId,
        user: UserId,
        f: impl FnOnce(&DocHandle) -> T,
    ) -> Result<(LiveEditor, T)> {
        let docs = server.live();
        docs.tdb.record_read(doc, user)?;
        let live = docs.attach(doc)?;
        server.presence_update(session, |p| {
            p.doc = Some(doc);
            p.cursor = Some(0);
        });
        let snapshot = docs
            .at_frontier(&live, doc, f)
            .expect("attached documents are loaded");
        let editor = LiveEditor {
            server: server.clone(),
            live,
            doc,
            session,
            user,
        };
        Ok((editor, snapshot))
    }

    pub fn doc(&self) -> DocId {
        self.doc
    }

    /// The reader opens the document again while holding it: one more
    /// read event, one more snapshot.
    pub fn reopen<T>(&self, f: impl FnOnce(&DocHandle) -> T) -> Result<T> {
        let docs = self.server.live();
        docs.tdb.record_read(self.doc, self.user)?;
        Ok(docs
            .at_frontier(&self.live, self.doc, f)
            .expect("attached documents are loaded"))
    }

    /// Type `text` at `pos`, clamped to the document (a remote caller's
    /// positions are advisory: they may race other edits).
    pub fn insert(&self, pos: usize, text: &str) -> Committed {
        let (at, receipt, event) =
            self.edit("insert", pos, |h, p| h.insert_text_visible(p, text))?;
        self.moved_cursor(at + text.chars().count());
        Ok((receipt, event))
    }

    /// Delete `len` characters at `pos`, both clamped to the document.
    pub fn delete(&self, pos: usize, len: usize) -> Committed {
        let (at, receipt, event) = self.edit("delete", pos, |h, p| {
            h.delete_range_visible(p, len.min(h.len() - p))
        })?;
        self.moved_cursor(at);
        Ok((receipt, event))
    }

    /// Commit under the document's lock, in this editor's name. The lock
    /// is held until the commit is visible and its effects are folded in
    /// — not across the wait for the disk, so the typists queued behind
    /// it share a group-commit flush.
    fn edit(
        &self,
        kind: &str,
        pos: usize,
        mut f: impl FnMut(&mut DocHandle, usize) -> Result<(EditReceipt, Durability)>,
    ) -> Result<(usize, EditReceipt, Option<DocEvent>)> {
        let who = Actor {
            server: &self.server,
            session: self.session,
        };
        let mut state = self.live.lock();
        let LiveState {
            replica: Some(replica),
            unpublished,
        } = &mut *state
        else {
            unreachable!("attached documents are loaded");
        };
        replica.handle.act_as(self.user);
        let pos = pos.min(replica.handle.len());
        let refreshes = replica.stats.refreshes;
        let mut durability = Durability::none();
        let done = replica.perform_at(who, kind, pos, |h, p| {
            let (receipt, owed) = f(h, p)?;
            durability = owed;
            Ok(receipt)
        });
        let loads = replica.stats.refreshes - refreshes;
        self.server.live().loads.fetch_add(loads, Ordering::Relaxed);
        if let Ok((.., Some(event))) = &done {
            unpublished.push(event.commit_ts);
        }
        drop(state);
        durability.wait()?;
        done
    }

    fn moved_cursor(&self, cursor: usize) {
        self.server
            .presence_update(self.session, |p| p.cursor = Some(cursor));
    }

    /// Broadcast a committed edit to the document's other editors.
    pub fn publish(&self, event: Option<DocEvent>) {
        self.server.publish(self.session, event);
    }
}

impl Drop for LiveEditor {
    fn drop(&mut self) {
        self.server.clear_focus(self.session, self.doc);
        self.server.live().detach(self.doc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awareness::Platform;

    fn served() -> (CollabServer, DocId) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("shared", alice).unwrap();
        (CollabServer::new(tdb), doc)
    }

    fn live_text(server: &CollabServer, doc: DocId) -> String {
        server
            .live()
            .snapshot(doc, UserId(1), |h| h.text())
            .unwrap()
            .expect("live")
    }

    /// One handle, many authors: each edit is checked, attributed and
    /// broadcast in the name of the editor that made it.
    #[test]
    fn editors_sharing_a_live_document_commit_in_their_own_names() {
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let sb = server.connect("bob", Platform::MacOsX).unwrap();
        let (a, _) = sa.open_live(doc, |_| ()).unwrap();
        let (b, at_open) = sb.open_live(doc, |h| h.synced_ts()).unwrap();
        assert_eq!(server.live().stats().loads, 1);

        let (_, typed) = a.insert(0, "alice").unwrap();
        // Past the end: clamped, not refused.
        let (_, added) = b.insert(99, " & bob").unwrap();
        let (typed, added) = (typed.unwrap(), added.unwrap());
        assert_eq!((typed.origin, typed.user), (sa.id(), sa.user()));
        assert_eq!((added.origin, added.user), (sb.id(), sb.user()));
        // The echoes change nothing: both edits were folded in already.
        a.publish(Some(typed));
        b.publish(Some(added.clone()));
        assert_eq!(live_text(&server, doc), "alice & bob");

        let fresh = server.textdb().load(doc, UserId::NONE).unwrap();
        let authors: Vec<UserId> = (0..fresh.len())
            .map(|i| fresh.char_info(fresh.char_at(i).unwrap()).unwrap().author)
            .collect();
        assert!(authors[..5].iter().all(|&u| u == sa.user()));
        assert!(authors[5..].iter().all(|&u| u == sb.user()));
        // A snapshot's frontier covers every commit folded in.
        let frontier = b.reopen(|h| h.synced_ts()).unwrap();
        assert!(at_open < added.commit_ts && added.commit_ts <= frontier);
        assert_eq!(server.textdb().read_count(doc).unwrap(), 3);
    }

    /// Two in-process editors race for the document head and publish in
    /// the opposite order of their commits. Applied as they arrive, the
    /// older insert would land in front of the newer one; the live copy
    /// notices the inversion and takes the order from the database.
    #[test]
    fn an_event_out_of_commit_order_rebuilds_the_live_copy() {
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let sb = server.connect("bob", Platform::MacOsX).unwrap();
        let (_reader, _) = sa.open_live(doc, |_| ()).unwrap();
        let mut ea = sa.open_id(doc).unwrap();
        let mut eb = sb.open_id(doc).unwrap();

        let (first, held) = ea.commit_text(0, "a").unwrap();
        // Bob's view is stale: he retries, and lands in front of "a".
        let second = eb.type_text(0, "b").unwrap();
        assert!(first.commit_ts < second.commit_ts);
        ea.publish(held);

        assert_eq!(server.textdb().document_text(doc).unwrap(), "ba");
        assert_eq!(live_text(&server, doc), "ba");
        assert_eq!(server.live().stats().loads, 2);
    }
}
