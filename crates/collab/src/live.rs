//! Live documents: the server's own copy of each document its network
//! clients have open.
//!
//! TeNDaX editors are thin views on a document the server holds. A
//! [`CollabServer`] keeps one [`Replica`] per document that at least one
//! [`LiveEditor`] is attached to — loaded from the database by the first,
//! dropped with the last — and every attached editor *borrows* it.
//!
//! ## One way in
//!
//! A live copy changes only under its document's lock, through the
//! commit that changes the document. Every editor of a document — a
//! [`LiveEditor`] or an in-process [`crate::EditorDoc`] — holds the
//! document's slot from open to close, and every commit attempt it makes
//! runs through one helper (`Hold::commit`): under the slot's lock, with the
//! commit folded into the copy, if one is loaded, before the lock is
//! released. A fold applies the commit's effects if they fit the copy and
//! rebuilds the copy from the database if not; it never buffers. So:
//!
//! * edits reach the copy in commit order and never race one another's
//!   view. The lock is released once the commit is *visible*; the wait
//!   for the disk comes after, so typists on one document still share a
//!   group-commit flush;
//! * publishing a commit feeds the bus and the wire, never a copy: the
//!   order events are published in does not matter here;
//! * a snapshot is an encode of the chain under the lock — no database
//!   read.
//!
//! An editor *holds* the slot rather than look it up when it commits:
//! otherwise it could find no copy and commit while the first
//! [`LiveEditor`] is loading one, and that load could miss the commit.
//!
//! ## The frontier
//!
//! A snapshot says "everything committed at or before `synced_ts` is in
//! here". Under the document's lock that is the database's commit
//! watermark: every editor's commit on the document at or below it was
//! folded in before the lock was let go, and none is half done. Commits
//! that bypass the editors altogether (a raw `DocHandle`, a tombstone
//! purge) are not seen until a later fold finds the copy stale and
//! rebuilds it; serve such documents from editors.
//!
//! Lock order: no registry lock is held while a document's lock is
//! taken; a document's lock comes before the database's, and a move takes
//! its two documents' locks in [`DocId`] order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use tendax_storage::Durability;
use tendax_text::{DocHandle, DocId, EditReceipt, Permission, Result, TextDb, UserId};

use crate::bus::{DocEvent, SessionId};
use crate::replica::{Actor, Replica};
use crate::server::CollabServer;

/// Counters of a server's live documents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Documents with a live copy right now.
    pub documents: usize,
    /// Rebuilds from the database: a first editor attaching, or a copy
    /// found stale (a lost commit race, a commit that bypassed the
    /// editors).
    pub loads: u64,
    /// Snapshots served from a live chain.
    pub snapshots: u64,
}

#[derive(Debug, Default)]
struct LiveState {
    /// Loaded by the first attached [`LiveEditor`], dropped by the last.
    replica: Option<Replica>,
    editors: usize,
}

/// A document's lock and, under it, its live copy.
#[derive(Debug)]
pub(crate) struct Slot {
    doc: DocId,
    state: Mutex<LiveState>,
}

#[derive(Debug)]
struct Entry {
    slot: Arc<Slot>,
    /// Editors of either kind.
    holds: usize,
}

/// A server's live documents.
#[derive(Debug)]
pub struct LiveDocs {
    tdb: TextDb,
    docs: RwLock<HashMap<DocId, Entry>>,
    documents: AtomicUsize,
    loads: AtomicU64,
    snapshots: AtomicU64,
}

/// An editor's hold on its document's slot, from open to close (see the
/// module docs). A hold loads nothing; the last one out removes the slot.
#[derive(Debug)]
pub(crate) struct Hold {
    docs: Arc<LiveDocs>,
    slot: Arc<Slot>,
}

impl Drop for Hold {
    fn drop(&mut self) {
        let mut docs = self.docs.docs.write();
        if let Some(entry) = docs.get_mut(&self.slot.doc) {
            entry.holds -= 1;
            if entry.holds == 0 {
                docs.remove(&self.slot.doc);
            }
        }
    }
}

type Locked<'a> = [Option<(DocId, MutexGuard<'a, LiveState>)>; 2];

/// The live copy of `doc` among the locked slots, if one is loaded.
fn copy_of<'g>(locked: &'g mut Locked<'_>, doc: DocId) -> Option<&'g mut Replica> {
    let (_, state) = locked.iter_mut().flatten().find(|(d, _)| *d == doc)?;
    state.replica.as_mut()
}

impl Hold {
    pub(crate) fn doc(&self) -> DocId {
        self.slot.doc
    }

    /// The one way a commit reaches a document (see the module docs): one
    /// commit attempt under this document's lock and, for a move,
    /// `other`'s — taken in [`DocId`] order, once per document. `attempt`
    /// is handed this document's live copy, if one is loaded;
    /// `elsewhere` names, per document, what it committed through any
    /// other handle, and each of those is folded into its document's copy
    /// before the locks are released.
    pub(crate) fn commit<T>(
        &self,
        other: Option<&Hold>,
        attempt: impl FnOnce(Option<&mut Replica>) -> Result<T>,
        elsewhere: impl FnOnce(&T, &mut dyn FnMut(DocId, &EditReceipt)),
    ) -> Result<T> {
        let own = &*self.slot;
        let other = other.map(|o| &*o.slot).filter(|o| o.doc != own.doc);
        let (first, second) = match other {
            Some(o) if o.doc < own.doc => (o, Some(own)),
            _ => (own, other),
        };
        let mut locked: Locked<'_> =
            [Some(first), second].map(|s| s.map(|s| (s.doc, s.state.lock())));
        let done = attempt(copy_of(&mut locked, own.doc))?;
        elsewhere(&done, &mut |doc, receipt| {
            if let Some(copy) = copy_of(&mut locked, doc) {
                self.docs.fold(copy, receipt);
            }
        });
        Ok(done)
    }
}

impl LiveDocs {
    pub(crate) fn new(tdb: TextDb) -> Self {
        LiveDocs {
            tdb,
            docs: RwLock::default(),
            documents: AtomicUsize::new(0),
            loads: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> LiveStats {
        LiveStats {
            documents: self.documents.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
        }
    }

    /// Take a hold on `doc`'s slot, creating the slot if it is absent.
    pub(crate) fn hold(self: &Arc<Self>, doc: DocId) -> Hold {
        let mut docs = self.docs.write();
        let entry = docs.entry(doc).or_insert_with(|| Entry {
            slot: Arc::new(Slot {
                doc,
                state: Mutex::default(),
            }),
            holds: 0,
        });
        entry.holds += 1;
        Hold {
            docs: Arc::clone(self),
            slot: Arc::clone(&entry.slot),
        }
    }

    fn get(&self, doc: DocId) -> Option<Arc<Slot>> {
        self.docs.read().get(&doc).map(|e| Arc::clone(&e.slot))
    }

    /// Hold `doc` as a [`LiveEditor`], loading its copy if it is the
    /// first.
    fn attach(self: &Arc<Self>, doc: DocId) -> Result<Hold> {
        let hold = self.hold(doc);
        let mut state = hold.slot.state.lock();
        if state.replica.is_none() {
            let handle = self.tdb.load(doc, UserId::NONE)?;
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.documents.fetch_add(1, Ordering::Relaxed);
            state.replica = Some(Replica::new(handle, None));
        }
        state.editors += 1;
        drop(state);
        Ok(hold)
    }

    /// A [`LiveEditor`] lets go; the last one drops the copy.
    fn detach(&self, slot: &Slot) {
        let mut state = slot.state.lock();
        state.editors -= 1;
        if state.editors == 0 {
            state.replica = None;
            self.documents.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Bring `copy` up to a commit made under its lock through another
    /// handle: apply its effects if they fit, rebuild from the database
    /// if not.
    fn fold(&self, copy: &mut Replica, receipt: &EditReceipt) {
        let handle = &mut copy.handle;
        let applied = handle.effects_applicable(&receipt.effects)
            && handle.apply_remote(&receipt.effects).is_ok();
        if !applied && copy.refresh().is_ok() {
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
        let Some(slot) = self.get(doc) else {
            return Ok(None);
        };
        self.tdb.check_permission(doc, user, Permission::Read)?;
        Ok(self.at_frontier(&slot, f))
    }

    /// Run `f` on the live handle with its `synced_ts` at the frontier
    /// (see the module docs); `None` if no copy is loaded.
    fn at_frontier<T>(&self, slot: &Slot, f: impl FnOnce(&DocHandle) -> T) -> Option<T> {
        let mut state = slot.state.lock();
        let replica = state.replica.as_mut()?;
        let frontier = self.tdb.database().last_commit_ts();
        replica.handle.advance_synced(frontier);
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        Some(f(&replica.handle))
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
    hold: Hold,
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
        let hold = docs.attach(doc)?;
        server.presence_update(session, |p| {
            p.doc = Some(doc);
            p.cursor = Some(0);
        });
        let editor = LiveEditor {
            server: server.clone(),
            hold,
            session,
            user,
        };
        let snapshot = editor.at_frontier(f);
        Ok((editor, snapshot))
    }

    pub fn doc(&self) -> DocId {
        self.hold.slot.doc
    }

    fn at_frontier<T>(&self, f: impl FnOnce(&DocHandle) -> T) -> T {
        self.server
            .live()
            .at_frontier(&self.hold.slot, f)
            .expect("attached documents are loaded")
    }

    /// The reader opens the document again while holding it: one more
    /// read event, one more snapshot.
    pub fn reopen<T>(&self, f: impl FnOnce(&DocHandle) -> T) -> Result<T> {
        self.server.live().tdb.record_read(self.doc(), self.user)?;
        Ok(self.at_frontier(f))
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

    /// Commit through the live copy in this editor's name, under the
    /// document's lock (the copy made the commit, so there is nothing to
    /// fold). The wait for the disk comes after the lock is
    /// released, so the typists queued behind it share a group-commit
    /// flush.
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
        let docs = self.server.live();
        let mut durability = Durability::none();
        let attempt = |copy: Option<&mut Replica>| {
            let replica = copy.expect("attached documents are loaded");
            replica.handle.act_as(self.user);
            let pos = pos.min(replica.handle.len());
            let refreshes = replica.stats.refreshes;
            let done = replica.perform_at(who, kind, pos, |h, p| {
                let (receipt, owed) = f(h, p)?;
                durability = owed;
                Ok(receipt)
            });
            let loads = replica.stats.refreshes - refreshes;
            docs.loads.fetch_add(loads, Ordering::Relaxed);
            done
        };
        let done = self.hold.commit(None, attempt, |_, _| {});
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
        self.server.clear_focus(self.session, self.doc());
        self.server.live().detach(&self.hold.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awareness::Platform;
    use tendax_storage::Ts;

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

    /// The live copy's characters in chain order, tombstones included.
    fn chain(h: &DocHandle) -> Vec<(tendax_text::CharId, char, bool)> {
        let mut chars = Vec::new();
        h.for_each_char(|id, info| chars.push((id, info.ch, info.deleted)));
        chars
    }

    fn live_equals_a_fresh_load(server: &CollabServer, doc: DocId) {
        let live = server.live().snapshot(doc, UserId(1), chain).unwrap();
        let fresh = server.textdb().load(doc, UserId::NONE).unwrap();
        assert_eq!(live.expect("live"), chain(&fresh));
    }

    /// Two in-process editors publish in the opposite order of their
    /// commits: the first one's event is parked on the bus while the
    /// second commits and publishes. Publication feeds no live copy, so
    /// the copy has both in commit order and was never rebuilt.
    #[test]
    fn publication_out_of_commit_order_leaves_the_live_copy_alone() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;

        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let sb = server.connect("bob", Platform::MacOsX).unwrap();
        let (_reader, _) = sa.open_live(doc, |_| ()).unwrap();
        let mut ea = sa.open_id(doc).unwrap();
        let mut eb = sb.open_id(doc).unwrap();
        let (parked_tx, parked) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (parked_tx, released) = (Mutex::new(parked_tx), Mutex::new(released));
        let armed = AtomicBool::new(true);
        server
            .transport()
            .register_publish_hook(Box::new(move |ev| {
                if armed.swap(false, Ordering::SeqCst) {
                    parked_tx.lock().send(ev.commit_ts).unwrap();
                    let _ = released.lock().recv();
                }
                true
            }));

        let first = std::thread::spawn(move || ea.type_text(0, "a").unwrap());
        let parked_ts = parked.recv().unwrap();
        let second = eb.type_text(0, "b").unwrap();
        release.send(()).unwrap();
        let first = first.join().unwrap();
        assert!(first.commit_ts == parked_ts && parked_ts < second.commit_ts);

        live_equals_a_fresh_load(&server, doc);
        assert_eq!(server.live().stats().loads, 1);
    }

    /// A commit that bypasses the editors (a raw handle) is not in the
    /// live copy. An editor's commit that builds on it does not fit the
    /// copy, and the fold rebuilds the copy from the database rather than
    /// wait for an event that will never come.
    #[test]
    fn a_commit_the_live_copy_cannot_fit_rebuilds_it() {
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let (_reader, _) = sa.open_live(doc, |_| ()).unwrap();
        let mut raw = server.textdb().open(doc, sa.user()).unwrap();
        raw.insert_text(0, "raw").unwrap();
        // Opened after the raw commit: its insert anchors on a character
        // the copy has never seen.
        let mut editor = sa.open_id(doc).unwrap();
        editor.type_text(3, "!").unwrap();

        assert_eq!(live_text(&server, doc), "raw!");
        live_equals_a_fresh_load(&server, doc);
        assert_eq!(server.live().stats().loads, 2);
    }

    /// Snapshots taken while two in-process editors type: whatever
    /// frontier a snapshot names, every commit at or below it is in its
    /// chain. (Mutation check: fold a commit after letting go of the
    /// document's lock, and some snapshot comes in between.)
    #[test]
    fn every_snapshot_holds_the_commits_below_its_frontier() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use tendax_text::{CharId, Effect};

        const EDITS: usize = 400;
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let sb = server.connect("bob", Platform::MacOsX).unwrap();
        let (_reader, _) = sa.open_live(doc, |_| ()).unwrap();
        let typing = Arc::new(AtomicBool::new(true));
        let typists: Vec<_> = [sa.open_id(doc).unwrap(), sb.open_id(doc).unwrap()]
            .into_iter()
            .map(|mut editor| {
                std::thread::spawn(move || {
                    (0..EDITS)
                        .map(|i| {
                            editor.sync();
                            let receipt = editor.type_text(i % (editor.len() + 1), "x").unwrap();
                            let [Effect::Insert { char, .. }] = receipt.effects[..] else {
                                panic!("one insert per keystroke");
                            };
                            (receipt.commit_ts, char)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let reader = {
            let (server, typing) = (server.clone(), Arc::clone(&typing));
            std::thread::spawn(move || {
                let mut snapshots = Vec::new();
                while typing.load(Ordering::Relaxed) {
                    let snapshot = server.live().snapshot(doc, UserId(1), |h| {
                        let mut ids = HashSet::new();
                        h.for_each_char(|id, _| {
                            ids.insert(id);
                        });
                        (h.synced_ts(), ids)
                    });
                    snapshots.push(snapshot.unwrap().expect("live"));
                }
                snapshots
            })
        };
        let typed: Vec<(Ts, CharId)> = typists
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        typing.store(false, Ordering::Relaxed);
        let snapshots = reader.join().unwrap();
        assert!(!snapshots.is_empty());
        for (frontier, ids) in &snapshots {
            for (ts, char) in &typed {
                assert!(
                    *ts > *frontier || ids.contains(char),
                    "a snapshot at {frontier} lacks the commit at {ts}"
                );
            }
        }
        live_equals_a_fresh_load(&server, doc);
    }
}
