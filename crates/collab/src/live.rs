//! Live documents: the server's one copy of each open document.
//!
//! TeNDaX editors are thin views on a document the server holds. A
//! [`CollabServer`] keeps one copy — a [`DocHandle`] — of every document
//! an editor has open, of either kind: a network connection's
//! [`LiveEditor`], or an in-process [`crate::EditorDoc`], which is a
//! `LiveEditor` with a cursor. The first editor to open a document loads
//! its copy from the database, the last to close it drops it, and every
//! editor in between reads and edits that one copy.
//!
//! ## One copy per document
//!
//! A copy changes only under its document's lock, by the commit that
//! changes the document: an edit runs on the copy itself, in its
//! editor's name (`act_as`), and the copy has applied its own commit
//! before the lock is released. So:
//!
//! * edits reach the copy in commit order, and every editor sees a commit
//!   the moment it is made. The lock is released once the commit is
//!   *visible*; the wait for the disk comes after, so typists on one
//!   document still share a group-commit flush;
//! * publishing a commit feeds the wire (the bus's hooks), never a copy;
//! * a snapshot is an encode of the chain under the lock — no database
//!   read.
//!
//! Only a commit that bypasses the editors — a raw `DocHandle`, a
//! tombstone purge — can leave a copy behind the database. Before an
//! edit's first try and before a snapshot, the copy's `synced_ts` is
//! compared with the document's `chars` change stamp (the newest commit
//! that wrote one of its characters, `TextDb::doc_stamp`): a newer stamp
//! means such a commit, and the copy is rebuilt from the database first.
//! An edit whose try still fails retryably — a bypass commit landed
//! while it ran — rebuilds the copy and is tried once more, still under
//! the lock and with no sleep: edit transactions write only their own
//! document's rows, so under the lock nothing else can make the second
//! try fail.
//!
//! ## The frontier
//!
//! A snapshot says "everything committed at or before `synced_ts` is in
//! here". Under the document's lock that is the database's commit
//! watermark, read *before* the stamp: a commit is stamped before it
//! becomes visible, so every commit at or below that watermark that
//! wrote the document's characters is either the copy's own or shows in
//! the stamp. After a successful try the stamps keep the document's two
//! newest `chars` commits: if the newer is the try's own and the older at
//! or below the `synced_ts` the try began from — or both are, when the
//! try changed no character — the copy advances to the watermark, so the
//! editors' own commits never look like a bypass. Otherwise a bypass
//! commit landed while the try ran, and the copy is rebuilt.
//!
//! ## One order per document
//!
//! A commit posts its one event — a move within one document posts both
//! halves as one — in the document's outbox under the document's lock, so
//! in commit order, and hands its editor a [`Ticket`]. The editor
//! resolves it once the commit is durable (a network edit once its reply
//! is queued, too), or withdraws it if the commit never became durable.
//! Whoever resolves a ticket publishes the outbox's resolved prefix, in
//! order, unless a publication is running: that one finds the entry
//! before it stops. No publisher waits for another, and no lock is held
//! across a publication; a hook that panics costs its one event. A ticket
//! dropped unresolved (a cut, an early return, an unwind) publishes its
//! event.
//!
//! ## A re-open is a delta
//!
//! Beside the copy, under the same lock, a live document keeps a *tail*:
//! each event its outbox was handed, shared, posted in commit order, and
//! `complete_since`, a timestamp above which the tail holds every commit
//! of the document. A reader who comes back with a replica at a frontier
//! `from` (a closed mirror, a lost stream) is owed only the tail's events
//! above `from` — a [`Join::delta`] — when `complete_since ≤ from`, and a
//! snapshot otherwise. A delta claims what a snapshot at the same frontier
//! would, a commit still waiting for the disk included.
//!
//! The tail keeps as many events as encode to at most the copy's
//! `chain_len` bytes, dropping the oldest first: past that, a snapshot is
//! the cheaper answer. A commit that is not in the tail moves
//! `complete_since` up to the copy's frontier: a load (whatever committed
//! while nobody had the document open), a rebuild (a commit that bypassed
//! the editors, a purge) and a withdrawn ticket (a commit the copy has but
//! whose event is never sent).
//!
//! Lock order: no registry lock is held while a document's lock is
//! taken; a document's lock comes before the database's and its
//! outbox's, and a move takes its two documents' locks in [`DocId`]
//! order. The lock is not reentrant: a thread that holds it — inside an
//! edit, or through a [`DocView`] — must not take it again through
//! another editor of the same document. A metadata service never waits
//! for it: its read of a copy only tries it, and a service that finds
//! it taken reads the database instead.

use std::collections::{vec_deque, HashMap, VecDeque};
use std::ops::Deref;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use tendax_storage::{Durability, Ts};
use tendax_text::{
    Clip, DocHandle, DocId, EditReceipt, Permission, Result, StyleId, TextDb, TextError,
    TextSource, UserId,
};

use crate::bus::{DocEvent, EventKind, LanBus, SessionId};
use crate::server::CollabServer;
use crate::session::EditorStats;

/// How many tries an edit gets. A try that fails retryably means a
/// commit bypassed the editors (see the module docs): the copy is rebuilt
/// and the edit tried once more.
pub(crate) const EDIT_RETRIES: usize = 2;

/// Counters of a server's live documents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Documents with a live copy right now.
    pub documents: usize,
    /// Copies built from the database: a first editor opening a
    /// document, or an edit that found its copy stale (a commit bypassed
    /// the editors).
    pub loads: u64,
    /// Snapshots served from a live chain.
    pub snapshots: u64,
    /// Deltas served from a live document's tail.
    pub deltas: u64,
}

/// A document's lock and, under it, its copy and tail: loaded while any
/// editor holds the slot, taken out by the last one to let go. Beside
/// them, the document's outbox: its events in commit order, each until its
/// editor resolves it (see "One order per document" in the module docs).
#[derive(Debug)]
struct Slot {
    doc: DocId,
    copy: Mutex<Option<Live>>,
    bus: LanBus,
    outbox: Mutex<Outbox>,
}

/// A loaded document: the copy, and the tail of its events.
#[derive(Debug)]
struct Live {
    handle: DocHandle,
    tail: Tail,
}

/// A live document's recent events, for readers who come back (see "A
/// re-open is a delta" in the module docs).
#[derive(Debug)]
struct Tail {
    /// In commit order, each above `complete_since`.
    events: VecDeque<Arc<DocEvent>>,
    /// `wire_len` summed over `events`.
    bytes: usize,
    /// The tail holds every commit of the document above this.
    complete_since: Ts,
}

impl Tail {
    fn new(complete_since: Ts) -> Tail {
        Tail {
            events: VecDeque::new(),
            bytes: 0,
            complete_since,
        }
    }

    /// Append the event of a commit on the copy, then let the oldest go
    /// while the tail would encode to more than `budget` bytes.
    fn push(&mut self, event: Arc<DocEvent>, budget: usize) {
        if event.commit_ts <= self.complete_since {
            return;
        }
        self.bytes += event.wire_len();
        self.events.push_back(event);
        while self.bytes > budget {
            let Some(oldest) = self.events.pop_front() else {
                break;
            };
            self.bytes -= oldest.wire_len();
            self.complete_since = oldest.commit_ts;
        }
    }

    /// Vouch for nothing at or below `ts` any more.
    fn restart(&mut self, ts: Ts) {
        self.complete_since = self.complete_since.max(ts);
        while let Some(oldest) = self.events.front() {
            if oldest.commit_ts > self.complete_since {
                break;
            }
            self.bytes -= oldest.wire_len();
            self.events.pop_front();
        }
    }

    /// The events above `from`, if the tail holds every one of them.
    fn since(&self, from: Ts) -> Option<vec_deque::Iter<'_, Arc<DocEvent>>> {
        (self.complete_since <= from).then(|| {
            let first = self.events.partition_point(|e| e.commit_ts <= from);
            self.events.range(first..)
        })
    }
}

/// A live document at a frontier, under its lock, as a reader who joins
/// its event stream is owed it: the copy (what a snapshot encodes; this
/// derefs to it) and, for a reader who holds the document up to some
/// `from` already, the events since, if the tail holds them all.
pub struct Join<'a> {
    handle: &'a DocHandle,
    complete_since: Ts,
    delta: Option<(Ts, vec_deque::Iter<'a, Arc<DocEvent>>)>,
}

impl<'a> Join<'a> {
    /// `from`, and the document's events above it in commit order: what
    /// brings a replica that holds every commit up to `from` to the copy's
    /// `synced_ts`. `None` if only a snapshot will do.
    pub fn delta(&self) -> Option<(Ts, impl ExactSizeIterator<Item = &'a DocEvent> + 'a)> {
        let (from, events) = self.delta.clone()?;
        Some((from, events.map(|event| &**event)))
    }

    /// The tail holds every commit of the document above this: a delta is
    /// served from any frontier at or above it.
    pub fn complete_since(&self) -> Ts {
        self.complete_since
    }
}

impl Deref for Join<'_> {
    type Target = DocHandle;

    fn deref(&self) -> &DocHandle {
        self.handle
    }
}

#[derive(Debug, Default)]
struct Outbox {
    /// The ticket number of `entries[0]`.
    first: u64,
    entries: VecDeque<Posting>,
    /// A thread is publishing the resolved prefix.
    draining: bool,
}

#[derive(Debug)]
enum Posting {
    /// Committed; its editor has not resolved it yet.
    Waiting(Arc<DocEvent>),
    /// To be published, or (`None`) withdrawn.
    Resolved(Option<Arc<DocEvent>>),
}

impl Slot {
    /// Append `event` to the outbox, under the document's lock; returns
    /// its ticket number.
    fn post(&self, event: Arc<DocEvent>) -> u64 {
        let mut outbox = self.outbox.lock();
        outbox.entries.push_back(Posting::Waiting(event));
        outbox.first + outbox.entries.len() as u64 - 1
    }

    /// A commit on the copy will never have its event sent (its ticket is
    /// withdrawn): the tail stops vouching for anything up to the copy's
    /// frontier, so no delta reaches past the commit. (A copy that a
    /// failed rebuild left behind its own commits is rebuilt, its tail
    /// restarted, before a reader is served from it.)
    fn forget_tail(&self) {
        if let Some(live) = self.copy.lock().as_mut() {
            live.tail.restart(live.handle.synced_ts());
        }
    }

    /// Resolve entry `n`: to be published if `send`, else withdrawn. An
    /// entry resolved already, or published, is left as it is.
    fn resolve(&self, n: u64, send: bool) {
        let mut outbox = self.outbox.lock();
        let Some(i) = n.checked_sub(outbox.first).map(|i| i as usize) else {
            return;
        };
        if let Some(Posting::Waiting(event)) = outbox.entries.get(i) {
            let event = send.then(|| Arc::clone(event));
            outbox.entries[i] = Posting::Resolved(event);
        }
    }

    /// Publish the resolved prefix in order, unless another thread is
    /// publishing it: that one looks at the head again before it stops.
    /// A hook that panics costs its one event: the rest still leave, and
    /// the panic goes on once the publication has ended.
    fn drain(&self) {
        let mut outbox = self.outbox.lock();
        if std::mem::replace(&mut outbox.draining, true) {
            return;
        }
        let mut panicked = None;
        while let Some(Posting::Resolved(_)) = outbox.entries.front() {
            outbox.first += 1;
            if let Some(Posting::Resolved(Some(event))) = outbox.entries.pop_front() {
                drop(outbox);
                let sent = panic::catch_unwind(AssertUnwindSafe(|| self.bus.publish(event)));
                panicked = panicked.or(sent.err());
                outbox = self.outbox.lock();
            }
        }
        outbox.draining = false;
        if let Some(panic) = panicked {
            panic::resume_unwind(panic);
        }
    }
}

/// A committed edit's place in its document's outbox: the edit's event
/// leaves once the ticket is resolved and every event committed before it
/// has left or been withdrawn. [`Ticket::publish`], or a drop, resolves
/// it and publishes what is due; an edit that changed no character has an
/// empty ticket.
#[derive(Debug, Default)]
pub struct Ticket(Option<(Arc<Slot>, u64)>);

impl Ticket {
    /// Let the event go once the events before it have, without
    /// publishing anything now: the next publication of the document —
    /// this ticket's, or another editor's — carries it.
    pub fn ready(&self) {
        if let Some((slot, n)) = &self.0 {
            slot.resolve(*n, true);
        }
    }

    /// Resolve the ticket and publish what is due.
    pub fn publish(self) {}

    /// The commit never became durable: its event is never sent, and no
    /// delta carries it.
    fn withdraw(mut self) {
        if let Some((slot, _)) = &self.0 {
            slot.forget_tail();
        }
        self.close(false);
    }

    fn close(&mut self, send: bool) {
        if let Some((slot, n)) = self.0.take() {
            slot.resolve(n, send);
            slot.drain();
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.close(true);
    }
}

#[derive(Debug)]
struct Entry {
    slot: Arc<Slot>,
    editors: usize,
}

/// A server's live documents.
#[derive(Debug)]
pub struct LiveDocs {
    tdb: TextDb,
    /// The bus the documents' events are published on.
    pub(crate) bus: LanBus,
    docs: RwLock<HashMap<DocId, Entry>>,
    documents: AtomicUsize,
    loads: AtomicU64,
    snapshots: AtomicU64,
    deltas: AtomicU64,
}

/// The copy in a locked slot: every editor holding the slot keeps it
/// loaded.
fn loaded(copy: &mut Option<Live>) -> &mut Live {
    copy.as_mut().expect("an open document is loaded")
}

impl LiveDocs {
    pub(crate) fn new(tdb: TextDb) -> Self {
        LiveDocs {
            tdb,
            bus: LanBus::new(),
            docs: RwLock::default(),
            documents: AtomicUsize::new(0),
            loads: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> LiveStats {
        LiveStats {
            documents: self.documents.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            deltas: self.deltas.load(Ordering::Relaxed),
        }
    }

    /// Hold `doc`'s slot for one more editor, loading its copy if this is
    /// the first.
    fn attach(&self, doc: DocId) -> Result<Arc<Slot>> {
        let slot = {
            let mut docs = self.docs.write();
            let entry = docs.entry(doc).or_insert_with(|| Entry {
                slot: Arc::new(Slot {
                    doc,
                    copy: Mutex::default(),
                    bus: self.bus.clone(),
                    outbox: Mutex::default(),
                }),
                editors: 0,
            });
            entry.editors += 1;
            Arc::clone(&entry.slot)
        };
        let mut copy = slot.copy.lock();
        if copy.is_none() {
            match self.tdb.load(doc, UserId::NONE) {
                Ok(handle) => {
                    let tail = Tail::new(handle.synced_ts());
                    *copy = Some(Live { handle, tail });
                    self.loads.fetch_add(1, Ordering::Relaxed);
                    self.documents.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    drop(copy);
                    self.release(&slot);
                    return Err(e);
                }
            }
        }
        drop(copy);
        Ok(slot)
    }

    /// An editor lets go of `slot`; the last one drops the copy. (A
    /// snapshot that found the slot before then finds no copy.)
    fn release(&self, slot: &Slot) {
        let mut docs = self.docs.write();
        let Some(entry) = docs.get_mut(&slot.doc) else {
            return;
        };
        entry.editors -= 1;
        if entry.editors > 0 {
            return;
        }
        docs.remove(&slot.doc);
        drop(docs);
        if slot.copy.lock().take().is_some() {
            self.documents.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn get(&self, doc: DocId) -> Option<Arc<Slot>> {
        self.docs.read().get(&doc).map(|e| Arc::clone(&e.slot))
    }

    /// Build a copy again from the database.
    fn refresh(&self, handle: &mut DocHandle) -> Result<()> {
        handle.refresh()?;
        self.loads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rebuild a stale copy: a commit bypassed the editors, so its tail
    /// vouches for nothing the rebuilt copy holds.
    fn rebuild(&self, live: &mut Live) -> Result<()> {
        self.refresh(&mut live.handle)?;
        live.tail.restart(live.handle.synced_ts());
        Ok(())
    }

    /// Bring a locked copy to the frontier: rebuild it if a commit
    /// that bypassed the editors wrote the document's characters since
    /// its `synced_ts`, then vouch for the watermark (see the module
    /// docs for why the watermark is read first).
    fn catch_up(&self, live: &mut Live) -> Result<()> {
        let frontier = self.tdb.database().last_commit_ts();
        let chars = self.tdb.tables().chars;
        if self.tdb.doc_stamp(&[chars], live.handle.doc()) > live.handle.synced_ts() {
            self.rebuild(live)?;
        }
        live.handle.advance_synced(frontier);
        Ok(())
    }

    /// After a try that committed, with the copy at `before` when it
    /// began: vouch for the watermark if no commit but `own` — the try's,
    /// if it changed this document's characters — wrote them since;
    /// else a bypass commit landed while the try ran, and the copy is
    /// rebuilt. The edit has committed whatever happens here, so a failed
    /// rebuild is not its error: the copy keeps its `synced_ts`, and the
    /// next catch-up rebuilds it again.
    fn settle(&self, live: &mut Live, before: Ts, own: Option<Ts>) {
        let frontier = self.tdb.database().last_commit_ts();
        let [newest, below] = self
            .tdb
            .doc_stamps(self.tdb.tables().chars, live.handle.doc());
        let only_own = match own {
            Some(own) => newest == own && below <= before,
            None => newest <= before,
        };
        if only_own {
            live.handle.advance_synced(frontier);
        } else {
            let _ = self.rebuild(live);
        }
    }

    /// The visible text of `doc`'s copy at the frontier, and that frontier,
    /// without waiting: `None` if nobody holds the document, if its copy is
    /// taken out, or if its lock is held — by an edit in flight, or by
    /// this thread's own [`DocView`]. Like [`TextDb::document_text`], it
    /// checks no rights and records nothing, and it is not a served
    /// snapshot. A copy a bypass commit left behind is rebuilt first.
    fn held_text(&self, doc: DocId) -> Result<Option<(String, Ts)>> {
        let Some(slot) = self.get(doc) else {
            return Ok(None);
        };
        let Some(mut copy) = slot.copy.try_lock() else {
            return Ok(None);
        };
        let Some(live) = copy.as_mut() else {
            return Ok(None);
        };
        self.catch_up(live)?;
        Ok(Some((live.handle.text(), live.handle.synced_ts())))
    }

    /// [`LiveDocs::join`] with no replica to resume: `f` of the copy.
    pub fn snapshot<T>(
        &self,
        doc: DocId,
        user: UserId,
        f: impl FnOnce(&DocHandle) -> T,
    ) -> Result<Option<T>> {
        self.join(doc, user, None, |at| f(at))
    }

    /// A transport repair — resync, lost-stream recovery: `f` of the live
    /// document at a frontier, under the document's lock, for a reader
    /// who has it open already and, if `from` is given, holds it up to
    /// `from`. Checks [`Permission::Read`] and records nothing. `None` if
    /// the document is not live.
    pub fn join<T>(
        &self,
        doc: DocId,
        user: UserId,
        from: Option<Ts>,
        f: impl FnOnce(&Join<'_>) -> T,
    ) -> Result<Option<T>> {
        let Some(slot) = self.get(doc) else {
            return Ok(None);
        };
        self.tdb.check_permission(doc, user, Permission::Read)?;
        self.at_frontier(&slot, from, f)
    }

    /// Run `f` on the live document caught up to the frontier (see the
    /// module docs), with the tail's events above `from` if it holds them
    /// all; `None` if no copy is loaded.
    fn at_frontier<T>(
        &self,
        slot: &Slot,
        from: Option<Ts>,
        f: impl FnOnce(&Join<'_>) -> T,
    ) -> Result<Option<T>> {
        let mut copy = slot.copy.lock();
        let Some(live) = copy.as_mut() else {
            return Ok(None);
        };
        self.catch_up(live)?;
        let Live { handle, tail } = live;
        let delta = from
            .filter(|&from| from <= handle.synced_ts())
            .and_then(|from| Some((from, tail.since(from)?)));
        let served = match delta {
            Some(_) => &self.deltas,
            None => &self.snapshots,
        };
        served.fetch_add(1, Ordering::Relaxed);
        let join = Join {
            handle,
            complete_since: tail.complete_since,
            delta,
        };
        Ok(Some(f(&join)))
    }
}

/// A held copy's text where `held_text` gives one, else the database's:
/// how a metadata service built over a server's live documents reads
/// content, never waiting for a document's lock.
impl TextSource for LiveDocs {
    fn textdb(&self) -> &TextDb {
        &self.tdb
    }

    fn visible_text(&self, doc: DocId) -> Result<(String, Ts)> {
        match self.held_text(doc)? {
            Some(held) => Ok(held),
            None => self.tdb.visible_text(doc),
        }
    }
}

/// An editor's read view of its document: the live copy, in the editor's
/// name, under the document's lock until the view is dropped. Take what
/// you need and let it go; see [`crate::EditorDoc::handle`].
pub struct DocView<'a>(MutexGuard<'a, Option<Live>>);

impl Deref for DocView<'_> {
    type Target = DocHandle;

    fn deref(&self) -> &DocHandle {
        &self.0.as_ref().expect("an open document is loaded").handle
    }
}

/// A committed edit: its receipt, and the ticket of its event, which its
/// editor owes to [`LiveEditor::publish`].
pub type Published = (EditReceipt, Ticket);

/// What an edit through a live document returns.
pub type Committed = Result<Published>;

/// One session's hold on a live document: the server-side editor of a
/// network connection, and the core of an in-process
/// [`crate::EditorDoc`]. Every edit commits on the live copy in this
/// editor's name and hands back the ticket of its event, which the caller
/// publishes when it sees fit. `insert` and `delete` clamp their
/// positions (a network client's are advisory); the other edits refuse
/// one beyond the document, as the text layer does. Dropping the editor
/// clears the presence it advertised and lets go of the document.
#[derive(Debug)]
pub struct LiveEditor {
    server: CollabServer,
    slot: Arc<Slot>,
    session: SessionId,
    user: UserId,
    ops: AtomicU64,
    retries: AtomicU64,
}

impl LiveEditor {
    /// Open `doc` for `session`: the [`Permission::Read`] check and read
    /// event of any open, a hold on the live copy (loaded by the first
    /// editor) and the session's focus.
    pub(crate) fn attach(
        server: &CollabServer,
        doc: DocId,
        session: SessionId,
        user: UserId,
    ) -> Result<LiveEditor> {
        let docs = server.live();
        docs.tdb.record_read(doc, user)?;
        let slot = docs.attach(doc)?;
        server.presence_update(session, |p| {
            p.doc = Some(doc);
            p.cursor = Some(0);
        });
        Ok(LiveEditor {
            server: server.clone(),
            slot,
            session,
            user,
            ops: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        })
    }

    /// [`LiveEditor::attach`], and `f` of the document at a frontier, for
    /// a reader who holds it up to `from` if given: a network client's
    /// first view.
    pub(crate) fn open<T>(
        server: &CollabServer,
        doc: DocId,
        session: SessionId,
        user: UserId,
        from: Option<Ts>,
        f: impl FnOnce(&Join<'_>) -> T,
    ) -> Result<(LiveEditor, T)> {
        let editor = Self::attach(server, doc, session, user)?;
        let view = editor.at_frontier(from, f)?;
        Ok((editor, view))
    }

    pub fn doc(&self) -> DocId {
        self.slot.doc
    }

    pub fn session(&self) -> SessionId {
        self.session
    }

    pub(crate) fn server(&self) -> &CollabServer {
        &self.server
    }

    /// This editor's activity counters. Each retry rebuilt the copy once;
    /// the counters of remote events read 0, as there are none.
    pub fn stats(&self) -> EditorStats {
        let retries = self.retries.load(Ordering::Relaxed);
        EditorStats {
            ops: self.ops.load(Ordering::Relaxed),
            retries,
            refreshes: retries,
            ..EditorStats::default()
        }
    }

    /// The document's lock, with the copy under it in this editor's
    /// name.
    fn lock(&self) -> MutexGuard<'_, Option<Live>> {
        let mut copy = self.slot.copy.lock();
        loaded(&mut copy).handle.act_as(self.user);
        copy
    }

    /// The live copy, read in this editor's name under the document's
    /// lock.
    pub(crate) fn view(&self) -> DocView<'_> {
        DocView(self.lock())
    }

    fn at_frontier<T>(&self, from: Option<Ts>, f: impl FnOnce(&Join<'_>) -> T) -> Result<T> {
        let view = self.server.live().at_frontier(&self.slot, from, f)?;
        Ok(view.expect("an open document is loaded"))
    }

    /// The reader opens the document again while holding it: one more
    /// read event, and `f` of the document at a frontier, under the
    /// document's lock, for a reader who holds it up to `from` if given.
    pub fn reopen<T>(&self, from: Option<Ts>, f: impl FnOnce(&Join<'_>) -> T) -> Result<T> {
        self.server.live().tdb.record_read(self.doc(), self.user)?;
        self.at_frontier(from, f)
    }

    /// Type `text` at `pos`, clamped to the document (a remote caller's
    /// positions are advisory: they may race other edits).
    pub fn insert(&self, pos: usize, text: &str) -> Committed {
        let mut at = pos;
        let done = self.edit_deferred(EventKind::Insert, |h| {
            at = pos.min(h.len());
            h.insert_text_visible(at, text)
        })?;
        self.moved_cursor(at + text.chars().count());
        Ok(done)
    }

    /// Delete `len` characters at `pos`, both clamped to the document.
    pub fn delete(&self, pos: usize, len: usize) -> Committed {
        let mut at = pos;
        let done = self.edit_deferred(EventKind::Delete, |h| {
            at = pos.min(h.len());
            h.delete_range_visible(at, len.min(h.len() - at))
        })?;
        self.moved_cursor(at);
        Ok(done)
    }

    pub fn paste(&self, pos: usize, clip: &Clip) -> Committed {
        self.edit(EventKind::Paste, |h| h.paste(pos, clip))
    }

    pub fn paste_external(&self, pos: usize, text: &str, source: &str) -> Committed {
        self.edit(EventKind::Paste, |h| h.paste_external(pos, text, source))
    }

    pub fn apply_style(&self, pos: usize, len: usize, style: StyleId) -> Committed {
        self.edit(EventKind::Style, |h| h.apply_style(pos, len, style))
    }

    pub fn undo(&self) -> Committed {
        self.edit(EventKind::Undo, |h| h.undo())
    }

    pub fn redo(&self) -> Committed {
        self.edit(EventKind::Redo, |h| h.redo())
    }

    pub fn global_undo(&self) -> Committed {
        self.edit(EventKind::Undo, |h| h.global_undo())
    }

    pub fn global_redo(&self) -> Committed {
        self.edit(EventKind::Redo, |h| h.global_redo())
    }

    /// Move text into `dst`'s document in one transaction, under both
    /// documents' locks. Returns each half: this editor owes the
    /// deletion's event, `dst` the insertion's — or, within one document,
    /// this editor owes the one event of both, and `dst`'s ticket is empty.
    pub fn move_text(
        &self,
        pos: usize,
        len: usize,
        dst: &LiveEditor,
        dst_pos: usize,
    ) -> Result<(Published, Published)> {
        let moved = if dst.doc() == self.doc() {
            // Through a second handle, after which the copy holds only half
            // of the move. One commit, so one event: the document's stream
            // rises strictly in commit_ts.
            let ((del, ins), _, both) = self.with_kind(EventKind::Move, |src| {
                let mut to = self.server.textdb().load(self.doc(), dst.user)?;
                let (del, ins) = src.move_to(pos, len, &mut to, dst_pos)?;
                // The copy takes the other half; the tail gets both, as
                // the move's one event.
                self.server.live().refresh(src)?;
                let effects = [&del.effects[..], &ins.effects].concat();
                let both = EditReceipt {
                    effects,
                    op: del.op,
                    commit_ts: del.commit_ts,
                };
                Ok(((del, ins), both))
            })?;
            ((del, both), (ins, Ticket::default()))
        } else {
            let ((del, ins), [moved_out, moved_in]) = self.commit(
                Some(dst),
                |src, to| src.move_to(pos, len, to.expect("a second document"), dst_pos),
                |(del, ins)| [Some(del), Some(ins)],
                [Some(EventKind::Delete), Some(EventKind::Paste)],
            )?;
            ((del, moved_out), (ins, moved_in))
        };
        dst.ops.fetch_add(1, Ordering::Relaxed);
        Ok(moved)
    }

    /// Run an arbitrary handle operation on the live copy under the edit
    /// protocol (notes, objects, structure, versions, …). `f` runs under
    /// the document's lock, perhaps twice (see the module docs): it must
    /// not open, view or edit this document through another editor.
    pub fn with_handle<T>(
        &self,
        kind: &str,
        f: impl FnMut(&mut DocHandle) -> Result<(T, EditReceipt)>,
    ) -> Result<(T, EditReceipt, Ticket)> {
        self.with_kind(EventKind::named(kind), f)
    }

    /// [`LiveEditor::with_handle`], its event of `kind`.
    fn with_kind<T>(
        &self,
        kind: EventKind,
        mut f: impl FnMut(&mut DocHandle) -> Result<(T, EditReceipt)>,
    ) -> Result<(T, EditReceipt, Ticket)> {
        let ((value, receipt), [ticket, _]) = self.commit(
            None,
            |h, _| f(h),
            |(_, receipt)| [Some(receipt), None],
            [Some(kind), None],
        )?;
        Ok((value, receipt, ticket))
    }

    /// [`LiveEditor::with_handle`] of an operation that returns nothing
    /// else.
    fn edit(
        &self,
        kind: EventKind,
        mut f: impl FnMut(&mut DocHandle) -> Result<EditReceipt>,
    ) -> Committed {
        let ((), receipt, ticket) = self.with_kind(kind, |h| Ok(((), f(h)?)))?;
        Ok((receipt, ticket))
    }

    /// [`LiveEditor::edit`] of an operation that hands back its wait for
    /// the disk: the wait comes after the document's lock is released, so
    /// the typists queued behind it share a group-commit flush. A commit
    /// whose wait fails is not durable: its event is withdrawn.
    pub(crate) fn edit_deferred(
        &self,
        kind: EventKind,
        mut f: impl FnMut(&mut DocHandle) -> Result<(EditReceipt, Durability)>,
    ) -> Committed {
        let mut durability = Durability::none();
        let (receipt, ticket) = self.edit(kind, |h| {
            let (receipt, owed) = f(h)?;
            durability = owed;
            Ok(receipt)
        })?;
        match durability.wait() {
            Ok(()) => Ok((receipt, ticket)),
            Err(e) => {
                ticket.withdraw();
                Err(e.into())
            }
        }
    }

    /// The one way an edit reaches a document: tries of `attempt` on the
    /// live copy — and, for a move, `dst`'s, each in its own editor's
    /// name — under the documents' locks, taken in [`DocId`] order. The
    /// copies are caught up before the first try; a try that fails
    /// retryably rebuilds them before the next, and one that succeeds
    /// settles them after it and, still under the locks, posts the event
    /// of each receipt `receipts` names — this editor's, then `dst`'s —
    /// that changed characters, as `kinds` says, in its document's outbox.
    fn commit<T>(
        &self,
        dst: Option<&LiveEditor>,
        mut attempt: impl FnMut(&mut DocHandle, Option<&mut DocHandle>) -> Result<T>,
        receipts: impl Fn(&T) -> [Option<&EditReceipt>; 2],
        mut kinds: [Option<EventKind>; 2],
    ) -> Result<(T, [Ticket; 2])> {
        let editors = [Some(self), dst];
        let (mut own, mut theirs) = match dst {
            Some(d) if d.doc() < self.doc() => {
                let theirs = d.lock();
                (self.lock(), Some(theirs))
            }
            _ => (self.lock(), dst.map(LiveEditor::lock)),
        };
        let docs = self.server.live();
        docs.catch_up(loaded(&mut own))?;
        if let Some(other) = theirs.as_deref_mut() {
            docs.catch_up(loaded(other))?;
        }
        let mut last = None;
        for tried in 0..EDIT_RETRIES {
            if tried > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                self.server.note_retry(self.session);
                docs.rebuild(loaded(&mut own))?;
                if let Some(other) = theirs.as_deref_mut() {
                    docs.rebuild(loaded(other))?;
                }
            }
            let copy = &mut loaded(&mut own).handle;
            let other = theirs.as_deref_mut().map(|c| &mut loaded(c).handle);
            let before = (copy.synced_ts(), other.as_deref().map(DocHandle::synced_ts));
            match attempt(copy, other) {
                Ok(done) => {
                    let changed = receipts(&done).map(|r| r.filter(|r| !r.effects.is_empty()));
                    let [mine, dst] = changed.map(|r| r.map(|r| r.commit_ts));
                    docs.settle(loaded(&mut own), before.0, mine);
                    if let (Some(other), Some(at)) = (theirs.as_deref_mut(), before.1) {
                        docs.settle(loaded(other), at, dst);
                    }
                    self.ops.fetch_add(1, Ordering::Relaxed);
                    let mut copies = [Some(&mut *own), theirs.as_deref_mut()];
                    let tickets =
                        [0, 1].map(|i| match (editors[i], changed[i], copies[i].take()) {
                            (Some(editor), Some(receipt), Some(copy)) => {
                                let kind = kinds[i].take().expect("an editor's event has a kind");
                                editor.post(loaded(copy), kind, receipt)
                            }
                            _ => Ticket::default(),
                        });
                    return Ok((done, tickets));
                }
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(TextError::RetriesExhausted {
            attempts: EDIT_RETRIES,
            last: last.map(Box::new),
        })
    }

    /// Post the event of `receipt`, this editor's commit, in the
    /// document's tail and outbox: under the document's lock, so in commit
    /// order, and in the tail before it can be published.
    fn post(&self, live: &mut Live, kind: EventKind, receipt: &EditReceipt) -> Ticket {
        let event = Arc::new(DocEvent {
            doc: self.doc(),
            op: receipt.op,
            commit_ts: receipt.commit_ts,
            user: self.user,
            origin: self.session,
            kind,
            effects: receipt.effects.clone(),
        });
        live.tail.push(Arc::clone(&event), live.handle.chain_len());
        let n = self.slot.post(event);
        Ticket(Some((Arc::clone(&self.slot), n)))
    }

    fn moved_cursor(&self, cursor: usize) {
        self.server
            .presence_update(self.session, |p| p.cursor = Some(cursor));
    }

    /// Send a committed edit's event to the document's other editors,
    /// after every event committed before it.
    pub fn publish(&self, ticket: Ticket) {
        if ticket.0.is_some() {
            // `presence_update` stamps last_active for us.
            self.server.presence_update(self.session, |_| {});
        }
        ticket.publish();
    }
}

impl Drop for LiveEditor {
    fn drop(&mut self) {
        self.server.clear_focus(self.session, self.doc());
        self.server.live().release(&self.slot);
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

    /// Every event the server's bus publishes, from now on.
    fn captured(server: &CollabServer) -> Arc<Mutex<Vec<Arc<DocEvent>>>> {
        let events = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&events);
        server
            .transport()
            .register_publish_hook(Box::new(move |ev| {
                log.lock().push(Arc::clone(ev));
                true
            }));
        events
    }

    /// One handle, many authors: each edit is checked, attributed and
    /// broadcast in the name of the editor that made it.
    #[test]
    fn editors_sharing_a_live_document_commit_in_their_own_names() {
        let (server, doc) = served();
        let events = captured(&server);
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let sb = server.connect("bob", Platform::MacOsX).unwrap();
        let (a, _) = sa.open_live(doc, None, |_| ()).unwrap();
        let (b, at_open) = sb.open_live(doc, None, |h| h.synced_ts()).unwrap();
        assert_eq!(server.live().stats().loads, 1);

        let (_, typed) = a.insert(0, "alice").unwrap();
        // Past the end: clamped, not refused.
        let (_, added) = b.insert(99, " & bob").unwrap();
        // The echoes change nothing: both edits ran on the copy.
        a.publish(typed);
        b.publish(added);
        assert_eq!(live_text(&server, doc), "alice & bob");
        let events = events.lock();
        let [typed, added] = &events[..] else {
            panic!("two events: {:?}", *events);
        };
        assert_eq!((typed.origin, typed.user), (sa.id(), sa.user()));
        assert_eq!((added.origin, added.user), (sb.id(), sb.user()));

        let fresh = server.textdb().load(doc, UserId::NONE).unwrap();
        let authors: Vec<UserId> = (0..fresh.len())
            .map(|i| fresh.char_info(fresh.char_at(i).unwrap()).unwrap().author)
            .collect();
        assert!(authors[..5].iter().all(|&u| u == sa.user()));
        assert!(authors[5..].iter().all(|&u| u == sb.user()));
        // A snapshot's frontier covers every commit on the copy.
        let frontier = b.reopen(None, |h| h.synced_ts()).unwrap();
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
    /// commits: the first one's publication is parked in a publish hook
    /// while the second commits and publishes. The second call returns
    /// without waiting for the parked one, and its event waits behind the
    /// parked one's; once released, both leave in commit order. Publication
    /// feeds no live copy, so the copy has both in commit order and was
    /// never rebuilt. (A publisher that waited for a running publication
    /// would deadlock here.)
    #[test]
    fn publication_out_of_commit_order_leaves_the_live_copy_alone() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;

        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let sb = server.connect("bob", Platform::MacOsX).unwrap();
        let (_reader, _) = sa.open_live(doc, None, |_| ()).unwrap();
        let mut ea = sa.open_id(doc).unwrap();
        let mut eb = sb.open_id(doc).unwrap();
        let (parked_tx, parked) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (parked_tx, released) = (Mutex::new(parked_tx), Mutex::new(released));
        let armed = AtomicBool::new(true);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        server
            .transport()
            .register_publish_hook(Box::new(move |ev| {
                log.lock().push(ev.commit_ts);
                if armed.swap(false, Ordering::SeqCst) {
                    parked_tx.lock().send(ev.commit_ts).unwrap();
                    let _ = released.lock().recv();
                }
                true
            }));

        let first = std::thread::spawn(move || ea.type_text(0, "a").unwrap());
        let parked_ts = parked.recv().unwrap();
        let second = eb.type_text(0, "b").unwrap();
        assert_eq!(*seen.lock(), [parked_ts], "the later event left first");
        release.send(()).unwrap();
        let first = first.join().unwrap();
        assert!(first.commit_ts == parked_ts && parked_ts < second.commit_ts);
        assert_eq!(*seen.lock(), [first.commit_ts, second.commit_ts]);

        live_equals_a_fresh_load(&server, doc);
        assert_eq!(server.live().stats().loads, 1);
    }

    /// An event leaves only after every event committed before it has left
    /// or been withdrawn: the second commit's ticket, resolved first,
    /// publishes nothing while the first's is unresolved; resolving the
    /// first publishes both, in commit order. A withdrawn event is never
    /// sent and holds nothing back.
    #[test]
    fn an_event_waits_for_the_commits_before_it() {
        let (server, doc) = served();
        let events = captured(&server);
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let sb = server.connect("bob", Platform::MacOsX).unwrap();
        let (a, _) = sa.open_live(doc, None, |_| ()).unwrap();
        let (b, _) = sb.open_live(doc, None, |_| ()).unwrap();
        let sent = || -> Vec<Ts> { events.lock().iter().map(|ev| ev.commit_ts).collect() };

        let (first, first_ticket) = a.insert(0, "a").unwrap();
        let (second, second_ticket) = b.insert(0, "b").unwrap();
        b.publish(second_ticket);
        assert!(sent().is_empty(), "{:?}", sent());
        a.publish(first_ticket);
        assert_eq!(sent(), [first.commit_ts, second.commit_ts]);

        let (_, withdrawn) = a.insert(0, "c").unwrap();
        let (third, third_ticket) = b.insert(0, "d").unwrap();
        b.publish(third_ticket);
        withdrawn.withdraw();
        assert_eq!(sent(), [first.commit_ts, second.commit_ts, third.commit_ts]);
    }

    /// A publish hook that panics costs its one event: the panic reaches
    /// the publisher, and the document's later events still leave.
    /// (Mutation check: publish without catching the panic, and the
    /// outbox stays marked as publishing: the later event is never sent.)
    #[test]
    fn a_panicking_hook_costs_one_event() {
        use std::sync::atomic::AtomicBool;

        let (server, doc) = served();
        let sent = captured(&server);
        let armed = AtomicBool::new(true);
        server.transport().register_publish_hook(Box::new(move |_| {
            assert!(!armed.swap(false, Ordering::SeqCst), "a hook panics");
            true
        }));
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let (a, _) = sa.open_live(doc, None, |_| ()).unwrap();

        let (_, first) = a.insert(0, "a").unwrap();
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| a.publish(first)));
        assert!(unwound.is_err());
        let (second, ticket) = a.insert(1, "b").unwrap();
        a.publish(ticket);
        let sent: Vec<Ts> = sent.lock().iter().map(|ev| ev.commit_ts).collect();
        assert_eq!(sent.last(), Some(&second.commit_ts));
        assert_eq!(live_text(&server, doc), "ab");
    }

    /// A commit that bypasses the editors (a raw handle) is not in the
    /// live copy, but it is in the document's `chars` change stamp: the
    /// next edit rebuilds the copy before its first try, which lands.
    /// (Before change stamps were consulted, the try failed on the
    /// neighbour rows it wrote and cost a retry.)
    #[test]
    fn a_commit_the_live_copy_cannot_fit_rebuilds_it() {
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let mut editor = sa.open_id(doc).unwrap();
        let loads = server.live().stats().loads;
        let mut raw = server.textdb().open(doc, sa.user()).unwrap();
        raw.insert_text(0, "raw").unwrap();

        let mut tries = Vec::new();
        editor
            .with_handle("insert", |h| {
                let typed = h.insert_text(0, "!");
                tries.push(typed.as_ref().err().cloned());
                Ok(((), typed?))
            })
            .unwrap();
        assert_eq!(tries, [None]);
        assert_eq!(server.live().stats().loads, loads + 1);
        assert_eq!(editor.stats().retries, 0);
        assert_eq!(editor.text(), "!raw");
        live_equals_a_fresh_load(&server, doc);
    }

    /// A bypass commit that shares no row with the next edit: a raw
    /// handle deletes "world" while an editor types elsewhere. The edit
    /// commits without a conflict, so only the stamp can tell the copy is
    /// behind: the edit rebuilds it first, and so does a snapshot. (Before
    /// the stamp was read, the copy — and every snapshot encoded from it —
    /// kept showing "world".)
    #[test]
    fn a_bypass_delete_is_caught_by_the_next_edit_and_snapshot() {
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let mut editor = sa.open_id(doc).unwrap();
        editor.type_text(0, "hello world").unwrap();
        let mut raw = server.textdb().open(doc, sa.user()).unwrap();
        let loads = server.live().stats().loads;

        raw.delete_range(6, 5).unwrap();
        editor.type_text(0, "!").unwrap();
        assert_eq!(editor.text(), "!hello ");
        assert_eq!(server.live().stats().loads, loads + 1);
        live_equals_a_fresh_load(&server, doc);

        raw.refresh().unwrap();
        raw.delete_range(0, 1).unwrap();
        assert_eq!(live_text(&server, doc), "hello ");
        assert_eq!(server.live().stats().loads, loads + 2);
        assert_eq!(editor.stats().retries, 0);
    }

    /// A bypass commit that lands inside an edit's try and shares no row
    /// with it: the try commits, and its own commit is not the only one
    /// since the copy's `synced_ts` in the document's stamps, so the copy
    /// is rebuilt after it rather than vouched for. (When a successful
    /// try advanced the copy to the watermark unchecked, the copy and its
    /// snapshots kept "world".)
    #[test]
    fn a_bypass_during_a_try_that_lands_is_caught_after_it() {
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let mut editor = sa.open_id(doc).unwrap();
        editor.type_text(0, "hello world").unwrap();
        let tdb = server.textdb().clone();
        let loads = server.live().stats().loads;
        let mut tries = 0;
        editor
            .with_handle("insert", |h| {
                tries += 1;
                let mut raw = tdb.open(doc, sa.user()).unwrap();
                raw.delete_range(6, 5).unwrap();
                Ok(((), h.insert_text(0, "!")?))
            })
            .unwrap();
        assert_eq!((tries, editor.stats().retries), (1, 0));
        assert_eq!(server.live().stats().loads, loads + 1);
        assert_eq!(live_text(&server, doc), "!hello ");
        live_equals_a_fresh_load(&server, doc);
        // The editor's own commits alone are vouched for: no rebuild.
        editor.type_text(1, "?").unwrap();
        assert_eq!(live_text(&server, doc), "!?hello ");
        assert_eq!(server.live().stats().loads, loads + 1);
    }

    /// A bypass commit that lands inside an edit's first try — here it
    /// purges the very character the try anchors on — fails that try
    /// retryably (its anchor is gone), which costs one rebuild and one
    /// retry, and the second try lands. (Mutation check: skip the
    /// rebuild before the retry, and the second try fails too.)
    #[test]
    fn a_bypass_during_the_first_try_costs_one_retry() {
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let mut editor = sa.open_id(doc).unwrap();
        editor.type_text(0, "ab").unwrap();
        let tdb = server.textdb().clone();
        let mut tries = Vec::new();
        editor
            .with_handle("insert", |h| {
                if tries.is_empty() {
                    let mut raw = tdb.open(doc, sa.user()).unwrap();
                    raw.delete_range(0, 1).unwrap();
                    tdb.purge_tombstones(doc, tdb.now()).unwrap();
                }
                let typed = h.insert_text(1, "!");
                tries.push(typed.as_ref().map_err(TextError::is_retryable).err());
                Ok(((), typed?))
            })
            .unwrap();
        assert_eq!(tries, [Some(true), None]);
        assert_eq!(editor.stats().retries, 1);
        assert_eq!(editor.text(), "b!");
        live_equals_a_fresh_load(&server, doc);
    }

    /// No product code in this crate sleeps: a retry rebuilds the copy and
    /// runs at once, and it runs under the document's lock, where a sleep
    /// would stall every editor and snapshot of the document. (Mutation
    /// check: sleep before the retry.)
    #[test]
    fn no_product_code_sleeps() {
        let sources = [
            ("awareness.rs", include_str!("awareness.rs")),
            ("bus.rs", include_str!("bus.rs")),
            ("live.rs", include_str!("live.rs")),
            ("server.rs", include_str!("server.rs")),
            ("session.rs", include_str!("session.rs")),
        ];
        for (name, source) in sources {
            let product = source.split("#[cfg(test)]").next().unwrap();
            assert!(!product.contains("sleep("), "{name} sleeps");
        }
    }

    /// Snapshots taken while two in-process editors type: whatever
    /// frontier a snapshot names, every commit at or below it is in its
    /// chain. (Mutation check: run a try with the copy taken out of its
    /// slot and the document's lock let go, and some snapshot comes in
    /// between.)
    #[test]
    fn every_snapshot_holds_the_commits_below_its_frontier() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use tendax_text::{CharId, Effect};

        const EDITS: usize = 400;
        let (server, doc) = served();
        let sa = server.connect("alice", Platform::Linux).unwrap();
        let sb = server.connect("bob", Platform::MacOsX).unwrap();
        let (_reader, _) = sa.open_live(doc, None, |_| ()).unwrap();
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
