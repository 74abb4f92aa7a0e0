//! The collaboration server: sessions, presence, the documents its
//! editors share, and the bus their edits are published on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tendax_storage::MaintenanceOptions;
use tendax_text::{DocId, Result, TextDb};

use crate::awareness::{AwarenessRegistry, Platform, Presence};
use crate::bus::{LanBus, SessionId};
use crate::live::LiveDocs;
use crate::session::EditorSession;

/// The in-process TeNDaX collaboration server.
///
/// Owns the shared [`TextDb`], the one copy of each open document that
/// every editor reads and edits ([`crate::live`]), the [`LanBus`] whose
/// hooks committed operations are published to — each document's in
/// commit order, from its outbox — and the
/// [`AwarenessRegistry`]. Cheap to clone; every editor session holds one.
#[derive(Debug, Clone)]
pub struct CollabServer {
    tdb: TextDb,
    awareness: AwarenessRegistry,
    next_session: Arc<AtomicU64>,
    live: Arc<LiveDocs>,
    /// Commit retries per session, recorded by the editors' edit
    /// protocol. Only a commit that bypassed the editors makes one.
    retries: Arc<Mutex<BTreeMap<SessionId, u64>>>,
}

impl CollabServer {
    pub fn new(tdb: TextDb) -> Self {
        CollabServer {
            live: Arc::new(LiveDocs::new(tdb.clone())),
            tdb,
            awareness: AwarenessRegistry::new(),
            next_session: Arc::new(AtomicU64::new(1)),
            retries: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// A server that runs background maintenance (auto-vacuum and
    /// auto-checkpoint) on the shared database — the configuration a
    /// long-running multi-editor deployment wants. Maintenance stops
    /// when the last clone of the underlying database is dropped.
    pub fn with_maintenance(tdb: TextDb, opts: MaintenanceOptions) -> Self {
        tdb.database().start_maintenance(opts);
        Self::new(tdb)
    }

    pub fn textdb(&self) -> &TextDb {
        &self.tdb
    }

    /// The bus committed operations are published on.
    pub fn transport(&self) -> &LanBus {
        &self.live.bus
    }

    pub fn awareness(&self) -> &AwarenessRegistry {
        &self.awareness
    }

    /// The documents the server holds a live copy of.
    pub fn live(&self) -> &Arc<LiveDocs> {
        &self.live
    }

    /// Mutate a session's presence, stamping the engine clock — the one
    /// entry point for presence mutations, so activity tracking (and
    /// therefore idle pruning) can't miss an update site.
    pub fn presence_update(&self, session: SessionId, f: impl FnOnce(&mut Presence)) {
        self.awareness.update(session, self.tdb.now(), f);
    }

    /// `session` closed `doc`. (The focus may have moved to a document
    /// opened later — only clear presence still pointing here.)
    pub(crate) fn clear_focus(&self, session: SessionId, doc: DocId) {
        self.presence_update(session, |p| {
            if p.doc == Some(doc) {
                p.doc = None;
                p.cursor = None;
                p.selection = None;
            }
        });
    }

    /// Connect an existing user from an editor on `platform`.
    pub fn connect(&self, user_name: &str, platform: Platform) -> Result<EditorSession> {
        let user = self.tdb.user_by_name(user_name)?;
        let id = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed));
        self.awareness.register(Presence {
            session: id,
            user,
            user_name: user_name.to_owned(),
            platform: platform.clone(),
            doc: None,
            cursor: None,
            selection: None,
            last_active: self.tdb.now(),
        });
        Ok(EditorSession::new(
            self.clone(),
            id,
            user,
            user_name.to_owned(),
            platform,
        ))
    }

    /// Record one commit retry for `session` (called from the editors'
    /// edit protocol).
    pub(crate) fn note_retry(&self, session: SessionId) {
        *self
            .retries
            .lock()
            .expect("retry registry poisoned")
            .entry(session)
            .or_insert(0) += 1;
    }

    /// Commit retries recorded for one session.
    pub fn session_retries(&self, session: SessionId) -> u64 {
        self.retries
            .lock()
            .expect("retry registry poisoned")
            .get(&session)
            .copied()
            .unwrap_or(0)
    }

    /// Commit retries per session, for all sessions that retried at
    /// least once.
    pub fn retries_by_session(&self) -> BTreeMap<SessionId, u64> {
        self.retries
            .lock()
            .expect("retry registry poisoned")
            .clone()
    }

    /// Everyone currently connected.
    pub fn who_is_online(&self) -> Vec<Presence> {
        self.awareness.all()
    }

    /// Sessions currently focused on `doc`.
    pub fn editors_on(&self, doc: DocId) -> Vec<Presence> {
        self.awareness.on_doc(doc)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn connect_registers_presence() {
        let tdb = TextDb::in_memory();
        tdb.create_user("alice").unwrap();
        tdb.create_user("bob").unwrap();
        let server = CollabServer::new(tdb);
        let s1 = server.connect("alice", Platform::WindowsXp).unwrap();
        let _s2 = server.connect("bob", Platform::MacOsX).unwrap();
        let online = server.who_is_online();
        assert_eq!(online.len(), 2);
        assert_eq!(online[0].user_name, "alice");
        assert_eq!(online[0].platform, Platform::WindowsXp);
        assert_eq!(online[1].platform, Platform::MacOsX);
        drop(s1);
        assert_eq!(server.who_is_online().len(), 1);
    }

    #[test]
    fn maintenance_server_vacuums_while_editors_type() {
        let tdb = TextDb::in_memory();
        tdb.create_user("alice").unwrap();
        let server = CollabServer::with_maintenance(
            tdb,
            MaintenanceOptions {
                interval: Duration::from_millis(1),
                vacuum_pruneable: 8,
                ..MaintenanceOptions::default()
            },
        );
        let alice = server.connect("alice", Platform::Linux).unwrap();
        server
            .textdb()
            .create_document("notes", alice.user())
            .unwrap();
        let mut doc = alice.open("notes").unwrap();
        // Repeated insert/delete churn leaves superseded versions behind
        // for the background vacuum to prune.
        for _ in 0..20 {
            doc.type_text(0, "scratch").unwrap();
            doc.delete(0, 7).unwrap();
        }
        doc.type_text(0, "kept").unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let stats = server.textdb().database().stats();
            if stats.maintenance_vacuums > 0 {
                assert!(stats.versions_pruned > 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background vacuum never ran"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(doc.text(), "kept");
    }

    #[test]
    fn unknown_user_cannot_connect() {
        let tdb = TextDb::in_memory();
        let server = CollabServer::new(tdb);
        assert!(server.connect("ghost", Platform::Linux).is_err());
    }
}
