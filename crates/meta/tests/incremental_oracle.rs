//! The incremental services against a from-scratch rebuild.
//!
//! A long-lived `FolderSet` per rule, the folded `doc_stats` and lineage
//! graph, and a long-lived `SearchEngine` fed only `update_document` calls
//! live on one `TextDb`; after every step of a random schedule they must
//! agree with the same questions asked through a second
//! `TextDb::init(db.clone())`, whose change stamps and folds start cold. The schedule writes through
//! raw `DocHandle`s (opened on a third `init`, so nothing depends on which
//! handle committed) and through `EditorDoc`s of a collaboration server.
//!
//! Beside them, a second engine and a second set per rule read texts
//! through the server's live documents: from the copy of a document an
//! editor holds, from the database for one nobody holds. A raw handle's
//! commit bypasses the editors and leaves a held copy stale, which the
//! read must rebuild first.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tendax_collab::{CollabServer, EditorDoc, EditorSession, Platform};
use tendax_meta::{
    DynamicFolders, FolderChange, FolderRule, FolderSet, LineageGraph, SearchEngine, SearchQuery,
};
use tendax_process::{Assignee, ProcessEngine, TaskId, TaskSpec};
use tendax_storage::Database;
use tendax_text::{DocId, TextDb, UserId};

const USERS: usize = 3;
const DOCS: usize = 8;
const WORDS: [&str; 6] = ["alpha ", "beta ", "lineage ", "ab", "gamma ", "x"];
const STATES: [&str; 3] = ["draft", "review", "final"];

struct World {
    db: Database,
    /// The handle the long-lived services hang off.
    warm: TextDb,
    /// Raw handles commit through another `init`.
    writer: TextDb,
    process: ProcessEngine,
    sessions: Vec<EditorSession>,
    editors: BTreeMap<(usize, DocId), EditorDoc>,
    users: Vec<UserId>,
    docs: Vec<DocId>,
    pending: Vec<(TaskId, UserId)>,
    rules: Vec<FolderRule>,
    /// Per rule, a set reading the database and one reading the server's
    /// copies.
    sets: Vec<[FolderSet; 2]>,
    /// Fed by the database, and by the server's copies.
    engines: [SearchEngine; 2],
}

/// One step of a schedule: an action and four small numbers it reads
/// its arguments from.
type Step = (u8, u8, u8, u8, u8);

impl World {
    fn new() -> World {
        let db = Database::open_in_memory();
        let warm = TextDb::init(db.clone()).unwrap();
        let writer = TextDb::init(db.clone()).unwrap();
        let process = ProcessEngine::init(warm.clone()).unwrap();
        let users: Vec<UserId> = (0..USERS)
            .map(|i| warm.create_user(&format!("user{i}")).unwrap())
            .collect();
        let docs: Vec<DocId> = (0..DOCS)
            .map(|i| {
                let doc = warm
                    .create_document(&format!("doc{i}"), users[i % USERS])
                    .unwrap();
                let mut h = writer.load(doc, users[(i + 1) % USERS]).unwrap();
                h.insert_text(0, &WORDS[i % WORDS.len()].repeat(i + 1))
                    .unwrap();
                doc
            })
            .collect();
        let cutoff = warm.now();
        let u = |i: usize| users[i].0;
        let rules = vec![
            FolderRule::ReadBy {
                user: u(0),
                since: 0,
            },
            FolderRule::AuthoredBy { user: u(1) },
            FolderRule::CreatedBy { user: u(2) },
            FolderRule::StateIs("review".into()),
            FolderRule::NameContains("3".into()),
            FolderRule::ContentContains("ab".into()),
            FolderRule::PastedFrom { doc: docs[0].0 },
            FolderRule::EditedSince(cutoff),
            FolderRule::MinSize(12),
            FolderRule::HasOpenTasks,
            FolderRule::MinSize(8).and(FolderRule::Not(Box::new(FolderRule::StateIs(
                "draft".into(),
            )))),
            FolderRule::ContentContains("lineage".into()).or(FolderRule::ReadBy {
                user: u(1),
                since: cutoff,
            }),
            FolderRule::Not(Box::new(FolderRule::HasOpenTasks))
                .and(FolderRule::EditedSince(cutoff).or(FolderRule::PastedFrom { doc: docs[1].0 })),
            // True of a document the moment it is created, before any
            // commit has touched it in the table the leaf reads.
            FolderRule::Not(Box::new(FolderRule::AuthoredBy { user: u(0) })),
            FolderRule::MinSize(0),
            FolderRule::Not(Box::new(FolderRule::ReadBy {
                user: u(2),
                since: 0,
            })),
            FolderRule::Not(Box::new(FolderRule::ContentContains("a".into()))),
            FolderRule::Not(Box::new(FolderRule::HasOpenTasks)),
            FolderRule::Not(Box::new(FolderRule::EditedSince(cutoff))),
            FolderRule::Not(Box::new(FolderRule::PastedFrom { doc: docs[0].0 })),
        ];
        let server = CollabServer::new(warm.clone());
        let folders = DynamicFolders::init(warm.clone()).unwrap();
        let held = DynamicFolders::init_over(server.live().clone()).unwrap();
        let sets = rules
            .iter()
            .enumerate()
            .map(|(i, rule)| {
                let id = folders
                    .create_folder(&format!("folder{i}"), users[0], rule.clone())
                    .unwrap();
                [folders.watch(id).unwrap(), held.watch(id).unwrap()]
            })
            .collect();
        let sessions = (0..USERS)
            .map(|i| {
                server
                    .connect(&format!("user{i}"), Platform::Linux)
                    .unwrap()
            })
            .collect();
        let engines = [
            SearchEngine::build(&warm).unwrap(),
            SearchEngine::build_over(server.live().clone()).unwrap(),
        ];
        World {
            db,
            warm,
            writer,
            process,
            sessions,
            editors: BTreeMap::new(),
            users,
            docs,
            pending: Vec::new(),
            rules,
            sets,
            engines,
        }
    }

    /// Run one step. An edit may be refused (a stale editor, nothing to
    /// undo): the oracle compares two readings of one database, whatever
    /// got into it.
    fn step(&mut self, (action, a, b, c, d): Step) {
        let user = a as usize % USERS;
        let doc = self.docs[b as usize % self.docs.len()];
        let word = WORDS[c as usize % WORDS.len()];
        let through_editor = d % 2 == 0;
        match action {
            // Type / delete, through either layer.
            0 | 1 if through_editor => {
                let ed = self.editor(user, doc);
                let len = ed.len();
                let _ = if action == 0 || len == 0 {
                    ed.type_text(c as usize % (len + 1), word)
                } else {
                    let pos = c as usize % len;
                    ed.delete(pos, (1 + d as usize % 5).min(len - pos))
                };
            }
            0 | 1 => {
                let mut h = self.writer.load(doc, self.users[user]).unwrap();
                let len = h.len();
                let _ = if action == 0 || len == 0 {
                    h.insert_text(c as usize % (len + 1), word)
                } else {
                    let pos = c as usize % len;
                    h.delete_range(pos, (1 + d as usize % 5).min(len - pos))
                };
            }
            2 if through_editor => {
                let _ = self.editor(user, doc).undo();
            }
            2 => {
                let _ = self.writer.load(doc, self.users[user]).unwrap().undo();
            }
            // Paste from another document.
            3 => {
                let src = self.docs[c as usize % self.docs.len()];
                let from = self.writer.load(src, self.users[user]).unwrap();
                if let Ok(clip) = from.copy(0, (1 + d as usize % 6).min(from.len())) {
                    if through_editor {
                        let ed = self.editor(user, doc);
                        let pos = c as usize % (ed.len() + 1);
                        let _ = ed.paste(pos, &clip);
                    } else {
                        let mut h = self.writer.load(doc, self.users[user]).unwrap();
                        let pos = c as usize % (h.len() + 1);
                        let _ = h.paste(pos, &clip);
                    }
                }
            }
            4 => {
                let mut h = self.writer.load(doc, self.users[user]).unwrap();
                let pos = c as usize % (h.len() + 1);
                let _ = h.paste_external(pos, word, "the web");
            }
            5 => {
                let state = STATES[c as usize % STATES.len()];
                let _ = self.warm.set_document_state(doc, state, self.users[user]);
            }
            // A read event and nothing else.
            6 => {
                let _ = self.writer.open(doc, self.users[user]);
            }
            7 => {
                let to = self.users[c as usize % USERS];
                if let Ok(task) = self.process.define_task(
                    doc,
                    self.users[user],
                    TaskSpec::new("review", Assignee::User(to)),
                ) {
                    self.pending.push((task, to));
                }
            }
            8 => {
                if !self.pending.is_empty() {
                    let (task, to) = self.pending.remove(c as usize % self.pending.len());
                    let _ = self.process.complete(task, to, "done");
                }
            }
            9 => {
                let _ = self.writer.purge_tombstones(doc, self.writer.now());
            }
            _ => {
                let name = format!("doc{}", self.docs.len());
                if let Ok(new) = self.writer.create_document(&name, self.users[user]) {
                    self.docs.push(new);
                }
            }
        }
    }

    fn editor(&mut self, user: usize, doc: DocId) -> &mut EditorDoc {
        let sessions = &self.sessions;
        let ed = self
            .editors
            .entry((user, doc))
            .or_insert_with(|| sessions[user].open_id(doc).unwrap());
        ed.sync();
        ed
    }

    /// Every long-lived answer against a cold reading of the database.
    fn check(&mut self) -> Result<(), TestCaseError> {
        let cold = TextDb::init(self.db.clone()).unwrap();
        let cold_folders = DynamicFolders::init(cold.clone()).unwrap();
        let sets = (self.rules.iter()).zip(&mut self.sets);
        for (rule, set) in sets.flat_map(|(rule, sets)| sets.iter_mut().map(move |s| (rule, s))) {
            let before = set.contents().to_vec();
            let changes = set.refresh().unwrap();
            let expect = cold_folders.evaluate_rule(rule).unwrap();
            prop_assert_eq!(set.contents(), &expect[..], "contents of {:?}", rule);
            // Additions by ascending document, then removals.
            let mut diff: Vec<FolderChange> = (expect.iter())
                .filter(|d| !before.contains(d))
                .map(|d| FolderChange::Added(*d))
                .collect();
            diff.extend(
                (before.iter())
                    .filter(|d| !expect.contains(d))
                    .map(|d| FolderChange::Removed(*d)),
            );
            prop_assert_eq!(changes, diff, "changes of {:?}", rule);
        }
        for doc in &self.docs {
            prop_assert_eq!(
                self.warm.doc_stats(*doc).unwrap(),
                cold.doc_stats(*doc).unwrap()
            );
            for engine in &mut self.engines {
                engine.update_document(*doc).unwrap();
            }
        }
        prop_assert_eq!(
            LineageGraph::build(&self.warm).unwrap(),
            LineageGraph::build(&cold).unwrap()
        );
        let rebuilt = SearchEngine::build(&cold).unwrap();
        for word in WORDS {
            let query = SearchQuery::any_terms(word);
            for engine in &self.engines {
                prop_assert_eq!(
                    engine.search(&query).unwrap(),
                    rebuilt.search(&query).unwrap(),
                    "ranking for {:?}",
                    word
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn long_lived_services_equal_a_cold_rebuild_after_every_step(
        steps in proptest::collection::vec((0u8..11, any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let mut world = World::new();
        world.check()?;
        for step in steps {
            world.step(step);
            world.check()?;
        }
    }
}
