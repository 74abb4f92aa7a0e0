//! Range effects (DESIGN.md §5.12): an `op_effects` row is a run of
//! consecutively allocated ids, and everything that reads the rows must
//! see what a row per character said.
//!
//! The oracle runs random schedules over two documents and two users —
//! keystrokes, words, deletes, internal and external pastes, `move_to`,
//! styles, local and global undo and redo — through handles kept in
//! sync the way a live document is (`apply_remote`, then
//! `advance_synced`). Two typists interleaving keystrokes in one document
//! allocate interleaved ids, so a delete there breaks into several runs.
//! After every step: an edit's rows, expanded, equal its receipt's
//! effects (kind, character, old/new style, order), no two adjacent rows
//! of the op could have been one run, `history().touched` is the
//! receipt's length; an undo's or redo's receipt is the inverse or the
//! replay of its target's receipt; and every handle and a fresh load
//! show the text of a `Vec<char>` model and, character by character,
//! the same `CharMeta`.
//!
//! Then the row counts the change is for, each pinned with the value
//! before range effects in its comment, and the refusal of a catalog with
//! the old `op_effects` layout.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the sequence.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tendax_storage::{DataType, Database, Options, TableDef};
use tendax_text::{
    CharId, DocHandle, DocId, EditReceipt, Effect, OpId, StyleId, TextDb, TextError, UserId,
};

const DOCS: usize = 2;
const USERS: usize = 2;

#[derive(Debug, Clone)]
enum Step {
    /// One keystroke.
    Key {
        doc: usize,
        user: usize,
        at: usize,
        ch: u8,
    },
    /// A word typed in one transaction.
    Word {
        doc: usize,
        user: usize,
        at: usize,
        text: String,
    },
    Delete {
        doc: usize,
        user: usize,
        at: usize,
        len: usize,
    },
    External {
        doc: usize,
        user: usize,
        at: usize,
    },
    /// Copy `len` characters of `from` at `at`, paste them into `to`.
    Paste {
        from: usize,
        to: usize,
        user: usize,
        at: usize,
        len: usize,
        to_at: usize,
    },
    /// Move `len` characters of `from` at `at` into the other document.
    Move {
        from: usize,
        user: usize,
        at: usize,
        len: usize,
        to_at: usize,
    },
    Style {
        doc: usize,
        user: usize,
        at: usize,
        len: usize,
        style: usize,
    },
    Undo {
        doc: usize,
        user: usize,
        global: bool,
    },
    Redo {
        doc: usize,
        user: usize,
        global: bool,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let doc = || 0..DOCS;
    let user = || 0..USERS;
    prop_oneof![
        6 => (doc(), user(), any::<usize>(), 0u8..26)
            .prop_map(|(doc, user, at, ch)| Step::Key { doc, user, at, ch }),
        3 => (doc(), user(), any::<usize>(), "[a-z]{2,7} ")
            .prop_map(|(doc, user, at, text)| Step::Word { doc, user, at, text }),
        4 => (doc(), user(), any::<usize>(), 1usize..9)
            .prop_map(|(doc, user, at, len)| Step::Delete { doc, user, at, len }),
        1 => (doc(), user(), any::<usize>())
            .prop_map(|(doc, user, at)| Step::External { doc, user, at }),
        2 => (doc(), doc(), user(), any::<usize>(), 1usize..9, any::<usize>())
            .prop_map(|(from, to, user, at, len, to_at)| {
                Step::Paste { from, to, user, at, len, to_at }
            }),
        1 => (doc(), user(), any::<usize>(), 1usize..6, any::<usize>())
            .prop_map(|(from, user, at, len, to_at)| Step::Move { from, user, at, len, to_at }),
        3 => (doc(), user(), any::<usize>(), 1usize..9, 0usize..3)
            .prop_map(|(doc, user, at, len, style)| Step::Style { doc, user, at, len, style }),
        3 => (doc(), user(), any::<bool>())
            .prop_map(|(doc, user, global)| Step::Undo { doc, user, global }),
        2 => (doc(), user(), any::<bool>())
            .prop_map(|(doc, user, global)| Step::Redo { doc, user, global }),
    ]
}

/// An effect as the oracle compares it: what the change did to which
/// character, without the timestamp of when (an undo's is its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Insert(CharId, char),
    Delete(CharId, UserId),
    Undelete(CharId),
    Style(CharId, StyleId, StyleId),
}

fn shape(e: &Effect) -> Shape {
    match e {
        Effect::Insert { char, ch, .. } => Shape::Insert(*char, *ch),
        Effect::Delete { char, by, .. } => Shape::Delete(*char, *by),
        Effect::Undelete { char } => Shape::Undelete(*char),
        Effect::SetStyle { char, old, new } => Shape::Style(*char, *old, *new),
    }
}

/// An effect as a row per character would have stored it.
fn as_row(e: &Effect) -> (String, CharId, Option<String>, Option<String>) {
    let text = |s: &StyleId| Some(s.0.to_string());
    match e {
        Effect::Insert { char, .. } => ("ins".into(), *char, None, None),
        Effect::Delete { char, .. } => ("del".into(), *char, None, None),
        Effect::Undelete { .. } => unreachable!("no edit writes an undelete"),
        Effect::SetStyle { char, old, new } => ("sty".into(), *char, text(old), text(new)),
    }
}

/// What the undo machinery must know of a logged operation.
#[derive(Debug)]
enum Logged {
    /// An edit and its receipt's effects.
    Edit(Vec<Shape>),
    /// An undo, and the index of its target in the document's log.
    Undo(usize),
    Redo,
}

#[derive(Debug)]
struct LogEntry {
    user: UserId,
    what: Logged,
    undone: bool,
}

/// One document, the trivially correct way.
#[derive(Debug, Default)]
struct Model {
    /// Every character in chain order: id, glyph, visible.
    chain: Vec<(CharId, char, bool)>,
    styles: HashMap<CharId, StyleId>,
    log: Vec<LogEntry>,
}

impl Model {
    fn visible(&self) -> Vec<CharId> {
        (self.chain.iter().filter(|c| c.2)).map(|c| c.0).collect()
    }

    fn text(&self) -> String {
        (self.chain.iter().filter(|c| c.2)).map(|c| c.1).collect()
    }

    /// Where a typist at visible position `at` splices: right after the
    /// visible character before it.
    fn splice_index(&self, at: usize) -> usize {
        if at == 0 {
            return 0;
        }
        let before = self.visible()[at - 1];
        self.chain.iter().position(|c| c.0 == before).unwrap() + 1
    }

    fn apply(&mut self, s: &Shape) {
        let set = |m: &mut Model, id: CharId, visible: bool| {
            m.chain.iter_mut().find(|c| c.0 == id).unwrap().2 = visible;
        };
        match *s {
            Shape::Insert(..) => unreachable!("inserts are spliced by position"),
            Shape::Delete(id, _) => set(self, id, false),
            Shape::Undelete(id) => set(self, id, true),
            Shape::Style(id, _, new) => {
                self.styles.insert(id, new);
            }
        }
    }

    /// The edit at visible `at` that inserts `text`, given the receipt's
    /// effects; returns what the receipt must say.
    fn expect_insert(&mut self, at: usize, text: &[char], got: &[Effect]) -> Vec<Shape> {
        let ids: Vec<CharId> = (got.iter())
            .map(|e| match e {
                Effect::Insert { char, .. } => *char,
                other => panic!("an insert receipt holds {other:?}"),
            })
            .collect();
        assert_eq!(ids.len(), text.len(), "one effect per inserted character");
        let at = self.splice_index(at);
        for (i, (id, ch)) in ids.iter().zip(text).enumerate() {
            self.chain.insert(at + i, (*id, *ch, true));
        }
        (ids.iter().zip(text))
            .map(|(id, ch)| Shape::Insert(*id, *ch))
            .collect()
    }

    fn expect_delete(&mut self, at: usize, len: usize, by: UserId) -> Vec<Shape> {
        let shapes: Vec<Shape> = (self.visible()[at..at + len].iter())
            .map(|id| Shape::Delete(*id, by))
            .collect();
        shapes.iter().for_each(|s| self.apply(s));
        shapes
    }

    fn expect_style(&mut self, at: usize, len: usize, style: StyleId) -> Vec<Shape> {
        let shapes: Vec<Shape> = (self.visible()[at..at + len].iter())
            .map(|id| Shape::Style(*id, self.style(*id), style))
            .collect();
        shapes.iter().for_each(|s| self.apply(s));
        shapes
    }

    fn style(&self, id: CharId) -> StyleId {
        self.styles.get(&id).copied().unwrap_or(StyleId::NONE)
    }

    /// Undo as the engine defines it: the newest edit not undone, of
    /// `scope`'s author if given, is inverted. `None`: nothing to undo.
    fn expect_undo(&mut self, user: UserId, scope: Option<UserId>) -> Option<Vec<Shape>> {
        let target = (0..self.log.len()).rev().find(|&i| {
            let e = &self.log[i];
            matches!(e.what, Logged::Edit(_)) && !e.undone && scope.is_none_or(|u| e.user == u)
        })?;
        let Logged::Edit(effects) = &self.log[target].what else {
            unreachable!()
        };
        let inverse: Vec<Shape> = (effects.iter())
            .map(|s| match *s {
                Shape::Insert(id, _) => Shape::Delete(id, user),
                Shape::Delete(id, _) => Shape::Undelete(id),
                Shape::Style(id, old, new) => Shape::Style(id, new, old),
                Shape::Undelete(_) => unreachable!("no edit revives"),
            })
            .collect();
        inverse.iter().for_each(|s| self.apply(s));
        self.log[target].undone = true;
        self.log.push(LogEntry {
            user,
            what: Logged::Undo(target),
            undone: false,
        });
        Some(inverse)
    }

    /// Redo: the newest undo not undone, of `scope`'s author if given,
    /// has its target replayed.
    fn expect_redo(&mut self, user: UserId, scope: Option<UserId>) -> Option<Vec<Shape>> {
        let undo = (0..self.log.len()).rev().find(|&i| {
            let e = &self.log[i];
            matches!(e.what, Logged::Undo(_)) && !e.undone && scope.is_none_or(|u| e.user == u)
        })?;
        let Logged::Undo(target) = self.log[undo].what else {
            unreachable!()
        };
        let Logged::Edit(effects) = &self.log[target].what else {
            unreachable!()
        };
        let replay: Vec<Shape> = (effects.iter())
            .map(|s| match *s {
                Shape::Insert(id, _) => Shape::Undelete(id),
                Shape::Delete(id, _) => Shape::Delete(id, user),
                other => other,
            })
            .collect();
        replay.iter().for_each(|s| self.apply(s));
        self.log[target].undone = false;
        self.log[undo].undone = true;
        self.log.push(LogEntry {
            user,
            what: Logged::Redo,
            undone: false,
        });
        Some(replay)
    }

    fn log_edit(&mut self, user: UserId, shapes: Vec<Shape>) {
        self.log.push(LogEntry {
            user,
            what: Logged::Edit(shapes),
            undone: false,
        });
    }
}

struct World {
    tdb: TextDb,
    users: Vec<UserId>,
    styles: [StyleId; 3],
    docs: Vec<DocId>,
    /// Pinned handles, `doc * USERS + user`.
    handles: Vec<DocHandle>,
    models: Vec<Model>,
}

impl World {
    fn new() -> World {
        let tdb = TextDb::in_memory();
        let users: Vec<UserId> = (0..USERS)
            .map(|u| tdb.create_user(&format!("u{u}")).unwrap())
            .collect();
        let styles = [
            tdb.define_style("bold", "b", users[0]).unwrap(),
            tdb.define_style("em", "i", users[0]).unwrap(),
            StyleId::NONE,
        ];
        let docs: Vec<DocId> = (0..DOCS)
            .map(|d| tdb.create_document(&format!("d{d}"), users[0]).unwrap())
            .collect();
        let mut handles = Vec::new();
        for &doc in &docs {
            for &user in &users {
                handles.push(tdb.open(doc, user).unwrap());
            }
        }
        World {
            tdb,
            users,
            styles,
            docs,
            handles,
            models: (0..DOCS).map(|_| Model::default()).collect(),
        }
    }

    fn handle(&mut self, doc: usize, user: usize) -> &mut DocHandle {
        &mut self.handles[doc * USERS + user]
    }

    /// Run `step`, check it, and bring every handle up to date.
    fn step(&mut self, step: &Step) {
        // (doc, acting user, receipt, what the receipt must say, an edit?)
        let mut done: Vec<(usize, usize, EditReceipt, Vec<Shape>, bool)> = Vec::new();
        let within = |len: usize, at: usize| at % (len + 1);
        match step {
            Step::Key { doc, user, at, ch } => {
                let text = [(b'a' + ch) as char];
                self.insert(*doc, *user, *at, &text, None, &mut done);
            }
            Step::Word {
                doc,
                user,
                at,
                text,
            } => {
                let text: Vec<char> = text.chars().collect();
                self.insert(*doc, *user, *at, &text, None, &mut done);
            }
            Step::External { doc, user, at } => {
                let text: Vec<char> = "from the web".chars().collect();
                self.insert(*doc, *user, *at, &text, Some("web"), &mut done);
            }
            Step::Delete { doc, user, at, len } => {
                let h = self.handle(*doc, *user);
                let at = within(h.len(), *at);
                let len = (*len).min(h.len() - at);
                let r = h.delete_range(at, len).unwrap();
                let by = self.users[*user];
                let want = self.models[*doc].expect_delete(at, len, by);
                done.push((*doc, *user, r, want, true));
            }
            Step::Paste {
                from,
                to,
                user,
                at,
                len,
                to_at,
            } => {
                let src = self.handle(*from, *user);
                let at = within(src.len(), *at);
                let clip = src.copy(at, (*len).min(src.len() - at)).unwrap();
                let dst = self.handle(*to, *user);
                let to_at = within(dst.len(), *to_at);
                let r = dst.paste(to_at, &clip).unwrap();
                let text: Vec<char> = clip.text().chars().collect();
                let want = self.models[*to].expect_insert(to_at, &text, &r.effects);
                done.push((*to, *user, r, want, true));
            }
            Step::Move {
                from,
                user,
                at,
                len,
                to_at,
            } => {
                let to = (from + 1) % DOCS;
                let (i, j) = (from * USERS + user, to * USERS + user);
                let (src, dst) = pair(&mut self.handles, i, j);
                let at = within(src.len(), *at);
                let len = (*len).min(src.len() - at);
                let to_at = within(dst.len(), *to_at);
                let text: Vec<char> = src.text_range(at, len).chars().collect();
                let (del, ins) = src.move_to(at, len, dst, to_at).unwrap();
                let by = self.users[*user];
                let want_del = self.models[*from].expect_delete(at, len, by);
                let want_ins = self.models[to].expect_insert(to_at, &text, &ins.effects);
                done.push((*from, *user, del, want_del, true));
                done.push((to, *user, ins, want_ins, true));
            }
            Step::Style {
                doc,
                user,
                at,
                len,
                style,
            } => {
                let style = self.styles[*style];
                let h = self.handle(*doc, *user);
                let at = within(h.len(), *at);
                let len = (*len).min(h.len() - at);
                let r = h.apply_style(at, len, style).unwrap();
                let want = self.models[*doc].expect_style(at, len, style);
                done.push((*doc, *user, r, want, true));
            }
            Step::Undo { doc, user, global } => {
                let u = self.users[*user];
                let scope = (!global).then_some(u);
                let h = self.handle(*doc, *user);
                let got = if *global { h.global_undo() } else { h.undo() };
                match (got, self.models[*doc].expect_undo(u, scope)) {
                    (Ok(r), Some(want)) => done.push((*doc, *user, r, want, false)),
                    (Err(TextError::NothingToUndo), None) => {}
                    (got, want) => panic!("undo: got {got:?}, the model says {want:?}"),
                }
            }
            Step::Redo { doc, user, global } => {
                let u = self.users[*user];
                let scope = (!global).then_some(u);
                let h = self.handle(*doc, *user);
                let got = if *global { h.global_redo() } else { h.redo() };
                match (got, self.models[*doc].expect_redo(u, scope)) {
                    (Ok(r), Some(want)) => done.push((*doc, *user, r, want, false)),
                    (Err(TextError::NothingToRedo), None) => {}
                    (got, want) => panic!("redo: got {got:?}, the model says {want:?}"),
                }
            }
        }

        for (doc, user, receipt, want, edit) in &done {
            let got: Vec<Shape> = receipt.effects.iter().map(shape).collect();
            assert_eq!(&got, want, "receipt of {step:?}");
            if receipt.op.is_none() {
                continue; // an empty range: nothing was logged
            }
            if *edit {
                self.models[*doc].log_edit(self.users[*user], want.clone());
                self.check_rows(*doc, receipt);
            }
        }
        // Bring every other handle of a touched document up to date, then
        // vouch for the commit on all of them (a handle's cache holds its
        // own document only).
        for (doc, user, receipt, ..) in &done {
            for other in 0..USERS {
                if other != *user {
                    let h = self.handle(*doc, other);
                    h.apply_remote(&receipt.effects).unwrap();
                }
            }
        }
        if let Some(ts) = done.iter().map(|d| d.2.commit_ts).max() {
            self.handles.iter_mut().for_each(|h| h.advance_synced(ts));
        }
        self.check_documents();
    }

    fn insert(
        &mut self,
        doc: usize,
        user: usize,
        at: usize,
        text: &[char],
        external: Option<&str>,
        done: &mut Vec<(usize, usize, EditReceipt, Vec<Shape>, bool)>,
    ) {
        let h = self.handle(doc, user);
        let at = at % (h.len() + 1);
        let s: String = text.iter().collect();
        let r = match external {
            None => h.insert_text(at, &s),
            Some(source) => h.paste_external(at, &s, source),
        }
        .unwrap();
        let want = self.models[doc].expect_insert(at, text, &r.effects);
        done.push((doc, user, r, want, true));
    }

    /// The edit's rows: expanded, its receipt; maximal runs; `touched`.
    fn check_rows(&self, doc: usize, receipt: &EditReceipt) {
        let rows = effect_rows(&self.tdb, receipt.op);
        let expanded: Vec<(String, CharId, Option<String>, Option<String>)> = (rows.iter())
            .flat_map(|r| {
                (0..r.count).map(|i| {
                    (
                        r.kind.clone(),
                        CharId(r.first + i),
                        r.old.clone(),
                        r.new.clone(),
                    )
                })
            })
            .collect();
        let per_char: Vec<_> = receipt.effects.iter().map(as_row).collect();
        assert_eq!(expanded, per_char, "rows of {}", receipt.op);
        for w in rows.windows(2) {
            let joins = w[0].first + w[0].count == w[1].first
                && (&w[0].kind, &w[0].old, &w[0].new) == (&w[1].kind, &w[1].old, &w[1].new);
            assert!(
                !joins,
                "rows {:?} and {:?} of {} are one run",
                w[0], w[1], receipt.op
            );
        }
        let fresh = self.tdb.load(self.docs[doc], self.users[0]).unwrap();
        let history = fresh.history(4).unwrap();
        let entry = history.iter().find(|e| e.op == receipt.op).unwrap();
        assert_eq!(
            entry.touched,
            receipt.effects.len(),
            "touched of {}",
            receipt.op
        );
    }

    /// Every handle and a fresh load show the model's text and agree on
    /// every visible character's metadata.
    fn check_documents(&self) {
        for (d, &doc) in self.docs.iter().enumerate() {
            let fresh = self.tdb.load(doc, self.users[0]).unwrap();
            assert_eq!(fresh.text(), self.models[d].text(), "{doc} in the database");
            for h in &self.handles[d * USERS..(d + 1) * USERS] {
                assert_eq!(
                    h.text(),
                    self.models[d].text(),
                    "{doc} as {} sees it",
                    h.user()
                );
                for pos in 0..fresh.len() {
                    assert_eq!(h.char_meta(pos), fresh.char_meta(pos), "{doc} at {pos}");
                }
            }
        }
    }
}

/// Two distinct handles, mutably.
fn pair(handles: &mut [DocHandle], i: usize, j: usize) -> (&mut DocHandle, &mut DocHandle) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = handles.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = handles.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

/// One stored `op_effects` row.
#[derive(Debug)]
struct RangeRow {
    kind: String,
    first: u64,
    count: u64,
    old: Option<String>,
    new: Option<String>,
}

/// `op`'s rows in row-id order, the order they are read in.
fn effect_rows(tdb: &TextDb, op: OpId) -> Vec<RangeRow> {
    let txn = tdb.database().begin();
    let rows = txn
        .index_lookup(tdb.tables().op_effects, "op_effects_by_op", &[op.value()])
        .unwrap();
    (rows.iter())
        .map(|(_, row)| {
            let [kind, first, count, old, new] = row.cols([1, 2, 3, 4, 5]);
            RangeRow {
                kind: kind.as_text().unwrap().to_owned(),
                first: first.as_id().unwrap(),
                count: count.as_int().unwrap() as u64,
                old: old.as_text().map(str::to_owned),
                new: new.as_text().map(str::to_owned),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_rows_expand_to_the_per_character_receipts(
        steps in proptest::collection::vec(arb_step(), 1..48),
    ) {
        let mut world = World::new();
        for step in &steps {
            world.step(step);
        }
    }
}

// ------------------------------------------------------------ row counts

fn one_user() -> (TextDb, UserId, DocHandle) {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let h = tdb.open(doc, user).unwrap();
    (tdb, user, h)
}

/// `op_effects` rows live in the database, by its own count.
fn stored_effect_rows(tdb: &TextDb) -> usize {
    let stats = tdb.database().table_stats();
    stats
        .iter()
        .find(|t| t.name == "op_effects")
        .unwrap()
        .live_rows
}

#[test]
fn typing_a_word_writes_one_effect_row() {
    let (tdb, _, mut h) = one_user();
    let r = h.insert_text(0, "hello").unwrap();
    // Before range effects: 5.
    assert_eq!(effect_rows(&tdb, r.op).len(), 1);
    assert_eq!(r.effects.len(), 5);
}

#[test]
fn a_set_up_chunk_writes_one_effect_row() {
    let (tdb, _, mut h) = one_user();
    let chunk: String = (0..512).map(|i| (b'a' + (i % 26) as u8) as char).collect();
    let r = h.insert_text(0, &chunk).unwrap();
    // Before range effects: 512.
    assert_eq!(effect_rows(&tdb, r.op).len(), 1);
    assert_eq!(stored_effect_rows(&tdb), 1);
}

#[test]
fn a_paste_writes_one_effect_row() {
    let (tdb, _, mut h) = one_user();
    h.insert_text(0, "a paste of twenty-four characters, copied")
        .unwrap();
    let clip = h.copy(0, 24).unwrap();
    let r = h.paste(h.len(), &clip).unwrap();
    // Before range effects: 24.
    assert_eq!(effect_rows(&tdb, r.op).len(), 1);
    assert_eq!(r.effects.len(), 24);
}

#[test]
fn deleting_a_word_typed_in_one_op_writes_one_effect_row() {
    let (tdb, _, mut h) = one_user();
    h.insert_text(0, "keep ").unwrap();
    h.insert_text(5, "gone ").unwrap();
    let r = h.delete_range(5, 5).unwrap();
    // Before range effects: 5.
    assert_eq!(effect_rows(&tdb, r.op).len(), 1);
    // A delete across two ops' characters is a run for each: "ke" of
    // the first op, "xy" typed after "gone ".
    h.insert_text(4, "xy").unwrap();
    let r = h.delete_range(2, 4).unwrap();
    assert_eq!(h.text(), "ke ");
    assert_eq!(effect_rows(&tdb, r.op).len(), 2);
}

#[test]
fn styling_a_uniform_run_writes_one_effect_row() {
    let (tdb, user, mut h) = one_user();
    let bold = tdb.define_style("bold", "b", user).unwrap();
    let em = tdb.define_style("em", "i", user).unwrap();
    h.insert_text(0, "uniformly styled").unwrap();
    let r = h.apply_style(0, 9, bold).unwrap();
    // Before range effects: 9.
    assert_eq!(effect_rows(&tdb, r.op).len(), 1);
    // Over two old styles, consecutive ids still break where the old
    // style changes: bold for 9, none for 3.
    let r = h.apply_style(0, 12, em).unwrap();
    let rows = effect_rows(&tdb, r.op);
    let counts: Vec<(u64, Option<String>)> =
        rows.iter().map(|r| (r.count, r.old.clone())).collect();
    assert_eq!(
        counts,
        [(9, Some(bold.0.to_string())), (3, Some("0".into()))]
    );
}

#[test]
fn undoing_a_long_paste_reads_one_effect_row() {
    let (tdb, _, mut h) = one_user();
    let text: String = (0..500).map(|i| (b'a' + (i % 26) as u8) as char).collect();
    h.insert_text(0, &text).unwrap();
    let clip = h.copy(0, 500).unwrap();
    let pasted = h.paste(500, &clip).unwrap();
    // Before range effects: 500 rows for the paste, 1 000 in all.
    assert_eq!(stored_effect_rows(&tdb), 2);
    assert_eq!(effect_rows(&tdb, pasted.op).len(), 1);
    let undo = h.undo().unwrap();
    assert_eq!(undo.effects.len(), 500);
    assert_eq!(h.len(), 500);
    // The undo read the paste's one row and wrote none.
    assert_eq!(stored_effect_rows(&tdb), 2);
}

// --------------------------------------------------------- old catalogs

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tendax-effect-ranges-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir`, with its bytes.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out: Vec<(PathBuf, Vec<u8>)> = (std::fs::read_dir(dir).unwrap())
        .map(|e| e.unwrap().path())
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();
    out.sort();
    out
}

/// `op_effects` as PRs 17–21 wrote it: a row per character with its
/// `seq`, and (before PR 21) an index by character.
fn old_op_effects() -> TableDef {
    TableDef::new("op_effects")
        .column("op", DataType::Id)
        .column("seq", DataType::Int)
        .column("kind", DataType::Text)
        .column("char", DataType::Id)
        .nullable_column("old_val", DataType::Text)
        .nullable_column("new_val", DataType::Text)
        .index("op_effects_by_op", &["op"])
        .index("op_effects_by_char", &["char"])
}

#[test]
fn a_catalog_with_per_character_effects_is_refused_and_left_untouched() {
    let dir = scratch("old-layout");
    let path = dir.join("db.wal");
    {
        let db = Database::open(&path, Options::default()).unwrap();
        db.create_table(old_op_effects()).unwrap();
        db.checkpoint().unwrap();
    }
    let before = files(&dir);
    match TextDb::init(Database::open(&path, Options::default()).unwrap()) {
        Err(TextError::SchemaMismatch {
            table,
            found,
            expected,
        }) => {
            assert_eq!(table, "op_effects");
            assert!(found.contains("seq Int"), "{found}");
            assert!(expected.contains("first Id, count Int"), "{expected}");
        }
        other => panic!("an old op_effects layout was not refused: {other:?}"),
    }
    assert_eq!(files(&dir), before, "a refused database was written to");
    // Refusal comes before any table is created.
    let db = Database::open(&path, Options::default()).unwrap();
    assert_eq!(db.table_names(), ["op_effects"]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Indexes are not compared, columns are: a database whose catalog still
/// lists what PR 21 dropped from the schema (`oplog_by_doc`,
/// `oplog_by_doc_user`, an `op_effects` index by character) opens and
/// edits.
#[test]
fn a_catalog_with_the_indexes_pr_21_dropped_still_opens() {
    let dir = scratch("pr21-indexes");
    let path = dir.join("db.wal");
    {
        let db = Database::open(&path, Options::default()).unwrap();
        let schema = TextDb::in_memory();
        let schema = schema.database();
        for name in tendax_text::schema::TABLE_NAMES {
            let mut def = schema.table_def(schema.table_id(name).unwrap()).unwrap();
            match name {
                "oplog" => {
                    def = def
                        .index("oplog_by_doc", &["doc"])
                        .index("oplog_by_doc_user", &["doc", "user"]);
                }
                "op_effects" => def = def.index("op_effects_by_char", &["first"]),
                _ => {}
            }
            db.create_table(def).unwrap();
        }
    }
    let tdb = TextDb::init(Database::open(&path, Options::default()).unwrap()).unwrap();
    let oplog = tdb.database().table_def(tdb.tables().oplog).unwrap();
    assert_eq!(oplog.indexes.len(), 4);
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let mut h = tdb.open(doc, user).unwrap();
    let r = h.insert_text(0, "still opens").unwrap();
    assert_eq!(effect_rows(&tdb, r.op).len(), 1);
    h.undo().unwrap();
    assert_eq!(h.text(), "");
    drop((h, tdb));
    let _ = std::fs::remove_dir_all(&dir);
}
