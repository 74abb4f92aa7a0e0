//! Property-based tests for the text extension.
//!
//! The reference model is a plain `String`; the system under test is the
//! full stack (character tuples in the MVCC engine + the chain cache).
//! `cached_info_equals_a_fresh_load` holds the chain's per-character info
//! to the `chars` rows themselves. The proptest shim prints
//! `PROPTEST_SEED=<n>` on failure; export it to replay the sequence.

use proptest::prelude::*;

use tendax_text::{CharId, CharInfo, DocHandle, DocId, StyleId, TextDb, UserId};

#[derive(Debug, Clone)]
enum EditOp {
    Insert(usize, String),
    Delete(usize, usize),
    Undo,
    Redo,
}

fn arb_edit() -> impl Strategy<Value = EditOp> {
    prop_oneof![
        4 => (any::<usize>(), "[a-z ]{1,8}").prop_map(|(p, s)| EditOp::Insert(p, s)),
        3 => (any::<usize>(), 1usize..6).prop_map(|(p, n)| EditOp::Delete(p, n)),
        1 => Just(EditOp::Undo),
        1 => Just(EditOp::Redo),
    ]
}

fn setup() -> (TextDb, UserId, DocHandle) {
    let tdb = TextDb::in_memory();
    let user = tdb.create_user("alice").unwrap();
    let doc = tdb.create_document("d", user).unwrap();
    let h = tdb.open(doc, user).unwrap();
    (tdb, user, h)
}

fn char_insert(s: &mut String, pos: usize, text: &str) {
    let byte = s.char_indices().nth(pos).map(|(b, _)| b).unwrap_or(s.len());
    s.insert_str(byte, text);
}

fn char_delete(s: &mut String, pos: usize, len: usize) -> String {
    let chars: Vec<char> = s.chars().collect();
    let removed: String = chars[pos..pos + len].iter().collect();
    *s = chars[..pos]
        .iter()
        .chain(chars[pos + len..].iter())
        .collect();
    removed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary single-user edit scripts: the database-backed document
    /// always equals the string model; a reload from raw tuples agrees.
    #[test]
    fn document_matches_string_model(script in proptest::collection::vec(arb_edit(), 1..40)) {
        let (tdb, user, mut h) = setup();
        let mut model = String::new();
        // Model undo/redo as state snapshots (engine semantics: undo
        // reverts the newest not-undone edit op). The engine additionally
        // permits redo *after* intervening edits (re-applying the undone
        // op out of order); a snapshot model cannot predict that, so the
        // script only exercises redo while no edit happened since the
        // last undo.
        let mut undo_stack: Vec<String> = Vec::new();
        let mut redo_stack: Vec<String> = Vec::new();
        let mut edited_since_undo = false;
        // The engine keeps undone ops redoable even across edits; the
        // snapshot model does not. Count how many engine-level redoable
        // undos exist so we only assert NothingToRedo when it holds.
        let mut engine_redoable = 0usize;

        for op in script {
            match op {
                EditOp::Insert(p, text) => {
                    let pos = p % (model.chars().count() + 1);
                    h.insert_text(pos, &text).unwrap();
                    undo_stack.push(model.clone());
                    char_insert(&mut model, pos, &text);
                    redo_stack.clear();
                    edited_since_undo = true;
                }
                EditOp::Delete(p, n) => {
                    let len = model.chars().count();
                    if len == 0 {
                        continue;
                    }
                    let pos = p % len;
                    let n = n.min(len - pos);
                    if n == 0 {
                        continue;
                    }
                    h.delete_range(pos, n).unwrap();
                    undo_stack.push(model.clone());
                    char_delete(&mut model, pos, n);
                    redo_stack.clear();
                    edited_since_undo = true;
                }
                EditOp::Undo => {
                    match undo_stack.pop() {
                        Some(prev) => {
                            h.undo().unwrap();
                            redo_stack.push(model.clone());
                            model = prev;
                            edited_since_undo = false;
                            engine_redoable += 1;
                        }
                        None => {
                            prop_assert!(h.undo().is_err());
                        }
                    }
                }
                EditOp::Redo => {
                    if edited_since_undo {
                        continue; // engine semantics diverge from snapshots
                    }
                    match redo_stack.pop() {
                        Some(next) => {
                            h.redo().unwrap();
                            undo_stack.push(model.clone());
                            model = next;
                            engine_redoable -= 1;
                        }
                        None if engine_redoable == 0 => {
                            prop_assert!(h.redo().is_err());
                        }
                        None => {
                            // Engine could redo an op from before an edit
                            // boundary; snapshots can't predict the result.
                        }
                    }
                }
            }
            prop_assert_eq!(h.text(), model.clone());
            prop_assert_eq!(h.len(), model.chars().count());
        }

        // Reload from raw tuples and compare.
        let fresh = tdb.open(h.doc(), user).unwrap();
        prop_assert_eq!(fresh.text(), model);
    }

    /// Copy-paste between two documents preserves the copied text and
    /// stamps provenance on every pasted character.
    #[test]
    fn paste_preserves_text_and_provenance(
        src_text in "[a-z]{5,30}",
        start_frac in 0.0f64..1.0,
        len in 1usize..10,
    ) {
        let tdb = TextDb::in_memory();
        let user = tdb.create_user("u").unwrap();
        let d1 = tdb.create_document("src", user).unwrap();
        let d2 = tdb.create_document("dst", user).unwrap();
        let mut h1 = tdb.open(d1, user).unwrap();
        h1.insert_text(0, &src_text).unwrap();
        let n = src_text.chars().count();
        let start = ((n as f64 - 1.0) * start_frac) as usize;
        let len = len.min(n - start);
        let clip = h1.copy(start, len).unwrap();
        let expected: String = src_text.chars().skip(start).take(len).collect();
        prop_assert_eq!(clip.text(), expected.clone());

        let mut h2 = tdb.open(d2, user).unwrap();
        h2.paste(0, &clip).unwrap();
        prop_assert_eq!(h2.text(), expected);
        for pos in 0..len {
            let meta = h2.char_meta(pos).unwrap();
            let copied_from_src = matches!(
                meta.provenance,
                tendax_text::Provenance::CopiedFrom { doc, .. } if doc == d1
            );
            prop_assert!(copied_from_src);
        }
    }

    /// Two handles taking turns always converge: the one that acted folds
    /// its own edit — undo and redo included — into its cache, and the
    /// other, refreshed, shows the commit.
    #[test]
    fn effect_broadcast_converges(script in proptest::collection::vec(arb_edit(), 1..25)) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();

        for (i, op) in script.into_iter().enumerate() {
            // Alternate which editor acts.
            let (actor, watcher) = if i % 2 == 0 {
                (&mut ha, &mut hb)
            } else {
                (&mut hb, &mut ha)
            };
            let receipt = match op {
                EditOp::Insert(p, text) => {
                    let pos = p % (actor.len() + 1);
                    actor.insert_text(pos, &text).unwrap()
                }
                EditOp::Delete(p, n) => {
                    let len = actor.len();
                    if len == 0 {
                        continue;
                    }
                    let pos = p % len;
                    let n = n.min(len - pos);
                    if n == 0 {
                        continue;
                    }
                    actor.delete_range(pos, n).unwrap()
                }
                EditOp::Undo => match actor.undo() {
                    Ok(r) => r,
                    Err(_) => continue,
                },
                EditOp::Redo => match actor.redo() {
                    Ok(r) => r,
                    Err(_) => continue,
                },
            };
            watcher.refresh().unwrap();
            prop_assert!(watcher.synced_ts() >= receipt.commit_ts);
            prop_assert_eq!(ha.text(), hb.text());
        }
    }

    /// Every character's cached info equals the stored row's, on both
    /// handles of a two-editor history, after every step: typing, range
    /// deletes, pastes from the document itself or from another one,
    /// external pastes, restyles, local and global undo and redo, each
    /// the other handle refreshed after each step.
    /// "Equal" is `for_each_char` of the handle against `for_each_char` of
    /// a fresh `TextDb::load`: the same characters in the same order, and
    /// every `CharInfo` field alike.
    #[test]
    fn cached_info_equals_a_fresh_load(script in proptest::collection::vec(arb_info_step(), 1..40)) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let styles = [
            tdb.define_style("bold", "b", alice).unwrap(),
            tdb.define_style("italic", "i", alice).unwrap(),
        ];
        let source = tdb.create_document("source", alice).unwrap();
        let mut src = tdb.open(source, alice).unwrap();
        src.insert_text(0, "a source to paste from").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut handles = [tdb.open(doc, alice).unwrap(), tdb.open(doc, bob).unwrap()];

        for (i, step) in script.iter().enumerate() {
            let (actor, watcher) = match step.who() {
                0 => { let [a, b] = &mut handles; (a, b) }
                _ => { let [a, b] = &mut handles; (b, a) }
            };
            if run_info_step(step, actor, &src, styles) {
                watcher.refresh().unwrap();
            }
            let fresh = chars_of(&tdb.load(doc, UserId::NONE).unwrap());
            for (who, h) in handles.iter().enumerate() {
                prop_assert_eq!(&chars_of(h), &fresh, "handle {} after step {}: {:?}", who, i, step);
            }
        }
    }
}

#[derive(Debug, Clone)]
enum InfoStep {
    Type {
        who: usize,
        at: usize,
        text: String,
    },
    Delete {
        who: usize,
        at: usize,
        len: usize,
    },
    /// Copy `len` characters at `at` — of the acting handle's own document,
    /// or of the source document — and paste them at `to_at`.
    Paste {
        who: usize,
        own: bool,
        at: usize,
        len: usize,
        to_at: usize,
    },
    External {
        who: usize,
        at: usize,
    },
    Style {
        who: usize,
        at: usize,
        len: usize,
        style: usize,
    },
    Undo {
        who: usize,
        global: bool,
    },
    Redo {
        who: usize,
        global: bool,
    },
}

impl InfoStep {
    fn who(&self) -> usize {
        match self {
            InfoStep::Type { who, .. }
            | InfoStep::Delete { who, .. }
            | InfoStep::Paste { who, .. }
            | InfoStep::External { who, .. }
            | InfoStep::Style { who, .. }
            | InfoStep::Undo { who, .. }
            | InfoStep::Redo { who, .. } => *who,
        }
    }
}

fn arb_info_step() -> impl Strategy<Value = InfoStep> {
    let who = || 0usize..2;
    prop_oneof![
        5 => (who(), any::<usize>(), "[a-z ]{1,6}")
            .prop_map(|(who, at, text)| InfoStep::Type { who, at, text }),
        3 => (who(), any::<usize>(), 1usize..5)
            .prop_map(|(who, at, len)| InfoStep::Delete { who, at, len }),
        2 => (who(), any::<bool>(), any::<usize>(), 1usize..6, any::<usize>())
            .prop_map(|(who, own, at, len, to_at)| InfoStep::Paste { who, own, at, len, to_at }),
        1 => (who(), any::<usize>()).prop_map(|(who, at)| InfoStep::External { who, at }),
        2 => (who(), any::<usize>(), 1usize..5, 0usize..2)
            .prop_map(|(who, at, len, style)| InfoStep::Style { who, at, len, style }),
        2 => (who(), any::<bool>()).prop_map(|(who, global)| InfoStep::Undo { who, global }),
        1 => (who(), any::<bool>()).prop_map(|(who, global)| InfoStep::Redo { who, global }),
    ]
}

/// Run one step on `h`: whether it committed, `false` if the document
/// refused it (nothing to undo, an empty range) — part of a random
/// schedule, not a failure.
fn run_info_step(
    step: &InfoStep,
    h: &mut DocHandle,
    src: &DocHandle,
    styles: [StyleId; 2],
) -> bool {
    let within = |len: usize, at: usize| at % (len + 1);
    let receipt = match step {
        InfoStep::Type { at, text, .. } => h.insert_text(within(h.len(), *at), text),
        InfoStep::Delete { at, len, .. } => {
            let at = within(h.len(), *at);
            h.delete_range(at, (*len).min(h.len() - at))
        }
        InfoStep::Paste {
            own,
            at,
            len,
            to_at,
            ..
        } => {
            let from = if *own { &*h } else { src };
            let at = within(from.len(), *at);
            let Ok(clip) = from.copy(at, (*len).min(from.len() - at)) else {
                return false;
            };
            h.paste(within(h.len(), *to_at), &clip)
        }
        InfoStep::External { at, .. } => {
            h.paste_external(within(h.len(), *at), "web", "https://example.org")
        }
        InfoStep::Style { at, len, style, .. } => {
            let at = within(h.len(), *at);
            h.apply_style(at, (*len).min(h.len() - at), styles[*style])
        }
        InfoStep::Undo { global: false, .. } => h.undo(),
        InfoStep::Undo { global: true, .. } => h.global_undo(),
        InfoStep::Redo { global: false, .. } => h.redo(),
        InfoStep::Redo { global: true, .. } => h.global_redo(),
    };
    receipt.is_ok()
}

/// The handle's full chain, tombstones included, with each character's
/// cached info.
fn chars_of(h: &DocHandle) -> Vec<(CharId, CharInfo)> {
    let mut out = Vec::new();
    h.for_each_char(|id, info| out.push((id, info.clone())));
    out
}

#[test]
fn a_paste_from_another_document_carries_its_source_in_the_cache() {
    let tdb = TextDb::in_memory();
    let u = tdb.create_user("u").unwrap();
    let (d1, d2) = (
        tdb.create_document("one", u).unwrap(),
        tdb.create_document("two", u).unwrap(),
    );
    let mut h1 = tdb.open(d1, u).unwrap();
    h1.insert_text(0, "abc").unwrap();
    let mut h2 = tdb.open(d2, u).unwrap();
    h2.paste(0, &h1.copy(1, 2).unwrap()).unwrap();
    let cached = chars_of(&h2);
    assert_eq!(cached, chars_of(&tdb.load(d2, UserId::NONE).unwrap()));
    assert_eq!(cached[0].1.src_doc, d1);
    assert_eq!(cached[0].1.src_char, h1.char_at(1).unwrap());
    assert_ne!(cached[0].1.src_doc, DocId::NONE);
}
