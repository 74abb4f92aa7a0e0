//! The mirror oracle: a client replica against the server's chain.
//!
//! Random editing histories run through a real in-process `CollabServer`
//! with two or three editors: typing runs, word inserts, inserts at the
//! head, at the end and next to the tombstones a backspace leaves,
//! backspaces and range deletes, local and global undo and redo,
//! restyles, and moves from one editor into another's view of the same
//! document (one commit, so one event). A publish hook captures every event. A mirror is loaded
//! from a snapshot taken partway through, and every event is delivered to
//! it in commit order, as a stream carries them, those at or below the
//! snapshot included and some twice: the mirror applies each event above
//! its frontier once and skips the rest. Then the mirror's full chain —
//! id, character, deleted flag and style, in order, tombstones included —
//! must be what `SnapshotReader` decodes from `encode_snapshot` of a fresh
//! load, and its text `document_text`. Before that, an event delivered
//! ahead of one it depends on must be refused and flag the mirror for a
//! resync, which a reload of the snapshot answers.
//!
//! The proptest shim prints `PROPTEST_SEED=<n>` on failure; export it to
//! replay the sequence.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use tendax_collab::{CollabServer, EditorDoc, Platform};
use tendax_net::protocol::{encode_snapshot, SnapshotReader};
use tendax_net::{MirrorDoc, WireChar, WireEvent};
use tendax_text::{Effect, StyleId, TextDb};

const USERS: [&str; 3] = ["alice", "bob", "carol"];

#[derive(Debug, Clone)]
enum Edit {
    /// Type at the editor's cursor: continues its run, or types next to
    /// the tombstones its last backspace left.
    Run(String),
    Word {
        at: usize,
        text: String,
    },
    Head(String),
    End(String),
    /// Delete the character before the cursor.
    Backspace,
    Delete {
        at: usize,
        len: usize,
    },
    Undo,
    Redo,
    GlobalUndo,
    GlobalRedo,
    Style {
        at: usize,
        len: usize,
        bold: bool,
    },
    /// Move a range to `to`, through the next editor.
    Move {
        at: usize,
        len: usize,
        to: usize,
    },
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        6 => "[a-z]{1,3}".prop_map(Edit::Run),
        3 => (any::<usize>(), "[a-z ]{1,6}").prop_map(|(at, text)| Edit::Word { at, text }),
        1 => "[a-z]{1,3}".prop_map(Edit::Head),
        1 => "[a-z]{1,3}".prop_map(Edit::End),
        3 => Just(Edit::Backspace),
        2 => (any::<usize>(), 1usize..6).prop_map(|(at, len)| Edit::Delete { at, len }),
        1 => Just(Edit::Undo),
        1 => Just(Edit::Redo),
        1 => Just(Edit::GlobalUndo),
        1 => Just(Edit::GlobalRedo),
        1 => (any::<usize>(), 1usize..5, any::<bool>())
            .prop_map(|(at, len, bold)| Edit::Style { at, len, bold }),
        1 => (any::<usize>(), 1usize..6, any::<usize>())
            .prop_map(|(at, len, to)| Edit::Move { at, len, to }),
    ]
}

/// Run one edit by editor `who` (a move into editor `who + 1`'s view).
/// Edits the document refuses (nothing to undo, a cursor at the start)
/// are simply not events.
fn run(open: &mut [EditorDoc], who: usize, edit: &Edit, styles: [StyleId; 2]) {
    let (head, tail) = open.split_at_mut(who + 1);
    let (editor, before) = head.split_last_mut().expect("editor `who`");
    let next = tail
        .first_mut()
        .or(before.first_mut())
        .expect("two editors");
    let len = editor.len();
    let cursor = editor.cursor().min(len);
    let _ = match edit {
        Edit::Run(text) => editor.type_text(cursor, text),
        Edit::Word { at, text } => editor.type_text(at % (len + 1), text),
        Edit::Head(text) => editor.type_text(0, text),
        Edit::End(text) => editor.type_text(len, text),
        Edit::Backspace if cursor > 0 => editor.delete(cursor - 1, 1),
        Edit::Delete { at, len: n } if len > 0 => {
            let at = at % len;
            editor.delete(at, (*n).min(len - at))
        }
        Edit::Undo => editor.undo(),
        Edit::Redo => editor.redo(),
        Edit::GlobalUndo => editor.global_undo(),
        Edit::GlobalRedo => editor.global_redo(),
        Edit::Style { at, len: n, bold } if len > 0 => {
            let at = at % len;
            editor.apply_style(at, (*n).min(len - at), styles[usize::from(*bold)])
        }
        Edit::Move { at, len: n, to } if len > 0 => {
            let at = at % len;
            editor
                .move_text(at, (*n).min(len - at), next, to % (len + 1))
                .map(|(del, _)| del)
        }
        Edit::Backspace | Edit::Delete { .. } | Edit::Style { .. } | Edit::Move { .. } => return,
    };
}

/// The characters an event names without inserting them itself.
fn references(ev: &WireEvent) -> Vec<u64> {
    let mut own = Vec::new();
    let mut refs = Vec::new();
    for e in &ev.effects {
        match e {
            Effect::Insert { char, prev, .. } => {
                refs.extend(prev.map(|p| p.0));
                own.push(char.0);
            }
            Effect::Delete { char, .. }
            | Effect::Undelete { char }
            | Effect::SetStyle { char, .. } => refs.push(char.0),
        }
    }
    refs.retain(|id| !own.contains(id));
    refs
}

fn decode_chars(payload: &[u8]) -> Vec<WireChar> {
    SnapshotReader::new(payload).unwrap().chars().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_mirror_converges_to_the_server_chain(
        editors in 2usize..4,
        steps in proptest::collection::vec((0usize..3, arb_edit()), 1..120),
        snapshot_pct in 0usize..80,
        order_seed in any::<u64>(),
    ) {
        let tdb = TextDb::in_memory();
        let users: Vec<_> = USERS.iter().map(|u| tdb.create_user(u).unwrap()).collect();
        let doc = tdb.create_document("doc", users[0]).unwrap();
        let styles = [
            tdb.define_style("plain", "", users[0]).unwrap(),
            tdb.define_style("bold", "b", users[0]).unwrap(),
        ];
        let collab = CollabServer::new(tdb.clone());
        let published = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&published);
        collab.transport().register_publish_hook(Box::new(move |ev| {
            log.lock().unwrap().push(WireEvent::from(&**ev));
            true
        }));
        let sessions: Vec<_> = USERS[..editors]
            .iter()
            .map(|u| collab.connect(u, Platform::Linux).unwrap())
            .collect();
        let mut open: Vec<EditorDoc> = sessions.iter().map(|s| s.open_id(doc).unwrap()).collect();

        // Every step ends quiescent: its event is published by the time
        // the call returns, so a load then covers exactly the events
        // captured so far.
        let snapshot_at = steps.len() * snapshot_pct / 100;
        let mut snapshot = Vec::new();
        for (i, (who, edit)) in steps.iter().enumerate() {
            if i == snapshot_at {
                snapshot = encode_snapshot(&tdb.load(doc, users[0]).unwrap(), 0);
            }
            run(&mut open, who % editors, edit, styles);
        }
        let events = std::mem::take(&mut *published.lock().unwrap());
        let mut mirror = MirrorDoc::from_snapshot_payload(&snapshot[5..]).unwrap();
        let baseline = mirror.synced_ts();

        // An event depends on the events above the snapshot that insert
        // what it names: delivered ahead of them, it names a character the
        // mirror lacks.
        let mut inserted_by = HashMap::new();
        for (j, ev) in events.iter().enumerate() {
            for e in &ev.effects {
                if let Effect::Insert { char, .. } = e {
                    inserted_by.insert(char.0, j);
                }
            }
        }
        let early = events.iter().position(|ev| {
            references(ev)
                .iter()
                .filter_map(|id| inserted_by.get(id))
                .any(|&k| events[k].commit_ts > baseline)
        });
        if let Some(j) = early {
            prop_assert!(mirror.apply_event(events[j].clone()).is_err());
            prop_assert!(mirror.needs_resync());
            mirror.reload(MirrorDoc::from_snapshot_payload(&snapshot[5..]).unwrap());
        }

        let mut rng = SmallRng::seed_from_u64(order_seed);
        let mut delivered = vec![false; events.len()];
        for j in 0..events.len() {
            let again = rng.gen_bool(0.15).then(|| rng.gen_range(0..=j));
            for k in std::iter::once(j).chain(again) {
                let applied = mirror.apply_event(events[k].clone()).unwrap();
                let due = !delivered[k] && events[k].commit_ts > baseline;
                prop_assert_eq!(applied, due, "event {} of {}", k, events.len());
                delivered[k] = true;
            }
        }

        let fresh = encode_snapshot(&tdb.load(doc, users[0]).unwrap(), 0);
        prop_assert!(!mirror.needs_resync());
        prop_assert_eq!(mirror.chars().collect::<Vec<_>>(), decode_chars(&fresh[5..]));
        let text = tdb.document_text(doc).unwrap();
        prop_assert_eq!(mirror.len(), text.chars().count());
        prop_assert_eq!(mirror.text(), text);
        let newest = events.iter().map(|ev| ev.commit_ts).max().unwrap_or(0);
        prop_assert_eq!(mirror.synced_ts(), newest.max(baseline));
    }
}
