//! Property tests for the collaboration layer: editors that sync at
//! arbitrary points (including never, until the end) always show the
//! database's text, and disjoint edits through pinned handles merge
//! without a conflict.

use proptest::prelude::*;
use tendax_collab::{CollabServer, Platform};
use tendax_text::{TextDb, TextError};

#[derive(Debug, Clone)]
enum Step {
    /// Editor `e` types at a pseudo-position.
    Type { editor: usize, pos: usize },
    /// Editor `e` deletes one char at a pseudo-position.
    Delete { editor: usize, pos: usize },
    /// Editor `e` pulls from the bus.
    Sync { editor: usize },
}

fn arb_step(n_editors: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..n_editors, any::<usize>()).prop_map(|(editor, pos)| Step::Type { editor, pos }),
        2 => (0..n_editors, any::<usize>()).prop_map(|(editor, pos)| Step::Delete { editor, pos }),
        2 => (0..n_editors).prop_map(|editor| Step::Sync { editor }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of edits and syncs across three editors ends in
    /// convergence once everyone drains their queue, and the converged
    /// text matches a fresh open straight from the database.
    #[test]
    fn editors_converge_under_arbitrary_sync_patterns(
        script in proptest::collection::vec(arb_step(3), 1..60)
    ) {
        let tdb = TextDb::in_memory();
        let creator = tdb.create_user("user0").unwrap();
        tdb.create_user("user1").unwrap();
        tdb.create_user("user2").unwrap();
        tdb.create_document("doc", creator).unwrap();
        let server = CollabServer::new(tdb);
        let sessions: Vec<_> = (0..3)
            .map(|i| {
                server
                    .connect(&format!("user{i}"), Platform::Linux)
                    .unwrap()
            })
            .collect();
        let mut editors: Vec<_> = sessions.iter().map(|s| s.open("doc").unwrap()).collect();

        for step in script {
            match step {
                // Positions are computed against the editor's local view;
                // the session syncs before editing, so a position can
                // become invalid (exactly like a user's stale cursor in a
                // real editor). Such actions are dropped, never corrupt.
                Step::Type { editor, pos } => {
                    let e = &mut editors[editor];
                    let p = pos % (e.len() + 1);
                    let marker = char::from_digit(editor as u32, 10).unwrap();
                    match e.type_text(p, &marker.to_string()) {
                        Ok(_) | Err(TextError::InvalidPosition { .. }) => {}
                        Err(other) => return Err(TestCaseError::fail(other.to_string())),
                    }
                }
                Step::Delete { editor, pos } => {
                    let e = &mut editors[editor];
                    if !e.is_empty() {
                        let p = pos % e.len();
                        match e.delete(p, 1) {
                            Ok(_) | Err(TextError::InvalidPosition { .. }) => {}
                            Err(other) => return Err(TestCaseError::fail(other.to_string())),
                        }
                    }
                }
                Step::Sync { editor } => {
                    editors[editor].sync();
                }
            }
        }

        // A sync has nothing to apply: every editor reads the one copy.
        for e in editors.iter_mut() {
            prop_assert_eq!(e.sync(), 0);
        }
        let reference = {
            let tdb = server.textdb();
            let doc = tdb.document_by_name("doc").unwrap();
            tdb.open(doc, creator).unwrap().text()
        };
        for (i, e) in editors.iter().enumerate() {
            prop_assert_eq!(
                e.text(),
                reference.clone(),
                "editor {} diverged", i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Disjoint-position concurrency: three editors each own one region
    /// of a shared document and never sync mid-script, so each edits a
    /// copy that has not seen the others' edits. Every interleaving must
    /// (a) commit first-try — zero conflicts — and (b) converge
    /// byte-identically to the serialized execution of each editor's ops
    /// against its own region.
    #[test]
    fn disjoint_region_edits_merge_without_conflicts(
        script in proptest::collection::vec(
            (0usize..3, any::<bool>(), any::<usize>()),
            1..80,
        )
    ) {
        const SEED: &str = "aaaaaaaa|bbbbbbbb|cccccccc";
        let tdb = TextDb::in_memory();
        let creator = tdb.create_user("user0").unwrap();
        let doc = tdb.create_document("doc", creator).unwrap();
        tdb.open(doc, creator).unwrap().insert_text(0, SEED).unwrap();

        let mut editors: Vec<_> = (0..3)
            .map(|_| tdb.open(doc, creator).unwrap())
            .collect();
        // Region i spans 8 seed chars; separators are never edited. In an
        // editor's unsynced local view the other regions never change, so
        // its region start stays at the seed offset.
        let starts = [0usize, 9, 18];
        let mut models = [
            SEED[0..8].to_string(),
            SEED[9..17].to_string(),
            SEED[18..26].to_string(),
        ];

        for (editor, is_insert, pos) in script {
            let start = starts[editor];
            let model = &mut models[editor];
            let marker = char::from_digit(editor as u32, 10).unwrap();
            if is_insert {
                let p = pos % (model.len() + 1);
                editors[editor]
                    .insert_text(start + p, &marker.to_string())
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                model.insert(p, marker);
            } else if !model.is_empty() {
                let p = pos % model.len();
                editors[editor]
                    .delete_range(start + p, 1)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                model.remove(p);
            }
        }

        // Serialized reference: each region is exactly its editor's ops
        // replayed in isolation.
        let expected = format!("{}|{}|{}", models[0], models[1], models[2]);
        let actual = tdb.open(doc, creator).unwrap().text();
        prop_assert_eq!(actual, expected);

        let stats = tdb.database().stats();
        prop_assert_eq!(stats.conflicts, 0, "disjoint edits must not conflict");
    }
}
