//! The metadata services read metadata; they must not write it. Every
//! folder kind, the search engine and the mining sweeps run here against
//! a small corpus, and afterwards no document has gained a read event and
//! the database has seen no commit — a `ReadBy` folder, a `MostRead`
//! ranking or a reader list evaluated twice gives the same answer twice.

use tendax_meta::{
    collect_features, top_terms, DynamicFolders, FolderRule, RankBy, SearchEngine, SearchQuery,
};
use tendax_text::{DocId, TextDb};

fn corpus() -> (TextDb, Vec<DocId>) {
    let tdb = TextDb::in_memory();
    let alice = tdb.create_user("alice").unwrap();
    let bob = tdb.create_user("bob").unwrap();
    let mut docs = Vec::new();
    for (name, text) in [
        ("minutes", "quarterly revenue grew across all regions"),
        ("notes", "meeting notes about the revenue report"),
        ("draft", "nothing to see here yet"),
    ] {
        let doc = tdb.create_document(name, alice).unwrap();
        let mut h = tdb.open(doc, bob).unwrap();
        h.insert_text(0, text).unwrap();
        docs.push(doc);
    }
    // A paste edge, so `PastedFrom` has something to find.
    let clip = tdb.open(docs[0], alice).unwrap().copy(0, 9).unwrap();
    tdb.open(docs[2], alice).unwrap().paste(0, &clip).unwrap();
    (tdb, docs)
}

#[test]
fn folders_search_and_mining_leave_no_trace() {
    let (tdb, docs) = corpus();
    let alice = tdb.user_by_name("alice").unwrap();
    let folders = DynamicFolders::init(tdb.clone()).unwrap();
    let rules = [
        FolderRule::ReadBy {
            user: alice.0,
            since: 0,
        },
        FolderRule::AuthoredBy { user: alice.0 },
        FolderRule::CreatedBy { user: alice.0 },
        FolderRule::StateIs("draft".into()),
        FolderRule::NameContains("o".into()),
        FolderRule::ContentContains("revenue".into()),
        FolderRule::PastedFrom { doc: docs[0].0 },
        FolderRule::EditedSince(0),
        FolderRule::MinSize(30),
        FolderRule::HasOpenTasks,
        FolderRule::ContentContains("revenue".into()).and(FolderRule::Not(Box::new(
            FolderRule::ReadBy {
                user: alice.0,
                since: 0,
            },
        ))),
        FolderRule::ContentContains("nothing".into()).or(FolderRule::MinSize(1)),
    ];
    let stored: Vec<_> = rules
        .iter()
        .enumerate()
        .map(|(i, rule)| {
            folders
                .create_folder(&format!("f{i}"), alice, rule.clone())
                .unwrap()
        })
        .collect();
    let mut watched = folders.watch(stored[5]).unwrap();

    let reads_before: Vec<usize> = docs.iter().map(|d| tdb.read_count(*d).unwrap()).collect();
    let commits_before = tdb.database().stats().commits;

    for _ in 0..2 {
        for (rule, id) in rules.iter().zip(&stored) {
            assert_eq!(
                folders.evaluate(*id).unwrap(),
                folders.evaluate_rule(rule).unwrap()
            );
        }
        assert!(watched.refresh().unwrap().is_empty());

        let mut engine = SearchEngine::build(&tdb).unwrap();
        engine.update_document(docs[1]).unwrap();
        let hits = engine
            .search(&SearchQuery::phrase("revenue report").rank_by(RankBy::MostRead))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(engine.snippet(docs[0], "revenue", 8).unwrap().is_some());

        assert_eq!(collect_features(&tdb).unwrap().len(), docs.len());
        assert!(!top_terms(&tdb, docs[0], 3).unwrap().is_empty());
    }

    let reads_after: Vec<usize> = docs.iter().map(|d| tdb.read_count(*d).unwrap()).collect();
    assert_eq!(reads_after, reads_before, "a service recorded a read");
    assert_eq!(
        tdb.database().stats().commits,
        commits_before,
        "a service committed a transaction"
    );
}
