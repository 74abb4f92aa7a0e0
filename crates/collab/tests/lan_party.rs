//! Multi-threaded "LAN-party" stress tests: several editors hammer the
//! same document concurrently from real threads; all views must converge
//! and the database must stay consistent. (Editors at the far end of a
//! real network are `tendax-net`'s loopback tests.)

use tendax_collab::{CollabServer, Platform};
use tendax_text::{TextDb, TextError};

fn server_with_users(n: usize) -> CollabServer {
    let tdb = TextDb::in_memory();
    let creator = tdb.create_user("user0").unwrap();
    for i in 1..n {
        tdb.create_user(&format!("user{i}")).unwrap();
    }
    tdb.create_document("party", creator).unwrap();
    CollabServer::new(tdb)
}

#[test]
fn concurrent_typists_converge() {
    let n_users = 4;
    let edits_per_user = 30;
    let server = server_with_users(n_users);

    let mut handles = Vec::new();
    for u in 0..n_users {
        let server = server.clone();
        handles.push(std::thread::spawn(move || {
            let platform = match u % 3 {
                0 => Platform::WindowsXp,
                1 => Platform::Linux,
                _ => Platform::MacOsX,
            };
            let session = server.connect(&format!("user{u}"), platform).unwrap();
            let mut doc = session.open("party").unwrap();
            for i in 0..edits_per_user {
                doc.sync();
                // Everyone types their marker at a pseudo-random position.
                let pos = (u * 31 + i * 7) % (doc.len() + 1);
                doc.type_text(pos, &format!("{u}")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // A fresh open must reconstruct a consistent chain with all edits.
    let tdb = server.textdb();
    let reader = tdb.user_by_name("user0").unwrap();
    let doc = tdb.document_by_name("party").unwrap();
    let h = tdb.open(doc, reader).unwrap();
    assert_eq!(h.len(), n_users * edits_per_user);
    // Every user's characters are all present.
    for u in 0..n_users {
        let marker = char::from_digit(u as u32, 10).unwrap();
        let count = h.text().chars().filter(|c| *c == marker).count();
        assert_eq!(count, edits_per_user, "user {u} lost edits");
    }
    // No aborted transaction left stray state: attribution sums to length.
    let total: usize = h.attribution().iter().map(|(_, n)| n).sum();
    assert_eq!(total, h.len());
    // Every editor commits under the document's lock, so no commit of
    // one overlaps another's: nothing conflicted and nothing merged.
    let stats = tdb.database().stats();
    assert_eq!((stats.conflicts, stats.commits_merged), (0, 0));
}

#[test]
fn concurrent_editors_with_deletes_stay_consistent() {
    let n_users = 3;
    let rounds = 20;
    let server = server_with_users(n_users);

    let mut handles = Vec::new();
    for u in 0..n_users {
        let server = server.clone();
        handles.push(std::thread::spawn(move || {
            let session = server
                .connect(&format!("user{u}"), Platform::Linux)
                .unwrap();
            let mut doc = session.open("party").unwrap();
            for i in 0..rounds {
                doc.sync();
                let len = doc.len();
                if i % 3 == 2 && len > 4 {
                    let pos = (u * 13 + i * 5) % (len - 1);
                    let dl = 1 + (i % 2).min(len - pos - 1);
                    // Deletes may race with other deletes of the same
                    // chars; that is fine (idempotent tombstoning).
                    let _ = doc.delete(pos, dl);
                } else {
                    // Another thread's delete may shorten the document
                    // between `len()` and the insert: every editor reads
                    // the one live copy.
                    let pos = (u * 17 + i * 3) % (len + 1);
                    match doc.type_text(pos, "ab") {
                        Ok(_) | Err(TextError::InvalidPosition { .. }) => {}
                        Err(other) => panic!("{other}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // The database chain must rebuild without corruption.
    let tdb = server.textdb();
    let reader = tdb.user_by_name("user0").unwrap();
    let doc = tdb.document_by_name("party").unwrap();
    let h = tdb.open(doc, reader).unwrap();
    // Total tuples = every inserted char, visible or tombstoned.
    assert!(h.chain_len() >= h.len());
    assert!(h.text().chars().all(|c| c == 'a' || c == 'b'));
}
