//! A connection is two threads whatever it subscribes to, and an idle
//! server has nothing that wakes up to look for events.
//!
//! This file holds one test on purpose: it counts the threads of the
//! whole process, and tests of one file share a process.

use std::time::Duration;

use tendax_collab::CollabServer;
use tendax_net::{NetClient, NetConfig, NetServer};
use tendax_text::TextDb;

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux /proc")
        .count()
}

#[test]
fn thread_count_is_two_per_connection_plus_accept() {
    const CLIENTS: usize = 3;
    const DOCS: usize = 6;
    let tdb = TextDb::in_memory();
    let users: Vec<String> = (0..CLIENTS).map(|i| format!("user{i}")).collect();
    let owner = tdb.create_user(&users[0]).unwrap();
    for u in &users[1..] {
        tdb.create_user(u).unwrap();
    }
    let names: Vec<String> = (0..DOCS).map(|d| format!("doc{d}")).collect();
    for n in &names {
        tdb.create_document(n, owner).unwrap();
    }

    let before = process_threads();
    let server =
        NetServer::bind("127.0.0.1:0", CollabServer::new(tdb), NetConfig::default()).unwrap();
    let clients: Vec<NetClient> = users
        .iter()
        .map(|u| NetClient::connect(server.local_addr(), u).unwrap())
        .collect();
    // A reply to a ping means the connection's reader and writer both run.
    clients.iter().for_each(|c| c.ping().unwrap());
    // The server's accept thread and two per connection, plus each
    // client's own reader.
    let connected = before + 1 + 2 * CLIENTS + CLIENTS;
    assert_eq!(process_threads(), connected);

    // Eighteen subscriptions and an edit through every one of them add
    // no thread, and none appears once the server goes quiet.
    let mut last = Vec::new();
    for name in &names {
        let ids: Vec<u64> = clients.iter().map(|c| c.subscribe(name).unwrap()).collect();
        let (_, ts) = clients[0].insert(ids[0], 0, "typed").unwrap();
        last.push((ids[0], ts));
    }
    for (doc, ts) in last {
        for c in &clients {
            assert!(c.wait_synced(doc, ts, Duration::from_secs(30)));
        }
    }
    assert_eq!(process_threads(), connected);
    let stats = server.stats();
    assert_eq!(stats.events_forwarded, (DOCS * CLIENTS) as u64, "{stats:?}");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(process_threads(), connected);
    assert_eq!(server.stats(), stats, "an idle server did something");
}
