//! An idle connection wakes nothing: no server or client thread of a
//! quiet connection blocks, wakes and blocks again.
//!
//! This file holds one test on purpose: it reads every thread of the
//! whole process, and tests of one file share a process.

use std::time::Duration;

use tendax_collab::CollabServer;
use tendax_net::{NetClient, NetConfig, NetServer};
use tendax_text::TextDb;

/// Voluntary context switches summed over the transport's threads (the
/// accept thread, each connection's reader and writer, each client's
/// reader): every time one of them blocked.
fn transport_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("a Linux /proc");
    let mut switches = 0;
    for task in tasks {
        let path = task.expect("a task entry").path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if !comm.starts_with("tendax-net-") {
            continue;
        }
        let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
        let count = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .map_or(0, |n| n.trim().parse::<u64>().expect("a count"));
        switches += count;
    }
    switches
}

#[test]
fn an_idle_connection_wakes_no_thread() {
    let tdb = TextDb::in_memory();
    let alice = tdb.create_user("alice").unwrap();
    tdb.create_user("bob").unwrap();
    tdb.create_document("minutes", alice).unwrap();
    let server =
        NetServer::bind("127.0.0.1:0", CollabServer::new(tdb), NetConfig::default()).unwrap();
    let a = NetClient::connect(server.local_addr(), "alice").unwrap();
    let b = NetClient::connect(server.local_addr(), "bob").unwrap();
    let doc = a.subscribe("minutes").unwrap();
    b.subscribe("minutes").unwrap();
    let (_, ts) = a.insert(doc, 0, "Agenda").unwrap();
    for c in [&a, &b] {
        assert!(c.wait_synced(doc, ts, Duration::from_secs(30)));
    }
    // Let the writers park after their last write.
    std::thread::sleep(Duration::from_millis(200));

    let before = transport_switches();
    std::thread::sleep(Duration::from_secs(1));
    let woke = transport_switches() - before;
    assert_eq!(
        woke, 0,
        "an idle second woke the transport's threads {woke} times"
    );
}
