//! A typist's acknowledged edits wake no writer thread: the connection's
//! reader writes each reply, and the echo behind it, itself.
//!
//! This file holds one test on purpose: it reads every thread of the
//! whole process, and tests of one file share a process.

use std::time::Duration;

use tendax_collab::CollabServer;
use tendax_net::{NetClient, NetConfig, NetServer};
use tendax_text::TextDb;

const EDITS: u64 = 200;

/// Voluntary context switches summed over the server's writer threads:
/// every time one of them blocked. Linux keeps 15 bytes of a thread's
/// name, so `tendax-net-writer` reads `tendax-net-writ`.
fn writer_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("a Linux /proc");
    let mut switches = 0;
    for task in tasks {
        let path = task.expect("a task entry").path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() != "tendax-net-writ" {
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
fn acknowledged_edits_wake_no_writer() {
    let tdb = TextDb::in_memory();
    let alice = tdb.create_user("alice").unwrap();
    tdb.create_document("minutes", alice).unwrap();
    let server =
        NetServer::bind("127.0.0.1:0", CollabServer::new(tdb), NetConfig::default()).unwrap();
    let client = NetClient::connect(server.local_addr(), "alice").unwrap();
    let doc = client.subscribe("minutes").unwrap();
    let (_, ts) = client.insert(doc, 0, "warm").unwrap();
    assert!(client.wait_synced(doc, ts, Duration::from_secs(30)));

    let (before, stats) = (writer_switches(), server.stats());
    let mut last = ts;
    for i in 0..EDITS {
        last = client.insert(doc, i as usize, "x").unwrap().1;
    }
    assert!(client.wait_synced(doc, last, Duration::from_secs(30)));
    let woke = writer_switches() - before;
    let after = server.stats();
    let frames = after.frames_written - stats.frames_written;
    let writes = after.socket_writes - stats.socket_writes;
    eprintln!(
        "{EDITS} edits: writer switches {woke}, frames written {frames}, socket writes {writes}"
    );
    assert_eq!(
        woke, 0,
        "{EDITS} acknowledged edits woke the writers {woke} times"
    );
    // Each reply and each echo: the reply leaves before its broadcast.
    assert_eq!((frames, writes), (2 * EDITS, 2 * EDITS));
}
