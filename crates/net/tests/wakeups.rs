//! A typist's acknowledged edits wake no writer thread: the connection's
//! reader writes each reply, and the echo behind it, itself. Nor do they
//! wake the client's reader thread once per reply: a waiting call reads
//! its own reply from the socket.
//!
//! This file holds one test on purpose: it reads every thread of the
//! whole process, and tests of one file share a process.

use std::time::Duration;

use tendax_collab::CollabServer;
use tendax_net::{NetClient, NetConfig, NetServer};
use tendax_text::TextDb;

const EDITS: u64 = 200;
const WRITER: &str = "tendax-net-writ";
const CLIENT_READER: &str = "tendax-net-clie";

/// Voluntary context switches summed over the threads called `name`:
/// every time one of them blocked. Linux keeps 15 bytes of a thread's
/// name, so the server's `tendax-net-writer` reads `tendax-net-writ` and
/// the client's `tendax-net-client` reads `tendax-net-clie`.
fn switches(name: &str) -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("a Linux /proc");
    let mut switches = 0;
    for task in tasks {
        let path = task.expect("a task entry").path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() != name {
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
    // Quiet for longer than the client's handover: its reader thread
    // holds the socket, and the first edit below takes it back.
    std::thread::sleep(Duration::from_millis(50));

    let before = (switches(WRITER), switches(CLIENT_READER));
    let stats = server.stats();
    let mut last = ts;
    for i in 0..EDITS {
        last = client.insert(doc, i as usize, "x").unwrap().1;
    }
    assert!(client.wait_synced(doc, last, Duration::from_secs(30)));
    let woke = switches(WRITER) - before.0;
    let reader_woke = switches(CLIENT_READER) - before.1;
    let after = server.stats();
    let frames = after.frames_written - stats.frames_written;
    let writes = after.socket_writes - stats.socket_writes;
    eprintln!(
        "{EDITS} edits: writer switches {woke}, client reader switches {reader_woke}, \
         frames written {frames}, socket writes {writes}"
    );
    assert_eq!(
        woke, 0,
        "{EDITS} acknowledged edits woke the writers {woke} times"
    );
    // Handing each reply across a thread blocks the reader at least once
    // per reply; looking for a quiet socket once a handover is far fewer.
    assert!(
        reader_woke < EDITS / 4,
        "{EDITS} acknowledged edits woke the client's reader {reader_woke} times"
    );
    // Each reply and each echo: the reply leaves before its broadcast.
    assert_eq!((frames, writes), (2 * EDITS, 2 * EDITS));
}
