//! A typist's acknowledged edits wake no writer thread: the connection's
//! reader publishes each edit, writes its reply and the echo behind it in
//! one socket write, and then writes the event to the watcher's socket
//! itself, so it leaves no answer to a writer either. Nor do they wake the client's reader thread once per reply: a
//! waiting call reads its own reply from the socket.
//!
//! This file holds one test on purpose: it reads every thread of the
//! whole process, and tests of one file share a process.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tendax_collab::CollabServer;
use tendax_net::{Frame, FrameBuffer, NetClient, NetConfig, NetServer, PROTOCOL_VERSION};
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

/// Read frames from `stream` into `buf` until `done` holds for one.
fn read_until(stream: &mut TcpStream, buf: &mut FrameBuffer, mut done: impl FnMut(Frame) -> bool) {
    let mut scratch = [0u8; 4096];
    loop {
        while let Some((tag, payload)) = buf.next_frame().expect("framing") {
            if done(Frame::decode(tag, payload).expect("a frame")) {
                return;
            }
        }
        let n = stream.read(&mut scratch).expect("the watcher reads");
        assert!(n > 0, "the server closed the watcher");
        buf.extend(&scratch[..n]);
    }
}

/// A second subscriber of `name` on a raw socket, read by a thread that
/// is not a `NetClient`'s (its switches are not counted): it returns the
/// number of events it got up to the one of the commit sent on the
/// channel it hands back, and the socket, still open.
fn watcher(
    addr: SocketAddr,
    name: &str,
) -> (
    std::sync::mpsc::Sender<u64>,
    std::thread::JoinHandle<(u64, TcpStream)>,
) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        user: "bob".into(),
        platform: "Linux".into(),
        token: String::new(),
    };
    let subscribe = Frame::Subscribe {
        request: 1,
        name: name.into(),
        resume: None,
    };
    stream.write_all(&hello.encode()).unwrap();
    stream.write_all(&subscribe.encode()).unwrap();
    let mut buf = FrameBuffer::default();
    read_until(&mut stream, &mut buf, |f| {
        matches!(f, Frame::Snapshot { .. })
    });
    let (last, until) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut events = 0;
        let mut last = None;
        read_until(&mut stream, &mut buf, |f| {
            if let Frame::Event(ev) = f {
                events += 1;
                let last = *last.get_or_insert_with(|| until.recv().unwrap());
                assert!(ev.commit_ts <= last, "an event past the last commit");
                return ev.commit_ts == last;
            }
            false
        });
        (events, stream)
    });
    (last, reader)
}

#[test]
fn acknowledged_edits_wake_no_writer() {
    let tdb = TextDb::in_memory();
    let alice = tdb.create_user("alice").unwrap();
    tdb.create_user("bob").unwrap();
    tdb.create_document("minutes", alice).unwrap();
    let server =
        NetServer::bind("127.0.0.1:0", CollabServer::new(tdb), NetConfig::default()).unwrap();
    let client = NetClient::connect(server.local_addr(), "alice").unwrap();
    let doc = client.subscribe("minutes").unwrap();
    let (last_ts, watched) = watcher(server.local_addr(), "minutes");
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
    last_ts.send(last).unwrap();
    let (events, _open) = watched.join().expect("the watcher got every event");
    let woke = switches(WRITER) - before.0;
    let reader_woke = switches(CLIENT_READER) - before.1;
    let after = server.stats();
    let frames = after.frames_written - stats.frames_written;
    let writes = after.socket_writes - stats.socket_writes;
    let wakes = after.writer_wakes - stats.writer_wakes;
    let handed_off = after.answers_handed_off - stats.answers_handed_off;
    eprintln!(
        "{EDITS} edits: writer switches {woke}, writer wakes {wakes}, answers handed off \
         {handed_off}, client reader switches {reader_woke}, frames written {frames}, \
         socket writes {writes}, watcher events {events}"
    );
    // The warm-up edit's event may reach the watcher after it subscribed.
    assert!(
        (EDITS..=EDITS + 1).contains(&events),
        "the watcher got {events} events"
    );
    assert_eq!(
        (woke, wakes, handed_off),
        (0, 0, 0),
        "{EDITS} acknowledged edits woke the writers (switches, wakes, answers handed off)"
    );
    // Handing each reply across a thread blocks the reader at least once
    // per reply; looking for a quiet socket once a handover is far fewer.
    assert!(
        reader_woke < EDITS / 4,
        "{EDITS} acknowledged edits woke the client's reader {reader_woke} times"
    );
    // Each reply, each echo and each watcher's copy, in two writes: the
    // reply and the echo leave together, and the publisher writes the
    // watcher's copy.
    assert_eq!((frames, writes), (3 * EDITS, 2 * EDITS));
}
