//! The word-processing "LAN-party" over real TCP.
//!
//! Same story as `lan_party.rs`, but the editors are `tendax-net`
//! clients on real sockets: a `NetServer` multiplexes the connections
//! over one `CollabServer`, committed events fan out through bounded
//! per-connection queues, and each client converges a local mirror of
//! the document from the snapshot + event stream.
//!
//! Three ways to run it:
//!
//! * `cargo run --example collab_tcp` — self-contained demo: server and
//!   three concurrent clients in one process over loopback;
//! * `cargo run --example collab_tcp -- server 127.0.0.1:7001` — serve a
//!   fresh in-memory database (users alice/bob/carol, document "party");
//! * `cargo run --example collab_tcp -- client 127.0.0.1:7001 alice` —
//!   connect, type a line, and print the converged text.

use std::time::Duration;

use tendax_collab::CollabServer;
use tendax_net::{NetClient, NetConfig, NetServer};
use tendax_text::TextDb;

const USERS: [&str; 3] = ["alice", "bob", "carol"];
const DOC: &str = "party";

fn serve(addr: &str) -> NetServer {
    let tdb = TextDb::in_memory();
    let mut creator = None;
    for u in USERS {
        let id = tdb.create_user(u).expect("create user");
        creator.get_or_insert(id);
    }
    tdb.create_document(DOC, creator.unwrap())
        .expect("create doc");
    let collab = CollabServer::new(tdb);
    NetServer::bind(addr, collab, NetConfig::default()).expect("bind")
}

fn run_client(addr: &str, user: &str) {
    let c = NetClient::connect(addr, user).expect("connect");
    let doc = c.subscribe(DOC).expect("subscribe");
    let line = format!("<{user} was here> ");
    let mut last_ts = 0;
    for i in 0..5 {
        // Positions are advisory: the server clamps them against the
        // freshest state, so racing remote edits is safe.
        let pos = (i * line.len()) % (c.text(doc).map_or(0, |t| t.chars().count()) + 1);
        let (_, ts) = c.insert(doc, pos, &line).expect("insert");
        last_ts = ts;
    }
    c.awareness(doc, Some(0), None).expect("awareness");
    assert!(
        c.wait_synced(doc, last_ts, Duration::from_secs(10)),
        "mirror did not converge"
    );
    println!(
        "[{user}] mirror after own edits: {} chars, {} events applied",
        c.text(doc).map_or(0, |t| t.chars().count()),
        c.mirror_status(doc).map_or(0, |(_, _, applied)| applied),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("server") => {
            let addr = args.get(1).map_or("127.0.0.1:7001", String::as_str);
            let server = serve(addr);
            println!(
                "serving {DOC:?} on {} (users: {USERS:?}); Ctrl-C to stop",
                server.local_addr()
            );
            loop {
                std::thread::sleep(Duration::from_secs(1));
            }
        }
        Some("client") => {
            let addr = args.get(1).map_or("127.0.0.1:7001", String::as_str);
            let user = args.get(2).map_or("alice", String::as_str);
            run_client(addr, user);
        }
        _ => {
            // Self-contained demo: one server, three concurrent clients.
            let server = serve("127.0.0.1:0");
            let addr = server.local_addr().to_string();
            println!("demo server on {addr}");
            let threads: Vec<_> = USERS
                .iter()
                .map(|user| {
                    let addr = addr.clone();
                    std::thread::spawn(move || run_client(&addr, user))
                })
                .collect();
            for t in threads {
                t.join().expect("client thread panicked");
            }

            // Every mirror converged; verify byte-identical text.
            let clients: Vec<NetClient> = USERS
                .iter()
                .map(|u| NetClient::connect(&addr, u).expect("connect"))
                .collect();
            let mut texts = Vec::new();
            let mut frontier = 0;
            for c in &clients {
                let doc = c.subscribe(DOC).expect("subscribe");
                frontier = frontier.max(c.synced_ts(doc).unwrap_or(0));
                assert!(c.wait_synced(doc, frontier, Duration::from_secs(10)));
                texts.push(c.text(doc).expect("text"));
            }
            assert!(
                texts.windows(2).all(|w| w[0] == w[1]),
                "clients diverged: {texts:?}"
            );
            println!(
                "converged text ({} chars): {}",
                texts[0].chars().count(),
                texts[0]
            );
            println!("server stats: {:?}", server.stats());
        }
    }
}
