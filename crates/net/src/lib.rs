//! # tendax-net
//!
//! Real TCP transport for the TeNDaX collaboration layer.
//!
//! In process, the demo's editors share the server's one copy of each
//! document and need no network; this crate is the demo's LAN, with
//! sockets, fed by a publish hook on the
//! [`LanBus`](tendax_collab::LanBus). A
//! [`NetServer`] multiplexes many client connections over one
//! [`CollabServer`](tendax_collab::CollabServer): each connection
//! authenticates with a `Hello`/`Welcome` handshake, subscribes to
//! documents by name, submits edits, and receives the committed-event
//! broadcast plus awareness data — all over a length-prefixed binary
//! wire protocol (`[u32 len][u8 tag][payload]`, hand-rolled codec; see
//! [`wire`] and [`protocol`]).
//!
//! [`NetClient`] maintains a [`MirrorDoc`] replica per subscribed
//! document from the snapshot + event stream, converging byte-for-byte
//! with the server under concurrent editing; it keeps a closed
//! document's mirror, and a re-open resumes it from a `Delta` of the
//! commits since when the server's live document still holds them.
//!
//! Both endpoints apply the same slow-consumer policy as the bus:
//! bounded outbound queues, drop-and-count lag for broadcast frames,
//! and eviction (with a typed `Error` frame) past the lag limit.
//! Malformed input from the network is always a typed [`NetError`] —
//! never a panic — and only ever costs the offending connection.
//!
//! ## Quick example
//!
//! ```
//! use tendax_collab::CollabServer;
//! use tendax_net::{NetClient, NetConfig, NetServer};
//! use tendax_text::TextDb;
//! use std::time::Duration;
//!
//! let tdb = TextDb::in_memory();
//! let alice = tdb.create_user("alice").unwrap();
//! tdb.create_user("bob").unwrap();
//! tdb.create_document("minutes", alice).unwrap();
//!
//! let server = NetServer::bind("127.0.0.1:0", CollabServer::new(tdb), NetConfig::default()).unwrap();
//! let addr = server.local_addr();
//!
//! let a = NetClient::connect(addr, "alice").unwrap();
//! let b = NetClient::connect(addr, "bob").unwrap();
//! let doc = a.subscribe("minutes").unwrap();
//! b.subscribe("minutes").unwrap();
//!
//! let (_op, ts) = a.insert(doc, 0, "Agenda").unwrap();
//! assert!(b.wait_synced(doc, ts, Duration::from_secs(5)));
//! assert_eq!(b.text(doc).unwrap(), "Agenda");
//! ```

pub mod client;
pub mod error;
pub mod mirror;
pub mod protocol;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientCore, Completion, NetClient};
pub use error::{codes, NetError, Result};
pub use mirror::MirrorDoc;
pub use protocol::{EditOp, Frame, WireChar, WireEvent, WirePresence, PROTOCOL_VERSION};
pub use server::{Broadcast, Bytes, Conn, Hub, NetConfig, NetServer, NetServerStats, Step};
pub use wire::{FrameBuffer, PayloadReader, PayloadWriter, MAX_FRAME};
