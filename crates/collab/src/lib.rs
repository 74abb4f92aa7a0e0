//! # tendax-collab
//!
//! The collaboration layer of the TeNDaX reproduction: an in-process
//! server that holds one copy of each open document, editor sessions
//! bound to users and platforms whose editors are views of those copies,
//! the bus whose hooks publish each committed operation to the wire, and
//! awareness (presence, cursors, selections).
//!
//! **Substitution note** (see `DESIGN.md`): the EDBT demo ran GUI editors
//! on Windows XP, Linux and Mac OS X machines connected over a LAN. All
//! demoed features are API calls that issue database transactions — the
//! GUI is only a renderer — so this crate drives *headless* editors,
//! in process or over TCP (`tendax-net`), through exactly the same
//! transaction paths.
//!
//! ## Quick example
//!
//! ```
//! use tendax_collab::{CollabServer, Platform};
//! use tendax_text::TextDb;
//!
//! let tdb = TextDb::in_memory();
//! let alice = tdb.create_user("alice").unwrap();
//! tdb.create_user("bob").unwrap();
//! tdb.create_document("minutes", alice).unwrap();
//!
//! let server = CollabServer::new(tdb);
//! let sa = server.connect("alice", Platform::WindowsXp).unwrap();
//! let sb = server.connect("bob", Platform::MacOsX).unwrap();
//!
//! let mut da = sa.open("minutes").unwrap();
//! let db = sb.open("minutes").unwrap();
//! da.type_text(0, "Agenda").unwrap();
//! // Both editors view the server's one copy of the document.
//! assert_eq!(db.text(), "Agenda");
//! ```

pub mod awareness;
pub mod bus;
pub mod live;
pub mod server;
pub mod session;

pub use awareness::{AwarenessRegistry, Platform, Presence};
pub use bus::{DocEvent, EventKind, LanBus, SessionId, TransportStats};
pub use live::{DocView, Join, LiveDocs, LiveEditor, LiveStats, Ticket};
pub use server::CollabServer;
pub use session::{EditorDoc, EditorSession, EditorStats};
