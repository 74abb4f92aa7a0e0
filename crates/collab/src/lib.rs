//! # tendax-collab
//!
//! The collaboration layer of the TeNDaX reproduction: an in-process
//! server, editor sessions bound to users and platforms, a simulated-LAN
//! broadcast bus with configurable latency, and awareness (presence,
//! cursors, selections).
//!
//! **Substitution note** (see `DESIGN.md`): the EDBT demo ran GUI editors
//! on Windows XP, Linux and Mac OS X machines connected over a LAN. All
//! demoed features are API calls that issue database transactions — the
//! GUI is only a renderer — so this crate drives *headless* editors over
//! an in-process bus with simulated latency, exercising exactly the same
//! transaction paths deterministically.
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
//! let mut db = sb.open("minutes").unwrap();
//! da.type_text(0, "Agenda").unwrap();
//! db.sync();
//! assert_eq!(db.text(), "Agenda");
//! ```

pub mod awareness;
pub mod bus;
pub mod live;
mod replica;
pub mod server;
pub mod session;
pub mod transport;

pub use awareness::{AwarenessRegistry, Platform, Presence};
pub use bus::{BusPolicy, DocEvent, LanBus, SessionId, Subscription};
pub use live::{LiveDocs, LiveEditor, LiveStats};
pub use server::CollabServer;
pub use session::{EditorDoc, EditorSession, EditorStats, Unpublished};
pub use transport::{EventSource, Transport, TransportStats};
