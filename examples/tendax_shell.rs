//! An interactive TeNDaX shell — a minimal "editor" driving the whole
//! system from the command line, the closest headless analogue to the
//! demo's GUI editors.
//!
//! Run interactively:   `cargo run --example tendax_shell`
//! Or script it:        `echo "help" | cargo run --example tendax_shell`
//!
//! Commands (one per line):
//! ```text
//! user <name>                 create a user
//! as <name>                   switch the active user/session
//! doc <name>                  create a document (active user is creator)
//! open <name>                 open a document in the active session
//! type <pos> <text…>          insert text
//! del <pos> <len>             delete a range
//! show                        print the open document
//! undo | redo | gundo | gredo local/global undo & redo
//! style <name> <attrs>        define a style
//! apply <pos> <len> <style>   apply a style
//! note <pos> <len> <text…>    attach a note
//! meta <pos>                  character metadata at a position
//! task <doc> <assignee> <nm>  define a workflow task
//! inbox                       active user's task inbox
//! done <task-id> <note…>      complete a task
//! folders                     refresh the active user's watched folders (read by / written by
//!                             them) and say how many documents each refresh re-evaluated
//! search <terms…>             content search
//! lineage                     render the lineage graph
//! mine                        render the document space
//! who                         who is online
//! du                          rows, versions, checkpoint bytes (and each column's share of
//!                             them) and resident bytes per table
//! help | quit
//! ```

use std::collections::HashMap;
use std::io::BufRead;

use tendax_core::{
    Assignee, FolderRule, FolderSet, Platform, SearchQuery, StyleId, TaskId, TaskSpec, Tendax,
};

struct Shell {
    tx: Tendax,
    sessions: HashMap<String, tendax_core::EditorSession>,
    active: Option<String>,
    open_doc: Option<tendax_core::EditorDoc>,
    /// The folders each user watches, created on their first `folders`.
    watched: HashMap<String, Vec<(&'static str, FolderSet)>>,
}

impl Shell {
    fn new() -> Self {
        Shell {
            tx: Tendax::in_memory().expect("in-memory instance"),
            sessions: HashMap::new(),
            active: None,
            open_doc: None,
            watched: HashMap::new(),
        }
    }

    fn run_line(&mut self, line: &str) -> Result<String, String> {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let e = |err: tendax_core::TextError| err.to_string();
        match cmd {
            "" | "#" => Ok(String::new()),
            "help" => Ok("commands: user as doc open type del show undo redo gundo gredo \
                          style apply note meta task inbox done folders search lineage mine report history who du quit"
                .into()),
            "user" => {
                let name = rest.first().ok_or("usage: user <name>")?;
                self.tx.create_user(name).map_err(e)?;
                let session = self
                    .tx
                    .connect(name, Platform::Other("shell".into()))
                    .map_err(e)?;
                self.sessions.insert(name.to_string(), session);
                self.active = Some(name.to_string());
                Ok(format!("user {name} created and active"))
            }
            "as" => {
                let name = rest.first().ok_or("usage: as <name>")?;
                if !self.sessions.contains_key(*name) {
                    let session = self
                        .tx
                        .connect(name, Platform::Other("shell".into()))
                        .map_err(e)?;
                    self.sessions.insert(name.to_string(), session);
                }
                self.active = Some(name.to_string());
                self.open_doc = None;
                Ok(format!("active user: {name}"))
            }
            "doc" => {
                let name = rest.first().ok_or("usage: doc <name>")?;
                let user = self.active_user()?;
                self.tx.create_document(name, user).map_err(e)?;
                Ok(format!("document {name} created"))
            }
            "open" => {
                let name = rest.first().ok_or("usage: open <name>")?;
                let session = self.active_session()?;
                self.open_doc = Some(session.open(name).map_err(e)?);
                Ok(format!("opened {name}"))
            }
            "type" => {
                let pos: usize = rest
                    .first()
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: type <pos> <text>")?;
                let text = rest[1..].join(" ");
                self.doc()?.type_text(pos, &text).map_err(e)?;
                Ok(self.doc()?.text())
            }
            "del" => {
                let pos: usize = rest
                    .first()
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: del <pos> <len>")?;
                let len: usize = rest
                    .get(1)
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: del <pos> <len>")?;
                self.doc()?.delete(pos, len).map_err(e)?;
                Ok(self.doc()?.text())
            }
            "show" => {
                self.doc()?.sync();
                Ok(self.doc()?.text())
            }
            "undo" => {
                self.doc()?.undo().map_err(e)?;
                Ok(self.doc()?.text())
            }
            "redo" => {
                self.doc()?.redo().map_err(e)?;
                Ok(self.doc()?.text())
            }
            "gundo" => {
                self.doc()?.global_undo().map_err(e)?;
                Ok(self.doc()?.text())
            }
            "gredo" => {
                self.doc()?.global_redo().map_err(e)?;
                Ok(self.doc()?.text())
            }
            "style" => {
                let name = rest.first().ok_or("usage: style <name> <attrs>")?;
                let attrs = rest.get(1).copied().unwrap_or("");
                let user = self.active_user()?;
                self.tx.textdb().define_style(name, attrs, user).map_err(e)?;
                Ok(format!("style {name} defined"))
            }
            "apply" => {
                let pos: usize = rest
                    .first()
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: apply <pos> <len> <style>")?;
                let len: usize = rest
                    .get(1)
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: apply <pos> <len> <style>")?;
                let style_name = rest.get(2).ok_or("usage: apply <pos> <len> <style>")?;
                let style: StyleId = self.tx.textdb().style_by_name(style_name).map_err(e)?;
                self.doc()?.apply_style(pos, len, style).map_err(e)?;
                Ok(format!("styled {len} chars at {pos}"))
            }
            "note" => {
                let pos: usize = rest
                    .first()
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: note <pos> <len> <text>")?;
                let len: usize = rest
                    .get(1)
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: note <pos> <len> <text>")?;
                let text = rest[2..].join(" ");
                let doc = self.doc()?;
                let (id, _) = doc
                    .with_handle("note", |h| {
                        let id = h.add_note(pos, len, &text)?;
                        Ok((
                            id,
                            tendax_core::EditReceipt {
                                op: tendax_core::OpId::NONE,
                                commit_ts: 0,
                                effects: vec![],
                            },
                        ))
                    })
                    .map_err(e)?;
                Ok(format!("note {id:?} attached"))
            }
            "meta" => {
                let pos: usize = rest
                    .first()
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: meta <pos>")?;
                match self.doc()?.handle().char_meta(pos) {
                    Some(m) => Ok(format!(
                        "{:?} author#{} t={} v={} provenance={:?}",
                        m.ch, m.author.0, m.created_at, m.version, m.provenance
                    )),
                    None => Err("no character at that position".into()),
                }
            }
            "task" => {
                let doc_name = rest.first().ok_or("usage: task <doc> <assignee> <name>")?;
                let assignee = rest.get(1).ok_or("usage: task <doc> <assignee> <name>")?;
                let task_name = rest[2..].join(" ");
                let by = self.active_user()?;
                let doc = self.tx.textdb().document_by_name(doc_name).map_err(e)?;
                let assignee = self.tx.textdb().user_by_name(assignee).map_err(e)?;
                let id = self
                    .tx
                    .process()
                    .define_task(doc, by, TaskSpec::new(task_name, Assignee::User(assignee)))
                    .map_err(e)?;
                Ok(format!("task {id} defined"))
            }
            "inbox" => {
                let user = self.active_user()?;
                let tasks = self.tx.process().inbox(user).map_err(e)?;
                Ok(tasks
                    .iter()
                    .map(|t| format!("#{} {} [{}]", t.id.0, t.name, t.state.as_str()))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            "done" => {
                let id: u64 = rest
                    .first()
                    .and_then(|p| p.parse().ok())
                    .ok_or("usage: done <task-id> <note>")?;
                let note = rest[1..].join(" ");
                let user = self.active_user()?;
                self.tx
                    .process()
                    .complete(TaskId(id), user, &note)
                    .map_err(e)?;
                Ok(format!("task #{id} completed"))
            }
            "folders" => {
                let user = self.active_user()?;
                let name = self.active.clone().expect("an active user has a name");
                if !self.watched.contains_key(&name) {
                    let folders = self.tx.folders();
                    let mut sets = Vec::new();
                    for (label, rule) in [
                        ("read by you", FolderRule::ReadBy { user: user.0, since: 0 }),
                        ("written by you", FolderRule::AuthoredBy { user: user.0 }),
                    ] {
                        let id = folders
                            .create_folder(&format!("{label}: {name}"), user, rule)
                            .map_err(e)?;
                        sets.push((label, folders.watch(id).map_err(e)?));
                    }
                    self.watched.insert(name.clone(), sets);
                }
                let mut out = Vec::new();
                for (label, set) in self.watched.get_mut(&name).expect("just inserted") {
                    let changes = set.refresh().map_err(e)?.len();
                    let (reevaluated, of) = set.reevaluated();
                    let names: Vec<String> = (set.contents().iter())
                        .filter_map(|d| self.tx.textdb().document_info(*d).ok().map(|i| i.name))
                        .collect();
                    out.push(format!(
                        "{label}: {names:?} ({changes} changed; re-evaluated {reevaluated} of {of} documents)"
                    ));
                }
                Ok(out.join("\n"))
            }
            "search" => {
                let q = rest.join(" ");
                let hits = self
                    .tx
                    .search()
                    .map_err(e)?
                    .search(&SearchQuery::terms(&q))
                    .map_err(e)?;
                Ok(hits
                    .iter()
                    .map(|h| format!("{} (score {:.3})", h.name, h.score))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            "lineage" => Ok(self.tx.lineage().map_err(e)?.render_ascii()),
            "report" => Ok(self.tx.report().map_err(e)?.render()),
            "history" => {
                let n: usize = rest
                    .first()
                    .and_then(|p| p.parse().ok())
                    .unwrap_or(10);
                let doc = self.doc()?;
                doc.handle().history_feed(n).map_err(e)
            }
            "mine" => Ok(self
                .tx
                .document_space(3)
                .map_err(e)?
                .render_ascii(48, 12)),
            "who" => Ok(self
                .tx
                .server()
                .who_is_online()
                .iter()
                .map(|p| format!("{} on {} (cursor {:?})", p.user_name, p.platform, p.cursor))
                .collect::<Vec<_>>()
                .join("\n")),
            // Where the bytes go: what each table's live rows would cost
            // in a checkpoint, by the encoder's own count, and what all
            // its versions cost in RAM, by the structures' own (chains:
            // the row slots' pages and the chains that spilled out of
            // them) — under each table what its columns' values take of
            // its checkpoint bytes, then each index on a line of its own.
            "du" => {
                let mut out = format!(
                    "{:<18}{:>9}{:>10}{:>12}{:>11}{:>12}  (rows/chains/indexes)",
                    "table", "rows", "versions", "bytes", "bytes/row", "resident"
                );
                let stats = self.tx.textdb().database().table_stats();
                for t in stats.iter().filter(|t| t.versions > 0) {
                    let per_row = t.checkpoint_bytes as f64 / t.live_rows.max(1) as f64;
                    let r = t.resident_bytes;
                    out.push_str(&format!(
                        "\n{:<18}{:>9}{:>10}{:>12}{:>11.1}{:>12}  ({}/{}/{})",
                        t.name,
                        t.live_rows,
                        t.versions,
                        t.checkpoint_bytes,
                        per_row,
                        r.total(),
                        r.rows,
                        r.chains,
                        r.indexes
                    ));
                    let values: u64 = t.column_bytes.iter().map(|(_, b)| b).sum();
                    let columns: Vec<String> = (t.column_bytes.iter())
                        .map(|(name, bytes)| format!("{name} {bytes}"))
                        .collect();
                    out.push_str(&format!(
                        "\n  checkpoint bytes by column: {}; per row and frame {}",
                        columns.join(", "),
                        t.checkpoint_bytes - values
                    ));
                    for (name, entries, resident) in &t.indexes {
                        out.push_str(&format!(
                            "\n  {name:<25}{entries:>10} entries{resident:>27}"
                        ));
                    }
                }
                let total: u64 = stats.iter().map(|t| t.checkpoint_bytes).sum();
                let resident: u64 = stats.iter().map(|t| t.resident_bytes.total()).sum();
                out.push_str(&format!("\n{:<18}{:>31}{:>23}", "total", total, resident));
                Ok(out)
            }
            other => Err(format!("unknown command `{other}` (try help)")),
        }
    }

    fn active_user(&self) -> Result<tendax_core::UserId, String> {
        let name = self
            .active
            .as_ref()
            .ok_or("no active user (use: user <name>)")?;
        self.tx
            .textdb()
            .user_by_name(name)
            .map_err(|e| e.to_string())
    }

    fn active_session(&self) -> Result<&tendax_core::EditorSession, String> {
        let name = self
            .active
            .as_ref()
            .ok_or("no active user (use: user <name>)")?;
        self.sessions.get(name).ok_or_else(|| "no session".into())
    }

    fn doc(&mut self) -> Result<&mut tendax_core::EditorDoc, String> {
        self.open_doc
            .as_mut()
            .ok_or_else(|| "no open document (use: open <name>)".into())
    }
}

fn main() {
    let mut shell = Shell::new();
    println!("TeNDaX shell — `help` for commands, `quit` to exit");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("stdin line");
        let trimmed = line.trim();
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        match shell.run_line(trimmed) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(err) => println!("error: {err}"),
        }
    }
}
