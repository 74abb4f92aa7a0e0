//! Dynamic folders: virtual folders defined by metadata predicates.
//!
//! "A dynamic folder can contain all documents a certain user has read
//! within the last week. Its content is fluent and may change within
//! seconds." A folder stores a [`FolderRule`]; evaluation runs the rule
//! against the live metadata tables, and [`FolderSet`] tracks membership
//! deltas between refreshes. A `ContentContains` leaf reads the visible
//! text through the engine's [`TextSource`]: a server's live documents
//! answer it from the copies their editors hold.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::json;
use tendax_storage::{
    DataType, Predicate, Row, RowId, SharedRow, StorageError, TableDef, TableId, Ts, Value,
};
use tendax_text::{DocId, Result, TextDb, TextError, TextSource, UserId};

/// The predicate language of dynamic folders.
#[derive(Debug, Clone, PartialEq)]
pub enum FolderRule {
    /// Documents `user` has read at or after the given engine timestamp.
    ReadBy {
        user: u64,
        since: i64,
    },
    /// Documents where `user` authored at least one character.
    AuthoredBy {
        user: u64,
    },
    /// Documents created by `user`.
    CreatedBy {
        user: u64,
    },
    /// Documents in a workflow state (`draft`, `review`, `final`, …).
    StateIs(String),
    /// Document name contains the given substring.
    NameContains(String),
    /// Visible content contains the given substring.
    ContentContains(String),
    /// Documents containing text pasted from `doc`.
    PastedFrom {
        doc: u64,
    },
    /// Documents edited (any logged operation) at or after the timestamp.
    EditedSince(i64),
    /// Documents with at least `n` visible characters.
    MinSize(usize),
    /// Documents with at least one pending workflow task (requires the
    /// process schema; matches nothing if it is not installed).
    HasOpenTasks,
    All(Vec<FolderRule>),
    Any(Vec<FolderRule>),
    Not(Box<FolderRule>),
}

impl FolderRule {
    /// Encode as JSON in the externally-tagged layout (`{"Variant":
    /// {...}}`, bare string for unit variants) that stored rules have
    /// always used.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            FolderRule::ReadBy { user, since } => {
                let _ = write!(out, "{{\"ReadBy\":{{\"user\":{user},\"since\":{since}}}}}");
            }
            FolderRule::AuthoredBy { user } => {
                let _ = write!(out, "{{\"AuthoredBy\":{{\"user\":{user}}}}}");
            }
            FolderRule::CreatedBy { user } => {
                let _ = write!(out, "{{\"CreatedBy\":{{\"user\":{user}}}}}");
            }
            FolderRule::StateIs(s) => {
                out.push_str("{\"StateIs\":");
                json::write_str(out, s);
                out.push('}');
            }
            FolderRule::NameContains(s) => {
                out.push_str("{\"NameContains\":");
                json::write_str(out, s);
                out.push('}');
            }
            FolderRule::ContentContains(s) => {
                out.push_str("{\"ContentContains\":");
                json::write_str(out, s);
                out.push('}');
            }
            FolderRule::PastedFrom { doc } => {
                let _ = write!(out, "{{\"PastedFrom\":{{\"doc\":{doc}}}}}");
            }
            FolderRule::EditedSince(ts) => {
                let _ = write!(out, "{{\"EditedSince\":{ts}}}");
            }
            FolderRule::MinSize(n) => {
                let _ = write!(out, "{{\"MinSize\":{n}}}");
            }
            FolderRule::HasOpenTasks => out.push_str("\"HasOpenTasks\""),
            FolderRule::All(rules) | FolderRule::Any(rules) => {
                let tag = if matches!(self, FolderRule::All(_)) {
                    "All"
                } else {
                    "Any"
                };
                let _ = write!(out, "{{\"{tag}\":[");
                for (i, r) in rules.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    r.write_json(out);
                }
                out.push_str("]}");
            }
            FolderRule::Not(inner) => {
                out.push_str("{\"Not\":");
                inner.write_json(out);
                out.push('}');
            }
        }
    }

    /// Decode a rule previously produced by [`FolderRule::to_json`].
    pub fn from_json(text: &str) -> std::result::Result<FolderRule, String> {
        let value = json::parse(text)?;
        Self::from_value(&value)
    }

    fn from_value(value: &json::Json) -> std::result::Result<FolderRule, String> {
        if let Some(tag) = value.as_str() {
            return match tag {
                "HasOpenTasks" => Ok(FolderRule::HasOpenTasks),
                other => Err(format!("unknown unit rule `{other}`")),
            };
        }
        let (tag, payload) = value
            .as_tagged()
            .ok_or_else(|| "rule must be a tagged object or unit string".to_string())?;
        let field_u64 = |name: &str| {
            payload
                .get(name)
                .and_then(json::Json::as_u64)
                .ok_or_else(|| format!("`{tag}` needs numeric field `{name}`"))
        };
        let as_string = || {
            payload
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{tag}` needs a string payload"))
        };
        let as_rules = || -> std::result::Result<Vec<FolderRule>, String> {
            payload
                .as_arr()
                .ok_or_else(|| format!("`{tag}` needs an array payload"))?
                .iter()
                .map(Self::from_value)
                .collect()
        };
        match tag {
            "ReadBy" => Ok(FolderRule::ReadBy {
                user: field_u64("user")?,
                since: payload
                    .get("since")
                    .and_then(json::Json::as_i64)
                    .ok_or("`ReadBy` needs numeric field `since`")?,
            }),
            "AuthoredBy" => Ok(FolderRule::AuthoredBy {
                user: field_u64("user")?,
            }),
            "CreatedBy" => Ok(FolderRule::CreatedBy {
                user: field_u64("user")?,
            }),
            "StateIs" => Ok(FolderRule::StateIs(as_string()?)),
            "NameContains" => Ok(FolderRule::NameContains(as_string()?)),
            "ContentContains" => Ok(FolderRule::ContentContains(as_string()?)),
            "PastedFrom" => Ok(FolderRule::PastedFrom {
                doc: field_u64("doc")?,
            }),
            "EditedSince" => Ok(FolderRule::EditedSince(
                payload.as_i64().ok_or("`EditedSince` needs a number")?,
            )),
            "MinSize" => Ok(FolderRule::MinSize(
                payload.as_usize().ok_or("`MinSize` needs a number")?,
            )),
            "Not" => Ok(FolderRule::Not(Box::new(Self::from_value(payload)?))),
            "All" => Ok(FolderRule::All(as_rules()?)),
            "Any" => Ok(FolderRule::Any(as_rules()?)),
            other => Err(format!("unknown rule tag `{other}`")),
        }
    }

    pub fn and(self, other: FolderRule) -> FolderRule {
        match self {
            FolderRule::All(mut v) => {
                v.push(other);
                FolderRule::All(v)
            }
            s => FolderRule::All(vec![s, other]),
        }
    }

    pub fn or(self, other: FolderRule) -> FolderRule {
        FolderRule::Any(vec![self, other])
    }
}

/// Identifier of a stored folder definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FolderId(pub u64);

/// A stored folder.
#[derive(Debug, Clone, PartialEq)]
pub struct Folder {
    pub id: FolderId,
    pub name: String,
    pub owner: UserId,
    pub rule: FolderRule,
}

/// Membership change reported by [`FolderSet::refresh`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FolderChange {
    Added(DocId),
    Removed(DocId),
}

fn folders_def() -> TableDef {
    TableDef::new("folders")
        .column("name", DataType::Text)
        .column("owner", DataType::Id)
        .column("rule", DataType::Text)
        .unique_index("folders_by_name", &["name"])
}

/// What each `ReadBy { user, since }` leaf of a rule under evaluation
/// matches.
type ReadSets = BTreeMap<(u64, i64), BTreeSet<DocId>>;

/// The dynamic-folder engine.
#[derive(Debug, Clone)]
pub struct DynamicFolders {
    tdb: TextDb,
    /// Where a `ContentContains` leaf reads a document's text.
    texts: Arc<dyn TextSource>,
    table: TableId,
}

impl DynamicFolders {
    /// The folder engine of `tdb`, reading texts from the database.
    pub fn init(tdb: TextDb) -> Result<DynamicFolders> {
        Self::init_over(Arc::new(tdb))
    }

    /// [`DynamicFolders::init`] reading texts through `texts`, as do the
    /// folder sets it watches.
    pub fn init_over(texts: Arc<dyn TextSource>) -> Result<DynamicFolders> {
        let tdb = texts.textdb().clone();
        let db = tdb.database();
        match db.create_table(folders_def()) {
            Ok(_) | Err(StorageError::TableExists(_)) => {}
            Err(e) => return Err(e.into()),
        }
        let table = db.table_id("folders")?;
        Ok(DynamicFolders { tdb, texts, table })
    }

    pub fn textdb(&self) -> &TextDb {
        &self.tdb
    }

    /// Persist a folder definition.
    pub fn create_folder(&self, name: &str, owner: UserId, rule: FolderRule) -> Result<FolderId> {
        let encoded = rule.to_json();
        let mut txn = self.tdb.database().begin();
        let rid = txn.insert(
            self.table,
            Row::new(vec![
                Value::Text(name.to_owned()),
                owner.value(),
                Value::Text(encoded),
            ]),
        )?;
        txn.commit().map_err(|e| match e {
            StorageError::UniqueViolation { .. } => TextError::NameTaken(name.to_owned()),
            other => other.into(),
        })?;
        Ok(FolderId(rid.0))
    }

    pub fn delete_folder(&self, id: FolderId) -> Result<()> {
        let mut txn = self.tdb.database().begin();
        txn.delete(self.table, tendax_storage::RowId(id.0))?;
        txn.commit()?;
        Ok(())
    }

    /// All stored folders.
    pub fn folders(&self) -> Result<Vec<Folder>> {
        let txn = self.tdb.database().begin();
        let mut out = Vec::new();
        for (rid, row) in txn.scan(self.table, &Predicate::True)? {
            out.push(Self::decode_folder(rid, &row)?);
        }
        out.sort_by_key(|f| f.id);
        Ok(out)
    }

    fn decode_folder(rid: RowId, row: &SharedRow) -> Result<Folder> {
        let rule_text = row.get(2).and_then(|v| v.as_text()).unwrap_or("");
        let rule = FolderRule::from_json(rule_text)
            .map_err(|e| TextError::ChainCorrupt(format!("bad stored rule: {e}")))?;
        Ok(Folder {
            id: FolderId(rid.0),
            name: row
                .get(0)
                .and_then(|v| v.as_text())
                .unwrap_or_default()
                .to_owned(),
            owner: row.get(1).map(UserId::from_value).unwrap_or(UserId::NONE),
            rule,
        })
    }

    pub fn folder_by_name(&self, name: &str) -> Result<Folder> {
        self.folders()?
            .into_iter()
            .find(|f| f.name == name)
            .ok_or_else(|| TextError::UnknownDocument(format!("folder {name}")))
    }

    /// Evaluate a folder's current contents, sorted by document id.
    pub fn evaluate(&self, folder: FolderId) -> Result<Vec<DocId>> {
        self.evaluate_rule(&self.stored_rule(folder)?)
    }

    /// The stored row of a folder. The folder id is its row id: one
    /// point read.
    fn folder_row(&self, folder: FolderId) -> Result<SharedRow> {
        (self.tdb.database().begin())
            .get(self.table, RowId(folder.0))?
            .ok_or_else(|| TextError::UnknownDocument(format!("folder {folder:?}")))
    }

    /// The rule of a stored folder: one point read, one rule parsed.
    fn stored_rule(&self, folder: FolderId) -> Result<FolderRule> {
        let row = self.folder_row(folder)?;
        Ok(Self::decode_folder(RowId(folder.0), &row)?.rule)
    }

    /// Evaluate an ad-hoc rule against the live metadata.
    pub fn evaluate_rule(&self, rule: &FolderRule) -> Result<Vec<DocId>> {
        let docs = self.tdb.list_documents()?;
        let read_sets = self.read_sets(rule)?;
        let mut out = Vec::new();
        for d in docs {
            if self.matches(rule, &read_sets, d.id)? {
                out.push(d.id);
            }
        }
        out.sort();
        Ok(out)
    }

    /// The documents each `ReadBy` leaf of `rule` names, keyed by the
    /// leaf's `(user, since)`: computed once per evaluation instead of
    /// once per candidate document.
    fn read_sets(&self, rule: &FolderRule) -> Result<ReadSets> {
        let mut sets = ReadSets::new();
        let mut pending = vec![rule];
        while let Some(rule) = pending.pop() {
            match rule {
                FolderRule::ReadBy { user, since } => {
                    if let Entry::Vacant(slot) = sets.entry((*user, *since)) {
                        let read = self.tdb.docs_read_by(UserId(*user), *since)?;
                        slot.insert(read.into_iter().map(|(d, _)| d).collect());
                    }
                }
                FolderRule::All(rules) | FolderRule::Any(rules) => pending.extend(rules),
                FolderRule::Not(inner) => pending.push(inner),
                _ => {}
            }
        }
        Ok(sets)
    }

    fn matches(&self, rule: &FolderRule, read_sets: &ReadSets, doc: DocId) -> Result<bool> {
        Ok(match rule {
            FolderRule::ReadBy { user, since } => read_sets
                .get(&(*user, *since))
                .is_some_and(|docs| docs.contains(&doc)),
            FolderRule::AuthoredBy { user } => {
                self.tdb.doc_stats(doc)?.authors.contains(&UserId(*user))
            }
            FolderRule::CreatedBy { user } => self.tdb.document_info(doc)?.creator == UserId(*user),
            FolderRule::StateIs(s) => self.tdb.document_info(doc)?.state == *s,
            FolderRule::NameContains(s) => self.tdb.document_info(doc)?.name.contains(s.as_str()),
            FolderRule::ContentContains(s) => self.texts.visible_text(doc)?.0.contains(s.as_str()),
            FolderRule::PastedFrom { doc: src } => {
                let t = self.tdb.tables();
                let txn = self.tdb.database().begin();
                txn.index_lookup(t.paste_events, "paste_events_by_src", &[Value::Id(*src)])?
                    .into_iter()
                    .any(|(_, row)| row.get(0).map(DocId::from_value) == Some(doc))
            }
            FolderRule::EditedSince(since) => {
                // The newest operation of the document decides: one
                // descending step on `(doc, ts)`, not the whole log.
                let t = self.tdb.tables();
                let txn = self.tdb.database().begin();
                txn.index_prev(t.oplog, "oplog_by_doc_ts", &[doc.value()], None)?
                    .is_some_and(|(_, _, row)| {
                        row.get(2).and_then(|v| v.as_timestamp()).unwrap_or(0) >= *since
                    })
            }
            FolderRule::MinSize(n) => self.tdb.doc_stats(doc)?.size >= *n,
            FolderRule::HasOpenTasks => {
                // Resolved by table name so the folder engine needs no
                // compile-time dependency on the process crate.
                let Ok(tasks) = self.tdb.database().table_id("tasks") else {
                    return Ok(false);
                };
                let txn = self.tdb.database().begin();
                !txn.scan(
                    tasks,
                    &Predicate::Eq("doc".into(), doc.value())
                        .and(Predicate::Eq("state".into(), Value::Text("pending".into()))),
                )?
                .is_empty()
            }
            FolderRule::All(rules) => {
                for r in rules {
                    if !self.matches(r, read_sets, doc)? {
                        return Ok(false);
                    }
                }
                true
            }
            FolderRule::Any(rules) => {
                for r in rules {
                    if self.matches(r, read_sets, doc)? {
                        return Ok(true);
                    }
                }
                false
            }
            FolderRule::Not(r) => !self.matches(r, read_sets, doc)?,
        })
    }

    /// The tables whose rows decide `rule` for a document — what a
    /// verdict has to be re-derived for when a commit touches them.
    fn rule_tables(&self, rule: &FolderRule) -> Vec<TableId> {
        let t = self.tdb.tables();
        let mut tables = Vec::new();
        let mut pending = vec![rule];
        while let Some(rule) = pending.pop() {
            let table = match rule {
                FolderRule::AuthoredBy { .. }
                | FolderRule::MinSize(_)
                | FolderRule::ContentContains(_) => t.chars,
                FolderRule::StateIs(_)
                | FolderRule::NameContains(_)
                | FolderRule::CreatedBy { .. } => t.documents,
                FolderRule::EditedSince(_) => t.oplog,
                FolderRule::ReadBy { .. } => t.reads,
                FolderRule::PastedFrom { .. } => t.paste_events,
                FolderRule::HasOpenTasks => match self.tdb.database().table_id("tasks") {
                    Ok(tasks) => tasks,
                    // No process schema: the leaf is constant.
                    Err(_) => continue,
                },
                FolderRule::All(rules) | FolderRule::Any(rules) => {
                    pending.extend(rules);
                    continue;
                }
                FolderRule::Not(inner) => {
                    pending.push(inner);
                    continue;
                }
            };
            if !tables.contains(&table) {
                tables.push(table);
            }
        }
        tables
    }

    /// A live view of one folder that reports deltas on refresh.
    pub fn watch(&self, folder: FolderId) -> Result<FolderSet> {
        let mut set = FolderSet {
            engine: self.clone(),
            folder,
            rule: self.stored_rule(folder)?,
            decided_at: None,
            verdicts: BTreeMap::new(),
            contents: Vec::new(),
            reevaluated: 0,
        };
        set.refresh()?;
        Ok(set)
    }
}

/// A folder's cached contents plus delta computation — the "fluent"
/// behaviour of the demo ("may change within seconds"). It keeps every
/// document's verdict and the snapshot the verdicts hold at, and a
/// refresh re-runs the rule only for documents a commit has touched
/// since, in one of the tables the rule reads (DESIGN.md §5.13).
#[derive(Debug)]
pub struct FolderSet {
    engine: DynamicFolders,
    folder: FolderId,
    rule: FolderRule,
    /// The snapshot every verdict holds at; `None` before the first
    /// refresh.
    decided_at: Option<Ts>,
    /// One verdict per existing document.
    verdicts: BTreeMap<DocId, bool>,
    contents: Vec<DocId>,
    reevaluated: usize,
}

impl FolderSet {
    pub fn contents(&self) -> &[DocId] {
        &self.contents
    }

    /// How many documents the last refresh ran the rule for, out of how
    /// many there are.
    pub fn reevaluated(&self) -> (usize, usize) {
        (self.reevaluated, self.verdicts.len())
    }

    /// Re-evaluate; returns the membership changes since last time.
    pub fn refresh(&mut self) -> Result<Vec<FolderChange>> {
        let engine = &self.engine;
        let tdb = &engine.tdb;
        // Snapshot first, stamps second: a verdict that survives this
        // refresh holds at `now`, one that is re-derived sees `now` or
        // later.
        let now = tdb.database().last_commit_ts();
        // A deleted folder has no contents to report.
        engine.folder_row(self.folder)?;
        let tables = engine.rule_tables(&self.rule);
        let mut stale: Vec<DocId> = match self.decided_at {
            None => Vec::new(),
            Some(at) => (self.verdicts.keys().copied())
                .filter(|doc| tdb.doc_stamp(&tables, *doc) > at)
                .collect(),
        };
        let documents = tdb.tables().documents;
        if self
            .decided_at
            .is_none_or(|at| tdb.table_stamp(documents) > at)
        {
            // A document may have appeared. It has no verdict yet, and
            // the commit that created it need not have touched any table
            // the rule reads: decide it now whatever its stamps say.
            let txn = tdb.database().begin();
            for (rid, _) in txn.scan(documents, &Predicate::True)? {
                let doc = DocId::from_row(rid);
                if !self.verdicts.contains_key(&doc) {
                    stale.push(doc);
                }
            }
        }
        if !stale.is_empty() {
            let read_sets = engine.read_sets(&self.rule)?;
            for doc in &stale {
                let verdict = engine.matches(&self.rule, &read_sets, *doc)?;
                self.verdicts.insert(*doc, verdict);
            }
        }
        self.reevaluated = stale.len();
        self.decided_at = Some(now);
        let fresh: Vec<DocId> = (self.verdicts.iter())
            .filter_map(|(doc, verdict)| verdict.then_some(*doc))
            .collect();

        // Both lists are sorted by document id: one merge pass finds the
        // additions (reported first, as before) and the removals.
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < fresh.len() || j < self.contents.len() {
            let order = match (fresh.get(i), self.contents.get(j)) {
                (Some(new), Some(old)) => new.cmp(old),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            match order {
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                Ordering::Less => {
                    added.push(FolderChange::Added(fresh[i]));
                    i += 1;
                }
                Ordering::Greater => {
                    removed.push(FolderChange::Removed(self.contents[j]));
                    j += 1;
                }
            }
        }
        added.append(&mut removed);
        self.contents = fresh;
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TextDb, DynamicFolders, UserId, UserId) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let folders = DynamicFolders::init(tdb.clone()).unwrap();
        (tdb, folders, alice, bob)
    }

    #[test]
    fn read_by_folder_tracks_reads() {
        let (tdb, folders, alice, bob) = setup();
        let d1 = tdb.create_document("a", alice).unwrap();
        let d2 = tdb.create_document("b", alice).unwrap();
        let f = folders
            .create_folder(
                "bob-read-recently",
                bob,
                FolderRule::ReadBy {
                    user: bob.0,
                    since: 0,
                },
            )
            .unwrap();
        assert!(folders.evaluate(f).unwrap().is_empty());
        let _h = tdb.open(d1, bob).unwrap();
        assert_eq!(folders.evaluate(f).unwrap(), vec![d1]);
        let _h = tdb.open(d2, bob).unwrap();
        assert_eq!(folders.evaluate(f).unwrap(), vec![d1, d2]);
    }

    #[test]
    fn folder_set_reports_deltas() {
        let (tdb, folders, alice, _bob) = setup();
        let d1 = tdb.create_document("draft-1", alice).unwrap();
        let f = folders
            .create_folder("drafts", alice, FolderRule::StateIs("draft".into()))
            .unwrap();
        let mut set = folders.watch(f).unwrap();
        assert_eq!(set.contents(), &[d1]);

        let d2 = tdb.create_document("draft-2", alice).unwrap();
        tdb.set_document_state(d1, "final", alice).unwrap();
        let mut changes = set.refresh().unwrap();
        changes.sort_by_key(|c| match c {
            FolderChange::Added(d) => (0, d.0),
            FolderChange::Removed(d) => (1, d.0),
        });
        assert_eq!(
            changes,
            vec![FolderChange::Added(d2), FolderChange::Removed(d1)]
        );
        assert_eq!(set.refresh().unwrap(), vec![]);
    }

    #[test]
    fn a_new_document_is_decided_even_if_the_rule_reads_another_table() {
        let (tdb, folders, alice, bob) = setup();
        let d1 = tdb.create_document("a", alice).unwrap();
        tdb.open(d1, alice).unwrap().insert_text(0, "hi").unwrap();
        let unauthored = FolderRule::Not(Box::new(FolderRule::AuthoredBy { user: alice.0 }));
        let mut sets: Vec<FolderSet> = [unauthored.clone(), FolderRule::MinSize(0)]
            .into_iter()
            .enumerate()
            .map(|(i, rule)| {
                let f = folders
                    .create_folder(&format!("f{i}"), alice, rule)
                    .unwrap();
                folders.watch(f).unwrap()
            })
            .collect();
        assert!(sets[0].contents().is_empty());
        assert_eq!(sets[1].contents(), &[d1]);

        // Creating a document writes `documents` only; both rules read
        // `chars` and hold for an empty document.
        let d2 = tdb.create_document("b", bob).unwrap();
        for set in &mut sets {
            assert_eq!(set.refresh().unwrap(), vec![FolderChange::Added(d2)]);
            assert_eq!(set.reevaluated(), (1, 2));
        }
        assert_eq!(folders.evaluate_rule(&unauthored).unwrap(), vec![d2]);
    }

    #[test]
    fn authored_by_and_content_rules() {
        let (tdb, folders, alice, bob) = setup();
        let d1 = tdb.create_document("a", alice).unwrap();
        let d2 = tdb.create_document("b", alice).unwrap();
        let mut h = tdb.open(d1, bob).unwrap();
        h.insert_text(0, "bob wrote this secret word").unwrap();
        let mut h2 = tdb.open(d2, alice).unwrap();
        h2.insert_text(0, "alice only").unwrap();

        assert_eq!(
            folders
                .evaluate_rule(&FolderRule::AuthoredBy { user: bob.0 })
                .unwrap(),
            vec![d1]
        );
        assert_eq!(
            folders
                .evaluate_rule(&FolderRule::ContentContains("secret".into()))
                .unwrap(),
            vec![d1]
        );
        assert_eq!(
            folders
                .evaluate_rule(&FolderRule::NameContains("b".into()))
                .unwrap(),
            vec![d2]
        );
    }

    #[test]
    fn combinators() {
        let (tdb, folders, alice, bob) = setup();
        let d1 = tdb.create_document("x1", alice).unwrap();
        let _d2 = tdb.create_document("x2", bob).unwrap();
        let rule = FolderRule::CreatedBy { user: alice.0 }.and(FolderRule::StateIs("draft".into()));
        assert_eq!(folders.evaluate_rule(&rule).unwrap(), vec![d1]);
        let none = FolderRule::CreatedBy { user: alice.0 }.and(FolderRule::Not(Box::new(
            FolderRule::StateIs("draft".into()),
        )));
        assert!(folders.evaluate_rule(&none).unwrap().is_empty());
        let either =
            FolderRule::CreatedBy { user: alice.0 }.or(FolderRule::CreatedBy { user: bob.0 });
        assert_eq!(folders.evaluate_rule(&either).unwrap().len(), 2);
    }

    #[test]
    fn pasted_from_rule() {
        let (tdb, folders, alice, _bob) = setup();
        let src = tdb.create_document("src", alice).unwrap();
        let dst = tdb.create_document("dst", alice).unwrap();
        let _other = tdb.create_document("other", alice).unwrap();
        let mut hs = tdb.open(src, alice).unwrap();
        hs.insert_text(0, "reusable text").unwrap();
        let clip = hs.copy(0, 8).unwrap();
        let mut hd = tdb.open(dst, alice).unwrap();
        hd.paste(0, &clip).unwrap();
        assert_eq!(
            folders
                .evaluate_rule(&FolderRule::PastedFrom { doc: src.0 })
                .unwrap(),
            vec![dst]
        );
    }

    #[test]
    fn has_open_tasks_without_process_schema_matches_nothing() {
        let (tdb, folders, alice, _bob) = setup();
        tdb.create_document("a", alice).unwrap();
        assert!(folders
            .evaluate_rule(&FolderRule::HasOpenTasks)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn folder_definitions_persist() {
        let (_tdb, folders, alice, _bob) = setup();
        folders
            .create_folder("mine", alice, FolderRule::CreatedBy { user: alice.0 })
            .unwrap();
        let all = folders.folders().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].name, "mine");
        assert_eq!(all[0].rule, FolderRule::CreatedBy { user: alice.0 });
        let by_name = folders.folder_by_name("mine").unwrap();
        assert_eq!(by_name.id, all[0].id);
        assert!(matches!(
            folders.create_folder("mine", alice, FolderRule::MinSize(1)),
            Err(TextError::NameTaken(_))
        ));
        folders.delete_folder(all[0].id).unwrap();
        assert!(folders.folders().unwrap().is_empty());
    }

    #[test]
    fn edited_since_and_min_size() {
        let (tdb, folders, alice, _bob) = setup();
        let d1 = tdb.create_document("a", alice).unwrap();
        let _d2 = tdb.create_document("b", alice).unwrap();
        let cutoff = tdb.now();
        let mut h = tdb.open(d1, alice).unwrap();
        h.insert_text(0, "12345").unwrap();
        assert_eq!(
            folders
                .evaluate_rule(&FolderRule::EditedSince(cutoff))
                .unwrap(),
            vec![d1]
        );
        // Edited before and after a cutoff: the newest operation decides.
        let later = tdb.now();
        h.insert_text(5, "6").unwrap();
        for cutoff in [cutoff, later] {
            assert_eq!(
                folders
                    .evaluate_rule(&FolderRule::EditedSince(cutoff))
                    .unwrap(),
                vec![d1]
            );
        }
        assert!(folders
            .evaluate_rule(&FolderRule::EditedSince(tdb.now() + 1))
            .unwrap()
            .is_empty());
        h.delete_range(5, 1).unwrap();
        assert_eq!(
            folders.evaluate_rule(&FolderRule::MinSize(5)).unwrap(),
            vec![d1]
        );
        assert!(folders
            .evaluate_rule(&FolderRule::MinSize(6))
            .unwrap()
            .is_empty());
    }
}
