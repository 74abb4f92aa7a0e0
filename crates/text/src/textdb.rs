//! The `TextDb`: entry point of the text extension.
//!
//! Wraps a [`Database`] with the installed TeNDaX schema and provides
//! user/role administration, document lifecycle, styles, and access-right
//! management. Character-level editing happens through
//! [`crate::document::DocHandle`], obtained via [`TextDb::open`].

use std::sync::Arc;

use tendax_storage::{
    CommitObserver, Database, Predicate, Row, SharedRow, TableId, Transaction, Ts, Value,
};

use crate::error::{Result, TextError};
use crate::ids::{CharId, DocId, RoleId, StyleId, UserId};
use crate::schema::Tables;
use crate::security::{Permission, Principal};
use crate::stamps::{ChangeStamps, DocKey};

/// Document descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocInfo {
    pub id: DocId,
    pub name: String,
    pub creator: UserId,
    pub created_at: i64,
    pub state: String,
}

impl DocInfo {
    /// The descriptor a `documents` row holds.
    fn of(id: DocId, row: &SharedRow) -> DocInfo {
        let [name, creator, created_at, state] = row.cols([0, 1, 2, 3]);
        DocInfo {
            id,
            name: name.as_text().unwrap_or_default().to_owned(),
            creator: UserId::from_value(creator),
            created_at: created_at.as_timestamp().unwrap_or(0),
            state: state.as_text().unwrap_or_default().to_owned(),
        }
    }
}

/// Handle to a TeNDaX-enabled database. Every clone shares the change
/// stamps (and the results folded under them) of the `init` it came
/// from; a second `init` on the same database starts its own, cold.
#[derive(Debug, Clone)]
pub struct TextDb {
    db: Database,
    t: Tables,
    stamps: Arc<ChangeStamps>,
}

impl TextDb {
    /// Install (or adopt) the TeNDaX schema on `db` and start observing
    /// its commits for the change stamps (DESIGN.md §5.13).
    pub fn init(db: Database) -> Result<TextDb> {
        let t = Tables::install(&db)?;
        let stamps = Arc::new(ChangeStamps::for_schema(&t));
        let observer: Arc<dyn CommitObserver> = stamps.clone();
        db.observe_commits(&observer);
        Ok(TextDb { db, t, stamps })
    }

    /// Fresh in-memory instance (tests, examples).
    pub fn in_memory() -> TextDb {
        Self::init(Database::open_in_memory()).expect("schema install on empty db cannot fail")
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn tables(&self) -> &Tables {
        &self.t
    }

    /// Engine clock timestamp.
    pub fn now(&self) -> i64 {
        self.db.now()
    }

    // ------------------------------------------------------- change stamps

    /// Attribute commits on `table` — another layer's table whose
    /// `column` holds a document id — to documents, as the text schema's
    /// own tables are. Until a table is tracked, any commit to it stamps
    /// every document.
    pub fn track(&self, table: TableId, column: &str) -> Result<()> {
        let pos = self.db.table_def(table)?.require_column(column)?;
        self.stamps.track(table, DocKey::Column(pos));
        Ok(())
    }

    /// Timestamp of the newest commit that touched `doc` in any of
    /// `tables`, as far as this handle's `init` has observed. Read it
    /// *after* taking the snapshot it is compared with: a result derived
    /// from those tables at snapshot `E` still holds at a later snapshot
    /// `T` iff `doc_stamp ≤ E`.
    pub fn doc_stamp(&self, tables: &[TableId], doc: DocId) -> Ts {
        self.stamps.doc_stamp(tables, doc)
    }

    /// The two newest observed commits that touched `doc` in `table`,
    /// newest first (0 for none; both the newest where they cannot be
    /// told apart). The second says whether a commit other than the
    /// newest came after a given point.
    pub fn doc_stamps(&self, table: TableId, doc: DocId) -> [Ts; 2] {
        self.stamps.doc_stamps(table, doc)
    }

    /// Timestamp of the newest observed commit that wrote `table`.
    pub fn table_stamp(&self, table: TableId) -> Ts {
        self.stamps.table_stamp(table)
    }

    pub(crate) fn stamps(&self) -> &ChangeStamps {
        &self.stamps
    }

    /// Make `txn`'s commit depend on `anchor`, the row a new child of
    /// `doc`'s anchor tree hangs from: the anchor's `chars` row, or at the
    /// head the document's row. The commit fails retryably if the anchor
    /// was purged or changed since the snapshot, or was given another
    /// child by a commit the snapshot does not see; and a purge that did
    /// not see the commit cannot remove the anchor after it
    /// ([`Transaction::expect_unchanged`]). So the children of one anchor
    /// commit one after another, each begun after the one before it
    /// committed, and a newer child has the higher id (DESIGN §5.7).
    pub(crate) fn expect_anchor(
        &self,
        txn: &mut Transaction,
        doc: DocId,
        anchor: Option<CharId>,
    ) -> Result<()> {
        match anchor {
            Some(a) => txn.expect_unchanged(self.t.chars, a.row())?,
            None => txn.expect_unchanged(self.t.documents, doc.row())?,
        }
        Ok(())
    }

    /// Run `f` with automatic retry on optimistic-concurrency conflicts.
    ///
    /// This is how TeNDaX editors behave: a keystroke transaction that
    /// loses the first-committer race is simply re-executed against the
    /// new snapshot.
    pub fn retrying<T>(&self, attempts: usize, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match f() {
                Err(e) if e.is_retryable() => last = Some(e),
                other => return other,
            }
        }
        Err(last.expect("loop ran at least once"))
    }

    // -------------------------------------------------------------- users

    /// Register a user.
    pub fn create_user(&self, name: &str) -> Result<UserId> {
        let mut txn = self.db.begin();
        let row = Row::new(vec![
            Value::Text(name.to_owned()),
            Value::Timestamp(self.now()),
        ]);
        let rid = txn.insert(self.t.users, row)?;
        txn.commit().map_err(|e| match e {
            tendax_storage::StorageError::UniqueViolation { .. } => {
                TextError::NameTaken(name.to_owned())
            }
            other => other.into(),
        })?;
        Ok(UserId::from_row(rid))
    }

    pub fn user_by_name(&self, name: &str) -> Result<UserId> {
        let txn = self.db.begin();
        let hits = txn.index_lookup(self.t.users, "users_by_name", &[Value::Text(name.into())])?;
        hits.first()
            .map(|(rid, _)| UserId::from_row(*rid))
            .ok_or_else(|| TextError::UnknownUser(name.to_owned()))
    }

    pub fn user_name(&self, id: UserId) -> Result<String> {
        let txn = self.db.begin();
        let row = txn
            .get(self.t.users, id.row())?
            .ok_or(TextError::UnknownUserId(id))?;
        Ok(row
            .get(0)
            .and_then(|v| v.as_text())
            .unwrap_or_default()
            .to_owned())
    }

    pub(crate) fn require_user(&self, txn: &Transaction, id: UserId) -> Result<()> {
        if txn.get(self.t.users, id.row())?.is_some() {
            Ok(())
        } else {
            Err(TextError::UnknownUserId(id))
        }
    }

    /// All users, `(id, name)`, sorted by id.
    pub fn list_users(&self) -> Result<Vec<(UserId, String)>> {
        let txn = self.db.begin();
        Ok(txn
            .scan(self.t.users, &Predicate::True)?
            .into_iter()
            .map(|(rid, row)| {
                (
                    UserId::from_row(rid),
                    row.get(0)
                        .and_then(|v| v.as_text())
                        .unwrap_or_default()
                        .to_owned(),
                )
            })
            .collect())
    }

    // -------------------------------------------------------------- roles

    pub fn create_role(&self, name: &str) -> Result<RoleId> {
        let mut txn = self.db.begin();
        let rid = txn.insert(self.t.roles, Row::new(vec![Value::Text(name.to_owned())]))?;
        txn.commit().map_err(|e| match e {
            tendax_storage::StorageError::UniqueViolation { .. } => {
                TextError::NameTaken(name.to_owned())
            }
            other => other.into(),
        })?;
        Ok(RoleId::from_row(rid))
    }

    pub fn role_by_name(&self, name: &str) -> Result<RoleId> {
        let txn = self.db.begin();
        let hits = txn.index_lookup(self.t.roles, "roles_by_name", &[Value::Text(name.into())])?;
        hits.first()
            .map(|(rid, _)| RoleId::from_row(*rid))
            .ok_or_else(|| TextError::UnknownRole(name.to_owned()))
    }

    /// Add `user` to `role` (idempotent).
    pub fn assign_role(&self, user: UserId, role: RoleId) -> Result<()> {
        if self.roles_of(user)?.contains(&role) {
            return Ok(());
        }
        let mut txn = self.db.begin();
        self.require_user(&txn, user)?;
        txn.insert(
            self.t.user_roles,
            Row::new(vec![user.value(), role.value()]),
        )?;
        txn.commit()?;
        Ok(())
    }

    /// Remove `user` from `role`.
    pub fn unassign_role(&self, user: UserId, role: RoleId) -> Result<()> {
        let mut txn = self.db.begin();
        let rows = txn.index_lookup(self.t.user_roles, "user_roles_by_user", &[user.value()])?;
        for (rid, row) in rows {
            if row.get(1).map(RoleId::from_value) == Some(role) {
                txn.delete(self.t.user_roles, rid)?;
            }
        }
        txn.commit()?;
        Ok(())
    }

    pub fn roles_of(&self, user: UserId) -> Result<Vec<RoleId>> {
        let txn = self.db.begin();
        self.roles_of_txn(&txn, user)
    }

    pub(crate) fn roles_of_txn(&self, txn: &Transaction, user: UserId) -> Result<Vec<RoleId>> {
        Ok(txn
            .index_lookup(self.t.user_roles, "user_roles_by_user", &[user.value()])?
            .into_iter()
            .filter_map(|(_, row)| row.get(1).map(RoleId::from_value))
            .collect())
    }

    // ---------------------------------------------------------- documents

    /// Create an empty document owned by `creator`.
    pub fn create_document(&self, name: &str, creator: UserId) -> Result<DocId> {
        let mut txn = self.db.begin();
        self.require_user(&txn, creator)?;
        let row = Row::new(vec![
            Value::Text(name.to_owned()),
            creator.value(),
            Value::Timestamp(self.now()),
            Value::Text("draft".to_owned()),
        ]);
        let rid = txn.insert(self.t.documents, row)?;
        txn.commit().map_err(|e| match e {
            tendax_storage::StorageError::UniqueViolation { .. } => {
                TextError::NameTaken(name.to_owned())
            }
            other => other.into(),
        })?;
        Ok(DocId::from_row(rid))
    }

    pub fn document_by_name(&self, name: &str) -> Result<DocId> {
        let txn = self.db.begin();
        let hits = txn.index_lookup(
            self.t.documents,
            "documents_by_name",
            &[Value::Text(name.into())],
        )?;
        hits.first()
            .map(|(rid, _)| DocId::from_row(*rid))
            .ok_or_else(|| TextError::UnknownDocument(name.to_owned()))
    }

    pub fn document_info(&self, doc: DocId) -> Result<DocInfo> {
        let txn = self.db.begin();
        self.document_info_txn(&txn, doc)
    }

    pub(crate) fn document_info_txn(&self, txn: &Transaction, doc: DocId) -> Result<DocInfo> {
        let row = txn
            .get(self.t.documents, doc.row())?
            .ok_or(TextError::UnknownDocumentId(doc))?;
        Ok(DocInfo::of(doc, &row))
    }

    pub fn list_documents(&self) -> Result<Vec<DocInfo>> {
        let txn = self.db.begin();
        let rows = txn.scan(self.t.documents, &Predicate::True)?;
        Ok(rows
            .iter()
            .map(|(rid, row)| DocInfo::of(DocId::from_row(*rid), row))
            .collect())
    }

    /// Transition a document's workflow state (`draft`, `review`, `final`, …).
    pub fn set_document_state(&self, doc: DocId, state: &str, user: UserId) -> Result<()> {
        let mut txn = self.db.begin();
        self.check_permission_txn(&txn, doc, user, Permission::Write)?;
        txn.set(
            self.t.documents,
            doc.row(),
            &[("state", Value::Text(state.to_owned()))],
        )?;
        txn.commit()?;
        Ok(())
    }

    // ------------------------------------------------------------ security

    /// Check a document-level permission.
    pub fn check_permission(&self, doc: DocId, user: UserId, perm: Permission) -> Result<()> {
        let txn = self.db.begin();
        self.check_permission_txn(&txn, doc, user, perm)
    }

    pub(crate) fn check_permission_txn(
        &self,
        txn: &Transaction,
        doc: DocId,
        user: UserId,
        perm: Permission,
    ) -> Result<()> {
        self.access(txn, doc, user)?.require(perm)
    }

    /// Grant or deny a document-level permission. Requires
    /// [`Permission::ManageSecurity`] from `by`.
    pub fn set_access(
        &self,
        doc: DocId,
        by: UserId,
        principal: Principal,
        perm: Permission,
        allow: bool,
    ) -> Result<()> {
        let mut txn = self.db.begin();
        self.check_permission_txn(&txn, doc, by, Permission::ManageSecurity)?;
        txn.insert(
            self.t.acl,
            Row::new(vec![
                doc.value(),
                Value::Text(principal.kind_str().to_owned()),
                principal.id_value(),
                Value::Text(perm.as_str().to_owned()),
                Value::Bool(allow),
                Value::Null,
                Value::Null,
            ]),
        )?;
        // Setting access rights is itself an editing action the paper
        // logs (creation-process metadata), though not an undoable one.
        txn.insert(
            self.t.oplog,
            Row::new(vec![
                doc.value(),
                by.value(),
                Value::Timestamp(self.now()),
                Value::Text("acl".to_owned()),
                Value::Null,
                Value::Bool(false),
            ]),
        )?;
        txn.commit()?;
        Ok(())
    }

    /// Remove all document-level rules for `(principal, perm)`.
    pub fn clear_access(
        &self,
        doc: DocId,
        by: UserId,
        principal: Principal,
        perm: Permission,
    ) -> Result<()> {
        let mut txn = self.db.begin();
        self.check_permission_txn(&txn, doc, by, Permission::ManageSecurity)?;
        let rows = txn.scan(self.t.acl, &Predicate::Eq("doc".into(), doc.value()))?;
        for (rid, row) in rows {
            let same_kind = row.get(1).and_then(|v| v.as_text()) == Some(principal.kind_str());
            let same_id = row.get(2) == Some(principal.id_value().view());
            let same_perm = row.get(3).and_then(|v| v.as_text()) == Some(perm.as_str());
            let doc_level = row.get(5).map(|v| v.is_null()).unwrap_or(true);
            if same_kind && same_id && same_perm && doc_level {
                txn.delete(self.t.acl, rid)?;
            }
        }
        txn.commit()?;
        Ok(())
    }

    /// All access rules of a document (for rights-management UIs):
    /// document-level and range rules alike. Requires only Read.
    pub fn access_rules(&self, doc: DocId, by: UserId) -> Result<Vec<crate::security::AclRule>> {
        let txn = self.db.begin();
        self.check_permission_txn(&txn, doc, by, Permission::Read)?;
        crate::security::load_rules(&txn, &self.t, doc)
    }

    // -------------------------------------------------------------- styles

    /// Define a named layout style (attribute string, e.g.
    /// `"bold;size=14"` — the attrs format is opaque to the engine).
    pub fn define_style(&self, name: &str, attrs: &str, author: UserId) -> Result<StyleId> {
        let mut txn = self.db.begin();
        self.require_user(&txn, author)?;
        let rid = txn.insert(
            self.t.styles,
            Row::new(vec![
                Value::Text(name.to_owned()),
                Value::Text(attrs.to_owned()),
                author.value(),
                Value::Timestamp(self.now()),
            ]),
        )?;
        txn.commit().map_err(|e| match e {
            tendax_storage::StorageError::UniqueViolation { .. } => {
                TextError::NameTaken(name.to_owned())
            }
            other => other.into(),
        })?;
        Ok(StyleId::from_row(rid))
    }

    pub fn style_by_name(&self, name: &str) -> Result<StyleId> {
        let txn = self.db.begin();
        let hits =
            txn.index_lookup(self.t.styles, "styles_by_name", &[Value::Text(name.into())])?;
        hits.first()
            .map(|(rid, _)| StyleId::from_row(*rid))
            .ok_or_else(|| TextError::UnknownStyle(name.to_owned()))
    }

    /// `(id, name, attrs)` of all styles.
    pub fn list_styles(&self) -> Result<Vec<(StyleId, String, String)>> {
        let txn = self.db.begin();
        Ok(txn
            .scan(self.t.styles, &Predicate::True)?
            .into_iter()
            .map(|(rid, row)| {
                (
                    StyleId::from_row(rid),
                    row.get(0)
                        .and_then(|v| v.as_text())
                        .unwrap_or_default()
                        .to_owned(),
                    row.get(1)
                        .and_then(|v| v.as_text())
                        .unwrap_or_default()
                        .to_owned(),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_lifecycle() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        assert_eq!(tdb.user_by_name("alice").unwrap(), alice);
        assert_eq!(tdb.user_name(alice).unwrap(), "alice");
        assert!(matches!(
            tdb.create_user("alice"),
            Err(TextError::NameTaken(_))
        ));
        assert!(matches!(
            tdb.user_by_name("nobody"),
            Err(TextError::UnknownUser(_))
        ));
        assert_eq!(tdb.list_users().unwrap().len(), 1);
    }

    #[test]
    fn role_membership() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let editors = tdb.create_role("editors").unwrap();
        assert_eq!(tdb.role_by_name("editors").unwrap(), editors);
        tdb.assign_role(alice, editors).unwrap();
        tdb.assign_role(alice, editors).unwrap(); // idempotent
        assert_eq!(tdb.roles_of(alice).unwrap(), vec![editors]);
        tdb.unassign_role(alice, editors).unwrap();
        assert!(tdb.roles_of(alice).unwrap().is_empty());
    }

    #[test]
    fn document_lifecycle() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("report", alice).unwrap();
        assert_eq!(tdb.document_by_name("report").unwrap(), doc);
        let info = tdb.document_info(doc).unwrap();
        assert_eq!(info.name, "report");
        assert_eq!(info.creator, alice);
        assert_eq!(info.state, "draft");
        tdb.set_document_state(doc, "final", alice).unwrap();
        assert_eq!(tdb.document_info(doc).unwrap().state, "final");
        assert!(matches!(
            tdb.create_document("report", alice),
            Err(TextError::NameTaken(_))
        ));
        assert_eq!(tdb.list_documents().unwrap().len(), 1);
    }

    #[test]
    fn document_requires_existing_creator() {
        let tdb = TextDb::in_memory();
        assert!(matches!(
            tdb.create_document("x", UserId(99)),
            Err(TextError::UnknownUserId(_))
        ));
    }

    #[test]
    fn access_rules_enforced() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("secret", alice).unwrap();
        // Open by default.
        tdb.check_permission(doc, bob, Permission::Write).unwrap();
        // Alice (creator) closes writing to herself only.
        tdb.set_access(doc, alice, Principal::User(alice), Permission::Write, true)
            .unwrap();
        assert!(matches!(
            tdb.check_permission(doc, bob, Permission::Write),
            Err(TextError::PermissionDenied { .. })
        ));
        tdb.check_permission(doc, alice, Permission::Write).unwrap();
        // Bob may not manage security.
        assert!(tdb
            .set_access(doc, bob, Principal::User(bob), Permission::Write, true)
            .is_err());
        // Clearing the rule reopens the document.
        tdb.clear_access(doc, alice, Principal::User(alice), Permission::Write)
            .unwrap();
        tdb.check_permission(doc, bob, Permission::Write).unwrap();
    }

    #[test]
    fn role_based_access() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let carol = tdb.create_user("carol").unwrap();
        let reviewers = tdb.create_role("reviewers").unwrap();
        tdb.assign_role(bob, reviewers).unwrap();
        let doc = tdb.create_document("paper", alice).unwrap();
        tdb.set_access(
            doc,
            alice,
            Principal::Role(reviewers),
            Permission::Layout,
            true,
        )
        .unwrap();
        tdb.check_permission(doc, bob, Permission::Layout).unwrap();
        assert!(tdb
            .check_permission(doc, carol, Permission::Layout)
            .is_err());
    }

    #[test]
    fn access_rules_are_listable() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        assert!(tdb.access_rules(doc, alice).unwrap().is_empty());
        tdb.set_access(doc, alice, Principal::User(bob), Permission::Write, false)
            .unwrap();
        let rules = tdb.access_rules(doc, bob).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].perm, Permission::Write);
        assert!(!rules[0].allow);
        assert!(!rules[0].is_range_rule());
    }

    #[test]
    fn styles_registry() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let h1 = tdb.define_style("heading1", "bold;size=20", alice).unwrap();
        assert_eq!(tdb.style_by_name("heading1").unwrap(), h1);
        assert!(matches!(
            tdb.define_style("heading1", "x", alice),
            Err(TextError::NameTaken(_))
        ));
        let styles = tdb.list_styles().unwrap();
        assert_eq!(styles.len(), 1);
        assert_eq!(styles[0].1, "heading1");
    }

    #[test]
    fn retrying_gives_up_on_permanent_errors() {
        let tdb = TextDb::in_memory();
        let mut calls = 0;
        let r: Result<()> = tdb.retrying(5, || {
            calls += 1;
            Err(TextError::NothingToUndo)
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn retrying_retries_conflicts() {
        let tdb = TextDb::in_memory();
        let mut calls = 0;
        let r: Result<i32> = tdb.retrying(5, || {
            calls += 1;
            if calls < 3 {
                Err(TextError::Storage(
                    tendax_storage::StorageError::WriteConflict {
                        table: "chars".into(),
                        txn: tendax_storage::TxnId(1),
                    },
                ))
            } else {
                Ok(7)
            }
        });
        assert_eq!(r.unwrap(), 7);
        assert_eq!(calls, 3);
    }
}
