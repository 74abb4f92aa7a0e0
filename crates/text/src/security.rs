//! Fine-grained access control.
//!
//! TeNDaX enforces security *inside* the editing transactions: an
//! operation that touches protected characters fails before any row is
//! written. Rights are granted to users or roles, per document, optionally
//! restricted to a character range. Policy:
//!
//! * the document creator always holds every permission;
//! * an explicit document-level `deny` beats any `allow`;
//! * if any document-level rule mentions a permission, an `allow` matching
//!   the user (directly or via a role, or `all`) is required;
//! * with no rules for a permission the document is open — the demo's
//!   collaborative default;
//! * range rules (`from_char`/`to_char` set) only *protect*: a matching
//!   `deny` blocks edits that touch the range.

use std::sync::Arc;

use tendax_storage::{Predicate, Transaction, Value};

use crate::error::{Result, TextError};
use crate::ids::{CharId, DocId, RoleId, UserId};
use crate::schema::Tables;

/// The permission lattice of the editor system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permission {
    /// Open and read the document.
    Read,
    /// Insert/delete characters, paste, embed objects.
    Write,
    /// Apply styles and structure.
    Layout,
    /// Attach notes.
    Annotate,
    /// Grant/revoke rights.
    ManageSecurity,
    /// Define and route workflow tasks in the document.
    DefineProcess,
}

impl Permission {
    pub fn as_str(self) -> &'static str {
        match self {
            Permission::Read => "read",
            Permission::Write => "write",
            Permission::Layout => "layout",
            Permission::Annotate => "annotate",
            Permission::ManageSecurity => "manage_security",
            Permission::DefineProcess => "define_process",
        }
    }

    #[allow(clippy::should_implement_trait)] // infallible-Option parse, not FromStr
    pub fn from_str(s: &str) -> Option<Permission> {
        Some(match s {
            "read" => Permission::Read,
            "write" => Permission::Write,
            "layout" => Permission::Layout,
            "annotate" => Permission::Annotate,
            "manage_security" => Permission::ManageSecurity,
            "define_process" => Permission::DefineProcess,
            _ => return None,
        })
    }
}

/// Who a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Principal {
    User(UserId),
    Role(RoleId),
    /// Every user.
    All,
}

impl Principal {
    pub(crate) fn kind_str(self) -> &'static str {
        match self {
            Principal::User(_) => "user",
            Principal::Role(_) => "role",
            Principal::All => "all",
        }
    }

    pub(crate) fn id_value(self) -> Value {
        match self {
            Principal::User(u) => Value::Id(u.0),
            Principal::Role(r) => Value::Id(r.0),
            Principal::All => Value::Id(0),
        }
    }
}

/// One access rule as read back from the `acl` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclRule {
    pub principal: Principal,
    pub perm: Permission,
    pub allow: bool,
    /// Range-scoped protection, if set.
    pub from_char: CharId,
    pub to_char: CharId,
}

impl AclRule {
    pub fn is_range_rule(&self) -> bool {
        !self.from_char.is_none()
    }
}

/// Does `principal` match `user` given the user's `roles`?
fn matches(principal: Principal, user: UserId, roles: &[RoleId]) -> bool {
    match principal {
        Principal::All => true,
        Principal::User(u) => u == user,
        Principal::Role(r) => roles.contains(&r),
    }
}

/// Load all ACL rules of a document within `txn`'s snapshot.
pub(crate) fn load_rules(txn: &Transaction, t: &Tables, doc: DocId) -> Result<Vec<AclRule>> {
    let rows = txn.scan(t.acl, &Predicate::Eq("doc".into(), doc.value()))?;
    let mut rules = Vec::with_capacity(rows.len());
    for (_, row) in rows {
        let [kind, pid, perm, allow, from_char, to_char] = row.cols([1, 2, 3, 4, 5, 6]);
        let pid = pid.as_id().unwrap_or(0);
        let principal = match kind.as_text().unwrap_or("user") {
            "role" => Principal::Role(RoleId(pid)),
            "all" => Principal::All,
            _ => Principal::User(UserId(pid)),
        };
        let Some(perm) = perm.as_text().and_then(Permission::from_str) else {
            continue; // unknown permission string: ignore defensively
        };
        rules.push(AclRule {
            principal,
            perm,
            allow: allow.as_bool().unwrap_or(false),
            from_char: CharId::from_value(from_char),
            to_char: CharId::from_value(to_char),
        });
    }
    Ok(rules)
}

/// Document-level permission decision.
pub(crate) fn decide(
    rules: &[AclRule],
    creator: UserId,
    user: UserId,
    roles: &[RoleId],
    perm: Permission,
) -> bool {
    if user == creator {
        return true;
    }
    let doc_rules: Vec<&AclRule> = rules
        .iter()
        .filter(|r| !r.is_range_rule() && r.perm == perm)
        .collect();
    if doc_rules
        .iter()
        .any(|r| !r.allow && matches(r.principal, user, roles))
    {
        return false; // explicit deny wins
    }
    if doc_rules.is_empty() {
        // Open by default — except security administration, which only
        // the creator (or explicitly allowed principals) may perform.
        return perm != Permission::ManageSecurity;
    }
    doc_rules
        .iter()
        .any(|r| r.allow && matches(r.principal, user, roles))
}

impl crate::document::DocHandle {
    /// Write-protect the visible range `[pos, pos + len)` against
    /// `principal` (use [`Principal::All`] to lock it for everyone but
    /// the creator). Requires [`Permission::ManageSecurity`].
    ///
    /// The protection is anchored at character ids, so it follows the
    /// text as the document changes around it.
    pub fn protect_range(
        &mut self,
        pos: usize,
        len: usize,
        principal: Principal,
        perm: Permission,
    ) -> Result<()> {
        if len == 0 {
            return Err(crate::error::TextError::InvalidPosition {
                pos,
                len,
                doc_len: self.len(),
            });
        }
        self.check_range(pos, len)?;
        let from = self.chain.id_at_visible(pos).expect("range checked");
        let to = self
            .chain
            .id_at_visible(pos + len - 1)
            .expect("range checked");
        let tdb = self.tdb.clone();
        let t = tdb.tables();
        let mut txn = tdb.database().begin();
        tdb.check_permission_txn(&txn, self.doc, self.user, Permission::ManageSecurity)?;
        txn.insert(
            t.acl,
            tendax_storage::Row::new(vec![
                self.doc.value(),
                Value::Text(principal.kind_str().to_owned()),
                principal.id_value(),
                Value::Text(perm.as_str().to_owned()),
                Value::Bool(false), // range rules protect (deny)
                from.value(),
                to.value(),
            ]),
        )?;
        txn.commit()?;
        Ok(())
    }

    /// Remove every range protection covering exactly `[pos, pos+len)`
    /// for `principal`. Requires [`Permission::ManageSecurity`].
    pub fn unprotect_range(&mut self, pos: usize, len: usize, principal: Principal) -> Result<()> {
        self.check_range(pos, len)?;
        let from = self.chain.id_at_visible(pos);
        let to = self.chain.id_at_visible(pos + len.saturating_sub(1));
        let tdb = self.tdb.clone();
        let t = tdb.tables();
        let mut txn = tdb.database().begin();
        tdb.check_permission_txn(&txn, self.doc, self.user, Permission::ManageSecurity)?;
        let rows = txn.scan(t.acl, &Predicate::Eq("doc".into(), self.doc.value()))?;
        for (rid, row) in rows {
            let same_kind = row.get(1).and_then(|v| v.as_text()) == Some(principal.kind_str());
            let same_id = row.get(2) == Some(principal.id_value().view());
            let rule_from = row.get(5).map(CharId::from_value);
            let rule_to = row.get(6).map(CharId::from_value);
            if same_kind && same_id && rule_from == from && rule_to == to {
                txn.delete(t.acl, rid)?;
            }
        }
        txn.commit()?;
        Ok(())
    }

    /// The currently protected visible spans of this document, as seen
    /// through this handle's cache: `(from_pos, to_pos, perm)`.
    pub fn protected_spans(&self) -> Result<Vec<(usize, usize, Permission)>> {
        let txn = self.tdb.database().begin();
        let rules = load_rules(&txn, self.tdb.tables(), self.doc)?;
        let mut out = Vec::new();
        for r in rules {
            if !r.is_range_rule() || r.allow {
                continue;
            }
            if let (Some(a), Some(b)) = (
                self.chain.visible_rank(r.from_char),
                self.chain.visible_rank(r.to_char),
            ) {
                out.push((a, b, r.perm));
            }
        }
        out.sort_by_key(|(a, _, _)| *a);
        Ok(out)
    }
}

/// What decides one user's rights on one document: its creator, the
/// user's roles and the document's rules. An edit reads them once and
/// asks both of its questions — may the user edit, and which spans are
/// protected against them — of the one copy.
///
/// Rights almost never change between two keystrokes, so they are not
/// read for each: every check goes through [`TextDb::access`], which
/// answers from a memo keyed by (document, user) beside the change stamps
/// (DESIGN §5.13). A copy loaded at snapshot `E` answers a transaction at
/// `T` only if `E ≤ T` and no commit above `E` stamped the document's
/// `documents` row, its `acl` rows or the `user_roles` table — the three
/// places it was read from.
#[derive(Debug)]
pub(crate) struct Access {
    doc: DocId,
    user: UserId,
    creator: UserId,
    roles: Vec<RoleId>,
    rules: Vec<AclRule>,
}

impl crate::textdb::TextDb {
    /// `user`'s rights on `doc` as `txn` sees them: the memoized copy if
    /// the change stamps vouch for it at `txn`'s snapshot, else a fresh
    /// read, which is memoized in turn. A transaction that has written
    /// already reads afresh and keeps nothing: its own writes may be
    /// among what rights are read from.
    pub(crate) fn access(
        &self,
        txn: &Transaction,
        doc: DocId,
        user: UserId,
    ) -> Result<Arc<Access>> {
        if txn.write_count() > 0 {
            return Ok(Arc::new(Access::load(self, txn, doc, user)?));
        }
        let at = txn.snapshot_ts();
        // The stamps are read inside `rights`, after `at` was taken.
        if let Some(access) = self.stamps().rights(doc, user, at) {
            return Ok(access);
        }
        let access = Arc::new(Access::load(self, txn, doc, user)?);
        self.stamps().keep_rights(doc, user, at, access.clone());
        Ok(access)
    }
}

impl Access {
    /// Read `user`'s rights on `doc` within `txn`'s snapshot: the
    /// document's row, the user's roles and the document's rules.
    fn load(
        tdb: &crate::textdb::TextDb,
        txn: &Transaction,
        doc: DocId,
        user: UserId,
    ) -> Result<Access> {
        Ok(Access {
            doc,
            user,
            creator: tdb.document_info_txn(txn, doc)?.creator,
            roles: tdb.roles_of_txn(txn, user)?,
            rules: load_rules(txn, tdb.tables(), doc)?,
        })
    }

    /// `PermissionDenied` unless the user holds `perm` on the document.
    pub(crate) fn require(&self, perm: Permission) -> Result<()> {
        if decide(&self.rules, self.creator, self.user, &self.roles, perm) {
            Ok(())
        } else {
            Err(TextError::PermissionDenied {
                user: self.user,
                doc: self.doc,
                perm,
            })
        }
    }

    /// The spans whose range rules deny `perm` to the user.
    pub(crate) fn denied_ranges(&self, perm: Permission) -> Vec<(CharId, CharId)> {
        denied_ranges(&self.rules, self.creator, self.user, &self.roles, perm)
    }
}

/// Range rules that deny `perm` to this user — edits overlapping the
/// protected spans must be rejected.
pub(crate) fn denied_ranges(
    rules: &[AclRule],
    creator: UserId,
    user: UserId,
    roles: &[RoleId],
    perm: Permission,
) -> Vec<(CharId, CharId)> {
    if user == creator {
        return Vec::new();
    }
    rules
        .iter()
        .filter(|r| {
            r.is_range_rule() && r.perm == perm && !r.allow && matches(r.principal, user, roles)
        })
        .map(|r| (r.from_char, r.to_char))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CREATOR: UserId = UserId(1);
    const ALICE: UserId = UserId(2);
    const BOB: UserId = UserId(3);
    const EDITORS: RoleId = RoleId(10);

    fn rule(principal: Principal, perm: Permission, allow: bool) -> AclRule {
        AclRule {
            principal,
            perm,
            allow,
            from_char: CharId::NONE,
            to_char: CharId::NONE,
        }
    }

    #[test]
    fn creator_always_allowed() {
        let rules = vec![rule(Principal::All, Permission::Write, false)];
        assert!(decide(&rules, CREATOR, CREATOR, &[], Permission::Write));
    }

    #[test]
    fn open_by_default_except_security_admin() {
        assert!(decide(&[], CREATOR, ALICE, &[], Permission::Write));
        assert!(decide(&[], CREATOR, ALICE, &[], Permission::Read));
        assert!(!decide(
            &[],
            CREATOR,
            ALICE,
            &[],
            Permission::ManageSecurity
        ));
        assert!(decide(
            &[],
            CREATOR,
            CREATOR,
            &[],
            Permission::ManageSecurity
        ));
        // An explicit allow opens it up.
        let rules = vec![rule(
            Principal::User(ALICE),
            Permission::ManageSecurity,
            true,
        )];
        assert!(decide(
            &rules,
            CREATOR,
            ALICE,
            &[],
            Permission::ManageSecurity
        ));
    }

    #[test]
    fn allow_listing_closes_the_document() {
        let rules = vec![rule(Principal::User(ALICE), Permission::Write, true)];
        assert!(decide(&rules, CREATOR, ALICE, &[], Permission::Write));
        assert!(!decide(&rules, CREATOR, BOB, &[], Permission::Write));
        // Other permissions stay open.
        assert!(decide(&rules, CREATOR, BOB, &[], Permission::Read));
    }

    #[test]
    fn deny_beats_allow() {
        let rules = vec![
            rule(Principal::All, Permission::Write, true),
            rule(Principal::User(BOB), Permission::Write, false),
        ];
        assert!(decide(&rules, CREATOR, ALICE, &[], Permission::Write));
        assert!(!decide(&rules, CREATOR, BOB, &[], Permission::Write));
    }

    #[test]
    fn role_membership_grants() {
        let rules = vec![rule(Principal::Role(EDITORS), Permission::Layout, true)];
        assert!(decide(
            &rules,
            CREATOR,
            ALICE,
            &[EDITORS],
            Permission::Layout
        ));
        assert!(!decide(&rules, CREATOR, ALICE, &[], Permission::Layout));
    }

    #[test]
    fn range_rules_do_not_affect_document_decision() {
        let mut r = rule(Principal::All, Permission::Write, false);
        r.from_char = CharId(5);
        r.to_char = CharId(9);
        assert!(decide(&[r.clone()], CREATOR, ALICE, &[], Permission::Write));
        let denied = denied_ranges(&[r], CREATOR, ALICE, &[], Permission::Write);
        assert_eq!(denied, vec![(CharId(5), CharId(9))]);
    }

    #[test]
    fn denied_ranges_skip_creator_and_other_principals() {
        let mut r = rule(Principal::User(BOB), Permission::Write, false);
        r.from_char = CharId(1);
        r.to_char = CharId(2);
        assert!(denied_ranges(&[r.clone()], CREATOR, CREATOR, &[], Permission::Write).is_empty());
        assert!(denied_ranges(&[r.clone()], CREATOR, ALICE, &[], Permission::Write).is_empty());
        assert_eq!(
            denied_ranges(&[r], CREATOR, BOB, &[], Permission::Write).len(),
            1
        );
    }

    #[test]
    fn protect_range_blocks_other_users_edits() {
        use crate::textdb::TextDb;
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "locked open").unwrap();
        // Alice protects "locked" (positions 0..=5) against everyone.
        ha.protect_range(0, 6, Principal::All, Permission::Write)
            .unwrap();
        assert_eq!(
            ha.protected_spans().unwrap(),
            vec![(0, 5, Permission::Write)]
        );

        let mut hb = tdb.open(doc, bob).unwrap();
        // Deleting inside the protected span fails…
        assert!(matches!(
            hb.delete_range(2, 2),
            Err(crate::error::TextError::RangeProtected { .. })
        ));
        // …inserting strictly inside fails…
        assert!(matches!(
            hb.insert_text(3, "x"),
            Err(crate::error::TextError::RangeProtected { .. })
        ));
        // …but editing after the span works.
        hb.insert_text(11, "!").unwrap();
        // And the creator is never blocked.
        ha.refresh().unwrap();
        ha.delete_range(0, 1).unwrap();
    }

    #[test]
    fn protection_follows_text_and_can_be_lifted() {
        use crate::textdb::TextDb;
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "AAAA BBBB").unwrap();
        ha.protect_range(5, 4, Principal::User(bob), Permission::Write)
            .unwrap();
        // Insert before the span: the anchored span shifts.
        ha.insert_text(0, ">> ").unwrap();
        assert_eq!(
            ha.protected_spans().unwrap(),
            vec![(8, 11, Permission::Write)]
        );
        let mut hb = tdb.open(doc, bob).unwrap();
        assert!(hb.insert_text(9, "x").is_err());
        // Lift the protection (positions 8..=11 now).
        ha.unprotect_range(8, 4, Principal::User(bob)).unwrap();
        assert!(ha.protected_spans().unwrap().is_empty());
        hb.refresh().unwrap();
        hb.insert_text(9, "x").unwrap();
    }

    #[test]
    fn only_security_managers_can_protect() {
        use crate::textdb::TextDb;
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "text").unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        assert!(matches!(
            hb.protect_range(0, 2, Principal::All, Permission::Write),
            Err(crate::error::TextError::PermissionDenied { .. })
        ));
    }

    /// Transactions begun and commits while `call` runs, and its result.
    fn counted(
        tdb: &crate::textdb::TextDb,
        call: impl FnOnce() -> crate::error::Result<()>,
    ) -> (u64, u64, crate::error::Result<()>) {
        let before = tdb.database().stats();
        let done = call();
        let after = tdb.database().stats();
        let begun = after.txns_begun - before.txns_begun;
        (begun, after.commits - before.commits, done)
    }

    /// A rights-management call checks the caller's right on the
    /// transaction that writes, not in one of its own before it: each
    /// call begins one transaction, and a refused call commits nothing.
    #[test]
    fn rights_are_checked_on_the_transaction_that_writes() {
        use crate::textdb::TextDb;
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut ha = tdb.open(doc, alice).unwrap();
        ha.insert_text(0, "text").unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        let bob_p = Principal::User(bob);

        let granted = [
            counted(&tdb, || {
                tdb.set_access(doc, alice, bob_p, Permission::Annotate, true)
            }),
            counted(&tdb, || {
                tdb.clear_access(doc, alice, bob_p, Permission::Annotate)
            }),
            counted(&tdb, || tdb.set_document_state(doc, "review", alice)),
            counted(&tdb, || {
                ha.protect_range(0, 2, Principal::All, Permission::Write)
            }),
            counted(&tdb, || ha.unprotect_range(0, 2, Principal::All)),
        ];
        for (i, (begun, commits, done)) in granted.into_iter().enumerate() {
            assert!(done.is_ok(), "call {i}: {done:?}");
            assert_eq!((begun, commits), (1, 1), "call {i}");
        }

        tdb.set_access(doc, alice, bob_p, Permission::Write, false)
            .unwrap();
        let rules = tdb.access_rules(doc, alice).unwrap();
        let state = tdb.document_info(doc).unwrap();
        let refused = [
            counted(&tdb, || {
                tdb.set_access(doc, bob, bob_p, Permission::Write, true)
            }),
            counted(&tdb, || {
                tdb.clear_access(doc, bob, bob_p, Permission::Write)
            }),
            counted(&tdb, || tdb.set_document_state(doc, "mine", bob)),
            counted(&tdb, || {
                hb.protect_range(0, 2, Principal::All, Permission::Write)
            }),
            counted(&tdb, || hb.unprotect_range(0, 2, Principal::All)),
        ];
        for (i, (begun, commits, done)) in refused.into_iter().enumerate() {
            assert!(
                matches!(done, Err(TextError::PermissionDenied { .. })),
                "call {i}: {done:?}"
            );
            assert_eq!((begun, commits), (1, 0), "call {i}");
        }
        assert_eq!(tdb.access_rules(doc, alice).unwrap(), rules);
        assert_eq!(tdb.document_info(doc).unwrap(), state);
    }

    // ------------------------------------------------------ the rights memo

    use crate::error::TextError;
    use crate::textdb::TextDb;

    /// A database where `alice` created `d` and `bob`, who may edit it,
    /// has typed "abcd" through `hb`, which warmed the memo for
    /// (`d`, `bob`): a second keystroke then reads no rights at all.
    fn warm() -> (TextDb, UserId, UserId, crate::document::DocHandle) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        hb.insert_text(0, "abc").unwrap();
        let gets = tdb.database().stats().point_gets;
        hb.insert_text(3, "d").unwrap();
        assert_eq!(
            tdb.database().stats().point_gets,
            gets,
            "the memo answers the second keystroke"
        );
        (tdb, alice, bob, hb)
    }

    #[test]
    fn rights_memo_write_denied_refuses_the_next_insert_and_delete() {
        let (tdb, alice, bob, mut hb) = warm();
        let doc = hb.doc();
        tdb.set_access(doc, alice, Principal::User(bob), Permission::Write, false)
            .unwrap();
        for refused in [hb.insert_text(1, "x"), hb.delete_range(0, 1)] {
            assert!(
                matches!(
                    refused,
                    Err(TextError::PermissionDenied {
                        perm: Permission::Write,
                        ..
                    })
                ),
                "got {refused:?}"
            );
        }
        assert_eq!(hb.text(), "abcd");
    }

    #[test]
    fn rights_memo_role_removed_from_user_roles_refuses() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let editors = tdb.create_role("editors").unwrap();
        tdb.assign_role(bob, editors).unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        tdb.set_access(
            doc,
            alice,
            Principal::Role(editors),
            Permission::Write,
            true,
        )
        .unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        hb.insert_text(0, "ab").unwrap();
        let gets = tdb.database().stats().point_gets;
        hb.insert_text(2, "c").unwrap();
        assert_eq!(tdb.database().stats().point_gets, gets, "memo warm");

        tdb.unassign_role(bob, editors).unwrap();
        let refused = hb.insert_text(3, "x");
        assert!(
            matches!(refused, Err(TextError::PermissionDenied { .. })),
            "got {refused:?}"
        );
        // Given back, the grant counts again.
        tdb.assign_role(bob, editors).unwrap();
        hb.insert_text(3, "d").unwrap();
        assert_eq!(hb.text(), "abcd");
    }

    #[test]
    fn rights_memo_range_protected_over_the_caret_refuses() {
        let (tdb, alice, bob, mut hb) = warm();
        let mut ha = tdb.open(hb.doc(), alice).unwrap();
        ha.protect_range(0, 4, Principal::User(bob), Permission::Write)
            .unwrap();
        let refused = hb.insert_text(2, "x");
        assert!(
            matches!(refused, Err(TextError::RangeProtected { .. })),
            "got {refused:?}"
        );
        // After the span the caret is free.
        hb.insert_text(4, "!").unwrap();
    }

    #[test]
    fn rights_memo_read_denied_refuses_the_open() {
        let (tdb, alice, bob, hb) = warm();
        let doc = hb.doc();
        tdb.open(doc, bob).unwrap();
        tdb.set_access(doc, alice, Principal::User(bob), Permission::Read, false)
            .unwrap();
        let refused = tdb.open(doc, bob).map(drop);
        assert!(
            matches!(
                refused,
                Err(TextError::PermissionDenied {
                    perm: Permission::Read,
                    ..
                })
            ),
            "got {refused:?}"
        );
    }

    /// `acl` rows are stamped by their document: a rule on another
    /// document leaves this one's memoized rights standing.
    #[test]
    fn rights_memo_survives_a_rule_on_another_document() {
        let (tdb, alice, bob, mut hb) = warm();
        let other = tdb.create_document("e", alice).unwrap();
        tdb.set_access(other, alice, Principal::User(bob), Permission::Write, false)
            .unwrap();
        let gets = tdb.database().stats().point_gets;
        hb.insert_text(4, "e").unwrap();
        assert_eq!(tdb.database().stats().point_gets, gets, "still warm");
    }

    /// A transaction whose snapshot is older than the memoized copy reads
    /// rights afresh: the copy describes a later state.
    #[test]
    fn rights_memo_older_snapshot_reloads() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        tdb.set_access(doc, alice, Principal::User(bob), Permission::Write, false)
            .unwrap();
        let old = tdb.database().begin();
        tdb.clear_access(doc, alice, Principal::User(bob), Permission::Write)
            .unwrap();
        let mut hb = tdb.open(doc, bob).unwrap();
        hb.insert_text(0, "ab").unwrap();

        let gets = tdb.database().stats().point_gets;
        let refused = tdb.check_permission_txn(&old, doc, bob, Permission::Write);
        assert!(
            matches!(refused, Err(TextError::PermissionDenied { .. })),
            "the old snapshot still denies: got {refused:?}"
        );
        assert!(tdb.database().stats().point_gets > gets, "read afresh");
        // The memo answers the new snapshots as before.
        hb.insert_text(2, "c").unwrap();
        assert_eq!(hb.text(), "abc");
    }

    #[test]
    fn rights_memo_never_holds_more_than_its_bound() {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let doc = tdb.create_document("d", alice).unwrap();
        let users: Vec<UserId> = (0..crate::stamps::MAX_RIGHTS + 40)
            .map(|i| tdb.create_user(&format!("u{i}")).unwrap())
            .collect();
        for &u in &users {
            tdb.check_permission(doc, u, Permission::Write).unwrap();
            let held = tdb.stamps().rights_len();
            assert!(held <= crate::stamps::MAX_RIGHTS, "{held} pairs held");
            // The newest pair is kept: asking again reads nothing.
            let gets = tdb.database().stats().point_gets;
            tdb.check_permission(doc, u, Permission::Write).unwrap();
            assert_eq!(tdb.database().stats().point_gets, gets);
        }
    }

    #[test]
    fn permission_string_roundtrip() {
        for p in [
            Permission::Read,
            Permission::Write,
            Permission::Layout,
            Permission::Annotate,
            Permission::ManageSecurity,
            Permission::DefineProcess,
        ] {
            assert_eq!(Permission::from_str(p.as_str()), Some(p));
        }
        assert_eq!(Permission::from_str("bogus"), None);
    }
}
