//! The workflow engine: dynamic, in-document business processes.
//!
//! "We will define and run a dynamic workflow within a document for
//! ad-hoc cooperation on that document. … The workflow tasks can be
//! created, changed and routed dynamically, i.e. at run-time." Tasks are
//! rows bound to a document (optionally to a character range); routing is
//! a predecessor edge; every state change is an audited transaction.

use tendax_storage::{
    DataType, Predicate, Row, SharedRow, StorageError, TableDef, TableId, Value, ValueRef,
};
use tendax_text::{CharId, DocId, Permission, Result, RoleId, TextDb, TextError, UserId};

use crate::model::{Assignee, Task, TaskId, TaskLogEntry, TaskSpec, TaskState};

/// Table ids of the process schema.
#[derive(Debug, Clone, Copy)]
pub struct ProcessTables {
    pub tasks: TableId,
    pub task_log: TableId,
}

fn tasks_def() -> TableDef {
    TableDef::new("tasks")
        .column("doc", DataType::Id)
        .column("name", DataType::Text)
        .column("description", DataType::Text)
        .column("assignee_kind", DataType::Text)
        .column("assignee", DataType::Id)
        .column("created_by", DataType::Id)
        .column("created_at", DataType::Timestamp)
        .nullable_column("due", DataType::Timestamp)
        .column("state", DataType::Text)
        .nullable_column("from_char", DataType::Id)
        .nullable_column("to_char", DataType::Id)
        .nullable_column("predecessor", DataType::Id)
        .nullable_column("completed_by", DataType::Id)
        .nullable_column("completed_at", DataType::Timestamp)
        .index("tasks_by_doc", &["doc"])
        .index("tasks_by_assignee", &["assignee_kind", "assignee"])
}

fn task_log_def() -> TableDef {
    TableDef::new("task_log")
        .column("task", DataType::Id)
        .column("ts", DataType::Timestamp)
        .column("user", DataType::Id)
        .column("action", DataType::Text)
        .column("note", DataType::Text)
        .index("task_log_by_task", &["task"])
}

/// The in-document business-process engine.
#[derive(Debug, Clone)]
pub struct ProcessEngine {
    tdb: TextDb,
    t: ProcessTables,
}

impl ProcessEngine {
    /// Install (or adopt) the process schema next to the text schema.
    pub fn init(tdb: TextDb) -> Result<ProcessEngine> {
        let db = tdb.database();
        for def in [tasks_def(), task_log_def()] {
            match db.create_table(def) {
                Ok(_) | Err(StorageError::TableExists(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        let t = ProcessTables {
            tasks: db.table_id("tasks")?,
            task_log: db.table_id("task_log")?,
        };
        // A task belongs to a document: let folders over `HasOpenTasks`
        // see which one a commit touched.
        tdb.track(t.tasks, "doc")?;
        Ok(ProcessEngine { tdb, t })
    }

    pub fn textdb(&self) -> &TextDb {
        &self.tdb
    }

    pub fn tables(&self) -> &ProcessTables {
        &self.t
    }

    // ------------------------------------------------------------ creation

    /// Define a task inside a document. Requires
    /// [`Permission::DefineProcess`] on the document.
    pub fn define_task(&self, doc: DocId, by: UserId, spec: TaskSpec) -> Result<TaskId> {
        self.tdb
            .check_permission(doc, by, Permission::DefineProcess)?;
        let mut txn = self.tdb.database().begin();
        let ts = self.tdb.now();
        let rid = txn.insert(
            self.t.tasks,
            Row::new(vec![
                doc.value(),
                Value::Text(spec.name.clone()),
                Value::Text(spec.description.clone()),
                Value::Text(spec.assignee.kind_str().to_owned()),
                Value::Id(spec.assignee.id()),
                by.value(),
                Value::Timestamp(ts),
                spec.due.map(Value::Timestamp).unwrap_or(Value::Null),
                Value::Text(TaskState::Pending.as_str().to_owned()),
                spec.range.map(|(f, _)| f.value()).unwrap_or(Value::Null),
                spec.range.map(|(_, t)| t.value()).unwrap_or(Value::Null),
                spec.predecessor
                    .map(|p| Value::Id(p.0))
                    .unwrap_or(Value::Null),
                Value::Null,
                Value::Null,
            ]),
        )?;
        let task = TaskId(rid.0);
        self.log(&mut txn, task, by, ts, "created", &spec.name)?;
        txn.commit()?;
        Ok(task)
    }

    /// Define a linear chain of tasks in one call: each task is routed
    /// behind the previous one (`specs[0]` is immediately actionable).
    /// Returns the task ids in order.
    pub fn define_chain(
        &self,
        doc: DocId,
        by: UserId,
        specs: Vec<TaskSpec>,
    ) -> Result<Vec<TaskId>> {
        let mut ids = Vec::with_capacity(specs.len());
        let mut prev: Option<TaskId> = None;
        for mut spec in specs {
            if spec.predecessor.is_none() {
                spec.predecessor = prev;
            }
            let id = self.define_task(doc, by, spec)?;
            prev = Some(id);
            ids.push(id);
        }
        Ok(ids)
    }

    // ------------------------------------------------------------- queries

    /// Load one task.
    pub fn task(&self, id: TaskId) -> Result<Task> {
        let txn = self.tdb.database().begin();
        let row = txn
            .get(self.t.tasks, tendax_storage::RowId(id.0))?
            .ok_or_else(|| TextError::ChainCorrupt(format!("missing task {id}")))?;
        Ok(decode_task(id, &row))
    }

    /// All tasks of a document, creation order.
    pub fn tasks_of_doc(&self, doc: DocId) -> Result<Vec<Task>> {
        let txn = self.tdb.database().begin();
        Ok(txn
            .index_lookup(self.t.tasks, "tasks_by_doc", &[doc.value()])?
            .into_iter()
            .map(|(rid, row)| decode_task(TaskId(rid.0), &row))
            .collect())
    }

    /// Whether a task is actionable now: pending, and its predecessor (if
    /// any) is done.
    pub fn is_actionable(&self, id: TaskId) -> Result<bool> {
        let task = self.task(id)?;
        if task.state != TaskState::Pending {
            return Ok(false);
        }
        match task.predecessor {
            None => Ok(true),
            Some(p) => Ok(self.task(p)?.state == TaskState::Done),
        }
    }

    /// The user's inbox: actionable tasks assigned to them directly or
    /// via one of their roles, oldest first.
    pub fn inbox(&self, user: UserId) -> Result<Vec<Task>> {
        let roles = self.tdb.roles_of(user)?;
        let txn = self.tdb.database().begin();
        let mut out = Vec::new();
        let mut candidates = txn.index_lookup(
            self.t.tasks,
            "tasks_by_assignee",
            &[Value::Text("user".into()), user.value()],
        )?;
        for role in &roles {
            candidates.extend(txn.index_lookup(
                self.t.tasks,
                "tasks_by_assignee",
                &[Value::Text("role".into()), Value::Id(role.0)],
            )?);
        }
        for (rid, row) in candidates {
            let task = decode_task(TaskId(rid.0), &row);
            if task.state == TaskState::Pending && self.pred_done(&txn, &task)? {
                out.push(task);
            }
        }
        out.sort_by_key(|t| (t.created_at, t.id));
        Ok(out)
    }

    fn pred_done(&self, txn: &tendax_storage::Transaction, task: &Task) -> Result<bool> {
        match task.predecessor {
            None => Ok(true),
            Some(p) => {
                let row = txn
                    .get(self.t.tasks, tendax_storage::RowId(p.0))?
                    .ok_or_else(|| TextError::ChainCorrupt(format!("missing task {p}")))?;
                Ok(row.get(8).and_then(|v| v.as_text()) == Some("done"))
            }
        }
    }

    /// Audit log of a task, oldest first.
    pub fn history(&self, id: TaskId) -> Result<Vec<TaskLogEntry>> {
        let txn = self.tdb.database().begin();
        let mut entries: Vec<TaskLogEntry> = txn
            .index_lookup(self.t.task_log, "task_log_by_task", &[Value::Id(id.0)])?
            .into_iter()
            .map(|(_, row)| TaskLogEntry {
                task: id,
                ts: row.get(1).and_then(|v| v.as_timestamp()).unwrap_or(0),
                user: row.get(2).map(UserId::from_value).unwrap_or(UserId::NONE),
                action: row
                    .get(3)
                    .and_then(|v| v.as_text())
                    .unwrap_or_default()
                    .to_owned(),
                note: row
                    .get(4)
                    .and_then(|v| v.as_text())
                    .unwrap_or_default()
                    .to_owned(),
            })
            .collect();
        entries.sort_by_key(|e| e.ts);
        Ok(entries)
    }

    // ---------------------------------------------------------- transitions

    /// Complete an actionable task. The caller must be the assignee (or
    /// hold the assigned role).
    pub fn complete(&self, id: TaskId, user: UserId, note: &str) -> Result<()> {
        self.transition(id, user, TaskState::Done, "completed", note, true)
    }

    /// Reject an actionable task.
    pub fn reject(&self, id: TaskId, user: UserId, note: &str) -> Result<()> {
        self.transition(id, user, TaskState::Rejected, "rejected", note, true)
    }

    /// Cancel a task. Only the task creator or someone with
    /// [`Permission::DefineProcess`] on the document may cancel.
    pub fn cancel(&self, id: TaskId, user: UserId, note: &str) -> Result<()> {
        let task = self.task(id)?;
        if task.created_by != user {
            self.tdb
                .check_permission(task.doc, user, Permission::DefineProcess)?;
        }
        self.transition(id, user, TaskState::Cancelled, "cancelled", note, false)
    }

    /// Re-route a task to a new assignee at run time. Allowed for the
    /// current assignee and for process definers.
    pub fn reassign(&self, id: TaskId, by: UserId, to: Assignee) -> Result<()> {
        let task = self.task(id)?;
        if task.state.is_terminal() {
            return Err(TextError::ChainCorrupt(format!(
                "task {id} is {} and cannot be re-routed",
                task.state.as_str()
            )));
        }
        if !self.user_is_assignee(by, task.assignee)? {
            self.tdb
                .check_permission(task.doc, by, Permission::DefineProcess)?;
        }
        let mut txn = self.tdb.database().begin();
        txn.set(
            self.t.tasks,
            tendax_storage::RowId(id.0),
            &[
                ("assignee_kind", Value::Text(to.kind_str().to_owned())),
                ("assignee", Value::Id(to.id())),
            ],
        )?;
        let ts = self.tdb.now();
        self.log(&mut txn, id, by, ts, "reassigned", to.kind_str())?;
        txn.commit()?;
        Ok(())
    }

    /// Change a task's routing (predecessor edge) at run time.
    pub fn set_predecessor(&self, id: TaskId, by: UserId, pred: Option<TaskId>) -> Result<()> {
        let task = self.task(id)?;
        self.tdb
            .check_permission(task.doc, by, Permission::DefineProcess)?;
        if let Some(p) = pred {
            // Reject cycles: walk the predecessor chain from `p`.
            let mut cur = Some(p);
            while let Some(c) = cur {
                if c == id {
                    return Err(TextError::ChainCorrupt(format!(
                        "routing cycle through {id}"
                    )));
                }
                cur = self.task(c)?.predecessor;
            }
        }
        let mut txn = self.tdb.database().begin();
        txn.set(
            self.t.tasks,
            tendax_storage::RowId(id.0),
            &[(
                "predecessor",
                pred.map(|p| Value::Id(p.0)).unwrap_or(Value::Null),
            )],
        )?;
        let ts = self.tdb.now();
        self.log(&mut txn, id, by, ts, "rerouted", "")?;
        txn.commit()?;
        Ok(())
    }

    fn transition(
        &self,
        id: TaskId,
        user: UserId,
        to: TaskState,
        action: &str,
        note: &str,
        must_be_assignee: bool,
    ) -> Result<()> {
        let task = self.task(id)?;
        if task.state.is_terminal() {
            return Err(TextError::ChainCorrupt(format!(
                "task {id} already {}",
                task.state.as_str()
            )));
        }
        if must_be_assignee {
            if !self.user_is_assignee(user, task.assignee)? {
                return Err(TextError::PermissionDenied {
                    user,
                    doc: task.doc,
                    perm: Permission::DefineProcess,
                });
            }
            if !self.is_actionable(id)? {
                return Err(TextError::ChainCorrupt(format!(
                    "task {id} is blocked by its predecessor"
                )));
            }
        }
        let mut txn = self.tdb.database().begin();
        let ts = self.tdb.now();
        let mut updates = vec![("state", Value::Text(to.as_str().to_owned()))];
        if to == TaskState::Done {
            updates.push(("completed_by", user.value()));
            updates.push(("completed_at", Value::Timestamp(ts)));
        }
        txn.set(self.t.tasks, tendax_storage::RowId(id.0), &updates)?;
        self.log(&mut txn, id, user, ts, action, note)?;
        txn.commit()?;
        Ok(())
    }

    fn user_is_assignee(&self, user: UserId, assignee: Assignee) -> Result<bool> {
        Ok(match assignee {
            Assignee::User(u) => u == user,
            Assignee::Role(r) => self.tdb.roles_of(user)?.contains(&r),
        })
    }

    fn log(
        &self,
        txn: &mut tendax_storage::Transaction,
        task: TaskId,
        user: UserId,
        ts: i64,
        action: &str,
        note: &str,
    ) -> Result<()> {
        txn.insert(
            self.t.task_log,
            Row::new(vec![
                Value::Id(task.0),
                Value::Timestamp(ts),
                user.value(),
                Value::Text(action.to_owned()),
                Value::Text(note.to_owned()),
            ]),
        )?;
        Ok(())
    }

    /// Pending tasks whose due timestamp has passed (dashboards,
    /// escalation). Sorted most-overdue first.
    pub fn overdue_tasks(&self, doc: DocId) -> Result<Vec<Task>> {
        let now = self.tdb.now();
        let mut out: Vec<Task> = self
            .tasks_of_doc(doc)?
            .into_iter()
            .filter(|t| t.state == TaskState::Pending && t.due.is_some_and(|d| d < now))
            .collect();
        out.sort_by_key(|t| t.due);
        Ok(out)
    }

    /// Tasks of a document in a given state (workflow dashboards).
    pub fn tasks_in_state(&self, doc: DocId, state: TaskState) -> Result<Vec<Task>> {
        let txn = self.tdb.database().begin();
        Ok(txn
            .scan(
                self.t.tasks,
                &Predicate::Eq("doc".into(), doc.value()).and(Predicate::Eq(
                    "state".into(),
                    Value::Text(state.as_str().to_owned()),
                )),
            )?
            .into_iter()
            .map(|(rid, row)| decode_task(TaskId(rid.0), &row))
            .collect())
    }
}

fn decode_task(id: TaskId, row: &SharedRow) -> Task {
    let mut cols = row.iter();
    let mut next = || cols.next().unwrap_or(ValueRef::Null);
    let doc = DocId::from_value(next());
    let name = next().as_text().unwrap_or_default().to_owned();
    let description = next().as_text().unwrap_or_default().to_owned();
    let assignee_kind = next().as_text().unwrap_or("user");
    let assignee_id = next().as_id().unwrap_or(0);
    let assignee = if assignee_kind == "role" {
        Assignee::Role(RoleId(assignee_id))
    } else {
        Assignee::User(UserId(assignee_id))
    };
    let created_by = UserId::from_value(next());
    let created_at = next().as_timestamp().unwrap_or(0);
    let due = next().as_timestamp();
    let state = next()
        .as_text()
        .and_then(TaskState::from_str)
        .unwrap_or(TaskState::Pending);
    let (from, to) = (CharId::from_value(next()), CharId::from_value(next()));
    Task {
        id,
        doc,
        name,
        description,
        assignee,
        created_by,
        created_at,
        due,
        state,
        range: if from.is_none() {
            None
        } else {
            Some((from, to))
        },
        predecessor: next().as_id().filter(|x| *x != 0).map(TaskId),
        completed_by: next().as_id().filter(|x| *x != 0).map(UserId),
        completed_at: next().as_timestamp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ProcessEngine, UserId, UserId, DocId) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let doc = tdb.create_document("contract", alice).unwrap();
        let engine = ProcessEngine::init(tdb).unwrap();
        (engine, alice, bob, doc)
    }

    #[test]
    fn define_and_complete_task() {
        let (engine, alice, bob, doc) = setup();
        let task = engine
            .define_task(
                doc,
                alice,
                TaskSpec::new("verify §3", Assignee::User(bob)).description("check the numbers"),
            )
            .unwrap();
        let t = engine.task(task).unwrap();
        assert_eq!(t.name, "verify §3");
        assert_eq!(t.state, TaskState::Pending);
        assert!(engine.is_actionable(task).unwrap());

        // Bob sees it in his inbox; Alice doesn't.
        assert_eq!(engine.inbox(bob).unwrap().len(), 1);
        assert!(engine.inbox(alice).unwrap().is_empty());

        engine.complete(task, bob, "numbers ok").unwrap();
        let t = engine.task(task).unwrap();
        assert_eq!(t.state, TaskState::Done);
        assert_eq!(t.completed_by, Some(bob));
        assert!(engine.inbox(bob).unwrap().is_empty());

        let history = engine.history(task).unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].action, "created");
        assert_eq!(history[1].action, "completed");
        assert_eq!(history[1].note, "numbers ok");
    }

    #[test]
    fn role_based_assignment() {
        let (engine, alice, bob, doc) = setup();
        let tdb = engine.textdb().clone();
        let translators = tdb.create_role("translators").unwrap();
        tdb.assign_role(bob, translators).unwrap();
        let task = engine
            .define_task(
                doc,
                alice,
                TaskSpec::new("translate", Assignee::Role(translators)),
            )
            .unwrap();
        assert_eq!(engine.inbox(bob).unwrap().len(), 1);
        engine.complete(task, bob, "done").unwrap();
        assert_eq!(engine.task(task).unwrap().completed_by, Some(bob));
    }

    #[test]
    fn only_assignee_may_complete() {
        let (engine, alice, bob, doc) = setup();
        let task = engine
            .define_task(doc, alice, TaskSpec::new("verify", Assignee::User(bob)))
            .unwrap();
        assert!(matches!(
            engine.complete(task, alice, ""),
            Err(TextError::PermissionDenied { .. })
        ));
        engine.complete(task, bob, "").unwrap();
        // Terminal tasks reject further transitions.
        assert!(engine.complete(task, bob, "").is_err());
    }

    #[test]
    fn routing_blocks_until_predecessor_done() {
        let (engine, alice, bob, doc) = setup();
        let first = engine
            .define_task(doc, alice, TaskSpec::new("draft", Assignee::User(alice)))
            .unwrap();
        let second = engine
            .define_task(
                doc,
                alice,
                TaskSpec::new("review", Assignee::User(bob)).after(first),
            )
            .unwrap();
        assert!(!engine.is_actionable(second).unwrap());
        assert!(engine.inbox(bob).unwrap().is_empty());
        assert!(engine.complete(second, bob, "too early").is_err());

        engine.complete(first, alice, "drafted").unwrap();
        assert!(engine.is_actionable(second).unwrap());
        assert_eq!(engine.inbox(bob).unwrap().len(), 1);
        engine.complete(second, bob, "reviewed").unwrap();
    }

    #[test]
    fn dynamic_reassignment_and_rerouting() {
        let (engine, alice, bob, doc) = setup();
        let tdb = engine.textdb().clone();
        let carol = tdb.create_user("carol").unwrap();
        let task = engine
            .define_task(doc, alice, TaskSpec::new("verify", Assignee::User(bob)))
            .unwrap();
        // Bob hands it to Carol at run time.
        engine.reassign(task, bob, Assignee::User(carol)).unwrap();
        assert!(engine.inbox(bob).unwrap().is_empty());
        assert_eq!(engine.inbox(carol).unwrap().len(), 1);
        // Alice (process definer) re-routes it behind a new task.
        let gate = engine
            .define_task(doc, alice, TaskSpec::new("prepare", Assignee::User(alice)))
            .unwrap();
        engine.set_predecessor(task, alice, Some(gate)).unwrap();
        assert!(engine.inbox(carol).unwrap().is_empty());
        engine.complete(gate, alice, "").unwrap();
        assert_eq!(engine.inbox(carol).unwrap().len(), 1);
    }

    #[test]
    fn define_chain_routes_sequentially() {
        let (engine, alice, bob, doc) = setup();
        let ids = engine
            .define_chain(
                doc,
                alice,
                vec![
                    TaskSpec::new("draft", Assignee::User(alice)),
                    TaskSpec::new("review", Assignee::User(bob)),
                    TaskSpec::new("publish", Assignee::User(alice)),
                ],
            )
            .unwrap();
        assert_eq!(ids.len(), 3);
        assert!(engine.is_actionable(ids[0]).unwrap());
        assert!(!engine.is_actionable(ids[1]).unwrap());
        assert!(!engine.is_actionable(ids[2]).unwrap());
        engine.complete(ids[0], alice, "").unwrap();
        assert!(engine.is_actionable(ids[1]).unwrap());
        engine.complete(ids[1], bob, "").unwrap();
        engine.complete(ids[2], alice, "").unwrap();
        assert_eq!(
            engine.tasks_in_state(doc, TaskState::Done).unwrap().len(),
            3
        );
    }

    #[test]
    fn routing_cycles_rejected() {
        let (engine, alice, _bob, doc) = setup();
        let a = engine
            .define_task(doc, alice, TaskSpec::new("a", Assignee::User(alice)))
            .unwrap();
        let b = engine
            .define_task(
                doc,
                alice,
                TaskSpec::new("b", Assignee::User(alice)).after(a),
            )
            .unwrap();
        assert!(engine.set_predecessor(a, alice, Some(b)).is_err());
        // Self-cycle too.
        assert!(engine.set_predecessor(a, alice, Some(a)).is_err());
    }

    #[test]
    fn cancel_requires_creator_or_definer() {
        let (engine, alice, bob, doc) = setup();
        let tdb = engine.textdb().clone();
        let task = engine
            .define_task(doc, alice, TaskSpec::new("t", Assignee::User(bob)))
            .unwrap();
        // A third user without DefineProcess cannot cancel once the
        // document's process rights are restricted.
        let carol = tdb.create_user("carol").unwrap();
        tdb.set_access(
            doc,
            alice,
            tendax_text::Principal::User(alice),
            Permission::DefineProcess,
            true,
        )
        .unwrap();
        assert!(engine.cancel(task, carol, "meddling").is_err());
        engine.cancel(task, alice, "obsolete").unwrap();
        assert_eq!(engine.task(task).unwrap().state, TaskState::Cancelled);
    }

    #[test]
    fn define_requires_permission() {
        let (engine, alice, bob, doc) = setup();
        let tdb = engine.textdb().clone();
        tdb.set_access(
            doc,
            alice,
            tendax_text::Principal::User(alice),
            Permission::DefineProcess,
            true,
        )
        .unwrap();
        assert!(matches!(
            engine.define_task(doc, bob, TaskSpec::new("x", Assignee::User(bob))),
            Err(TextError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn dashboard_by_state() {
        let (engine, alice, bob, doc) = setup();
        let t1 = engine
            .define_task(doc, alice, TaskSpec::new("a", Assignee::User(bob)))
            .unwrap();
        let _t2 = engine
            .define_task(doc, alice, TaskSpec::new("b", Assignee::User(bob)))
            .unwrap();
        engine.complete(t1, bob, "").unwrap();
        assert_eq!(
            engine.tasks_in_state(doc, TaskState::Done).unwrap().len(),
            1
        );
        assert_eq!(
            engine
                .tasks_in_state(doc, TaskState::Pending)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(engine.tasks_of_doc(doc).unwrap().len(), 2);
    }

    #[test]
    fn overdue_tasks_sorted_by_lateness() {
        let (engine, alice, bob, doc) = setup();
        let tdb = engine.textdb().clone();
        let past1 = tdb.now();
        let past2 = tdb.now();
        let t_late = engine
            .define_task(
                doc,
                alice,
                TaskSpec::new("very late", Assignee::User(bob)).due(past1),
            )
            .unwrap();
        let t_later = engine
            .define_task(
                doc,
                alice,
                TaskSpec::new("late", Assignee::User(bob)).due(past2),
            )
            .unwrap();
        let _future = engine
            .define_task(
                doc,
                alice,
                TaskSpec::new("future", Assignee::User(bob)).due(i64::MAX),
            )
            .unwrap();
        let _no_due = engine
            .define_task(doc, alice, TaskSpec::new("whenever", Assignee::User(bob)))
            .unwrap();
        let overdue = engine.overdue_tasks(doc).unwrap();
        assert_eq!(
            overdue.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![t_late, t_later]
        );
        // Completed tasks stop being overdue.
        engine.complete(t_late, bob, "").unwrap();
        assert_eq!(engine.overdue_tasks(doc).unwrap().len(), 1);
    }

    #[test]
    fn task_anchored_to_document_range() {
        let (engine, alice, bob, doc) = setup();
        let tdb = engine.textdb().clone();
        let mut h = tdb.open(doc, alice).unwrap();
        h.insert_text(0, "please translate this sentence").unwrap();
        let from = h.char_at(7).unwrap();
        let to = h.char_at(15).unwrap();
        let task = engine
            .define_task(
                doc,
                alice,
                TaskSpec::new("translate", Assignee::User(bob)).range(from, to),
            )
            .unwrap();
        let t = engine.task(task).unwrap();
        assert_eq!(t.range, Some((from, to)));
        // The anchored span is findable in the live document.
        let span = (h.position_of(from).unwrap(), h.position_of(to).unwrap());
        assert_eq!(span, (7, 15));
    }
}
