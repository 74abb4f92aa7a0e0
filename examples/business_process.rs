//! Dynamic business processes inside a document.
//!
//! Reproduces the demo's workflow item: define tasks bound to parts of a
//! document, assign them to users and roles, and re-route them at run
//! time while the document is being edited.
//!
//! Run with: `cargo run --example business_process`

use tendax_core::{Assignee, Platform, TaskSpec, TaskState, Tendax};

fn main() -> tendax_core::Result<()> {
    let tx = Tendax::in_memory()?;
    let alice = tx.create_user("alice")?;
    let bob = tx.create_user("bob")?;
    let carol = tx.create_user("carol")?;
    let translators = tx.textdb().create_role("translators")?;
    tx.textdb().assign_role(carol, translators)?;

    let doc = tx.create_document("contract", alice)?;
    let session = tx.connect("alice", Platform::WindowsXp)?;
    let mut editor = session.open("contract")?;
    editor.type_text(0, "§1 Scope. §2 Liability. §3 Term.")?;

    // Anchor a task to "§2 Liability." — the anchor survives edits.
    let from = editor.handle().char_at(10).expect("char exists");
    let to = editor.handle().char_at(22).expect("char exists");

    let engine = tx.process();
    let draft = engine.define_task(
        doc,
        alice,
        TaskSpec::new("draft §2", Assignee::User(bob)).description("write the liability clause"),
    )?;
    let translate = engine.define_task(
        doc,
        alice,
        TaskSpec::new("translate §2", Assignee::Role(translators))
            .range(from, to)
            .after(draft),
    )?;

    println!("bob's inbox:   {:?}", names(&engine.inbox(bob)?));
    println!("carol's inbox: {:?}", names(&engine.inbox(carol)?)); // blocked by routing

    // Bob completes his task; the translation task becomes actionable.
    engine.complete(draft, bob, "clause drafted")?;
    println!(
        "after draft done, carol's inbox: {:?}",
        names(&engine.inbox(carol)?)
    );

    // Meanwhile the document changes — the task's anchored span moves.
    editor.type_text(0, ">>> ")?;
    let task = engine.task(translate)?;
    let (f, t) = task.range.expect("anchored");
    // One view: two alive at once would take the document's lock twice.
    let view = editor.handle();
    let span = (view.position_of(f), view.position_of(t));
    drop(view);
    println!(
        "task '{}' now anchored at visible span {:?}",
        task.name, span
    );

    // Dynamic re-routing at run time: carol hands the task to bob.
    engine.reassign(translate, carol, Assignee::User(bob))?;
    engine.complete(translate, bob, "übersetzt")?;

    for t in engine.tasks_of_doc(doc)? {
        println!(
            "task '{}': {:?} (completed by {:?})",
            t.name,
            t.state,
            t.completed_by.map(|u| u.0)
        );
        for e in engine.history(t.id)? {
            println!("    t={} user#{} {} {}", e.ts, e.user.0, e.action, e.note);
        }
    }
    assert_eq!(engine.tasks_in_state(doc, TaskState::Done)?.len(), 2);
    Ok(())
}

fn names(tasks: &[tendax_core::Task]) -> Vec<&str> {
    tasks.iter().map(|t| t.name.as_str()).collect()
}
