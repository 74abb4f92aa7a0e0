//! The word-processing "LAN-party": the EDBT 2006 demo, headless.
//!
//! Editors on three platforms edit one document concurrently (real
//! threads), apply layout, set access rights, and use local & global
//! undo — all as database transactions, on the server's one copy of the
//! document, which every editor reads. (Editors across a real network:
//! `cargo run --example collab_tcp`.)
//!
//! Run with: `cargo run --example lan_party`

use tendax_core::{Permission, Platform, Principal, Tendax};

fn main() -> tendax_core::Result<()> {
    let tx = Tendax::in_memory()?;
    let alice = tx.create_user("alice")?;
    tx.create_user("bob")?;
    tx.create_user("carol")?;
    tx.create_document("party", alice)?;

    // --- Concurrent editing from three "machines" ---------------------
    let mut threads = Vec::new();
    for (name, platform) in [
        ("alice", Platform::WindowsXp),
        ("bob", Platform::Linux),
        ("carol", Platform::MacOsX),
    ] {
        let tx = tx.clone();
        threads.push(std::thread::spawn(move || -> tendax_core::Result<()> {
            let session = tx.connect(name, platform.clone())?;
            let mut doc = session.open("party")?;
            for i in 0..10 {
                doc.sync();
                let pos = (i * 7 + name.len()) % (doc.len() + 1);
                doc.type_text(pos, &name[..1].to_uppercase())?;
            }
            println!("[{platform}] {name} finished typing");
            Ok(())
        }));
    }
    for t in threads {
        t.join().expect("editor thread panicked")?;
    }

    let session = tx.connect("alice", Platform::WindowsXp)?;
    let mut doc = session.open("party")?;
    println!("converged text ({} chars): {}", doc.len(), doc.text());
    assert_eq!(doc.len(), 30);

    // --- Collaborative layout ------------------------------------------
    let heading = tx.textdb().define_style("heading", "bold;size=18", alice)?;
    doc.apply_style(0, 5, heading)?;
    println!("style runs: {:?}", doc.handle().style_runs().len());

    // --- Awareness ------------------------------------------------------
    for p in tx.server().who_is_online() {
        println!(
            "online: {} on {} (cursor {:?})",
            p.user_name, p.platform, p.cursor
        );
    }

    // --- Access rights ---------------------------------------------------
    tx.textdb().set_access(
        doc.doc(),
        alice,
        Principal::User(alice),
        Permission::Write,
        true,
    )?;
    let sb = tx.connect("bob", Platform::Linux)?;
    let mut bob_doc = sb.open("party")?;
    match bob_doc.type_text(0, "blocked") {
        Err(e) => println!("bob now blocked as expected: {e}"),
        Ok(_) => unreachable!("write should be denied"),
    }

    // --- Local vs global undo -------------------------------------------
    doc.undo()?; // alice undoes her style op? No: her last edit op (style)
    println!(
        "after alice's local undo, style runs: {:?}",
        doc.handle().style_runs().len()
    );
    doc.global_undo()?; // newest edit by anyone
    println!("after global undo ({} chars): {}", doc.len(), doc.text());
    Ok(())
}
