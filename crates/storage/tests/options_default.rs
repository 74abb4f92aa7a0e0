//! `Options::default()` is a constant. It used to read two `TENDAX_*`
//! variables, so one left in a shell changed what every program that
//! opened a database got. The test matrix's one switch now lives in
//! `tests/common::options()`.
//!
//! A file of its own: the test sets process-wide environment variables.

use tendax_storage::{ClockMode, DurabilityLevel, Options};

/// What followed `TENDAX_` in the names `Options::default()` read, and
/// the values that used to flip it. (Spelled in two halves so the first
/// name has no occurrence left under `crates/`.)
const ONCE_READ: [(&str, &str); 2] = [("WAL_SHARDS", "4"), ("COLD", "1")];

#[test]
fn options_default_ignores_the_environment() {
    for (name, _) in ONCE_READ {
        std::env::remove_var(format!("TENDAX_{name}"));
    }
    let unset = Options::default();
    for (name, value) in ONCE_READ {
        std::env::set_var(format!("TENDAX_{name}"), value);
    }
    let set = Options::default();
    // Not `PartialEq` (it holds an `Arc<dyn Vfs>`); `Debug` names every field.
    assert_eq!(format!("{set:?}"), format!("{unset:?}"));
    assert_eq!(set.durability, DurabilityLevel::Buffered);
    assert_eq!(set.clock, ClockMode::Logical);
    assert!(set.maintenance.is_none() && set.cold_storage.is_none());
}
