//! Shared helpers for the storage integration tests.
#![allow(dead_code)] // each test binary uses a subset of these helpers

pub mod alloc;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A scoped temp directory: created unique on `new`, removed (with all
/// contents) on drop. Every integration test that needs an on-disk WAL
/// goes through this guard so test runs stop leaking per-pid dirs under
/// `/tmp`. Keep the guard alive for as long as the paths it handed out
/// are in use.
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    pub fn new(prefix: &str) -> TestDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TestDir { path }
    }

    /// A path for `name` inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The options the suites open their databases with: the defaults, plus
/// the cold tier when `TENDAX_COLD` is `1`/`true`/`on`. This is the CI
/// matrix's one switch — `scripts/check.sh` and `ci_seed_sweep.sh` run
/// the suites that go through here a second time with it set, so both
/// storage tiers get the same crash and commit coverage.
pub fn options() -> tendax_storage::Options {
    let cold = std::env::var("TENDAX_COLD").is_ok_and(|v| matches!(v.trim(), "1" | "true" | "on"));
    tendax_storage::Options {
        cold_storage: cold.then(tendax_storage::ColdOptions::default),
        ..Default::default()
    }
}
