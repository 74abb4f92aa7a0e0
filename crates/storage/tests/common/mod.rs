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
