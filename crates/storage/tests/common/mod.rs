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

/// A step of a [`HookVfs`]'s caller: a file created, or written through
/// the handle its creation returned.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    Create(&'a Path),
    Write(&'a Path),
}

impl Step<'_> {
    /// Whether this step creates or writes a file whose name ends with
    /// `suffix` (a checkpoint's base is written as `<path>.tmp`).
    pub fn on(&self, suffix: &str) -> bool {
        let (Step::Create(path) | Step::Write(path)) = self;
        path.to_string_lossy().ends_with(suffix)
    }
}

type Hook = std::sync::Arc<dyn Fn(Step<'_>) + Send + Sync>;

/// A [`Vfs`](tendax_storage::vfs::Vfs) that runs a hook before each
/// `create` and each write through a created file, then does what it
/// wraps. Log handles (`open_log`) are the wrapped backend's own. Tests
/// use it to act at a checkpoint's steps: commit while it writes its
/// base, hold that write, or fail the sync behind it.
pub struct HookVfs {
    inner: std::sync::Arc<dyn tendax_storage::vfs::Vfs>,
    hook: Hook,
}

impl HookVfs {
    pub fn new(
        inner: impl tendax_storage::vfs::Vfs + 'static,
        hook: impl Fn(Step<'_>) + Send + Sync + 'static,
    ) -> HookVfs {
        HookVfs {
            inner: std::sync::Arc::new(inner),
            hook: std::sync::Arc::new(hook),
        }
    }
}

impl std::fmt::Debug for HookVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookVfs")
            .field("inner", &self.inner)
            .finish()
    }
}

struct HookFile {
    inner: Box<dyn tendax_storage::vfs::VfsFile>,
    path: PathBuf,
    hook: Hook,
}

impl std::fmt::Debug for HookFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookFile")
            .field("path", &self.path)
            .finish()
    }
}

impl tendax_storage::vfs::VfsFile for HookFile {
    fn write_all(&mut self, buf: &[u8]) -> tendax_storage::Result<()> {
        (self.hook)(Step::Write(&self.path));
        self.inner.write_all(buf)
    }

    fn flush(&mut self) -> tendax_storage::Result<()> {
        self.inner.flush()
    }

    fn sync_data(&mut self) -> tendax_storage::Result<()> {
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> tendax_storage::Result<()> {
        self.inner.sync_all()
    }
}

impl tendax_storage::vfs::Vfs for HookVfs {
    fn open_log(
        &self,
        path: &Path,
    ) -> tendax_storage::Result<Box<dyn tendax_storage::vfs::VfsLog>> {
        self.inner.open_log(path)
    }

    fn create(&self, path: &Path) -> tendax_storage::Result<Box<dyn tendax_storage::vfs::VfsFile>> {
        (self.hook)(Step::Create(path));
        Ok(Box::new(HookFile {
            inner: self.inner.create(path)?,
            path: path.to_path_buf(),
            hook: self.hook.clone(),
        }))
    }

    fn read(&self, path: &Path) -> tendax_storage::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> tendax_storage::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> tendax_storage::Result<()> {
        self.inner.remove(path)
    }

    fn sync_dir(&self, path: &Path) -> tendax_storage::Result<()> {
        self.inner.sync_dir(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> tendax_storage::Result<Vec<u8>> {
        self.inner.read_range(path, offset, len)
    }

    fn file_len(&self, path: &Path) -> tendax_storage::Result<u64> {
        self.inner.file_len(path)
    }
}
