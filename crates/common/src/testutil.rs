//! Test support: unique, self-cleaning temp directories.
//!
//! Several crates in the workspace exercise the out-of-core code paths by
//! writing matrix files under `std::env::temp_dir()`. Keying those paths
//! by `process::id()` alone makes reruns collide (same pid namespace in
//! containers) and leaks files on panic. [`TestDir`] gives every test its
//! own directory — pid + monotonic counter + a caller prefix — and removes
//! it on drop, including the unwind path of a failed assertion.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A uniquely named temp directory that is deleted when dropped.
///
/// # Examples
///
/// ```
/// use ats_common::TestDir;
/// let dir = TestDir::new("doctest");
/// let file = dir.path().join("data.bin");
/// std::fs::write(&file, b"hello").unwrap();
/// assert!(file.exists());
/// let kept = dir.path().to_path_buf();
/// drop(dir);
/// assert!(!kept.exists());
/// ```
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Create a fresh directory `<tmp>/<prefix>-<pid>-<seq>`.
    ///
    /// Panics if the directory cannot be created (tests want a loud
    /// failure, not a silent fallback).
    pub fn new(prefix: &str) -> Self {
        let seq = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{seq}", std::process::id()));
        // A leftover from a crashed run with the same pid+seq is stale by
        // construction; clear it so the test starts from nothing.
        if path.exists() {
            let _ = std::fs::remove_dir_all(&path);
        }
        // ats-lint: allow(no-panic) — test-only helper; tests want a loud failure, not a fallback
        std::fs::create_dir_all(&path).unwrap_or_else(|e| panic!("TestDir::new({prefix}): {e}"));
        TestDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Convenience: a file path inside the directory.
    pub fn file(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }

    /// Copy the regular files of the flat directory `src` into a fresh
    /// subdirectory `name` and return its path — a scratch copy of a
    /// committed fixture that a test may corrupt or append to.
    ///
    /// Panics on any I/O error, like [`TestDir::new`].
    pub fn copy_of(&self, src: impl AsRef<Path>, name: &str) -> PathBuf {
        let (src, dst) = (src.as_ref(), self.file(name));
        // ats-lint: allow(no-panic) — test-only helper; tests want a loud failure, not a fallback
        let fail = |e: std::io::Error| -> ! { panic!("TestDir::copy_of({}): {e}", src.display()) };
        std::fs::create_dir_all(&dst).unwrap_or_else(|e| fail(e));
        for entry in std::fs::read_dir(src).unwrap_or_else(|e| fail(e)) {
            let path = entry.unwrap_or_else(|e| fail(e)).path();
            if let (true, Some(file)) = (path.is_file(), path.file_name()) {
                std::fs::copy(&path, dst.join(file)).unwrap_or_else(|e| fail(e));
            }
        }
        dst
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_per_instance() {
        let a = TestDir::new("ats-testdir");
        let b = TestDir::new("ats-testdir");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        assert!(b.path().is_dir());
    }

    #[test]
    fn copy_of_copies_flat_files() {
        let dir = TestDir::new("ats-testdir-copy");
        std::fs::create_dir_all(dir.file("src/sub")).unwrap();
        std::fs::write(dir.file("src/a.bin"), b"abc").unwrap();
        let dst = dir.copy_of(dir.file("src"), "dst");
        assert_eq!(std::fs::read(dst.join("a.bin")).unwrap(), b"abc");
        assert!(!dst.join("sub").exists());
    }

    #[test]
    fn cleans_up_on_drop() {
        let dir = TestDir::new("ats-testdir-drop");
        let keep = dir.path().to_path_buf();
        std::fs::write(dir.file("f.txt"), b"x").unwrap();
        std::fs::create_dir_all(dir.path().join("nested/deep")).unwrap();
        drop(dir);
        assert!(!keep.exists());
    }
}
