//! Test support: unique, self-cleaning temp directories, and the store
//! layouts every layout-sensitive test runs over.
//!
//! Several crates in the workspace exercise the out-of-core code paths by
//! writing matrix files under `std::env::temp_dir()`. Keying those paths
//! by `process::id()` alone makes reruns collide (same pid namespace in
//! containers) and leaks files on panic. [`TestDir`] gives every test its
//! own directory — pid + monotonic counter + a caller prefix — and removes
//! it on drop, including the unwind path of a failed assertion.
//!
//! A store's layout (row-range shards × time blocks) and an engine's
//! zone-map pruning are arguments, never ambient state: a test that
//! must hold under every layout says so by looping over [`LAYOUTS`], or
//! over [`for_each_layout`] when its answers also pass through a
//! `where` scan.
//!
//! [`jacobi_svd`] is the SVD the production Gram route is checked
//! against: it takes a different route, so it can disagree.

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

/// One on-disk store layout: the builder's row-range shard count and
/// time-block count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Short name for failure messages.
    pub name: &'static str,
    /// Row-range shards (`StoreBuilder::shards`).
    pub shards: usize,
    /// Column (time) blocks (`StoreBuilder::time_blocks`).
    pub time_blocks: usize,
}

/// The layouts a layout-sensitive test must hold under: the single
/// decomposition (v3, one shard), row sharding alone, time blocking
/// alone (v4), and both at once.
pub const LAYOUTS: [Layout; 4] = [
    Layout {
        name: "mono",
        shards: 1,
        time_blocks: 1,
    },
    Layout {
        name: "4 shards",
        shards: 4,
        time_blocks: 1,
    },
    Layout {
        name: "4 time blocks",
        shards: 1,
        time_blocks: 4,
    },
    Layout {
        name: "3 shards x 4 time blocks",
        shards: 3,
        time_blocks: 4,
    },
];

/// Run `case` once per layout in [`LAYOUTS`] × zone-map pruning {on,
/// off} (the argument an engine takes through `with_synopsis`). A
/// failing case names its layout and pruning setting on stderr before
/// the panic unwinds out of the loop.
pub fn for_each_layout(mut case: impl FnMut(Layout, bool)) {
    /// Reports the running case if it panics.
    struct Running(Layout, bool);
    impl Drop for Running {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let pruning = if self.1 { "on" } else { "off" };
                eprintln!("failing case: layout {}, pruning {pruning}", self.0.name);
            }
        }
    }
    for layout in LAYOUTS {
        for synopsis in [true, false] {
            let _running = Running(layout, synopsis);
            case(layout, synopsis);
        }
    }
}

/// Sweeps [`jacobi_svd`] may take; a small test matrix needs under ten.
const MAX_JACOBI_SWEEPS: usize = 64;

/// The SVD of the row-major `rows × cols` matrix `x` by one-sided
/// (Hestenes) Jacobi: plane rotations orthogonalize the columns of `X`
/// itself until every pair is orthogonal to working precision, so `XᵀX`
/// is never formed and a small singular value is not buried under the
/// `eps·σ₁²` error the Gram route's eigenvalues carry. `O(rows·cols²)`
/// per sweep: a test oracle for small matrices, not a production path.
///
/// Returns the `cols` singular values, descending, and `V` as a
/// row-major `cols × cols` matrix whose column `j` is the right singular
/// vector of `σ[j]`. Panics if `x` is not `rows × cols` or the sweeps do
/// not converge.
///
/// # Examples
///
/// ```
/// use ats_common::testutil::jacobi_svd;
/// let (sigma, v) = jacobi_svd(&[3.0, 0.0, 0.0, -4.0], 2, 2);
/// assert_eq!(sigma, vec![4.0, 3.0]);
/// assert_eq!(v[1].abs(), 1.0); // σ = 4 lies along the second column
/// ```
pub fn jacobi_svd(x: &[f64], rows: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(x.len(), rows * cols, "jacobi_svd: shape {rows} × {cols}");
    // Column-major working copies: column j of A is a[j·rows..], of V is v[j·cols..].
    let mut a: Vec<f64> = (0..cols)
        .flat_map(|j| x.iter().skip(j).step_by(cols).copied())
        .collect();
    let mut v: Vec<f64> = (0..cols * cols)
        .map(|e| if e % (cols + 1) == 0 { 1.0 } else { 0.0 })
        .collect();
    let col = |len: usize, j: usize| j * len..(j + 1) * len;
    let dot = |s: &[f64], t: &[f64]| s.iter().zip(t).map(|(p, q)| p * q).sum::<f64>();
    // A computed inner product carries up to `rows·eps` relative error,
    // so a pair whose cosine is below `tol` counts as orthogonal.
    // A column below `floor` is rounding residue, numerically zero: with
    // more columns than rows such residue can never be orthogonal to the
    // rest, so rotating it would never converge.
    let tol = f64::EPSILON * rows as f64;
    let floor = (tol * cols as f64).powi(2) * dot(x, x);
    let mut converged = false;
    for _ in 0..MAX_JACOBI_SWEEPS {
        converged = true;
        for p in 0..cols {
            for q in p + 1..cols {
                let (ap, aq) = (&a[col(rows, p)], &a[col(rows, q)]);
                let (alpha, beta, gamma) = (dot(ap, ap), dot(aq, aq), dot(ap, aq));
                if gamma.abs() <= tol * (alpha * beta).sqrt() || alpha.min(beta) <= floor {
                    continue;
                }
                converged = false;
                // The rotation that zeroes the pair's inner product.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                rotate(&mut a, rows, p, q, c, c * t);
                rotate(&mut v, cols, p, q, c, c * t);
            }
        }
        if converged {
            break;
        }
    }
    assert!(
        converged,
        "jacobi_svd: no convergence in {MAX_JACOBI_SWEEPS} sweeps"
    );
    let norms: Vec<f64> = (0..cols)
        .map(|j| dot(&a[col(rows, j)], &a[col(rows, j)]).sqrt())
        .collect();
    let mut order: Vec<usize> = (0..cols).collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));
    let sigma = order.iter().map(|&j| norms[j]).collect();
    let v_rows = (0..cols)
        .flat_map(|r| order.iter().map(|&j| v[j * cols + r]).collect::<Vec<_>>())
        .collect();
    (sigma, v_rows)
}

/// Rotate columns `p < q` of the column-major `m` (columns of `len`):
/// `(m_p, m_q) ← (c·m_p − s·m_q, s·m_p + c·m_q)`.
fn rotate(m: &mut [f64], len: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = m.split_at_mut(q * len);
    for (xp, xq) in head[p * len..(p + 1) * len]
        .iter_mut()
        .zip(&mut tail[..len])
    {
        let (mp, mq) = (*xp, *xq);
        *xp = c * mp - s * mq;
        *xq = s * mp + c * mq;
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
    fn jacobi_svd_diagonalizes() {
        // V is orthogonal and X V has orthogonal columns of norms σ.
        let (n, m) = (9, 4);
        let x: Vec<f64> = (0..n * m)
            .map(|e| (e * 7 % 11) as f64 / 3.0 - 1.5)
            .collect();
        let (sigma, v) = jacobi_svd(&x, n, m);
        assert!(sigma.windows(2).all(|w| w[0] >= w[1]));
        let xv = |i: usize, j: usize| (0..m).map(|l| x[i * m + l] * v[l * m + j]).sum::<f64>();
        for p in 0..m {
            for q in 0..m {
                let want = if p == q { 1.0 } else { 0.0 };
                let vtv: f64 = (0..m).map(|l| v[l * m + p] * v[l * m + q]).sum();
                let g: f64 = (0..n).map(|i| xv(i, p) * xv(i, q)).sum();
                assert!((vtv - want).abs() < 1e-14, "VᵀV[{p}][{q}] = {vtv}");
                assert!((g - want * sigma[p] * sigma[p]).abs() < 1e-12 * sigma[0] * sigma[0]);
            }
        }
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
