//! Clustering / vector-quantization compression (§2.2).
//!
//! The paper's clustering baseline stores `k` cluster representatives
//! (centroids) plus, per customer, the index of its cluster — so a cell
//! is reconstructed as "find the cluster-representative for the `i`-th
//! customer, and return its `j`-th entry". Storage is
//! `k·M + N` numbers.
//!
//! The clusters come from [`hierarchical_complete`]: agglomerative
//! hierarchical clustering with **complete linkage** ("the
//! 'element-to-cluster' distance function to be the maximum distance
//! between the element and the members of the cluster", §2.2),
//! implemented with the nearest-neighbour-chain algorithm and the
//! Lance–Williams update, so it is `O(N²)` time / `O(N²)` memory —
//! faithful to the paper's quadratic 'S'-package method, including its
//! inability to scale (§5.3 notes it gave up beyond N = 3000). It is a
//! baseline for the Fig. 6 comparison (`exp_fig6`), not a store method:
//! a [`ClusterCompressed`] lives in memory only.

use crate::method::{CompressedMatrix, SpaceBudget, BYTES_PER_NUMBER};
use ats_common::{AtsError, Result};
use ats_linalg::{vecops, Matrix};

/// Guard rail mirroring the paper's observation that the quadratic
/// hierarchical method stops being practical: refuse pathological sizes.
const HIERARCHICAL_MAX_N: usize = 20_000;

/// Squared Euclidean distance between two rows (shared with the test
/// oracle).
#[cfg(test)]
pub(crate) fn super_dist(x: &Matrix, a: u32, b: u32) -> f64 {
    vecops::dist2_sq(x.row(a as usize), x.row(b as usize))
}

/// One dendrogram merge: the two cluster *slots* joined and the complete-
/// linkage height (squared Euclidean) at which they joined.
#[derive(Debug, Clone, Copy)]
struct Merge {
    a: u32,
    b: u32,
    height: f64,
}

/// Build the full complete-linkage dendrogram with the nearest-neighbour-
/// chain algorithm: `O(N²)` time, `O(N²)` memory.
///
/// NN-chain emits merges in **non-monotone order** (it finds reciprocal
/// nearest neighbours locally), so the caller must sort by height before
/// cutting — complete linkage is monotone (no inversions), so the sorted
/// sequence is exactly the greedy agglomeration order.
fn nn_chain_dendrogram(x: &Matrix) -> Result<Vec<Merge>> {
    let n = x.rows();
    // Distance matrix (squared Euclidean — complete linkage only compares
    // distances, so squaring is harmless and saves N² square roots).
    let mut dist = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = vecops::dist2_sq(x.row(i), x.row(j));
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }

    let mut active: Vec<bool> = vec![true; n];
    let mut merges: Vec<Merge> = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    while merges.len() + 1 < n {
        if chain.is_empty() {
            let start = active
                .iter()
                .position(|&a| a)
                .ok_or_else(|| AtsError::internal("nn-chain: no active cluster remains"))?;
            chain.push(start);
        }
        loop {
            let Some(&top) = chain.last() else {
                return Err(AtsError::internal("nn-chain: chain emptied mid-walk"));
            };
            // nearest active neighbour of `top`
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for c in 0..n {
                if c != top && active[c] {
                    let d = dist[top * n + c];
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
            }
            debug_assert_ne!(best, usize::MAX);
            if chain.len() >= 2 && chain[chain.len() - 2] == best {
                // Reciprocal nearest neighbours: merge `top` and `best`.
                chain.pop();
                chain.pop();
                let (a, b) = (top.min(best), top.max(best));
                // Lance–Williams for complete linkage: d(ab, c) = max.
                for c in 0..n {
                    if c != a && c != b && active[c] {
                        let d = dist[a * n + c].max(dist[b * n + c]);
                        dist[a * n + c] = d;
                        dist[c * n + a] = d;
                    }
                }
                active[b] = false;
                merges.push(Merge {
                    a: a as u32,
                    b: b as u32,
                    height: best_d,
                });
                break;
            }
            chain.push(best);
        }
    }
    Ok(merges)
}

/// Agglomerative complete-linkage clustering, cut at `k` clusters.
/// Returns per-row cluster assignments in `0..k`.
pub fn hierarchical_complete(x: &Matrix, k: usize) -> Result<Vec<u32>> {
    let n = x.rows();
    if k == 0 || k > n {
        return Err(AtsError::InvalidArgument(format!(
            "cluster count k={k} must be in 1..={n}"
        )));
    }
    if n > HIERARCHICAL_MAX_N {
        return Err(AtsError::InvalidArgument(format!(
            "hierarchical clustering is O(N²); N={n} exceeds the {HIERARCHICAL_MAX_N} guard \
             (the paper's §5.3 scale-up failure, reproduced)"
        )));
    }
    if k == n {
        return Ok((0..n as u32).collect());
    }

    let mut merges = nn_chain_dendrogram(x)?;
    // Cut the dendrogram: apply the n−k lowest merges. Stable sort keeps
    // a child merge before its equal-height parent (NN-chain necessarily
    // records children first), so the replay is always consistent.
    merges.sort_by(|p, q| {
        p.height
            .partial_cmp(&q.height)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Union-find replay.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut i: u32) -> u32 {
        while parent[i as usize] != i {
            parent[i as usize] = parent[parent[i as usize] as usize]; // halve
            i = parent[i as usize];
        }
        i
    }
    for m in merges.iter().take(n - k) {
        let ra = find(&mut parent, m.a);
        let rb = find(&mut parent, m.b);
        parent[rb.max(ra) as usize] = rb.min(ra);
    }

    // Compact root labels to 0..k in first-appearance order.
    let mut label_of_root: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut assignment = vec![0u32; n];
    for i in 0..n as u32 {
        let root = find(&mut parent, i);
        let next = label_of_root.len() as u32;
        let label = *label_of_root.entry(root).or_insert(next);
        assignment[i as usize] = label;
    }
    debug_assert_eq!(label_of_root.len(), k);
    Ok(assignment)
}

/// A matrix compressed by vector quantization: `k` centroids + an
/// assignment array.
#[derive(Debug, Clone)]
pub struct ClusterCompressed {
    centroids: Matrix,
    assignment: Vec<u32>,
    m: usize,
}

impl ClusterCompressed {
    /// Cluster `x` into `k` complete-linkage clusters and store centroids
    /// as representatives.
    ///
    /// Clustering needs all pairwise geometry, so this method takes the
    /// matrix in memory — mirroring the paper, where clustering is the
    /// one method that could not stream (§5.3).
    pub fn compress(x: &Matrix, k: usize) -> Result<Self> {
        let assignment = hierarchical_complete(x, k)?;
        let m = x.cols();
        let mut centroids = Matrix::zeros(k, m);
        let mut counts = vec![0usize; k];
        for (i, &a) in assignment.iter().enumerate() {
            let c = a as usize;
            counts[c] += 1;
            vecops::add_assign(centroids.row_mut(c), x.row(i));
        }
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                vecops::scale(centroids.row_mut(c), 1.0 / count as f64);
            }
        }
        Ok(ClusterCompressed {
            centroids,
            assignment,
            m,
        })
    }

    /// Compress at a space budget: the largest `k` with
    /// `(k·M + N)·b ≤ budget`.
    pub fn compress_budget(x: &Matrix, budget: SpaceBudget) -> Result<Self> {
        let k = budget.max_clusters(x.rows(), x.cols());
        if k == 0 {
            return Err(AtsError::Budget(format!(
                "budget {:.3}% cannot hold the assignment array plus one centroid",
                budget.fraction * 100.0
            )));
        }
        Self::compress(x, k)
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Cluster assignment of each row.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The centroid ("cluster representative") matrix.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }
}

impl CompressedMatrix for ClusterCompressed {
    fn rows(&self) -> usize {
        self.assignment.len()
    }

    fn cols(&self) -> usize {
        self.m
    }

    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows() {
            return Err(AtsError::oob("row", i, self.rows()));
        }
        if j >= self.m {
            return Err(AtsError::oob("column", j, self.m));
        }
        Ok(self.centroids[(self.assignment[i] as usize, j)])
    }

    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if i >= self.rows() {
            return Err(AtsError::oob("row", i, self.rows()));
        }
        if out.len() != self.m {
            return Err(AtsError::dims(
                "ClusterCompressed::row_into",
                (1, out.len()),
                (1, self.m),
            ));
        }
        out.copy_from_slice(self.centroids.row(self.assignment[i] as usize));
        Ok(())
    }

    /// §5.1: `(b·k·M) + (N·b)` bytes.
    fn storage_bytes(&self) -> usize {
        (self.k() * self.m + self.rows()) * BYTES_PER_NUMBER
    }

    fn method_name(&self) -> &'static str {
        "cluster"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Three well-separated blobs of 2-d points.
    fn blobs() -> (Matrix, Vec<usize>) {
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 8.0)];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..20 {
                rows.push(vec![
                    cx + rng.gen_range(-0.5..0.5),
                    cy + rng.gen_range(-0.5..0.5),
                ]);
                truth.push(c);
            }
        }
        (Matrix::from_rows(rows).unwrap(), truth)
    }

    fn clusters_match_truth(assign: &[u32], truth: &[usize], k: usize) -> bool {
        // every truth-cluster maps to exactly one assigned label
        for c in 0..k {
            let labels: std::collections::HashSet<u32> = truth
                .iter()
                .zip(assign)
                .filter(|(&t, _)| t == c)
                .map(|(_, &a)| a)
                .collect();
            if labels.len() != 1 {
                return false;
            }
        }
        true
    }

    #[test]
    fn hierarchical_recovers_blobs() {
        let (x, truth) = blobs();
        let assign = hierarchical_complete(&x, 3).unwrap();
        assert!(clusters_match_truth(&assign, &truth, 3));
    }

    #[test]
    fn hierarchical_k_equals_n_is_identity() {
        let (x, _) = blobs();
        let assign = hierarchical_complete(&x, x.rows()).unwrap();
        let unique: std::collections::HashSet<u32> = assign.iter().copied().collect();
        assert_eq!(unique.len(), x.rows());
    }

    #[test]
    fn hierarchical_k_one_merges_everything() {
        let (x, _) = blobs();
        let assign = hierarchical_complete(&x, 1).unwrap();
        assert!(assign.iter().all(|&a| a == 0));
    }

    #[test]
    fn invalid_k_rejected() {
        let (x, _) = blobs();
        assert!(hierarchical_complete(&x, 0).is_err());
        assert!(hierarchical_complete(&x, x.rows() + 1).is_err());
    }

    #[test]
    fn scale_guard_matches_paper_limitation() {
        let big = Matrix::zeros(HIERARCHICAL_MAX_N + 1, 2);
        assert!(hierarchical_complete(&big, 2).is_err());
    }

    #[test]
    fn compressed_cells_are_centroids() {
        let (x, _) = blobs();
        let c = ClusterCompressed::compress(&x, 3).unwrap();
        // reconstruction error is small because blobs are tight
        let mut row = vec![0.0; 2];
        for i in 0..x.rows() {
            c.row_into(i, &mut row).unwrap();
            for (a, b) in row.iter().zip(x.row(i)) {
                assert!((a - b).abs() < 1.2, "row {i}: {a} vs {b}");
            }
        }
        assert_eq!(c.k(), 3);
        assert_eq!(c.method_name(), "cluster");
    }

    #[test]
    fn centroid_is_member_mean() {
        let x =
            Matrix::from_rows(vec![vec![0.0, 0.0], vec![2.0, 2.0], vec![100.0, 100.0]]).unwrap();
        let c = ClusterCompressed::compress(&x, 2).unwrap();
        // the two nearby points share a cluster; its centroid is (1, 1)
        let a0 = c.assignment()[0];
        assert_eq!(a0, c.assignment()[1]);
        assert_ne!(a0, c.assignment()[2]);
        assert!((c.cell(0, 0).unwrap() - 1.0).abs() < 1e-12);
        assert!((c.cell(2, 1).unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn storage_formula() {
        let (x, _) = blobs();
        let c = ClusterCompressed::compress(&x, 3).unwrap();
        assert_eq!(c.storage_bytes(), (3 * 2 + 60) * 8);
    }

    #[test]
    fn budget_constructor() {
        let (x, _) = blobs();
        let b = SpaceBudget::from_percent(60.0);
        let c = ClusterCompressed::compress_budget(&x, b).unwrap();
        assert!(c.storage_bytes() <= b.bytes(60, 2));
        assert!(ClusterCompressed::compress_budget(&x, SpaceBudget { fraction: 0.01 }).is_err());
    }

    /// Greedy O(N³) complete linkage — an independently-written oracle.
    fn naive_complete(x: &Matrix, k: usize) -> Vec<Vec<u32>> {
        let n = x.rows();
        let mut clusters: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
        while clusters.len() > k {
            let mut best = (0usize, 1usize);
            let mut bd = f64::INFINITY;
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    let mut mx = 0.0f64;
                    for &a in &clusters[i] {
                        for &b in &clusters[j] {
                            mx = mx.max(crate::cluster::super_dist(x, a, b));
                        }
                    }
                    if mx < bd {
                        bd = mx;
                        best = (i, j);
                    }
                }
            }
            let merged = clusters.remove(best.1);
            clusters[best.0].extend(merged);
        }
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort();
        clusters
    }

    fn groups_from_assign(assign: &[u32], k: usize) -> Vec<Vec<u32>> {
        let mut c = vec![Vec::new(); k];
        for (i, &a) in assign.iter().enumerate() {
            c[a as usize].push(i as u32);
        }
        for g in &mut c {
            g.sort_unstable();
        }
        c.sort();
        c
    }

    #[test]
    fn nn_chain_matches_greedy_oracle() {
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(5..20);
            let x = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-5.0..5.0));
            for k in 1..=n.min(5) {
                let fast = groups_from_assign(&hierarchical_complete(&x, k).unwrap(), k);
                let slow = naive_complete(&x, k);
                assert_eq!(fast, slow, "seed={seed} n={n} k={k}");
            }
        }
    }
}
