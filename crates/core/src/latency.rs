//! Pairwise communication-latency matrices.
//!
//! The model assumes the latency `c_{ij}` of relaying a single request
//! between servers `i` and `j` is a constant that does not depend on the
//! exchanged volume (validated by the paper's PlanetLab experiment, which
//! `dlb-netsim` recreates). `c_{ii} = 0` always. An entry of
//! `f64::INFINITY` encodes "organization `i` may not relay to `j`"
//! (the trust-restricted variant from §II).
//!
//! Storage is adaptive: the paper's homogeneous network (`c_{ij} = c`)
//! is held as a single scalar — `O(1)` memory instead of the dense
//! `m²` table, which at the 100 000-server scale the event runtime
//! targets would be an 80 GB allocation. Heterogeneous generators get
//! the dense representation the moment they write a non-uniform entry.
//! Clones share the dense table (a run's executor and engine each hold
//! the instance they were handed); a write to a shared table copies it
//! first.

use std::sync::Arc;

/// An `m × m` matrix of pairwise communication latencies in
/// milliseconds.
///
/// The matrix is not required to be symmetric (real RTT measurements are
/// mildly asymmetric) but must have a zero diagonal and non-negative
/// entries. Equality is semantic (entry-wise), independent of the
/// internal representation.
#[derive(Debug, Clone)]
pub struct LatencyMatrix {
    m: usize,
    storage: Storage,
}

#[derive(Debug, Clone)]
enum Storage {
    /// Row-major `m * m` entries, shared by clones: `set` and
    /// `metric_close` copy the table before writing to a shared one.
    Dense(Arc<Vec<f64>>),
    /// `c_{ij} = c` for every `i ≠ j`, zero diagonal. Covers both the
    /// paper's homogeneous network and the degenerate single-site
    /// (all-zero) network without materializing `m²` floats.
    Homogeneous(f64),
}

impl LatencyMatrix {
    /// Builds a latency matrix from row-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != m * m`, a diagonal entry is non-zero,
    /// or any entry is negative / NaN.
    pub fn from_rows(m: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), m * m, "latency data must be m*m");
        for i in 0..m {
            assert_eq!(data[i * m + i], 0.0, "diagonal latency must be zero");
        }
        for (idx, &v) in data.iter().enumerate() {
            assert!(
                v >= 0.0,
                "latency must be non-negative (entry {idx} is {v})"
            );
        }
        Self {
            m,
            storage: Storage::Dense(Arc::new(data)),
        }
    }

    /// A fully connected homogeneous network: `c_{ij} = c` for all
    /// `i ≠ j` (the paper's `c_{ij} = 20` configuration). `O(1)` memory
    /// for any `m`.
    pub fn homogeneous(m: usize, c: f64) -> Self {
        assert!(c >= 0.0, "latency must be non-negative");
        Self {
            m,
            storage: Storage::Homogeneous(c),
        }
    }

    /// The degenerate single-site network (all latencies zero): classic
    /// delay-oblivious load balancing.
    pub fn zero(m: usize) -> Self {
        Self {
            m,
            storage: Storage::Homogeneous(0.0),
        }
    }

    /// Number of servers.
    #[inline]
    pub fn len(&self) -> usize {
        self.m
    }

    /// Returns `true` for the empty (0-server) matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// When every off-diagonal entry is the *same* constant `c` (and the
    /// matrix is stored compactly as such), returns `Some(c)`.
    ///
    /// This is a representation query, not an `O(m²)` content scan: a
    /// dense matrix that happens to be uniform returns `None`. Callers
    /// use it to pick `O(k)` fast paths (e.g. nearest-`k` candidate
    /// construction) that would otherwise scan full rows.
    #[inline]
    pub fn homogeneous_value(&self) -> Option<f64> {
        match self.storage {
            Storage::Homogeneous(c) => Some(c),
            Storage::Dense(_) => None,
        }
    }

    /// The contiguous row `c_{i·}` of a densely stored matrix (entry `j`
    /// is `c_{ij}`, the diagonal included), or `None` for the compact
    /// homogeneous storage — the complement of
    /// [`Self::homogeneous_value`]. Lets a scan over `j` resolve the
    /// representation once per row instead of once per entry.
    #[inline]
    pub fn row(&self, i: usize) -> Option<&[f64]> {
        match &self.storage {
            Storage::Dense(data) => Some(&data[i * self.m..(i + 1) * self.m]),
            Storage::Homogeneous(_) => None,
        }
    }

    /// Latency from server `i` to server `j` in ms.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.m && j < self.m);
        match &self.storage {
            Storage::Dense(data) => data[i * self.m + j],
            Storage::Homogeneous(c) => {
                if i == j {
                    0.0
                } else {
                    *c
                }
            }
        }
    }

    /// Mutable access used by topology generators.
    ///
    /// A compactly stored homogeneous matrix densifies on the first
    /// write that breaks uniformity (generators only do this at
    /// generator scale, never on the 100k fast path). A dense table a
    /// clone shares is copied first; even an unshared one pays an
    /// atomic check per call, so a generator filling every entry builds
    /// its rows and calls [`Self::from_rows`].
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(value >= 0.0, "latency must be non-negative");
        assert!(i != j || value == 0.0, "diagonal latency must stay zero");
        if let Storage::Homogeneous(c) = self.storage {
            if i == j || value == c {
                return; // still uniform, nothing to store
            }
            self.densify();
        }
        match &mut self.storage {
            Storage::Dense(data) => Arc::make_mut(data)[i * self.m + j] = value,
            Storage::Homogeneous(_) => unreachable!("densified above"),
        }
    }

    /// Materializes the dense representation (no-op when already dense).
    fn densify(&mut self) {
        if let Storage::Homogeneous(c) = self.storage {
            let mut data = vec![c; self.m * self.m];
            for i in 0..self.m {
                data[i * self.m + i] = 0.0;
            }
            self.storage = Storage::Dense(Arc::new(data));
        }
    }

    /// Mean off-diagonal finite latency; `0` for `m < 2`.
    pub fn mean_latency(&self) -> f64 {
        match &self.storage {
            Storage::Homogeneous(c) => {
                if self.m >= 2 && c.is_finite() {
                    *c
                } else {
                    0.0
                }
            }
            Storage::Dense(data) => {
                let mut sum = 0.0;
                let mut count = 0usize;
                for i in 0..self.m {
                    for j in 0..self.m {
                        if i != j && data[i * self.m + j].is_finite() {
                            sum += data[i * self.m + j];
                            count += 1;
                        }
                    }
                }
                if count == 0 {
                    0.0
                } else {
                    sum / count as f64
                }
            }
        }
    }

    /// Largest finite off-diagonal latency (0 when none).
    pub fn max_latency(&self) -> f64 {
        match &self.storage {
            Storage::Homogeneous(c) => {
                if self.m >= 2 && c.is_finite() {
                    *c
                } else {
                    0.0
                }
            }
            Storage::Dense(data) => data
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(0.0, f64::max),
        }
    }

    /// Returns `true` when the matrix satisfies the triangle inequality
    /// `c_{ij} ≤ c_{ik} + c_{kj}` up to `tol`.
    ///
    /// The paper assumes the network layer already routes optimally, so
    /// model inputs should be metric-closed; topology generators use
    /// [`Self::metric_close`] to enforce this.
    pub fn is_metric(&self, tol: f64) -> bool {
        let m = self.m;
        let data = match &self.storage {
            // c ≤ c + c holds for every non-negative c (including ∞).
            Storage::Homogeneous(_) => return true,
            Storage::Dense(data) => data,
        };
        for k in 0..m {
            for i in 0..m {
                let cik = data[i * m + k];
                if !cik.is_finite() {
                    continue;
                }
                for j in 0..m {
                    let ckj = data[k * m + j];
                    if ckj.is_finite() && data[i * m + j] > cik + ckj + tol {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Replaces every entry by the shortest-path distance (Floyd-Warshall
    /// metric closure). This mirrors the paper's footnote 3: the iPlane
    /// dataset is incomplete, so missing pairs are filled with minimal
    /// distances.
    ///
    /// Pivots go in blocks of four: the block's rows are copied out and
    /// brought to the state step `k0 + q` of the `k`-`i`-`j` loop reads,
    /// then each row is relaxed through all four in one pass over `j`;
    /// the `m mod 4` left over go singly. Every entry gets the same sums
    /// `c_ik + c_kj` and `<` tests in the same `k` order: no bit moves.
    pub fn metric_close(&mut self) {
        let m = self.m;
        let data = match &mut self.storage {
            // Already metric: direct hop c never beats c + c.
            Storage::Homogeneous(_) => return,
            Storage::Dense(data) => Arc::make_mut(data),
        };
        let mut pivots = vec![0.0; 4 * m];
        for k0 in (0..m - m % 4).step_by(4) {
            pivots.copy_from_slice(&data[k0 * m..(k0 + 4) * m]);
            for q in 1..4 {
                let (before, rest) = pivots.split_at_mut(q * m);
                for (p, pivot) in before.chunks_exact(m).enumerate() {
                    relax_row::<1>(&mut rest[..m], k0 + p, pivot);
                }
            }
            for row in data.chunks_exact_mut(m) {
                relax_row::<4>(row, k0, &pivots);
            }
        }
        for k in m - m % 4..m {
            pivots[..m].copy_from_slice(&data[k * m..(k + 1) * m]);
            for row in data.chunks_exact_mut(m) {
                relax_row::<1>(row, k, &pivots[..m]);
            }
        }
    }

    /// Returns `true` when every off-diagonal entry is finite, i.e. the
    /// relay graph is complete.
    pub fn is_complete(&self) -> bool {
        match &self.storage {
            Storage::Homogeneous(c) => self.m < 2 || c.is_finite(),
            Storage::Dense(data) => data.iter().all(|v| v.is_finite()),
        }
    }
}

/// Floyd–Warshall steps `k0..k0 + W` on row `c_{i·}`, through the pivot
/// rows in `pivots` (row-major) as those steps read them. An infinite
/// `c_ik` adds `∞` to the row, which never wins a `<`.
fn relax_row<const W: usize>(row: &mut [f64], k0: usize, pivots: &[f64]) {
    let m = row.len();
    let pivots: [&[f64]; W] = std::array::from_fn(|q| &pivots[q * m..][..m]);
    let mut cik = [0.0; W];
    // `c_{i,k0+q}` as step `k0 + q` finds it.
    for q in 0..W {
        cik[q] = row[k0 + q];
        for p in 0..q {
            let through = cik[p] + pivots[p][k0 + q];
            if through < cik[q] {
                cik[q] = through;
            }
        }
    }
    for (j, cij) in row.iter_mut().enumerate() {
        let mut c = *cij;
        for q in 0..W {
            let through = cik[q] + pivots[q][j];
            if through < c {
                c = through;
            }
        }
        *cij = c;
    }
}

impl PartialEq for LatencyMatrix {
    /// Entry-wise equality regardless of representation: a densified
    /// homogeneous matrix still equals its compact twin.
    fn eq(&self, other: &Self) -> bool {
        if self.m != other.m {
            return false;
        }
        match (&self.storage, &other.storage) {
            (Storage::Homogeneous(a), Storage::Homogeneous(b)) => self.m < 2 || a == b,
            (Storage::Dense(a), Storage::Dense(b)) => a == b,
            _ => (0..self.m).all(|i| (0..self.m).all(|j| self.get(i, j) == other.get(i, j))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain `k`-`i`-`j` Floyd–Warshall loop: the oracle
    /// [`LatencyMatrix::metric_close`] must match bit for bit.
    fn metric_close_scalar(c: &mut LatencyMatrix) {
        let m = c.m;
        let data = match &mut c.storage {
            Storage::Homogeneous(_) => return,
            Storage::Dense(data) => Arc::make_mut(data),
        };
        for k in 0..m {
            for i in 0..m {
                let cik = data[i * m + k];
                if !cik.is_finite() {
                    continue;
                }
                for j in 0..m {
                    let through = cik + data[k * m + j];
                    if through < data[i * m + j] {
                        data[i * m + j] = through;
                    }
                }
            }
        }
    }

    #[test]
    fn homogeneous_shape() {
        let c = LatencyMatrix::homogeneous(4, 20.0);
        assert_eq!(c.len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                let expected = if i == j { 0.0 } else { 20.0 };
                assert_eq!(c.get(i, j), expected);
            }
        }
        assert_eq!(c.mean_latency(), 20.0);
        assert_eq!(c.max_latency(), 20.0);
        assert!(c.is_metric(1e-12));
    }

    #[test]
    fn zero_matrix() {
        let c = LatencyMatrix::zero(3);
        assert_eq!(c.mean_latency(), 0.0);
        assert!(c.is_metric(0.0));
        assert!(c.is_complete());
    }

    #[test]
    fn homogeneous_is_compact_and_densifies_on_nonuniform_write() {
        let mut c = LatencyMatrix::homogeneous(5, 20.0);
        assert_eq!(c.homogeneous_value(), Some(20.0));
        c.set(1, 2, 20.0); // uniform write: stays compact
        c.set(3, 3, 0.0); // diagonal write: stays compact
        assert_eq!(c.homogeneous_value(), Some(20.0));
        c.set(1, 2, 7.0); // breaks uniformity: densifies
        assert_eq!(c.homogeneous_value(), None);
        assert_eq!(c.get(1, 2), 7.0);
        assert_eq!(c.get(2, 1), 20.0);
        assert_eq!(c.get(4, 4), 0.0);
    }

    #[test]
    fn row_is_the_dense_complement_of_homogeneous_value() {
        let mut c = LatencyMatrix::homogeneous(3, 20.0);
        assert_eq!(c.row(1), None);
        c.set(1, 2, 7.0);
        c.set(1, 0, f64::INFINITY);
        assert_eq!(c.homogeneous_value(), None);
        assert_eq!(c.row(1), Some(&[f64::INFINITY, 0.0, 7.0][..]));
        assert_eq!(c.row(2), Some(&[20.0, 20.0, 0.0][..]));
        for i in 0..3 {
            let row = c.row(i).unwrap();
            assert!((0..3).all(|j| row[j].to_bits() == c.get(i, j).to_bits()));
        }
    }

    #[test]
    fn compact_scales_to_figure2_sizes() {
        // The dense form of this matrix would be 80 GB.
        let c = LatencyMatrix::homogeneous(100_000, 20.0);
        assert_eq!(c.len(), 100_000);
        assert_eq!(c.get(0, 99_999), 20.0);
        assert_eq!(c.get(99_999, 99_999), 0.0);
        assert_eq!(c.mean_latency(), 20.0);
        assert_eq!(c.max_latency(), 20.0);
        assert!(c.is_metric(1e-12));
        assert!(c.is_complete());
    }

    #[test]
    fn clones_share_the_dense_table_until_one_writes() {
        let shared = |x: &LatencyMatrix, y: &LatencyMatrix| match (&x.storage, &y.storage) {
            (Storage::Dense(p), Storage::Dense(q)) => Arc::ptr_eq(p, q),
            _ => false,
        };
        let rows = vec![0.0, 1.0, 9.0, 1.0, 0.0, 1.0, 9.0, 1.0, 0.0];
        let mut a = LatencyMatrix::from_rows(3, rows);
        let mut b = a.clone();
        assert!(shared(&a, &b));
        b.set(0, 1, 4.0);
        assert!(!shared(&a, &b), "a write copies a shared table");
        assert_eq!((a.get(0, 1), b.get(0, 1)), (1.0, 4.0));
        let c = a.clone();
        a.metric_close();
        assert!(!shared(&a, &c));
        assert_eq!((a.get(0, 2), c.get(0, 2)), (2.0, 9.0));
    }

    #[test]
    fn equality_is_semantic_across_representations() {
        let compact = LatencyMatrix::homogeneous(4, 20.0);
        let mut densified = LatencyMatrix::homogeneous(4, 20.0);
        densified.set(0, 1, 5.0);
        densified.set(0, 1, 20.0); // back to uniform content, dense storage
        assert_eq!(compact, densified);
        assert_eq!(densified, compact);
        let mut data = vec![20.0; 16];
        for i in 0..4 {
            data[i * 4 + i] = 0.0;
        }
        assert_eq!(compact, LatencyMatrix::from_rows(4, data));
        assert_ne!(compact, LatencyMatrix::homogeneous(4, 19.0));
        assert_ne!(compact, LatencyMatrix::homogeneous(5, 20.0));
    }

    #[test]
    #[should_panic(expected = "diagonal latency must be zero")]
    fn rejects_nonzero_diagonal() {
        LatencyMatrix::from_rows(2, vec![1.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        LatencyMatrix::from_rows(2, vec![0.0, -2.0, 2.0, 0.0]);
    }

    #[test]
    fn metric_close_fixes_violations() {
        // c(0,2) = 100 but 0 -> 1 -> 2 costs 3.
        let mut c =
            LatencyMatrix::from_rows(3, vec![0.0, 1.0, 100.0, 1.0, 0.0, 2.0, 100.0, 2.0, 0.0]);
        assert!(!c.is_metric(1e-12));
        c.metric_close();
        assert!(c.is_metric(1e-12));
        assert_eq!(c.get(0, 2), 3.0);
        assert_eq!(c.get(2, 0), 3.0);
    }

    #[test]
    fn metric_close_completes_infinite_entries() {
        let mut c = LatencyMatrix::homogeneous(3, 5.0);
        c.set(0, 2, f64::INFINITY);
        assert!(!c.is_complete());
        c.metric_close();
        assert!(c.is_complete());
        assert_eq!(c.get(0, 2), 10.0); // via server 1
    }

    #[test]
    fn restricted_graph_keeps_unreachable_infinite() {
        // 0 and 1 mutually reachable, 2 isolated.
        let inf = f64::INFINITY;
        let mut c = LatencyMatrix::from_rows(3, vec![0.0, 1.0, inf, 1.0, 0.0, inf, inf, inf, 0.0]);
        c.metric_close();
        assert!(c.get(0, 2).is_infinite());
        assert!(c.get(2, 1).is_infinite());
        assert_eq!(c.get(0, 1), 1.0);
    }

    #[test]
    fn metric_close_leaves_the_empty_matrix_alone() {
        let mut c = LatencyMatrix::from_rows(0, vec![]);
        c.metric_close();
        assert_eq!(c, LatencyMatrix::from_rows(0, vec![]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every `m mod 4` (so both the pivot blocks and the one-pivot
        /// tail), asymmetric entries, `±0` and `∞` off the diagonal, and
        /// (when `isolated < m`) one node cut off from every other.
        #[test]
        fn prop_metric_close_matches_the_scalar_loop_bit_for_bit(
            m in 0usize..=41,
            entries in prop::collection::vec((0u8..8, 0.0f64..100.0), 41 * 41),
            isolated in 0usize..64,
        ) {
            let mut data: Vec<f64> = entries[..m * m]
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::INFINITY,
                    _ => v,
                })
                .collect();
            for i in 0..m {
                for j in 0..m {
                    if i == j {
                        data[i * m + j] = 0.0;
                    } else if i == isolated || j == isolated {
                        data[i * m + j] = f64::INFINITY;
                    }
                }
            }
            let mut blocked = LatencyMatrix::from_rows(m, data);
            let mut scalar = blocked.clone();
            blocked.metric_close();
            metric_close_scalar(&mut scalar);
            for i in 0..m {
                for j in 0..m {
                    prop_assert_eq!(
                        blocked.get(i, j).to_bits(),
                        scalar.get(i, j).to_bits(),
                        "m={} entry ({}, {})", m, i, j
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_metric_close_is_idempotent_and_metric(
            vals in prop::collection::vec(0.1f64..100.0, 36)
        ) {
            let m = 6;
            let mut data = vals;
            for i in 0..m { data[i * m + i] = 0.0; }
            let mut c = LatencyMatrix::from_rows(m, data);
            c.metric_close();
            prop_assert!(c.is_metric(1e-9));
            let once = c.clone();
            c.metric_close();
            for i in 0..m {
                for j in 0..m {
                    prop_assert!((c.get(i, j) - once.get(i, j)).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn prop_metric_close_never_increases(
            vals in prop::collection::vec(0.1f64..50.0, 25)
        ) {
            let m = 5;
            let mut data = vals;
            for i in 0..m { data[i * m + i] = 0.0; }
            let orig = LatencyMatrix::from_rows(m, data);
            let mut closed = orig.clone();
            closed.metric_close();
            for i in 0..m {
                for j in 0..m {
                    prop_assert!(closed.get(i, j) <= orig.get(i, j) + 1e-12);
                }
            }
        }
    }
}
