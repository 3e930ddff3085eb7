//! Dense request-matrix state for the centralized solvers.
//!
//! The solvers work directly on `r ∈ R^{m×m}` (row-major by owner:
//! `r[k*m + j]` is the amount organization `k` runs on server `j`),
//! avoiding the sparse ledgers of `dlb_core::Assignment`, which are
//! tuned for the distributed engine instead.

use dlb_core::{Assignment, Instance};

/// Dense solver state: the request matrix plus cached column loads.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseState {
    m: usize,
    /// Row-major request matrix (`r[k*m + j]`).
    pub r: Vec<f64>,
    loads: Vec<f64>,
}

impl DenseState {
    /// Starts from the all-local assignment (`r_kk = n_k`).
    pub fn local(instance: &Instance) -> Self {
        let m = instance.len();
        let mut r = vec![0.0; m * m];
        let mut loads = vec![0.0; m];
        for k in 0..m {
            r[k * m + k] = instance.own_load(k);
            loads[k] = instance.own_load(k);
        }
        Self { m, r, loads }
    }

    /// Wraps an existing request matrix.
    pub fn from_matrix(instance: &Instance, r: Vec<f64>) -> Self {
        let m = instance.len();
        assert_eq!(r.len(), m * m);
        let mut s = Self {
            m,
            r,
            loads: vec![0.0; m],
        };
        s.refresh_loads();
        s
    }

    /// Number of organizations.
    #[inline]
    pub fn len(&self) -> usize {
        self.m
    }

    /// Returns `true` for the empty state.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Current server loads (column sums).
    #[inline]
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Recomputes the cached loads.
    pub fn refresh_loads(&mut self) {
        let m = self.m;
        self.loads.iter_mut().for_each(|l| *l = 0.0);
        for k in 0..m {
            for j in 0..m {
                self.loads[j] += self.r[k * m + j];
            }
        }
    }

    /// Row of organization `k`.
    #[inline]
    pub fn row(&self, k: usize) -> &[f64] {
        &self.r[k * self.m..(k + 1) * self.m]
    }

    /// Mutable row of organization `k`; caller must
    /// [`Self::refresh_loads`] afterwards.
    #[inline]
    pub fn row_mut(&mut self, k: usize) -> &mut [f64] {
        &mut self.r[k * self.m..(k + 1) * self.m]
    }

    /// Replaces row `k` and incrementally patches the cached loads
    /// (the block-coordinate-descent kernel).
    pub fn set_row_with_loads(&mut self, k: usize, new_row: &[f64]) {
        let m = self.m;
        assert_eq!(new_row.len(), m);
        for j in 0..m {
            let old = self.r[k * m + j];
            self.loads[j] += new_row[j] - old;
            self.r[k * m + j] = new_row[j];
        }
    }
}

/// Objective `ΣC(r) = Σ_j l_j²/(2 s_j) + Σ_{kj} c_kj r_kj` on a dense
/// matrix.
pub fn objective(instance: &Instance, state: &DenseState) -> f64 {
    let m = instance.len();
    let mut cost = 0.0;
    for j in 0..m {
        let l = state.loads[j];
        cost += l * l / (2.0 * instance.speed(j));
    }
    for k in 0..m {
        let row = state.row(k);
        for j in 0..m {
            if row[j] > 0.0 {
                cost += instance.c(k, j) * row[j];
            }
        }
    }
    cost
}

/// Gradient `∂ΣC/∂r_kj = l_j/s_j + c_kj`, written into `grad`
/// (length `m²`, same layout as the request matrix).
pub fn gradient(instance: &Instance, state: &DenseState, grad: &mut [f64]) {
    let m = instance.len();
    assert_eq!(grad.len(), m * m);
    let col: Vec<f64> = (0..m).map(|j| state.loads[j] / instance.speed(j)).collect();
    for k in 0..m {
        for j in 0..m {
            grad[k * m + j] = col[j] + instance.c(k, j);
        }
    }
}

/// Frank-Wolfe (duality) gap: an upper bound on `ΣC(r) − ΣC*` over
/// the product of scaled simplexes, each `r_kj` optionally capped at
/// `caps[k*m + j]` (same layout as the request matrix).
///
/// The linear minimization oracle fills each row's cheapest columns up
/// to their caps, ties by column, until `n_k` is spent, one `O(m)` pass
/// per column filled — uncapped, one pass that puts the whole budget on
/// the cheapest column — so `gap = Σ_k (⟨∇_k, r_k⟩ − ⟨∇_k, fill_k⟩)`.
pub fn fw_gap(instance: &Instance, state: &DenseState, grad: &[f64], caps: Option<&[f64]>) -> f64 {
    let m = instance.len();
    let mut gap = 0.0;
    for k in 0..m {
        let row = state.row(k);
        let g = &grad[k * m..(k + 1) * m];
        // Unused columns add nothing: an `∞` gradient (a forbidden
        // link, §II) times an empty entry would be NaN.
        let inner = (0..m)
            .filter(|&j| row[j] > 0.0)
            .fold(0.0, |inner, j| inner + g[j] * row[j]);
        let mut budget = instance.own_load(k);
        let mut fill = 0.0;
        let mut last: Option<(f64, usize)> = None;
        while budget > 0.0 {
            // The cheapest column after the last one filled.
            let Some((gj, j)) = (0..m)
                .map(|j| (g[j], j))
                .filter(|&col| last.is_none_or(|last| col > last))
                .min_by(|p, q| p.partial_cmp(q).expect("gradient comparable"))
            else {
                break;
            };
            let take = caps.map_or(budget, |caps| caps[k * m + j].min(budget));
            fill += gj * take;
            budget -= take;
            last = Some((gj, j));
        }
        gap += inner - fill;
    }
    gap.max(0.0)
}

/// Converts a dense request matrix into a sparse [`Assignment`].
pub fn dense_to_assignment(instance: &Instance, state: &DenseState) -> Assignment {
    let m = instance.len();
    let mut rho = vec![0.0; m * m];
    for k in 0..m {
        let n = instance.own_load(k);
        if n > 0.0 {
            for j in 0..m {
                rho[k * m + j] = state.r[k * m + j] / n;
            }
            // Normalize away drift so Assignment's invariant holds.
            let sum: f64 = rho[k * m..(k + 1) * m].iter().sum();
            if sum > 0.0 {
                for v in &mut rho[k * m..(k + 1) * m] {
                    *v /= sum;
                }
            } else {
                rho[k * m + k] = 1.0;
            }
        } else {
            rho[k * m + k] = 1.0;
        }
    }
    Assignment::from_fractions(instance, &rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::cost::total_cost;
    use dlb_core::LatencyMatrix;

    fn inst() -> Instance {
        Instance::new(
            vec![1.0, 2.0, 4.0],
            vec![12.0, 6.0, 0.0],
            LatencyMatrix::homogeneous(3, 2.0),
        )
    }

    #[test]
    fn objective_matches_core_cost() {
        let instance = inst();
        let mut state = DenseState::local(&instance);
        state.row_mut(0)[1] = 4.0;
        state.row_mut(0)[0] = 8.0;
        state.refresh_loads();
        let a = dense_to_assignment(&instance, &state);
        assert!((objective(&instance, &state) - total_cost(&instance, &a)).abs() < 1e-9);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let instance = inst();
        // Strictly interior point: the objective's `r > 0` latency guard
        // makes it non-smooth at the boundary, so perturb away from it.
        let r = vec![
            6.0, 3.0, 3.0, //
            1.0, 4.0, 1.0, //
            0.5, 0.5, 0.5,
        ];
        let state = DenseState::from_matrix(&instance, r);
        let m = 3;
        let mut grad = vec![0.0; m * m];
        gradient(&instance, &state, &mut grad);
        let h = 1e-5;
        for k in 0..m {
            for j in 0..m {
                let mut plus = state.clone();
                plus.r[k * m + j] += h;
                plus.refresh_loads();
                let mut minus = state.clone();
                minus.r[k * m + j] -= h;
                minus.refresh_loads();
                let fd = (objective(&instance, &plus) - objective(&instance, &minus)) / (2.0 * h);
                assert!(
                    (grad[k * m + j] - fd).abs() < 1e-5,
                    "grad[{k}][{j}] = {} vs fd {fd}",
                    grad[k * m + j]
                );
            }
        }
    }

    #[test]
    fn fw_gap_zero_only_at_optimum_direction() {
        let instance = Instance::new(
            vec![1.0, 1.0],
            vec![10.0, 10.0],
            LatencyMatrix::homogeneous(2, 1000.0),
        );
        // With huge latency, all-local is optimal; gap should be 0.
        let state = DenseState::local(&instance);
        let mut grad = vec![0.0; 4];
        gradient(&instance, &state, &mut grad);
        assert!(fw_gap(&instance, &state, &grad, None) < 1e-9);
    }

    #[test]
    fn fw_gap_positive_off_optimum() {
        let instance = Instance::new(
            vec![1.0, 1.0],
            vec![10.0, 0.0],
            LatencyMatrix::homogeneous(2, 0.0),
        );
        // All load on server 0 with zero latency is clearly suboptimal.
        let state = DenseState::local(&instance);
        let mut grad = vec![0.0; 4];
        gradient(&instance, &state, &mut grad);
        assert!(fw_gap(&instance, &state, &grad, None) > 1.0);
    }

    #[test]
    fn dense_state_converts_to_the_same_assignment() {
        let instance = inst();
        let mut state = DenseState::local(&instance);
        state.row_mut(0)[2] = 5.0;
        state.row_mut(0)[0] = 7.0;
        state.refresh_loads();
        let a = dense_to_assignment(&instance, &state);
        a.check_invariants(&instance).unwrap();
        for (cell, &r) in state.r.iter().enumerate() {
            let (k, j) = (cell / 3, cell % 3);
            assert!((a.requests(k, j) - r).abs() < 1e-9, "r[{k}→{j}]");
        }
    }
}
