//! Grid-search reference optima for tiny instances (test support).
//!
//! For `m ≤ 3` the relay-fraction polytope is low-dimensional enough to
//! scan with a recursive simplex grid plus one local refinement pass.
//! The iterative solvers and the distributed engine are validated
//! against these reference values in tests.

use dlb_core::Instance;

use crate::dense::{objective, DenseState};

/// Enumerates all points of the standard simplex grid
/// `{x ∈ Δ_{dim} : x_i = k_i/steps}` and calls `f` on each.
fn for_each_simplex_point(dim: usize, steps: usize, f: &mut impl FnMut(&[f64])) {
    let mut point = vec![0.0; dim];
    fn rec(
        point: &mut Vec<f64>,
        idx: usize,
        remaining: usize,
        steps: usize,
        f: &mut impl FnMut(&[f64]),
    ) {
        if idx + 1 == point.len() {
            point[idx] = remaining as f64 / steps as f64;
            f(point);
            return;
        }
        for k in 0..=remaining {
            point[idx] = k as f64 / steps as f64;
            rec(point, idx + 1, remaining - k, steps, f);
        }
    }
    rec(&mut point, 0, steps, steps, f);
}

/// Exhaustive grid search over the product of per-organization
/// simplexes with `steps` subdivisions, followed by a coordinatewise
/// refinement. Exponential in `m` — intended for `m ≤ 3` only.
///
/// Returns the best request matrix found and its objective value.
pub fn grid_search_optimum(instance: &Instance, steps: usize) -> (DenseState, f64) {
    let m = instance.len();
    assert!(m <= 3, "grid search is exponential; use m <= 3");
    assert!(steps >= 1);
    // Collect each org's candidate rows.
    let mut candidate_rows: Vec<Vec<Vec<f64>>> = Vec::with_capacity(m);
    for k in 0..m {
        let n = instance.own_load(k);
        let mut rows = Vec::new();
        for_each_simplex_point(m, steps, &mut |p| {
            rows.push(p.iter().map(|&f| f * n).collect::<Vec<f64>>());
        });
        candidate_rows.push(rows);
    }
    let mut best_state = DenseState::local(instance);
    let mut best = objective(instance, &best_state);
    let mut idx = vec![0usize; m];
    loop {
        // Build the combination.
        let mut r = vec![0.0; m * m];
        for k in 0..m {
            r[k * m..(k + 1) * m].copy_from_slice(&candidate_rows[k][idx[k]]);
        }
        let state = DenseState::from_matrix(instance, r);
        let obj = objective(instance, &state);
        if obj < best {
            best = obj;
            best_state = state;
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == m {
                break;
            }
            idx[pos] += 1;
            if idx[pos] < candidate_rows[pos].len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
        if pos == m {
            break;
        }
    }
    // Local refinement: repeated pairwise shifts within each row.
    let mut improved = true;
    let mut pass = 0;
    while improved && pass < 200 {
        improved = false;
        pass += 1;
        for k in 0..m {
            for from in 0..m {
                for to in 0..m {
                    if from == to {
                        continue;
                    }
                    let available = best_state.row(k)[from];
                    if available <= 0.0 {
                        continue;
                    }
                    for &frac in &[1.0, 0.5, 0.25, 0.1, 0.01] {
                        let delta = available * frac;
                        let mut trial = best_state.clone();
                        trial.row_mut(k)[from] -= delta;
                        trial.row_mut(k)[to] += delta;
                        trial.refresh_loads();
                        let obj = objective(instance, &trial);
                        if obj < best - 1e-12 {
                            best = obj;
                            best_state = trial;
                            improved = true;
                            break;
                        }
                    }
                }
            }
        }
    }
    (best_state, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_bcd;
    use dlb_core::LatencyMatrix;

    #[test]
    fn simplex_grid_has_right_cardinality() {
        let mut count = 0;
        for_each_simplex_point(3, 4, &mut |_| count += 1);
        // C(4 + 2, 2) = 15 weak compositions of 4 into 3 parts.
        assert_eq!(count, 15);
    }

    #[test]
    fn grid_points_sum_to_one() {
        for_each_simplex_point(3, 5, &mut |p| {
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        });
    }

    #[test]
    fn brute_force_agrees_with_bcd_m2() {
        let instance = Instance::new(
            vec![1.0, 2.0],
            vec![20.0, 5.0],
            LatencyMatrix::homogeneous(2, 3.0),
        );
        let (_, brute) = grid_search_optimum(&instance, 40);
        let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
        assert!(
            (brute - bcd.objective).abs() < 1e-3 * brute.max(1.0),
            "brute {brute} vs bcd {}",
            bcd.objective
        );
    }

    #[test]
    fn brute_force_agrees_with_bcd_m3() {
        let mut lat = LatencyMatrix::zero(3);
        lat.set(0, 1, 2.0);
        lat.set(1, 0, 2.0);
        lat.set(0, 2, 8.0);
        lat.set(2, 0, 8.0);
        lat.set(1, 2, 4.0);
        lat.set(2, 1, 4.0);
        let instance = Instance::new(vec![1.0, 1.5, 3.0], vec![30.0, 0.0, 6.0], lat);
        let (_, brute) = grid_search_optimum(&instance, 12);
        let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
        assert!(
            (brute - bcd.objective).abs() < 5e-3 * brute.max(1.0),
            "brute {brute} vs bcd {}",
            bcd.objective
        );
    }
}
