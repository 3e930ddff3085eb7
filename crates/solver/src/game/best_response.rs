//! Exact selfish best response of a single organization.
//!
//! With everyone else's placement fixed, organization `i` chooses
//! `x_j ≥ 0`, `Σ x_j = n_i` minimizing
//!
//! ```text
//! C_i(x) = Σ_j ( (L_j + x_j) / 2s_j + c_ij ) x_j ,
//! ```
//!
//! where `L_j` is the load others put on server `j`. The KKT conditions
//! give `x_j = s_j (λ − a_j)₊` with `a_j = c_ij + L_j / 2s_j` — a
//! water-filling problem solved exactly by `dlb-solver`.

use crate::waterfill::waterfill;
use dlb_core::{Assignment, Instance};

/// Computes organization `i`'s exact best response against the current
/// assignment. Returns the new row (`x_j` = requests of `i` on server
/// `j`).
///
/// ```
/// use dlb_core::{Assignment, Instance, LatencyMatrix};
/// use dlb_solver::game::best_response;
///
/// // Latency 1000 ms dwarfs any congestion relief: the selfish best
/// // response keeps everything at home.
/// let instance = Instance::new(
///     vec![1.0, 1.0],
///     vec![10.0, 0.0],
///     LatencyMatrix::homogeneous(2, 1000.0),
/// );
/// let a = Assignment::local(&instance);
/// assert_eq!(best_response(&instance, &a, 0), vec![10.0, 0.0]);
/// ```
pub fn best_response(instance: &Instance, a: &Assignment, i: usize) -> Vec<f64> {
    let m = instance.len();
    let n_i = instance.own_load(i);
    if n_i == 0.0 {
        return vec![0.0; m];
    }
    let mut coeff = vec![0.0; m];
    for j in 0..m {
        let x_cur = a.requests(i, j);
        let others = a.load(j) - x_cur;
        let c = instance.c(i, j);
        coeff[j] = if c.is_finite() {
            c + others / (2.0 * instance.speed(j))
        } else {
            f64::INFINITY
        };
    }
    waterfill(&coeff, instance.speeds(), None, n_i)
}

/// `C_i` that organization `i` would obtain by unilaterally playing
/// `row` against the rest of the current assignment.
pub fn best_response_cost(instance: &Instance, a: &Assignment, i: usize, row: &[f64]) -> f64 {
    let m = instance.len();
    let mut cost = 0.0;
    for j in 0..m {
        let x = row[j];
        if x <= 0.0 {
            continue;
        }
        let others = a.load(j) - a.requests(i, j);
        cost += ((others + x) / (2.0 * instance.speed(j)) + instance.c(i, j)) * x;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::cost::org_cost;
    use dlb_core::LatencyMatrix;
    use proptest::prelude::*;

    fn inst(c: f64, speeds: Vec<f64>, loads: Vec<f64>) -> Instance {
        let m = speeds.len();
        Instance::new(speeds, loads, LatencyMatrix::homogeneous(m, c))
    }

    #[test]
    fn lone_org_splits_by_speed_at_zero_latency() {
        let instance = inst(0.0, vec![1.0, 3.0], vec![8.0, 0.0]);
        let a = Assignment::local(&instance);
        let br = best_response(&instance, &a, 0);
        assert!((br[0] - 2.0).abs() < 1e-9, "{br:?}");
        assert!((br[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn current_cost_matches_org_cost() {
        let instance = inst(3.0, vec![1.0, 2.0], vec![10.0, 4.0]);
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 1, 4.0);
        let row = a.owner_row(0);
        assert!(
            (best_response_cost(&instance, &a, 0, &row) - org_cost(&instance, &a, 0)).abs() < 1e-9
        );
    }

    #[test]
    fn best_response_never_worse_than_status_quo() {
        let instance = inst(2.0, vec![1.0, 1.5, 2.0], vec![20.0, 5.0, 1.0]);
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 2, 6.0);
        for i in 0..3 {
            let br = best_response(&instance, &a, i);
            let cur = a.owner_row(i);
            assert!(
                best_response_cost(&instance, &a, i, &br)
                    <= best_response_cost(&instance, &a, i, &cur) + 1e-9
            );
        }
    }

    #[test]
    fn high_latency_keeps_selfish_org_home() {
        let instance = inst(1000.0, vec![1.0, 1.0], vec![10.0, 0.0]);
        let a = Assignment::local(&instance);
        let br = best_response(&instance, &a, 0);
        assert_eq!(br, vec![10.0, 0.0]);
    }

    #[test]
    fn congested_foreign_server_is_avoided() {
        // Server 1 is fast but heavily loaded by org 1; org 0 should
        // send less there than the speed ratio alone would suggest.
        let instance = inst(0.0, vec![1.0, 4.0], vec![10.0, 100.0]);
        let a = Assignment::local(&instance);
        let br = best_response(&instance, &a, 0);
        // Marginal at server 1 starts at L/2s = 100/8 = 12.5, at server 0
        // it starts at 0: org 0 keeps everything home (marginal there
        // reaches 10 < 12.5).
        assert_eq!(br[1], 0.0, "{br:?}");
    }

    #[test]
    fn forbidden_server_excluded() {
        let mut lat = LatencyMatrix::homogeneous(3, 1.0);
        lat.set(0, 2, f64::INFINITY);
        let instance = Instance::new(vec![1.0; 3], vec![12.0, 0.0, 0.0], lat);
        let a = Assignment::local(&instance);
        let br = best_response(&instance, &a, 0);
        assert_eq!(br[2], 0.0);
        assert!((br.iter().sum::<f64>() - 12.0).abs() < 1e-9);
    }

    proptest! {
        /// The closed-form best response beats every random feasible row.
        #[test]
        fn prop_best_response_is_optimal(
            speeds in prop::collection::vec(0.5f64..4.0, 3),
            loads in prop::collection::vec(0.0f64..30.0, 3),
            c in 0.0f64..8.0,
            w in prop::collection::vec(0.01f64..1.0, 3),
        ) {
            let n0 = loads[0];
            prop_assume!(n0 > 0.1);
            let instance = inst(c, speeds, loads);
            let a = Assignment::local(&instance);
            let br = best_response(&instance, &a, 0);
            let opt = best_response_cost(&instance, &a, 0, &br);
            let wsum: f64 = w.iter().sum();
            let y: Vec<f64> = w.iter().map(|v| v / wsum * n0).collect();
            let other = best_response_cost(&instance, &a, 0, &y);
            prop_assert!(opt <= other + 1e-6 * other.abs().max(1.0),
                "br {opt} worse than random {other}");
        }

        /// Budget feasibility of the best response.
        #[test]
        fn prop_best_response_feasible(
            speeds in prop::collection::vec(0.5f64..4.0, 4),
            loads in prop::collection::vec(0.0f64..50.0, 4),
            c in 0.0f64..10.0,
        ) {
            let instance = inst(c, speeds, loads.clone());
            let a = Assignment::local(&instance);
            for i in 0..4 {
                let br = best_response(&instance, &a, i);
                let sum: f64 = br.iter().sum();
                prop_assert!((sum - loads[i]).abs() < 1e-6 * loads[i].max(1.0));
                prop_assert!(br.iter().all(|&x| x >= 0.0));
            }
        }
    }
}
