//! The expected-completion-time objective (paper §II).
//!
//! With random request ordering on each server, a request processed on
//! server `j` waits in expectation `l_j / 2 s_j`, so the expected total
//! completion time of organization `i` is
//!
//! ```text
//! C_i = Σ_j (l_j / 2 s_j + c_ij) · r_ij
//! ```
//!
//! and the system objective collapses (using `Σ_k r_kj = l_j`) to
//!
//! ```text
//! ΣC = Σ_j l_j² / (2 s_j)  +  Σ_{kj} c_kj · r_kj .
//! ```

use crate::assignment::Assignment;
use crate::instance::Instance;

/// Total processing time `ΣC_i` of an assignment: the sum of
/// [`server_cost`] over all servers.
///
/// Returns `f64::INFINITY` when requests are relayed over a forbidden
/// (infinite-latency) link.
pub fn total_cost(instance: &Instance, a: &Assignment) -> f64 {
    let m = instance.len();
    debug_assert_eq!(a.len(), m);
    (0..m).map(|j| server_cost(instance, a, j)).sum()
}

/// Cost attributable to server `j` alone: its congestion term plus the
/// communication cost of every request it hosts,
/// `l_j²/(2 s_j) + Σ_k c_kj r_kj`. [`total_cost`] is the sum of these
/// over all servers, and a pairwise exchange between `i` and `j`
/// changes only `server_cost(i) + server_cost(j)` — the identity behind
/// the engine's incremental `ΣC` maintenance.
pub fn server_cost(instance: &Instance, a: &Assignment, j: usize) -> f64 {
    let l = a.load(j);
    let mut cost = l * l / (2.0 * instance.speed(j));
    for (k, r) in a.ledger(j).iter() {
        let c = instance.c(k as usize, j);
        if c > 0.0 {
            cost += c * r;
        }
    }
    cost
}

/// Congestion-only part of the objective, `Σ_j l_j²/(2 s_j)`.
pub fn congestion_cost(instance: &Instance, a: &Assignment) -> f64 {
    (0..instance.len())
        .map(|j| {
            let l = a.load(j);
            l * l / (2.0 * instance.speed(j))
        })
        .sum()
}

/// Communication-only part of the objective, `Σ_{kj} c_kj r_kj`.
pub fn communication_cost(instance: &Instance, a: &Assignment) -> f64 {
    let mut cost = 0.0;
    for j in 0..instance.len() {
        for (k, r) in a.ledger(j).iter() {
            let c = instance.c(k as usize, j);
            if c > 0.0 {
                cost += c * r;
            }
        }
    }
    cost
}

/// Expected total completion time `C_i` of a single organization's
/// requests (paper Eq. 1).
pub fn org_cost(instance: &Instance, a: &Assignment, i: usize) -> f64 {
    let m = instance.len();
    let mut cost = 0.0;
    for j in 0..m {
        let r = a.requests(i, j);
        if r > 0.0 {
            cost += (a.load(j) / (2.0 * instance.speed(j)) + instance.c(i, j)) * r;
        }
    }
    cost
}

/// Makespan-flavoured metric: the largest server drain time
/// `max_j l_j / s_j` (ms). The paper optimizes `ΣC` but discusses the
/// contrast with makespan (§II "Completion times"); exposing both lets
/// the examples and benches quantify the difference.
pub fn makespan(instance: &Instance, a: &Assignment) -> f64 {
    (0..instance.len())
        .map(|j| a.load(j) / instance.speed(j))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyMatrix;
    use proptest::prelude::*;

    /// Exact cost change from moving `delta` requests owned by `k` from
    /// server `from` to server `to` (Lemma 1's `f(Δ) - f(0)`), without
    /// mutating the assignment: the closed form `total_cost` is judged
    /// against below.
    fn move_cost_delta(
        instance: &Instance,
        a: &Assignment,
        k: usize,
        from: usize,
        to: usize,
        delta: f64,
    ) -> f64 {
        if from == to || delta == 0.0 {
            return 0.0;
        }
        let li = a.load(from);
        let lj = a.load(to);
        let si = instance.speed(from);
        let sj = instance.speed(to);
        let congestion = ((li - delta) * (li - delta) - li * li) / (2.0 * si)
            + ((lj + delta) * (lj + delta) - lj * lj) / (2.0 * sj);
        let comm = delta * (instance.c(k, to) - instance.c(k, from));
        congestion + comm
    }

    fn small_instance() -> Instance {
        Instance::new(
            vec![1.0, 2.0],
            vec![10.0, 4.0],
            LatencyMatrix::homogeneous(2, 3.0),
        )
    }

    #[test]
    fn local_assignment_cost() {
        let inst = small_instance();
        let a = Assignment::local(&inst);
        // l = [10, 4]; cost = 100/2 + 16/4 = 54; no communication.
        assert_eq!(total_cost(&inst, &a), 54.0);
        assert_eq!(communication_cost(&inst, &a), 0.0);
        assert_eq!(congestion_cost(&inst, &a), 54.0);
    }

    #[test]
    fn relayed_cost_includes_latency() {
        let inst = small_instance();
        let mut a = Assignment::local(&inst);
        a.move_requests(0, 0, 1, 4.0);
        // l = [6, 8]; congestion = 36/2 + 64/4 = 34; comm = 4 * 3 = 12.
        assert_eq!(congestion_cost(&inst, &a), 34.0);
        assert_eq!(communication_cost(&inst, &a), 12.0);
        assert_eq!(total_cost(&inst, &a), 46.0);
    }

    #[test]
    fn org_costs_sum_to_total() {
        let inst = small_instance();
        let mut a = Assignment::local(&inst);
        a.move_requests(0, 0, 1, 4.0);
        let total: f64 = (0..2).map(|i| org_cost(&inst, &a, i)).sum();
        assert!((total - total_cost(&inst, &a)).abs() < 1e-12);
    }

    #[test]
    fn org_cost_formula_manual() {
        let inst = small_instance();
        let mut a = Assignment::local(&inst);
        a.move_requests(0, 0, 1, 4.0);
        // org 0: 6 requests at server 0 (l=6, s=1, wait 3), 4 at server 1
        // (l=8, s=2, wait 2, c=3): 6*3 + 4*(2+3) = 38.
        assert!((org_cost(&inst, &a, 0) - 38.0).abs() < 1e-12);
        // org 1: 4 requests at server 1: 4 * 2 = 8.
        assert!((org_cost(&inst, &a, 1) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_latency_forbids_relay() {
        let mut lat = LatencyMatrix::homogeneous(2, 3.0);
        lat.set(0, 1, f64::INFINITY);
        let inst = Instance::new(vec![1.0, 1.0], vec![5.0, 5.0], lat);
        let mut a = Assignment::local(&inst);
        a.move_requests(0, 0, 1, 1.0);
        assert!(total_cost(&inst, &a).is_infinite());
    }

    #[test]
    fn makespan_is_the_largest_drain_time() {
        let inst = small_instance();
        let a = Assignment::local(&inst);
        // drains: 10/1 = 10, 4/2 = 2.
        assert_eq!(makespan(&inst, &a), 10.0);
    }

    #[test]
    fn makespan_improves_with_balancing() {
        let inst = small_instance();
        let mut a = Assignment::local(&inst);
        a.move_requests(0, 0, 1, 4.0);
        assert!(makespan(&inst, &a) < 10.0);
    }

    #[test]
    fn server_cost_sums_to_total() {
        let inst = small_instance();
        let mut a = Assignment::local(&inst);
        a.move_requests(0, 0, 1, 4.0);
        let summed: f64 = (0..2).map(|j| server_cost(&inst, &a, j)).sum();
        assert!((summed - total_cost(&inst, &a)).abs() < 1e-12);
    }

    #[test]
    fn move_cost_delta_matches_recomputation() {
        let inst = small_instance();
        let mut a = Assignment::local(&inst);
        let before = total_cost(&inst, &a);
        let predicted = move_cost_delta(&inst, &a, 0, 0, 1, 4.0);
        a.move_requests(0, 0, 1, 4.0);
        let after = total_cost(&inst, &a);
        assert!((after - before - predicted).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_move_delta_consistent(
            n0 in 1.0f64..50.0, n1 in 1.0f64..50.0,
            frac in 0.0f64..1.0, c in 0.0f64..10.0,
            s0 in 0.5f64..4.0, s1 in 0.5f64..4.0,
        ) {
            let inst = Instance::new(
                vec![s0, s1],
                vec![n0, n1],
                LatencyMatrix::homogeneous(2, c),
            );
            let mut a = Assignment::local(&inst);
            let delta = n0 * frac;
            let before = total_cost(&inst, &a);
            let predicted = move_cost_delta(&inst, &a, 0, 0, 1, delta);
            if delta > 0.0 {
                a.move_requests(0, 0, 1, delta);
            }
            let after = total_cost(&inst, &a);
            prop_assert!((after - before - predicted).abs() < 1e-7 * before.max(1.0));
        }

        #[test]
        fn prop_lower_bound_below_any_assignment(
            loads in prop::collection::vec(0.0f64..100.0, 3),
            fracs in prop::collection::vec(0.01f64..1.0, 9),
        ) {
            let inst = Instance::new(
                vec![1.0, 2.0, 3.0],
                loads,
                LatencyMatrix::homogeneous(3, 1.0),
            );
            let m = 3;
            let mut rho = vec![0.0; 9];
            for k in 0..m {
                let s: f64 = fracs[k * m..(k + 1) * m].iter().sum();
                for j in 0..m {
                    rho[k * m + j] = fracs[k * m + j] / s;
                }
            }
            let a = Assignment::from_fractions(&inst, &rho);
            // Congestion of the speed-proportional split with no
            // communication, (Σn)² / 2Σs — Theorem 1's bound.
            let bound = inst.total_load().powi(2) / (2.0 * inst.total_speed());
            prop_assert!(total_cost(&inst, &a) >= bound - 1e-9);
        }
    }
}
