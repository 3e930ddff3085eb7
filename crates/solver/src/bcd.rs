//! Exact block-coordinate descent for the cooperative QP (§III),
//! optionally under the §VII R-replication caps. Each sweep
//! re-optimizes every organization's row with [`waterfill`] and judges
//! convergence by [`fw_gap`]; both are exact under the caps, which
//! they receive unchanged.

use dlb_core::Instance;

use crate::dense::{fw_gap, gradient, objective, DenseState};
use crate::waterfill::waterfill;

/// Convergence report of [`solve_bcd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Sweeps actually performed.
    pub iters: usize,
    /// Final objective value.
    pub objective: f64,
    /// Final Frank-Wolfe gap (upper bound on suboptimality).
    pub fw_gap: f64,
    /// Whether the gap tolerance was reached.
    pub converged: bool,
}

/// Exact block-coordinate descent: cyclically re-optimizes each
/// organization's row with the closed-form water-filling solver
/// (`a_j = l_j^{-k}/s_j + c_kj`), for at most `max_sweeps` sweeps and
/// until the Frank-Wolfe gap is at most `tol` relative to the all-local
/// cost. For this strictly block-convex QP the method converges to the
/// global optimum; it is the optimum oracle of the experiments.
///
/// `caps` bounds each `r_kj` (row-major, length `m²`): the
/// R-replication extension's `r_kj ≤ n_k / R`. The all-local start
/// may exceed them, but each block step solves its row exactly under
/// them, so every row is within its caps after the first sweep.
pub fn solve_bcd(
    instance: &Instance,
    max_sweeps: usize,
    tol: f64,
    caps: Option<&[f64]>,
) -> (DenseState, SolveReport) {
    let m = instance.len();
    let mut state = DenseState::local(instance);
    let mut a = vec![0.0; m];
    let mut grad = vec![0.0; m * m];
    let scale = objective(instance, &state).abs().max(1.0);
    let mut report = SolveReport {
        iters: 0,
        objective: objective(instance, &state),
        fw_gap: f64::INFINITY,
        converged: false,
    };
    for sweep in 0..max_sweeps {
        for k in 0..m {
            let n_k = instance.own_load(k);
            if n_k == 0.0 {
                continue;
            }
            // Marginal cost of server j excluding k's own mass there:
            // minimizing Σ (L_j + x_j)²/(2s_j) + c_kj x_j over the row is
            // waterfill with a_j = L_j/s_j + c_kj.
            for j in 0..m {
                let l_other = state.loads()[j] - state.row(k)[j];
                a[j] = l_other / instance.speed(j) + instance.c(k, j);
            }
            let row_caps = caps.map(|c| &c[k * m..(k + 1) * m]);
            let x = waterfill(&a, instance.speeds(), row_caps, n_k);
            state.set_row_with_loads(k, &x);
        }
        gradient(instance, &state, &mut grad);
        let gap = fw_gap(instance, &state, &grad, caps);
        report = SolveReport {
            iters: sweep + 1,
            objective: objective(instance, &state),
            fw_gap: gap,
            converged: gap <= tol * scale,
        };
        if report.converged {
            break;
        }
    }
    (state, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::rngutil::rng_for;
    use dlb_core::LatencyMatrix;
    use rand::Rng;

    fn random_instance(m: usize, seed: u64) -> Instance {
        let mut rng = rng_for(seed, 5);
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, rng.gen_range(1.0..15.0));
                }
            }
        }
        Instance::new(
            (0..m).map(|_| rng.gen_range(1.0..5.0)).collect(),
            (0..m).map(|_| rng.gen_range(0.0..60.0)).collect(),
            lat,
        )
    }

    #[test]
    fn bcd_converges_to_feasible_rows_on_small_instances() {
        for seed in 0..3 {
            let instance = random_instance(5, seed);
            let (state, report) = solve_bcd(&instance, 500, 1e-7, None);
            assert!(report.converged, "seed {seed}: gap {}", report.fw_gap);
            for k in 0..5 {
                let sum: f64 = state.row(k).iter().sum();
                assert!((sum - instance.own_load(k)).abs() < 1e-6);
                assert!(state.row(k).iter().all(|&v| v >= -1e-9));
            }
        }
    }

    /// BCD's sweep count and objective on equal speeds (the
    /// water-filling sweep's value-sorted branch), pinned to the bit.
    #[test]
    fn solver_results_are_pinned() {
        let free = random_instance(30, 5);
        let m = free.len();
        let equal_speeds = Instance::new(
            vec![2.5; m],
            free.own_loads().to_vec(),
            free.latency().clone(),
        );
        let (_, bcd) = solve_bcd(&equal_speeds, 500, 1e-10, None);
        assert_eq!(
            (bcd.iters, bcd.objective.to_bits()),
            (98, 0x40b5_bf25_aecb_5284)
        );
    }

    #[test]
    fn two_identical_servers_split_evenly() {
        // Zero latency, equal speeds, load only on org 0: optimum splits
        // the load evenly.
        let instance = Instance::new(vec![1.0, 1.0], vec![10.0, 0.0], LatencyMatrix::zero(2));
        let (state, report) = solve_bcd(&instance, 200, 1e-10, None);
        assert!(report.converged);
        assert!((state.row(0)[0] - 5.0).abs() < 1e-5, "{:?}", state.row(0));
        assert!((state.row(0)[1] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn latency_shifts_the_split() {
        // Lemma 1 with m=2: moving Δ from 0 to 1 optimal at
        // Δ = (l0 - l1 - c·s... with s=1: Δ = (10 - 0 - c)/2.
        let c = 4.0;
        let instance = Instance::new(
            vec![1.0, 1.0],
            vec![10.0, 0.0],
            LatencyMatrix::homogeneous(2, c),
        );
        let (state, _) = solve_bcd(&instance, 200, 1e-10, None);
        let expected_moved = (10.0 - c) / 2.0;
        assert!(
            (state.row(0)[1] - expected_moved).abs() < 1e-5,
            "moved {} expected {expected_moved}",
            state.row(0)[1]
        );
    }

    #[test]
    fn high_latency_keeps_everything_local() {
        let instance = Instance::new(
            vec![1.0, 1.0],
            vec![10.0, 10.0],
            LatencyMatrix::homogeneous(2, 1000.0),
        );
        let (state, report) = solve_bcd(&instance, 200, 1e-10, None);
        assert!(report.converged);
        assert!((state.row(0)[0] - 10.0).abs() < 1e-6);
        assert!((state.row(1)[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn caps_are_respected() {
        let m = 3;
        let instance = random_instance(m, 7);
        let mut caps = vec![0.0; m * m];
        for k in 0..m {
            for j in 0..m {
                caps[k * m + j] = instance.own_load(k) / 2.0; // R = 2
            }
        }
        let (state, report) = solve_bcd(&instance, 2_000, 1e-10, Some(&caps));
        assert!(report.converged, "gap {}", report.fw_gap);
        for k in 0..m {
            for j in 0..m {
                assert!(state.row(k)[j] <= caps[k * m + j]);
            }
            let sum: f64 = state.row(k).iter().sum();
            assert!((sum - instance.own_load(k)).abs() < 1e-6);
        }
    }

    #[test]
    fn capped_optimum_is_no_better_than_uncapped() {
        let m = 4;
        let instance = random_instance(m, 8);
        let (_, free) = solve_bcd(&instance, 2_000, 1e-10, None);
        let caps: Vec<f64> = (0..m * m).map(|i| instance.own_load(i / m) / 2.0).collect();
        let (_, capped) = solve_bcd(&instance, 2_000, 1e-10, Some(&caps));
        assert!(capped.objective >= free.objective - 1e-6 * free.objective.max(1.0));
    }
}
