//! FISTA-accelerated projected gradient descent and exact
//! block-coordinate descent for the full cooperative QP, both of which
//! solve their rows with [`waterfill`] and judge convergence by
//! [`fw_gap`]. PGD has no tuning options: its one input besides the
//! instance is the R-replication caps, which it hands unchanged to
//! both.

use dlb_core::Instance;

use crate::dense::{fw_gap, gradient, objective, DenseState};
use crate::waterfill::waterfill;

/// Iteration budget of [`solve_pgd`].
const MAX_ITERS: usize = 20_000;

/// Convergence report shared by the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Iterations actually performed.
    pub iters: usize,
    /// Final objective value.
    pub objective: f64,
    /// Final Frank-Wolfe gap (upper bound on suboptimality).
    pub fw_gap: f64,
    /// Whether the gap tolerance was reached.
    pub converged: bool,
}

/// Projects each row `v` of `x` exactly onto `{0 ≤ r ≤ caps, Σ r = n_k}`:
/// water-filling with `a = −v` at unit speeds.
fn project_rows(instance: &Instance, x: &mut [f64], caps: Option<&[f64]>) {
    let m = instance.len();
    let unit = vec![1.0; m];
    for (k, row) in x.chunks_mut(m).enumerate() {
        let cost: Vec<f64> = row.iter().map(|v| -v).collect();
        let row_caps = caps.map(|c| &c[k * m..(k + 1) * m]);
        row.copy_from_slice(&waterfill(&cost, &unit, row_caps, instance.own_load(k)));
    }
}

/// Solves the cooperative QP by projected gradient descent to the
/// relative Frank-Wolfe gap [`DEFAULT_TOL`](crate::DEFAULT_TOL), in at
/// most 20 000 iterations. `caps` bounds each `r_kj` (row-major, length
/// `m²`): the R-replication extension's `r_kj ≤ n_k / R`. The caps go
/// unchanged to the row projection and the gap, both exact under them,
/// so every iterate — the starting point included — respects them.
///
/// The gradient of `ΣC` is `m/s_min`-Lipschitz (the Hessian is
/// block-diagonal per server column with top eigenvalue `m/s_j`), so a
/// fixed step `s_min/m` guarantees descent; the step is taken at
/// FISTA's extrapolated point, with an adaptive restart whenever the
/// objective rises.
pub fn solve_pgd(instance: &Instance, caps: Option<&[f64]>) -> (DenseState, SolveReport) {
    let m = instance.len();
    let mut state = DenseState::local(instance);
    if m == 0 {
        return (
            state,
            SolveReport {
                iters: 0,
                objective: 0.0,
                fw_gap: 0.0,
                converged: true,
            },
        );
    }
    // Make the starting point feasible under the caps.
    project_rows(instance, &mut state.r, caps);
    state.refresh_loads();
    let s_min = instance
        .speeds()
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let step = s_min / m as f64;
    let mut grad = vec![0.0; m * m];
    let mut x = state.r.clone();
    let mut y = x.clone();
    let mut t = 1.0f64;
    let mut prev_obj = f64::INFINITY;
    let scale = objective(instance, &state).abs().max(1.0);

    let mut report = SolveReport {
        iters: 0,
        objective: 0.0,
        fw_gap: f64::INFINITY,
        converged: false,
    };
    for iter in 0..MAX_ITERS {
        // Convergence check at the current feasible iterate x.
        state.r.copy_from_slice(&x);
        state.refresh_loads();
        gradient(instance, &state, &mut grad);
        let obj = objective(instance, &state);
        let gap = fw_gap(instance, &state, &grad, caps);
        report = SolveReport {
            iters: iter,
            objective: obj,
            fw_gap: gap,
            converged: gap <= crate::DEFAULT_TOL * scale,
        };
        if report.converged {
            break;
        }

        // Gradient step at y.
        state.r.copy_from_slice(&y);
        state.refresh_loads();
        gradient(instance, &state, &mut grad);
        let mut x_next = y.clone();
        for (xi, g) in x_next.iter_mut().zip(grad.iter()) {
            *xi -= step * g;
        }
        project_rows(instance, &mut x_next, caps);
        // Adaptive restart when the objective increases.
        state.r.copy_from_slice(&x_next);
        state.refresh_loads();
        let new_obj = objective(instance, &state);
        if new_obj > prev_obj {
            t = 1.0;
            y.copy_from_slice(&x);
            prev_obj = f64::INFINITY;
            continue;
        }
        prev_obj = new_obj;
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_next;
        for i in 0..y.len() {
            y[i] = x_next[i] + beta * (x_next[i] - x[i]);
        }
        project_rows(instance, &mut y, caps);
        x.copy_from_slice(&x_next);
        t = t_next;
    }
    state.r.copy_from_slice(&x);
    state.refresh_loads();
    report.objective = objective(instance, &state);
    (state, report)
}

/// Exact block-coordinate descent: cyclically re-optimizes each
/// organization's row with the closed-form water-filling solver
/// (`a_j = l_j^{-k}/s_j + c_kj`). For this strictly block-convex QP the
/// method converges to the global optimum; in practice it is by far the
/// fastest of the centralized solvers and serves as the optimum oracle
/// in the experiments.
pub fn solve_bcd(instance: &Instance, max_sweeps: usize, tol: f64) -> (DenseState, SolveReport) {
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
            let x = waterfill(&a, instance.speeds(), None, n_k);
            state.set_row_with_loads(k, &x);
        }
        gradient(instance, &state, &mut grad);
        let gap = fw_gap(instance, &state, &grad, None);
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
    fn pgd_converges_on_small_instances() {
        for seed in 0..3 {
            let instance = random_instance(5, seed);
            let (state, report) = solve_pgd(&instance, None);
            assert!(report.converged, "seed {seed}: gap {}", report.fw_gap);
            // Feasibility.
            for k in 0..5 {
                let sum: f64 = state.row(k).iter().sum();
                assert!((sum - instance.own_load(k)).abs() < 1e-6);
                assert!(state.row(k).iter().all(|&v| v >= -1e-9));
            }
        }
    }

    #[test]
    fn bcd_matches_pgd() {
        for seed in 10..14 {
            let instance = random_instance(6, seed);
            let (_, pgd) = solve_pgd(&instance, None);
            let (_, bcd) = solve_bcd(&instance, 500, 1e-9);
            assert!(
                (pgd.objective - bcd.objective).abs() < 1e-4 * pgd.objective.max(1.0),
                "seed {seed}: pgd {} vs bcd {}",
                pgd.objective,
                bcd.objective
            );
        }
    }

    /// Both centralized solvers, pinned to the bit: PGD's iteration
    /// count and objective, and BCD's objective on equal speeds (the
    /// water-filling sweep's value-sorted branch).
    #[test]
    fn solver_results_are_pinned() {
        let pgd_instance = random_instance(20, 4);
        let (_, pgd) = solve_pgd(&pgd_instance, None);
        let free = random_instance(30, 5);
        let m = free.len();
        let equal_speeds = Instance::new(
            vec![2.5; m],
            free.own_loads().to_vec(),
            free.latency().clone(),
        );
        let (_, bcd) = solve_bcd(&equal_speeds, 500, 1e-10);
        assert_eq!(
            (pgd.iters, pgd.objective.to_bits()),
            (360, 0x40ab_7d4f_56da_1ba0)
        );
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
        let (state, report) = solve_bcd(&instance, 200, 1e-10);
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
        let (state, _) = solve_bcd(&instance, 200, 1e-10);
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
        let (state, report) = solve_pgd(&instance, None);
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
        let (state, _) = solve_pgd(&instance, Some(&caps));
        for k in 0..m {
            for j in 0..m {
                assert!(state.row(k)[j] <= caps[k * m + j] + 1e-6);
            }
            let sum: f64 = state.row(k).iter().sum();
            assert!((sum - instance.own_load(k)).abs() < 1e-6);
        }
    }

    #[test]
    fn capped_optimum_is_no_better_than_uncapped() {
        let m = 4;
        let instance = random_instance(m, 8);
        let (_, free) = solve_pgd(&instance, None);
        let caps: Vec<f64> = (0..m * m).map(|i| instance.own_load(i / m) / 2.0).collect();
        let (_, capped) = solve_pgd(&instance, Some(&caps));
        assert!(capped.objective >= free.objective - 1e-6 * free.objective.max(1.0));
    }
}
