//! Proposition 1: bounding the distance to the optimum from observable
//! quantities.
//!
//! While running, the distributed algorithm can estimate how far the
//! current solution is from optimal *without knowing the optimum*: if
//! the error graph has no negative cycle and `Δr_jk` denotes what
//! Algorithm 1 would currently transfer between servers `j` and `k`,
//! then
//!
//! ```text
//! ‖ρ − ρ'‖₁ ≤ (4m + 1) · ΔR · Σ_i s_i,
//! ΔR = Σ_j max_k (1/s_j + 1/s_k) · Δr_jk .
//! ```
//!
//! The estimate tells operators whether continuing to iterate is still
//! profitable (paper §IV-B).

use dlb_core::{Assignment, Instance};

use crate::transfer::calc_best_transfer;

/// The Proposition 1 estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBound {
    /// `ΔR` — the speed-weighted maximal pending transfer mass.
    pub delta_r: f64,
    /// `(4m+1) · ΔR · Σ s_i` — upper bound on `‖ρ − ρ'‖₁` (requests).
    pub bound_l1: f64,
}

/// Volume Algorithm 1 would move *onto* server `j` from server `i`
/// (the `Δr_ij` of Proposition 1), measured as the net load change of
/// `j`.
///
/// Net load (rather than per-owner churn) is the right reading: in
/// homogeneous networks Algorithm 1 may re-shuffle *which* owner's
/// requests sit on each server at exactly zero improvement, and the
/// Proposition's proof uses `Δr` only through weighted load
/// differences.
pub fn pending_transfer(instance: &Instance, a: &Assignment, i: usize, j: usize) -> f64 {
    if i == j {
        return 0.0;
    }
    let outcome = calc_best_transfer(instance, a.ledger(i), a.ledger(j), i, j, 0.0);
    (outcome.ledger_j.sum() - a.load(j)).max(0.0)
}

/// Computes the Proposition 1 bound for the current state. `O(m²)`
/// pairwise Algorithm 1 evaluations — intended for monitoring at table
/// scale, not for the inner loop.
pub fn proposition1_bound(instance: &Instance, a: &Assignment) -> ErrorBound {
    let m = instance.len();
    let mut delta_r = 0.0;
    for j in 0..m {
        let mut worst = 0.0f64;
        for k in 0..m {
            if k == j {
                continue;
            }
            let moved = pending_transfer(instance, a, j, k);
            let weighted = (1.0 / instance.speed(j) + 1.0 / instance.speed(k)) * moved;
            worst = worst.max(weighted);
        }
        delta_r += worst;
    }
    let total_speed: f64 = instance.total_speed();
    ErrorBound {
        delta_r,
        bound_l1: (4.0 * m as f64 + 1.0) * delta_r * total_speed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};
    use crate::error_graph::manhattan_distance;
    use dlb_core::rngutil::rng_for;
    use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
    use dlb_core::LatencyMatrix;

    fn engine_opts(seed: u64) -> EngineOptions {
        EngineOptions {
            seed,
            parallel: false,
            ..Default::default()
        }
    }

    fn sample(m: usize, seed: u64) -> dlb_core::Instance {
        let mut rng = rng_for(seed, 71);
        WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 40.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(m, 20.0), &mut rng)
    }

    #[test]
    fn bound_is_zero_at_fixpoint() {
        let instance = sample(10, 1);
        let mut engine = Engine::new(instance.clone(), engine_opts(1));
        engine.run_to_convergence(1e-12, 3, 200);
        let bound = proposition1_bound(&instance, engine.assignment());
        // At the fixpoint no pair wants to exchange anything of
        // substance. The engine skips exchanges improving less than
        // ~1e-12·ΣC, and improvement is quadratic in the transfer, so
        // residual pending transfers are O(√ε) ≈ 1e-4 requests.
        assert!(
            bound.delta_r < 1e-2,
            "delta_r = {} at fixpoint",
            bound.delta_r
        );
        assert!(
            bound.bound_l1 < 1e-2 * instance.total_load(),
            "bound {} not small next to total load {}",
            bound.bound_l1,
            instance.total_load()
        );
    }

    #[test]
    fn bound_dominates_actual_distance() {
        // Run the engine a couple of iterations, compare the bound
        // against the actual distance to the (engine-approximated)
        // optimum.
        let instance = sample(8, 2);
        let mut optimum = Engine::new(instance.clone(), engine_opts(3));
        optimum.run_to_convergence(1e-12, 3, 300);
        let opt_assignment = optimum.assignment().clone();

        let mut partial = Engine::new(instance.clone(), engine_opts(3));
        partial.run_iteration();
        let bound = proposition1_bound(&instance, partial.assignment());
        let actual = manhattan_distance(partial.assignment(), &opt_assignment);
        assert!(
            bound.bound_l1 >= actual * 0.999,
            "bound {} must dominate distance {actual}",
            bound.bound_l1
        );
    }

    #[test]
    fn bound_shrinks_as_engine_converges() {
        let instance = sample(10, 4);
        let mut engine = Engine::new(instance.clone(), engine_opts(5));
        let b0 = proposition1_bound(&instance, engine.assignment()).bound_l1;
        for _ in 0..4 {
            engine.run_iteration();
        }
        let b4 = proposition1_bound(&instance, engine.assignment()).bound_l1;
        assert!(
            b4 <= b0 * 0.8 + 1e-9,
            "bound should shrink markedly: {b0} -> {b4}"
        );
    }

    #[test]
    fn pending_transfer_matches_imbalance() {
        // Two idle/loaded equal-speed servers, zero latency: Algorithm 1
        // moves half the load.
        let instance =
            dlb_core::Instance::new(vec![1.0, 1.0], vec![10.0, 0.0], LatencyMatrix::zero(2));
        let a = dlb_core::Assignment::local(&instance);
        assert!((pending_transfer(&instance, &a, 0, 1) - 5.0).abs() < 1e-9);
        assert_eq!(pending_transfer(&instance, &a, 1, 0), 0.0);
    }
}
