//! Sequential best-response dynamics.
//!
//! The paper approximates Nash equilibria with the following heuristic
//! (§VI-C): every organization in turn plays its exact best response to
//! the current distribution of requests; the process stops when all
//! organizations changed their distribution by less than 1 % in two
//! consecutive rounds.

use dlb_core::rngutil::rng_for;
use dlb_core::{Assignment, Instance};
use rand::seq::SliceRandom;

use crate::game::best_response::best_response;

/// Options for the best-response dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsOptions {
    /// Relative per-organization change below which a round counts as
    /// calm (the paper uses 1 %).
    pub change_threshold: f64,
    /// Consecutive calm rounds required to stop (the paper uses 2).
    pub calm_rounds: usize,
    /// Hard round budget.
    pub max_rounds: usize,
    /// RNG seed for the response order, which is shuffled every round.
    pub seed: u64,
}

impl Default for DynamicsOptions {
    fn default() -> Self {
        Self {
            change_threshold: 0.01,
            calm_rounds: 2,
            max_rounds: 10_000,
            seed: 0,
        }
    }
}

/// Result of a best-response-dynamics run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the calm criterion was met within the budget.
    pub converged: bool,
    /// Largest relative change in the final round.
    pub final_max_change: f64,
}

/// Runs sequential best-response dynamics in place and reports how it
/// terminated. `assignment` is typically [`Assignment::local`].
pub fn run_best_response_dynamics(
    instance: &Instance,
    assignment: &mut Assignment,
    options: &DynamicsOptions,
) -> DynamicsReport {
    let m = instance.len();
    let mut rng = rng_for(options.seed, 0x6A3E);
    let mut order: Vec<usize> = (0..m).collect();
    let mut calm = 0usize;
    let mut final_max_change = f64::INFINITY;
    for round in 0..options.max_rounds {
        order.shuffle(&mut rng);
        let mut max_change = 0.0f64;
        for &i in &order {
            let n_i = instance.own_load(i);
            if n_i == 0.0 {
                continue;
            }
            let new_row = best_response(instance, assignment, i);
            let old_row = assignment.owner_row(i);
            let change: f64 = new_row
                .iter()
                .zip(old_row.iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / n_i;
            max_change = max_change.max(change);
            assignment.set_owner_row(i, &new_row);
        }
        final_max_change = max_change;
        if max_change < options.change_threshold {
            calm += 1;
            if calm >= options.calm_rounds {
                return DynamicsReport {
                    rounds: round + 1,
                    converged: true,
                    final_max_change,
                };
            }
        } else {
            calm = 0;
        }
    }
    DynamicsReport {
        rounds: options.max_rounds,
        converged: false,
        final_max_change,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::nash::epsilon_nash_gap;
    use dlb_core::cost::total_cost;
    use dlb_core::rngutil::rng_for;
    use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
    use dlb_core::LatencyMatrix;

    fn sample(m: usize, avg: f64, seed: u64) -> Instance {
        let mut rng = rng_for(seed, 17);
        WorkloadSpec {
            loads: LoadDistribution::Uniform,
            avg_load: avg,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(m, 20.0), &mut rng)
    }

    #[test]
    fn dynamics_converge_and_reach_near_nash() {
        for seed in 0..3 {
            let instance = sample(15, 50.0, seed);
            let mut a = Assignment::local(&instance);
            let report = run_best_response_dynamics(
                &instance,
                &mut a,
                &DynamicsOptions {
                    seed,
                    change_threshold: 1e-4,
                    ..Default::default()
                },
            );
            assert!(report.converged, "seed {seed}");
            a.check_invariants(&instance).unwrap();
            let gap = epsilon_nash_gap(&instance, &a);
            assert!(gap < 1e-2, "seed {seed}: nash gap {gap}");
        }
    }

    #[test]
    fn tighter_threshold_means_tighter_equilibrium() {
        let instance = sample(10, 40.0, 9);
        let mut loose = Assignment::local(&instance);
        run_best_response_dynamics(
            &instance,
            &mut loose,
            &DynamicsOptions {
                change_threshold: 0.05,
                ..Default::default()
            },
        );
        let mut tight = Assignment::local(&instance);
        run_best_response_dynamics(
            &instance,
            &mut tight,
            &DynamicsOptions {
                change_threshold: 1e-6,
                ..Default::default()
            },
        );
        assert!(epsilon_nash_gap(&instance, &tight) <= epsilon_nash_gap(&instance, &loose) + 1e-9);
    }

    #[test]
    fn symmetric_instance_stays_symmetric_enough() {
        // Equal loads and speeds: all-local is already an equilibrium
        // when the latency is large relative to load differences.
        let instance = Instance::new(
            vec![1.0; 5],
            vec![10.0; 5],
            LatencyMatrix::homogeneous(5, 100.0),
        );
        let mut a = Assignment::local(&instance);
        let before = total_cost(&instance, &a);
        let report = run_best_response_dynamics(&instance, &mut a, &DynamicsOptions::default());
        assert!(report.converged);
        let after = total_cost(&instance, &a);
        assert!((before - after).abs() < 1e-9, "nothing should move");
    }

    #[test]
    fn zero_load_orgs_are_skipped() {
        let instance = Instance::new(
            vec![1.0, 1.0],
            vec![0.0, 10.0],
            LatencyMatrix::homogeneous(2, 5.0),
        );
        let mut a = Assignment::local(&instance);
        let report = run_best_response_dynamics(&instance, &mut a, &DynamicsOptions::default());
        assert!(report.converged);
        a.check_invariants(&instance).unwrap();
    }
}
