//! ε-Nash verification.
//!
//! A state is an ε-Nash equilibrium when no organization can lower its
//! own cost `C_i` by more than a factor `ε` by unilaterally deviating.
//! Because the exact best response is computable in closed form, the
//! verification is exact (up to floating point).

use dlb_core::{Assignment, Instance};

use crate::game::best_response::{best_response, best_response_cost};

/// The largest relative gain any organization could realize by
/// deviating: `max_i (C_i − C_i^BR) / max(C_i, 1)`.
pub fn epsilon_nash_gap(instance: &Instance, a: &Assignment) -> f64 {
    let m = instance.len();
    let mut worst: f64 = 0.0;
    for i in 0..m {
        if instance.own_load(i) == 0.0 {
            continue;
        }
        let cur_row = a.owner_row(i);
        let cur = best_response_cost(instance, a, i, &cur_row);
        let br = best_response(instance, a, i);
        let best = best_response_cost(instance, a, i, &br);
        let gain = (cur - best) / cur.max(1.0);
        worst = worst.max(gain);
    }
    worst
}

/// Returns `true` when no organization can improve its own cost by a
/// relative factor larger than `epsilon`.
pub fn is_epsilon_nash(instance: &Instance, a: &Assignment, epsilon: f64) -> bool {
    epsilon_nash_gap(instance, a) <= epsilon
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::dynamics::{run_best_response_dynamics, DynamicsOptions};
    use dlb_core::LatencyMatrix;

    #[test]
    fn local_state_is_nash_under_huge_latency() {
        let instance = Instance::new(
            vec![1.0; 4],
            vec![10.0, 20.0, 5.0, 8.0],
            LatencyMatrix::homogeneous(4, 10_000.0),
        );
        let a = Assignment::local(&instance);
        assert!(is_epsilon_nash(&instance, &a, 1e-9));
    }

    #[test]
    fn imbalanced_state_is_not_nash_at_zero_latency() {
        let instance = Instance::new(vec![1.0, 1.0], vec![100.0, 0.0], LatencyMatrix::zero(2));
        let a = Assignment::local(&instance);
        assert!(!is_epsilon_nash(&instance, &a, 0.01));
        assert!(epsilon_nash_gap(&instance, &a) > 0.1);
    }

    #[test]
    fn dynamics_output_passes_verification() {
        let instance = Instance::new(
            vec![2.0, 1.0, 3.0],
            vec![50.0, 10.0, 0.0],
            LatencyMatrix::homogeneous(3, 5.0),
        );
        let mut a = Assignment::local(&instance);
        run_best_response_dynamics(
            &instance,
            &mut a,
            &DynamicsOptions {
                change_threshold: 1e-8,
                ..Default::default()
            },
        );
        assert!(is_epsilon_nash(&instance, &a, 1e-5));
    }

    #[test]
    fn gap_is_monotone_in_imbalance() {
        let make = |n0: f64| {
            let instance = Instance::new(
                vec![1.0, 1.0],
                vec![n0, 0.0],
                LatencyMatrix::homogeneous(2, 1.0),
            );
            let a = Assignment::local(&instance);
            epsilon_nash_gap(&instance, &a)
        };
        assert!(make(100.0) > make(10.0));
    }
}
