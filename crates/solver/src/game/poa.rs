//! Price of anarchy: measured ratios and the closed-form theory of §V-A.
//!
//! For a homogeneous network (speed `s`, latency `c`, average load
//! `l_av`) the paper proves
//!
//! ```text
//! 1 + 2cs/l_av − 4(cs/l_av)²  ≤  PoA  ≤  1 + 2cs/l_av + (cs/l_av)²
//! ```
//!
//! (Theorem 1) and that in any equilibrium the load spread obeys
//! `|l_i − l_j| ≤ c·s` (Lemma 3). Both bounds, the tightness
//! construction from the proof, and the measured-cost ratio used in
//! Table III live here.

use dlb_core::{Assignment, Instance};

/// Theorem 1's closed-form band on the homogeneous price of anarchy:
/// `(lower, upper)` around `1 + 2cs/l_av`.
pub fn theorem1_bounds(c: f64, s: f64, l_av: f64) -> (f64, f64) {
    assert!(l_av > 0.0, "average load must be positive");
    let x = c * s / l_av;
    (
        (1.0 + 2.0 * x - 4.0 * x * x).max(1.0),
        1.0 + 2.0 * x + x * x,
    )
}

/// Lemma 3: in a homogeneous equilibrium, `|l_i − l_j| ≤ c·s`.
pub fn lemma3_load_spread_bound(c: f64, s: f64) -> f64 {
    c * s
}

/// Maximal pairwise load spread of an assignment (for checking Lemma 3
/// against measured equilibria).
pub fn load_spread(a: &Assignment) -> f64 {
    let loads = a.loads();
    let max = loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
    if max.is_finite() && min.is_finite() {
        max - min
    } else {
        0.0
    }
}

/// The equilibrium used in Theorem 1's tightness proof: on a
/// homogeneous instance with equal initial loads `l_av ≥ 2cs`, every
/// organization keeps `2cs + (l_av − 2cs)/m` at home and relays
/// `(l_av − 2cs)/m` to each other server. Every server's load remains
/// `l_av`, yet `(m−1)(l_av−2cs)/m` requests per organization pay the
/// latency `c` — a socially wasteful Nash equilibrium.
///
/// # Panics
/// Panics when the instance is not homogeneous or `l_av < 2cs` (the
/// construction requires loaded servers).
pub fn theorem1_tight_equilibrium(instance: &Instance) -> Assignment {
    let m = instance.len();
    assert!(m >= 2, "need at least two servers");
    assert!(
        instance.is_homogeneous(1e-9),
        "tightness construction needs a homogeneous network"
    );
    let s = instance.speed(0);
    let c = instance.c(0, 1);
    let l_av = instance.average_load();
    for i in 0..m {
        assert!(
            (instance.own_load(i) - l_av).abs() <= 1e-9 * l_av.max(1.0),
            "tightness construction needs equal initial loads"
        );
    }
    assert!(
        l_av >= 2.0 * c * s,
        "construction requires l_av ≥ 2cs (loaded servers)"
    );
    let away = (l_av - 2.0 * c * s) / m as f64;
    let keep = l_av - (m as f64 - 1.0) * away;
    let mut rho = vec![0.0; m * m];
    for i in 0..m {
        for j in 0..m {
            rho[i * m + j] = if i == j { keep / l_av } else { away / l_av };
        }
    }
    Assignment::from_fractions(instance, &rho)
}

/// Measured cost ratio `ΣC(state) / ΣC(reference)` — the "cost of
/// selfishness" of Table III when `state` is an equilibrium and
/// `reference` the cooperative optimum.
pub fn cost_ratio(instance: &Instance, state: &Assignment, reference: &Assignment) -> f64 {
    let num = dlb_core::cost::total_cost(instance, state);
    let den = dlb_core::cost::total_cost(instance, reference);
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::dynamics::{run_best_response_dynamics, DynamicsOptions};
    use crate::game::nash::{epsilon_nash_gap, is_epsilon_nash};
    use crate::solve_bcd;
    use dlb_core::cost::total_cost;
    use dlb_core::rngutil::rng_for;
    use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
    use dlb_core::LatencyMatrix;

    #[test]
    fn bounds_shape() {
        let (lo, hi) = theorem1_bounds(20.0, 1.0, 1000.0);
        assert!(lo > 1.0 && hi > lo);
        // x = 0.02: lo ≈ 1.0384, hi ≈ 1.0404
        assert!((lo - (1.0 + 0.04 - 4.0 * 0.0004)).abs() < 1e-12);
        assert!((hi - (1.0 + 0.04 + 0.0004)).abs() < 1e-12);
        // Unloaded servers: lower bound clamps at 1.
        let (lo2, _) = theorem1_bounds(100.0, 1.0, 10.0);
        assert_eq!(lo2, 1.0);
    }

    #[test]
    fn tight_construction_is_nash() {
        let instance = Instance::homogeneous(6, 1.0, 5.0, 100.0);
        let eq = theorem1_tight_equilibrium(&instance);
        eq.check_invariants(&instance).unwrap();
        // Every server keeps load l_av.
        for j in 0..6 {
            assert!((eq.load(j) - 100.0).abs() < 1e-9);
        }
        assert!(
            is_epsilon_nash(&instance, &eq, 1e-9),
            "gap = {}",
            epsilon_nash_gap(&instance, &eq)
        );
    }

    #[test]
    fn tight_construction_cost_matches_lower_bound() {
        let m = 50;
        let (s, c, l_av) = (1.0, 5.0, 100.0);
        let instance = Instance::homogeneous(m, s, c, l_av);
        let eq = theorem1_tight_equilibrium(&instance);
        let opt = Assignment::local(&instance); // equal loads: optimal
        let ratio = cost_ratio(&instance, &eq, &opt);
        let (lo, hi) = theorem1_bounds(c, s, l_av);
        assert!(
            ratio >= lo - 0.01 && ratio <= hi + 0.01,
            "ratio {ratio} outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn measured_poa_within_theorem1_band_homogeneous() {
        // Homogeneous loaded network, equal initial loads: by Theorem 1
        // any equilibrium ratio sits within the band (the all-local
        // optimum is exact here).
        let m = 10;
        let (s, c, l_av) = (1.0, 10.0, 200.0);
        let instance = Instance::homogeneous(m, s, c, l_av);
        let mut nash = Assignment::local(&instance);
        run_best_response_dynamics(
            &instance,
            &mut nash,
            &DynamicsOptions {
                change_threshold: 1e-8,
                ..Default::default()
            },
        );
        let opt = Assignment::local(&instance);
        let ratio = cost_ratio(&instance, &nash, &opt);
        let (_, hi) = theorem1_bounds(c, s, l_av);
        assert!(ratio >= 1.0 - 1e-9);
        assert!(ratio <= hi + 1e-6, "ratio {ratio} above upper bound {hi}");
    }

    #[test]
    fn lemma3_spread_holds_in_measured_equilibria() {
        let mut rng = rng_for(3, 5);
        let m = 12;
        let (s, c) = (1.0, 10.0);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 100.0,
            speeds: SpeedDistribution::Constant(s),
        }
        .sample(LatencyMatrix::homogeneous(m, c), &mut rng);
        let mut nash = Assignment::local(&instance);
        run_best_response_dynamics(
            &instance,
            &mut nash,
            &DynamicsOptions {
                change_threshold: 1e-8,
                ..Default::default()
            },
        );
        let spread = load_spread(&nash);
        let bound = lemma3_load_spread_bound(c, s);
        // Allow slack for the ε in the ε-equilibrium.
        assert!(
            spread <= bound * 1.05 + 1e-6,
            "spread {spread} exceeds Lemma 3 bound {bound}"
        );
    }

    #[test]
    fn cost_of_selfishness_is_small_on_paper_like_instances() {
        // The Table III headline: ratios ≤ 1.15.
        let mut worst: f64 = 0.0;
        for seed in 0..4 {
            let mut rng = rng_for(seed, 6);
            let instance = WorkloadSpec {
                loads: LoadDistribution::Uniform,
                avg_load: 50.0,
                speeds: SpeedDistribution::Constant(1.0),
            }
            .sample(LatencyMatrix::homogeneous(20, 20.0), &mut rng);
            let mut nash = Assignment::local(&instance);
            run_best_response_dynamics(
                &instance,
                &mut nash,
                &DynamicsOptions {
                    seed,
                    change_threshold: 1e-6,
                    ..Default::default()
                },
            );
            let (opt_state, _) = solve_bcd(&instance, 2_000, 1e-10, None);
            let opt_cost = crate::objective(&instance, &opt_state);
            let ratio = total_cost(&instance, &nash) / opt_cost;
            assert!(ratio >= 1.0 - 1e-6, "nash beat the optimum?! {ratio}");
            worst = worst.max(ratio);
        }
        assert!(
            worst < 1.25,
            "cost of selfishness suspiciously high: {worst}"
        );
    }
}
