//! Selfish-organization integration tests: equilibria, the price of
//! anarchy, and the Table III headline (cost of selfishness ≤ ~1.15).

use delay_lb::game::poa::{cost_ratio, load_spread};
use delay_lb::game::theorem1_tight_equilibrium;
use delay_lb::prelude::*;

#[test]
fn measured_poa_respects_theorem1_band() {
    for &l_av in &[100.0, 400.0] {
        let (m, s, c) = (16, 1.0, 10.0);
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
        assert!(ratio >= 1.0 - 1e-9, "equilibrium beat the optimum: {ratio}");
        assert!(ratio <= hi + 1e-6, "PoA {ratio} above Theorem 1 bound {hi}");
        // Lemma 3 spread (with ε-equilibrium slack).
        assert!(load_spread(&nash) <= c * s * 1.05 + 1e-9);
    }
}

#[test]
fn tight_equilibrium_is_nash_and_costly() {
    let (m, s, c, l_av) = (30, 1.0, 8.0, 200.0);
    let instance = Instance::homogeneous(m, s, c, l_av);
    let eq = theorem1_tight_equilibrium(&instance);
    assert!(epsilon_nash_gap(&instance, &eq) < 1e-9);
    let opt = Assignment::local(&instance);
    let ratio = cost_ratio(&instance, &eq, &opt);
    // The construction wastes ≈ 2cs/l_av of the cost.
    let expected = 1.0 + 2.0 * c * s / l_av;
    assert!(
        ratio > 1.0 + 0.5 * (expected - 1.0),
        "tight construction not wasteful enough: {ratio} (expected ≈ {expected})"
    );
    let (lo, hi) = theorem1_bounds(c, s, l_av);
    assert!(ratio >= lo - 0.02 && ratio <= hi + 0.02);
}

#[test]
fn table3_grid_cost_of_selfishness_is_low() {
    // A slice of the Table III grid; the paper's maxima stay ≤ 1.15.
    let mut worst: f64 = 1.0;
    for (avg, speeds) in [
        (20.0, SpeedDistribution::Constant(1.0)),
        (50.0, SpeedDistribution::Constant(1.0)),
        (200.0, SpeedDistribution::Constant(1.0)),
        (50.0, SpeedDistribution::paper_uniform()),
    ] {
        for seed in 0..2u64 {
            let mut rng = delay_lb::core::rngutil::rng_for(seed, 900);
            let instance = WorkloadSpec {
                loads: LoadDistribution::Uniform,
                avg_load: avg,
                speeds,
            }
            .sample(LatencyMatrix::homogeneous(20, 20.0), &mut rng);
            let mut nash = Assignment::local(&instance);
            run_best_response_dynamics(
                &instance,
                &mut nash,
                &DynamicsOptions {
                    seed,
                    ..Default::default()
                },
            );
            let (opt, _) = solve_bcd(&instance, 2_000, 1e-10);
            let ratio = total_cost(&instance, &nash) / delay_lb::solver::objective(&instance, &opt);
            worst = worst.max(ratio);
        }
    }
    assert!(
        worst <= 1.25,
        "cost of selfishness {worst} far above the paper's ≤1.15 regime"
    );
}

#[test]
fn planetlab_equilibria_are_cheaper_than_homogeneous() {
    // Paper observation: the selfishness cost on PL networks is lower
    // than on homogeneous ones (Table III: PL rows ≈ 1.00-1.01).
    let mut rng = delay_lb::core::rngutil::rng_for(4, 901);
    let spec = WorkloadSpec {
        loads: LoadDistribution::Uniform,
        avg_load: 50.0,
        speeds: SpeedDistribution::Constant(1.0),
    };
    let pl = spec.sample(planetlab::generate(20, 9), &mut rng);
    let mut nash = Assignment::local(&pl);
    run_best_response_dynamics(&pl, &mut nash, &DynamicsOptions::default());
    let (opt, _) = solve_bcd(&pl, 2_000, 1e-10);
    let ratio = total_cost(&pl, &nash) / delay_lb::solver::objective(&pl, &opt);
    assert!(
        ratio <= 1.10,
        "PL selfishness cost {ratio} unexpectedly high"
    );
}

#[test]
fn equilibrium_survives_perturbation() {
    // Re-running dynamics from an equilibrium must not move it much.
    let mut rng = delay_lb::core::rngutil::rng_for(5, 902);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 80.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
    let mut nash = Assignment::local(&instance);
    run_best_response_dynamics(
        &instance,
        &mut nash,
        &DynamicsOptions {
            change_threshold: 1e-8,
            ..Default::default()
        },
    );
    let cost1 = total_cost(&instance, &nash);
    let report = run_best_response_dynamics(
        &instance,
        &mut nash,
        &DynamicsOptions {
            change_threshold: 1e-8,
            seed: 99,
            ..Default::default()
        },
    );
    let cost2 = total_cost(&instance, &nash);
    assert!(report.converged);
    assert!((cost1 - cost2).abs() <= 1e-3 * cost1);
}
