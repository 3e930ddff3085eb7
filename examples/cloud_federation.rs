//! A federation of selfish cloud providers.
//!
//! Each datacenter offloads work to the others but optimizes only its
//! own requests' completion time. We drive the system to a Nash
//! equilibrium with best-response dynamics, verify it, and compare its
//! social cost against the cooperative optimum — the *price of
//! anarchy* — including Theorem 1's closed-form band for the
//! homogeneous case.
//!
//! Run with `cargo run --release --example cloud_federation`.

use delay_lb::game::poa::{cost_ratio, load_spread};
use delay_lb::prelude::*;

fn main() {
    println!("== homogeneous federation (Theorem 1 regime) ==");
    homogeneous_case();
    println!("\n== heterogeneous federation (measured only) ==");
    heterogeneous_case();
}

fn homogeneous_case() {
    let (m, s, c, l_av) = (20, 1.0, 20.0, 200.0);
    let mut rng = delay_lb::core::rngutil::rng_for(11, 0);
    let spec = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: l_av,
        speeds: SpeedDistribution::Constant(s),
    };
    let instance = spec.sample(LatencyMatrix::homogeneous(m, c), &mut rng);

    // Selfish play.
    let mut nash = Assignment::local(&instance);
    let report = run_best_response_dynamics(
        &instance,
        &mut nash,
        &DynamicsOptions {
            change_threshold: 1e-6,
            ..Default::default()
        },
    );
    let gap = epsilon_nash_gap(&instance, &nash);
    println!(
        "best-response dynamics: {} rounds (converged: {}), ε-Nash gap {:.2e}",
        report.rounds, report.converged, gap
    );

    // Cooperative optimum.
    let (opt, _) = solve_bcd(&instance, 2_000, 1e-10);
    let opt_assignment = delay_lb::solver::dense_to_assignment(&instance, &opt);

    let ratio = cost_ratio(&instance, &nash, &opt_assignment);
    let (lo, hi) = theorem1_bounds(c, s, instance.average_load());
    println!("cost of selfishness:    {ratio:.4}");
    println!("Theorem 1 PoA band:     [{lo:.4}, {hi:.4}] (worst case over instances)");
    println!(
        "equilibrium load spread {:.1} (Lemma 3 bound c·s = {:.1})",
        load_spread(&nash),
        c * s
    );
}

fn heterogeneous_case() {
    let m = 25;
    let latency = planetlab::generate(m, 3);
    let mut rng = delay_lb::core::rngutil::rng_for(11, 1);
    let spec = WorkloadSpec {
        loads: LoadDistribution::Uniform,
        avg_load: 50.0,
        speeds: SpeedDistribution::paper_uniform(),
    };
    let instance = spec.sample(latency, &mut rng);

    let mut nash = Assignment::local(&instance);
    let report = run_best_response_dynamics(
        &instance,
        &mut nash,
        &DynamicsOptions {
            change_threshold: 1e-6,
            ..Default::default()
        },
    );
    let (opt, _) = solve_bcd(&instance, 2_000, 1e-10);
    let opt_assignment = delay_lb::solver::dense_to_assignment(&instance, &opt);
    let ratio = cost_ratio(&instance, &nash, &opt_assignment);
    println!(
        "best-response dynamics: {} rounds, cost of selfishness {ratio:.4}",
        report.rounds
    );
    println!(
        "selfish ΣC = {:.0}, cooperative ΣC = {:.0}",
        total_cost(&instance, &nash),
        delay_lb::solver::objective(&instance, &opt)
    );
    println!("(the paper's Table III reports ratios ≤ 1.15 across all settings)");
}
