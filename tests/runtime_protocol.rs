//! Cross-crate integration tests: the message-passing runtime against
//! the analytic engine, the solver optimum, and the game layer.

use delay_lb::core::cost::total_cost;
use delay_lb::core::rngutil::rng_for;
use delay_lb::prelude::*;
use delay_lb::runtime::{ClusterOptions, ClusterReport};

/// The protocol on the event executor, every link paying half its RTT
/// one way.
fn run_protocol(instance: &Instance, options: &ClusterOptions) -> ClusterReport {
    run_cluster_events(instance, options, |i, j| instance.c(i, j) / 2.0)
}

fn sample(m: usize, avg: f64, seed: u64, planetlab: bool) -> Instance {
    let latency = if planetlab {
        planetlab::generate(m, seed)
    } else {
        LatencyMatrix::homogeneous(m, 20.0)
    };
    let mut rng = rng_for(seed, 0x17);
    WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: avg,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(latency, &mut rng)
}

/// The wire protocol must land on the same fixpoint as the
/// shared-memory engine, on both network families.
#[test]
fn protocol_reaches_engine_quality_on_both_networks() {
    for planetlab in [false, true] {
        let m = 16;
        let instance = sample(m, 60.0, 3, planetlab);
        let report = run_protocol(&instance, &ClusterOptions::certified(m));
        report.assignment.check_invariants(&instance).unwrap();
        let mut engine = Engine::new(instance.clone(), EngineOptions::default());
        let opt = engine.run_to_convergence(1e-12, 3, 300).final_cost;
        let ratio = report.final_cost / opt;
        assert!(
            ratio <= 1.01,
            "planetlab={planetlab}: protocol {} vs engine {} (ratio {ratio})",
            report.final_cost,
            opt
        );
    }
}

/// The protocol's final state must also be a solver-grade optimum:
/// compare against block-coordinate descent on the §III QP.
#[test]
fn protocol_matches_solver_optimum() {
    let m = 10;
    let instance = sample(m, 40.0, 9, false);
    let report = run_protocol(&instance, &ClusterOptions::certified(m));
    let (rho, _) = solve_bcd(&instance, 3_000, 1e-12);
    let solver_cost = delay_lb::solver::objective(&instance, &rho);
    assert!(
        report.final_cost <= solver_cost * 1.01,
        "protocol {} vs solver {}",
        report.final_cost,
        solver_cost
    );
}

/// Protocol progress is monotone in `ΣC` and conserves every
/// organization's request volume, whatever order the link delays
/// deliver the frames in.
#[test]
fn protocol_is_monotone_and_conservative() {
    let m = 20;
    let instance = sample(m, 150.0, 21, true);
    let report = run_protocol(&instance, &ClusterOptions::default());
    for w in report.history.windows(2) {
        assert!(w[1] <= w[0] * (1.0 + 1e-9), "ΣC increased: {w:?}");
    }
    for k in 0..m {
        let total = report.assignment.owner_total(k);
        assert!(
            (total - instance.own_load(k)).abs() < 1e-6,
            "owner {k} volume drifted: {total} vs {}",
            instance.own_load(k)
        );
    }
    // The last reported history point must price the final ledgers
    // exactly (local cost terms sum to the global objective).
    let recomputed = total_cost(&instance, &report.assignment);
    let last = *report.history.last().unwrap();
    assert!(
        (recomputed - last).abs() <= 1e-6 * recomputed.max(1.0),
        "local-cost accounting drifted: {last} vs {recomputed}"
    );
}

/// Nodes crashed before the first round (announced by the coordinator)
/// take no load, and the rest of the federation still balances.
#[test]
fn protocol_survives_dead_nodes() {
    let m = 12;
    let mut instance = Instance::homogeneous(m, 1.0, 2.0, 0.0);
    let mut loads = vec![0.0; m];
    loads[0] = 2_400.0;
    instance.set_own_loads(loads);
    // Seed 5 crashes three nodes and spares the loaded node 0.
    let script = FaultPlan::parse("crash:0.25@0ms").unwrap().compile(5, m);
    let dead = script.down_at(0.0);
    assert_eq!(dead, [5, 8, 11]);
    let report = run_cluster_events_observed(
        &instance,
        &ClusterOptions::certified(m),
        |i, j| instance.c(i, j) / 2.0,
        &script,
        &StreamScript::empty(),
        &mut VirtualClock,
        &mut delay_lb::obs::NullSink,
    );
    for &d in &dead {
        let d = d as usize;
        assert_eq!(report.assignment.load(d), 0.0, "dead node {d} hosts load");
    }
    let live_avg = 2_400.0 / 9.0;
    for j in (0..m as u32).filter(|j| !dead.contains(j)) {
        let l = report.assignment.load(j as usize);
        assert!(
            (l - live_avg).abs() < 0.2 * live_avg,
            "live node {j} load {l} far from {live_avg}"
        );
    }
}
