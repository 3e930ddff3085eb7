//! The discrete (unit-request) model against the fractional
//! relaxation: §II defines the load as a large number of small
//! requests and §VII frames the fractional `ρ` as its relaxation, so
//! the unit-granularity engine must land within a whisker of the
//! continuous optimum whenever loads are large.

use delay_lb::core::cost::total_cost;
use delay_lb::core::rngutil::rng_for;
use delay_lb::prelude::*;

fn integer_instance(m: usize, avg: f64, seed: u64, planetlab: bool) -> Instance {
    let latency = if planetlab {
        planetlab::generate(m, seed)
    } else {
        LatencyMatrix::homogeneous(m, 20.0)
    };
    let mut rng = rng_for(seed, 0xD15C);
    let mut instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: avg,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(latency, &mut rng);
    let rounded: Vec<f64> = instance.own_loads().iter().map(|l| l.round()).collect();
    instance.set_own_loads(rounded);
    instance
}

fn discrete_engine(instance: &Instance, granularity: f64, seed: u64) -> Engine {
    let mut engine = Engine::new(
        instance.clone(),
        EngineOptions {
            seed,
            granularity,
            parallel: false,
            ..Default::default()
        },
    );
    engine.run_to_convergence(1e-6, 3, 120);
    engine
}

/// Unit-granularity fixpoints price within 1 % of the continuous
/// solver optimum on loaded instances (both network families).
#[test]
fn discrete_fixpoint_close_to_fractional_optimum() {
    for planetlab in [false, true] {
        let instance = integer_instance(14, 80.0, 7, planetlab);
        let engine = discrete_engine(&instance, 1.0, 7);
        let (state, _) = solve_bcd(&instance, 3_000, 1e-12);
        let optimum = delay_lb::solver::objective(&instance, &state);
        let ratio = engine.current_cost() / optimum;
        assert!(
            ratio <= 1.01,
            "planetlab={planetlab}: discrete {} vs fractional optimum {optimum} ({ratio})",
            engine.current_cost()
        );
    }
}

/// Integrality survives a full engine run: with integer inputs every
/// ledger entry stays an integer at the fixpoint.
#[test]
fn integer_loads_stay_integer() {
    let instance = integer_instance(18, 60.0, 11, true);
    let engine = discrete_engine(&instance, 1.0, 11);
    for j in 0..18 {
        for (_, r) in engine.assignment().ledger(j).iter() {
            assert!(
                (r - r.round()).abs() < 1e-9,
                "server {j} holds fractional amount {r}"
            );
        }
    }
    engine.assignment().check_invariants(&instance).unwrap();
}

/// Coarser quanta (batched transfers of 5 requests) still converge and
/// degrade gracefully: cost ordering continuous ≤ unit ≤ batch-5, and
/// even the coarse batch stays within a few percent.
#[test]
fn coarser_quanta_degrade_gracefully() {
    let instance = integer_instance(12, 100.0, 13, false);
    let continuous = discrete_engine(&instance, 0.0, 13).current_cost();
    let unit = discrete_engine(&instance, 1.0, 13).current_cost();
    let batch5 = discrete_engine(&instance, 5.0, 13).current_cost();
    assert!(continuous <= unit * (1.0 + 1e-9), "continuous must win");
    assert!(unit <= batch5 * (1.0 + 1e-9), "finer quantum must win");
    assert!(
        batch5 <= continuous * 1.05,
        "batch-5 {batch5} too far above continuous {continuous}"
    );
}

/// The discrete gap closes as loads grow (the relaxation argument):
/// relative gap at l_av = 200 must be no larger than at l_av = 20.
#[test]
fn discrete_gap_shrinks_with_load() {
    let gap_at = |avg: f64| {
        let instance = integer_instance(10, avg, 17, false);
        let discrete = discrete_engine(&instance, 1.0, 17).current_cost();
        let continuous = discrete_engine(&instance, 0.0, 17).current_cost();
        discrete / continuous - 1.0
    };
    let small = gap_at(20.0);
    let large = gap_at(200.0);
    assert!(
        large <= small + 1e-3,
        "gap grew with load: {small} -> {large}"
    );
    assert!(large < 0.01, "large-load gap {large} should be sub-percent");
}

/// Quantized pairwise moves keep the cost history monotone.
#[test]
fn discrete_history_is_monotone() {
    let instance = integer_instance(16, 50.0, 19, true);
    let engine = discrete_engine(&instance, 1.0, 19);
    for w in engine.history().windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-9),
            "discrete cost increased: {:?}",
            &w
        );
    }
    // And the final state prices identically when recomputed from
    // scratch (no accounting drift).
    let recomputed = total_cost(&instance, engine.assignment());
    let last = engine.current_cost();
    assert!((recomputed - last).abs() <= 1e-6 * recomputed.max(1.0));
}
