//! Failure robustness: the paper argues (§IV) that because each
//! optimization step involves only two servers, the distributed
//! algorithm tolerates failures. These tests run the engine under
//! transient reachability masks and partitions.

use delay_lb::prelude::*;
use rand::Rng;

fn sample(m: usize, seed: u64) -> Instance {
    let mut rng = delay_lb::core::rngutil::rng_for(seed, 1400);
    WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 50.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(m, 20.0), &mut rng)
}

fn opts(seed: u64) -> EngineOptions {
    EngineOptions {
        seed,
        parallel: false,
        ..Default::default()
    }
}

#[test]
fn converges_with_random_transient_failures() {
    let m = 16;
    let instance = sample(m, 1);
    let mut engine = Engine::new(instance.clone(), opts(1));
    let mut rng = delay_lb::core::rngutil::rng_for(1, 1401);
    // Every round, ~25 % of servers are unreachable.
    for _ in 0..40 {
        let mask: Vec<bool> = (0..m).map(|_| rng.gen::<f64>() > 0.25).collect();
        engine.run_iteration_masked(Some(&mask));
    }
    engine
        .assignment()
        .check_invariants(&instance)
        .expect("invariants under failures");
    let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
    assert!(
        engine.current_cost() <= bcd.objective * 1.02,
        "failure-ridden run {} vs optimum {}",
        engine.current_cost(),
        bcd.objective
    );
}

#[test]
fn partition_then_heal() {
    let m = 12;
    let instance = sample(m, 2);
    let mut engine = Engine::new(instance.clone(), opts(2));
    // Phase 1: the network splits in half; each side balances alone.
    let left: Vec<bool> = (0..m).map(|i| i < m / 2).collect();
    let right: Vec<bool> = (0..m).map(|i| i >= m / 2).collect();
    for _ in 0..8 {
        engine.run_iteration_masked(Some(&left));
        engine.run_iteration_masked(Some(&right));
    }
    let partitioned_cost = engine.current_cost();
    // No request may have crossed the partition.
    for j in 0..m {
        for (k, r) in engine.assignment().ledger(j).iter() {
            let same_side = (j < m / 2) == ((k as usize) < m / 2);
            assert!(same_side || r == 0.0, "request crossed the partition");
        }
    }
    // Phase 2: heal; the full system must now do at least as well.
    let report = engine.run_to_convergence(1e-10, 2, 60);
    assert!(report.final_cost <= partitioned_cost + 1e-9);
    let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
    assert!(report.final_cost <= bcd.objective * 1.02);
}

#[test]
fn lone_survivor_makes_no_moves() {
    let m = 6;
    let instance = sample(m, 3);
    let mut engine = Engine::new(instance.clone(), opts(3));
    let mut mask = vec![false; m];
    mask[2] = true;
    let stats = engine.run_iteration_masked(Some(&mask));
    assert_eq!(stats.exchanges, 0);
    assert_eq!(stats.moved, 0.0);
    assert_eq!(engine.assignment(), &Assignment::local(&instance));
}

#[test]
fn masked_and_unmasked_agree_when_all_active() {
    let instance = sample(10, 4);
    let mut a = Engine::new(instance.clone(), opts(4));
    let mut b = Engine::new(instance, opts(4));
    let mask = vec![true; 10];
    for _ in 0..5 {
        a.run_iteration();
        b.run_iteration_masked(Some(&mask));
    }
    assert_eq!(a.assignment(), b.assignment());
}
