//! Integration tests for restricted relay topologies (§II: infinite
//! latencies model trust relationships — each organization may relay
//! only to its neighbours).

use delay_lb::core::rngutil::rng_for;
use delay_lb::prelude::*;
use delay_lb::solver::dense::{fw_gap, gradient, DenseState};
use delay_lb::topology::{out_degree, restrict_to_k_nearest, restrict_to_neighbors};

fn pl_instance(_m: usize, avg: f64, seed: u64, lat: LatencyMatrix) -> Instance {
    let mut rng = rng_for(seed, 0x2E57);
    WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: avg,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(lat, &mut rng)
}

/// Requests never land on a server the owner is not allowed to use.
#[test]
fn restricted_relays_respect_trust_edges() {
    let m = 20;
    let full = planetlab::generate(m, 5);
    let lat = restrict_to_k_nearest(&full, 4);
    let instance = pl_instance(m, 150.0, 5, lat.clone());
    let mut engine = Engine::new(instance.clone(), EngineOptions::default());
    engine.run_to_convergence(1e-10, 3, 150);
    let a = engine.assignment();
    a.check_invariants(&instance).unwrap();
    for k in 0..m {
        for j in 0..m {
            if k != j && !lat.get(k, j).is_finite() {
                assert_eq!(
                    a.requests(k, j),
                    0.0,
                    "org {k} relayed to forbidden server {j}"
                );
            }
        }
    }
}

/// Narrowing the trust graph can only hurt the optimum: a superset of
/// relay options never prices worse.
#[test]
fn tighter_trust_graph_costs_more() {
    let m = 16;
    let full = planetlab::generate(m, 9);
    let mut costs = Vec::new();
    for k in [2usize, 6, 15] {
        let lat = restrict_to_k_nearest(&full, k);
        for i in 0..m {
            assert!(out_degree(&lat, i) >= k.min(m - 1));
        }
        let instance = pl_instance(m, 100.0, 9, lat);
        let mut engine = Engine::new(instance, EngineOptions::default());
        let report = engine.run_to_convergence(1e-11, 3, 200);
        costs.push(report.final_cost);
    }
    assert!(
        costs[0] >= costs[1] * (1.0 - 1e-6),
        "k=2 ({}) should cost at least k=6 ({})",
        costs[0],
        costs[1]
    );
    assert!(
        costs[1] >= costs[2] * (1.0 - 1e-6),
        "k=6 ({}) should cost at least k=15 ({})",
        costs[1],
        costs[2]
    );
}

/// A star-shaped trust graph (everyone trusts only a hub) still
/// offloads a peak through the hub's server, and only there.
#[test]
fn star_trust_graph_balances_through_hub() {
    let m = 8;
    let base = LatencyMatrix::homogeneous(m, 10.0);
    // Org k may relay only to the hub (server 0) and itself.
    let allowed: Vec<Vec<usize>> = (0..m)
        .map(|k| if k == 0 { (0..m).collect() } else { vec![0, k] })
        .collect();
    let lat = restrict_to_neighbors(&base, &allowed);
    let mut instance = pl_instance(m, 0.0, 3, lat);
    let mut loads = vec![0.0; m];
    loads[3] = 900.0; // peak at a leaf
    instance.set_own_loads(loads);
    let mut engine = Engine::new(instance.clone(), EngineOptions::default());
    engine.run_to_convergence(1e-11, 3, 100);
    let a = engine.assignment();
    a.check_invariants(&instance).unwrap();
    // The leaf may only use itself and the hub.
    for j in 1..m {
        if j != 3 {
            assert_eq!(a.requests(3, j), 0.0, "leaf relayed to leaf {j}");
        }
    }
    assert!(
        a.requests(3, 0) > 100.0,
        "hub should absorb a large share, got {}",
        a.requests(3, 0)
    );
    // Pairwise optimality between the leaf and the hub (Lemma 2).
    let before = delay_lb::core::cost::total_cost(&instance, a);
    let mut trial = a.clone();
    trial.move_requests(3, 3, 0, 1.0);
    assert!(
        delay_lb::core::cost::total_cost(&instance, &trial) >= before - 1e-6 * before,
        "one more request to the hub should not help"
    );
}

/// The selfish game also respects the trust graph, and restricting
/// options cannot reduce the Nash cost either.
#[test]
fn selfish_dynamics_respect_restrictions() {
    let m = 12;
    let full = planetlab::generate(m, 13);
    let lat = restrict_to_k_nearest(&full, 3);
    let instance = pl_instance(m, 80.0, 13, lat.clone());
    let mut nash = Assignment::local(&instance);
    let report = run_best_response_dynamics(&instance, &mut nash, &DynamicsOptions::default());
    assert!(report.converged);
    nash.check_invariants(&instance).unwrap();
    for k in 0..m {
        for j in 0..m {
            if k != j && !lat.get(k, j).is_finite() {
                assert_eq!(nash.requests(k, j), 0.0);
            }
        }
    }
}

/// §II's forbidden links are `∞` latencies. The Frank–Wolfe gap must
/// skip them where nothing is sent (`∞ · 0` is NaN) instead of
/// certifying any point, so block-coordinate descent keeps sweeping to
/// the optimum: no worse than the engine's fixpoint.
#[test]
fn bcd_reaches_the_optimum_on_a_restricted_network() {
    let m = 60;
    let full = planetlab::generate(m, 1);
    for k in [1usize, 2, 4, 8] {
        let instance = pl_instance(m, 50.0, 1, restrict_to_k_nearest(&full, k));
        let local = DenseState::local(&instance);
        let mut grad = vec![0.0; m * m];
        gradient(&instance, &local, &mut grad);
        let start_gap = fw_gap(&instance, &local, &grad, None);
        assert!(
            start_gap.is_finite() && start_gap > 0.0,
            "k={k}: gap {start_gap} at the all-local start"
        );

        let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
        let mut engine = Engine::new(instance, EngineOptions::default());
        let fixpoint = engine.run_to_convergence(1e-12, 3, 500).final_cost;
        assert!(bcd.converged && bcd.iters > 1, "k={k}: {bcd:?}");
        assert!(
            bcd.objective <= fixpoint * (1.0 + 1e-9),
            "k={k}: bcd {} above the engine's {fixpoint}",
            bcd.objective
        );
    }
}
