//! End-to-end agreement: the distributed algorithm, the centralized
//! solver, and (at tiny sizes) brute-force grid search must all find
//! the same optimum of the cooperative problem.

use delay_lb::prelude::*;
use delay_lb::solver::bruteforce::grid_search_optimum;

fn engine_opts(seed: u64) -> EngineOptions {
    EngineOptions {
        seed,
        parallel: false,
        ..Default::default()
    }
}

fn random_instance(m: usize, seed: u64, planetlab: bool) -> Instance {
    let latency = if planetlab {
        planetlab::generate(m, seed)
    } else {
        LatencyMatrix::homogeneous(m, 20.0)
    };
    let mut rng = delay_lb::core::rngutil::rng_for(seed, 800);
    WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 40.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(latency, &mut rng)
}

#[test]
fn engine_matches_solvers_homogeneous() {
    for seed in 0..4 {
        let instance = random_instance(12, seed, false);
        let mut engine = Engine::new(instance.clone(), engine_opts(seed));
        let report = engine.run_to_convergence(1e-12, 2, 150);
        let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
        assert!(
            report.final_cost <= bcd.objective * (1.0 + 5e-3),
            "seed {seed}: engine {} vs bcd {}",
            report.final_cost,
            bcd.objective
        );
        engine
            .assignment()
            .check_invariants(&instance)
            .expect("invariants at fixpoint");
    }
}

#[test]
fn engine_matches_solvers_planetlab() {
    for seed in 0..3 {
        let instance = random_instance(15, seed, true);
        let mut engine = Engine::new(instance.clone(), engine_opts(seed));
        let report = engine.run_to_convergence(1e-12, 2, 150);
        let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
        assert!(
            report.final_cost <= bcd.objective * (1.0 + 1e-2),
            "seed {seed}: engine {} vs bcd {}",
            report.final_cost,
            bcd.objective
        );
    }
}

#[test]
fn all_methods_agree_with_bruteforce_m3() {
    let mut lat = LatencyMatrix::zero(3);
    for (i, j, c) in [(0, 1, 4.0), (0, 2, 9.0), (1, 2, 2.0)] {
        lat.set(i, j, c);
        lat.set(j, i, c);
    }
    let instance = Instance::new(vec![1.0, 2.0, 1.5], vec![30.0, 5.0, 0.0], lat);

    let (_, brute) = grid_search_optimum(&instance, 15);
    let (_, bcd) = solve_bcd(&instance, 2_000, 1e-10, None);
    let mut engine = Engine::new(instance.clone(), engine_opts(1));
    let report = engine.run_to_convergence(1e-12, 2, 200);

    for (name, v) in [("bcd", bcd.objective), ("engine", report.final_cost)] {
        assert!(
            (v - brute).abs() <= 5e-3 * brute,
            "{name} = {v} vs brute force {brute}"
        );
    }
}

#[test]
fn relay_fractions_roundtrip_through_engine() {
    let instance = random_instance(10, 7, true);
    let mut engine = Engine::new(instance.clone(), engine_opts(7));
    engine.run_to_convergence(1e-12, 2, 100);
    let rho = engine.assignment().to_fractions(&instance);
    let rebuilt = Assignment::from_fractions(&instance, &rho);
    let c1 = total_cost(&instance, engine.assignment());
    let c2 = total_cost(&instance, &rebuilt);
    assert!((c1 - c2).abs() < 1e-6 * c1.max(1.0));
}

#[test]
fn trust_restricted_network_respects_forbidden_links() {
    use delay_lb::topology::restricted::restrict_to_k_nearest;
    let base = planetlab::generate(12, 3);
    let restricted = restrict_to_k_nearest(&base, 3);
    let mut rng = delay_lb::core::rngutil::rng_for(3, 801);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Peak,
        avg_load: 500.0,
        speeds: SpeedDistribution::Constant(1.0),
    }
    .sample(restricted, &mut rng);
    let mut engine = Engine::new(instance.clone(), engine_opts(3));
    engine.run_to_convergence(1e-12, 2, 100);
    // No requests may sit on a forbidden (infinite-latency) link.
    let a = engine.assignment();
    for j in 0..12 {
        for (k, r) in a.ledger(j).iter() {
            assert!(
                instance.c(k as usize, j).is_finite() || r == 0.0,
                "org {k} illegally placed {r} requests on server {j}"
            );
        }
    }
    assert!(total_cost(&instance, a).is_finite());
}
