//! Full §VII pipelines: heterogeneous task sizes through fractional
//! solve + subset-sum rounding, and R-replication through capped solve
//! + systematic placement.

use delay_lb::extensions::tasks::TaskSet;
use delay_lb::extensions::{place_replicas, round_tasks, rounding_error};
use delay_lb::prelude::*;
use delay_lb::solver::dense_to_assignment;

#[test]
fn task_rounding_pipeline_stays_near_fractional_cost() {
    // Orgs own many small tasks; the discrete placement obtained by
    // rounding the fractional optimum must cost nearly the same.
    let m = 6;
    let task_sets: Vec<TaskSet> = (0..m)
        .map(|i| TaskSet::uniform(120, 0.2, 1.8, 40 + i as u64))
        .collect();
    let loads: Vec<f64> = task_sets.iter().map(|t| t.total()).collect();
    let instance = Instance::new(
        vec![1.0, 2.0, 1.5, 3.0, 1.0, 2.5],
        loads,
        LatencyMatrix::homogeneous(m, 5.0),
    );
    let (opt, report) = solve_bcd(&instance, 2_000, 1e-10, None);
    assert!(report.converged);
    let fractional = dense_to_assignment(&instance, &opt);

    // Round every org's tasks onto its fractional prescription.
    let mut discrete_rows: Vec<Vec<f64>> = vec![vec![0.0; m]; m];
    let mut total_err = 0.0;
    for k in 0..m {
        let targets: Vec<f64> = (0..m).map(|j| fractional.requests(k, j)).collect();
        let assignment = round_tasks(&task_sets[k].sizes, &targets);
        total_err += rounding_error(&task_sets[k].sizes, &targets, &assignment);
        for (task, &server) in assignment.iter().enumerate() {
            discrete_rows[k][server] += task_sets[k].sizes[task];
        }
    }
    // Build the discrete assignment and compare costs.
    let mut discrete = Assignment::local(&instance);
    for k in 0..m {
        discrete.set_owner_row(k, &discrete_rows[k]);
    }
    discrete.check_invariants(&instance).unwrap();
    let frac_cost = total_cost(&instance, &fractional);
    let disc_cost = total_cost(&instance, &discrete);
    assert!(
        disc_cost <= frac_cost * 1.02,
        "rounded cost {disc_cost} too far above fractional {frac_cost} (err {total_err})"
    );
}

#[test]
fn replication_pipeline_places_r_distinct_copies() {
    let m = 8;
    let r = 3usize;
    let mut rng = delay_lb::core::rngutil::rng_for(6, 1100);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Uniform,
        avg_load: 60.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(m, 10.0), &mut rng);

    // Capped fractional solve.
    let caps: Vec<f64> = (0..m * m)
        .map(|idx| instance.own_load(idx / m) / r as f64)
        .collect();
    let (capped, report) = solve_bcd(&instance, 2_000, 1e-10, Some(&caps));
    assert!(report.converged);
    let assignment = dense_to_assignment(&instance, &capped);

    // Place replicas for every organization and check marginals.
    for k in 0..m {
        let n = instance.own_load(k);
        // The capped solve's rows respect `ρ ≤ 1/R` as they are.
        let rho: Vec<f64> = (0..m).map(|j| assignment.requests(k, j) / n).collect();
        let chunks = 3000;
        let mut counts = vec![0usize; m];
        for _ in 0..chunks {
            let picks = place_replicas(&rho, r, &mut rng);
            assert_eq!(picks.len(), r);
            let mut dedup = picks.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), r, "copies must land on distinct servers");
            for j in picks {
                counts[j] += 1;
            }
        }
        for j in 0..m {
            let empirical = counts[j] as f64 / chunks as f64;
            let expected = rho[j] * r as f64;
            assert!(
                (empirical - expected).abs() < 0.05,
                "org {k} server {j}: marginal {empirical} vs expected {expected}"
            );
        }
    }
}

#[test]
fn replication_cost_increases_with_r() {
    let m = 6;
    let mut rng = delay_lb::core::rngutil::rng_for(7, 1101);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 50.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(m, 15.0), &mut rng);
    let mut prev = 0.0;
    for r in 1..=4usize {
        let caps: Vec<f64> = (0..m * m)
            .map(|idx| instance.own_load(idx / m) / r as f64)
            .collect();
        let (_, report) = solve_bcd(&instance, 2_000, 1e-10, Some(&caps));
        assert!(
            report.objective >= prev - 1e-6 * report.objective.max(1.0),
            "tightening R must not reduce cost: R={r} gives {} after {prev}",
            report.objective
        );
        prev = report.objective;
    }
}

#[test]
fn zipf_tasks_round_with_bounded_error() {
    let tasks = TaskSet::zipf(200, 1.1, 3.0, 9);
    let total = tasks.total();
    let targets = vec![total * 0.5, total * 0.3, total * 0.2];
    let assignment = round_tasks(&tasks.sizes, &targets);
    let err = rounding_error(&tasks.sizes, &targets, &assignment);
    assert!(
        err <= 2.0 * tasks.max_size(),
        "rounding error {err} vs max task {}",
        tasks.max_size()
    );
}
