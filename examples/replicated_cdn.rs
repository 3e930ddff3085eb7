//! Replica placement for a CDN with heterogeneous content (paper §VII).
//!
//! Content chunks have Zipf-distributed popularity (≈ processing
//! demand) and must be stored at `R = 3` distinct locations for
//! availability. The pipeline:
//!
//! 1. solve the fractional problem with the replication cap
//!    `ρ_ij ≤ 1/R` (capped projected gradient),
//! 2. draw `R` distinct replica locations per chunk with Madow
//!    systematic sampling (marginals exactly `R·ρ_ij`),
//! 3. separately, demonstrate subset-sum rounding of heterogeneous
//!    tasks onto the fractional prescription.
//!
//! Run with `cargo run --release --example replicated_cdn`.

use delay_lb::extensions::tasks::TaskSet;
use delay_lb::extensions::{place_replicas, round_tasks, rounding_error};
use delay_lb::prelude::*;
use delay_lb::solver::dense_to_assignment;

fn main() {
    let m = 12;
    let r = 3usize;
    let latency = planetlab::generate(m, 13);

    // Each org's "load" is the total popularity of its content.
    let task_sets: Vec<TaskSet> = (0..m)
        .map(|i| TaskSet::zipf(80, 0.9, 2.0, 100 + i as u64))
        .collect();
    let loads: Vec<f64> = task_sets.iter().map(|t| t.total()).collect();
    let instance = Instance::new(vec![1.0; m], loads, latency);

    println!("== replicated CDN: {m} sites, R = {r}, Zipf content ==\n");

    // Uncapped vs capped optimum.
    let (free, free_rep) = solve_pgd(&instance, &PgdOptions::default());
    let caps: Vec<f64> = (0..m * m)
        .map(|idx| instance.own_load(idx / m) / r as f64)
        .collect();
    let (capped, capped_rep) = solve_pgd(
        &instance,
        &PgdOptions {
            caps: Some(caps),
            ..Default::default()
        },
    );
    println!(
        "fractional optimum (no replication): ΣC = {:.0}",
        free_rep.objective
    );
    println!(
        "fractional optimum (ρ ≤ 1/{r}):       ΣC = {:.0}",
        capped_rep.objective
    );
    println!(
        "replication overhead: {:.2} %\n",
        (capped_rep.objective / free_rep.objective - 1.0) * 100.0
    );
    let _ = free;

    // Replica placement for org 0's chunks.
    let capped_assignment = dense_to_assignment(&instance, &capped);
    let rho0: Vec<f64> = {
        let n0 = instance.own_load(0);
        (0..m)
            .map(|j| capped_assignment.requests(0, j) / n0)
            .collect()
    };
    let mut rng = delay_lb::core::rngutil::rng_for(99, 0);
    let mut copies = vec![0usize; m];
    for _ in 0..task_sets[0].len() {
        for site in place_replicas(&rho0, r, &mut rng) {
            copies[site] += 1;
        }
    }
    println!("org 0: replica counts per site (80 chunks × {r} copies):");
    println!("  placed:   {copies:?}");
    let expected: Vec<f64> = rho0
        .iter()
        .map(|f| f * r as f64 * task_sets[0].len() as f64)
        .collect();
    println!(
        "  expected: {:?}",
        expected
            .iter()
            .map(|e| e.round() as usize)
            .collect::<Vec<_>>()
    );

    // Subset-sum rounding of org 0's *sizes* onto the fractional split.
    let targets: Vec<f64> = (0..m).map(|j| capped_assignment.requests(0, j)).collect();
    let assignment = round_tasks(&task_sets[0].sizes, &targets);
    let err = rounding_error(&task_sets[0].sizes, &targets, &assignment);
    println!(
        "\nsubset-sum rounding of org 0's chunks: total deviation {:.2} \
         (largest chunk {:.2})",
        err,
        task_sets[0].max_size()
    );
}
