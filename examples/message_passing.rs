//! Run the load-balancing protocol as an actual message-passing
//! system: one state machine per organization, wire frames travelling
//! under the federation's link delays on a virtual clock, and only
//! locally available knowledge at every node.
//!
//! The scenario is the paper's motivating one: a flash crowd hits one
//! organization of a federation (the "peak" workload), and the
//! distributed protocol spreads it — by doubling, one pairwise
//! exchange per node per round — until the observed total processing
//! time matches what the centralized solver would prescribe.
//!
//! Run: `cargo run --release --example message_passing`

use delay_lb::prelude::*;
use delay_lb::runtime::{run_cluster_events, ClusterOptions};

fn main() {
    let m = 24;
    // A European-scale federation: synthetic PlanetLab latencies.
    let latency = PlanetLabConfig::default().generate(m, 42);
    let mut speeds = Vec::with_capacity(m);
    for i in 0..m {
        speeds.push(1.0 + (i % 5) as f64); // 1..5 requests/ms
    }
    // Flash crowd: 60 000 requests land on organization 0.
    let mut loads = vec![0.0; m];
    loads[0] = 60_000.0;
    let instance = Instance::new(speeds, loads, latency);

    println!("== message-passing cluster: {m} nodes, peak of 60k requests ==\n");
    // One-way link delay = half the measured round trip.
    let report = run_cluster_events(&instance, &ClusterOptions::certified(m), |i, j| {
        instance.c(i, j) / 2.0
    });

    println!("round  ΣC (ms·request)");
    for (i, cost) in report.history.iter().enumerate() {
        // Print the early rounds and then every fifth.
        if i <= 10 || i % 5 == 0 {
            println!("{i:>5}  {cost:>14.0}");
        }
    }
    println!(
        "\nrounds: {}   exchanges: {}   volume moved: {:.0} requests   lost proposals: {}",
        report.rounds, report.exchanges, report.moved, report.lost_proposals
    );
    println!(
        "quiescent: {} ({})",
        report.quiescent,
        if report.quiescent {
            "audit rotation found no further pairwise improvement"
        } else {
            "round budget reached; ties can keep zero-gain volume circulating"
        }
    );
    println!(
        "simulated protocol time: {:.0} ms under the federation's link delays",
        report.virtual_ms
    );

    // Compare with the shared-memory analytic engine.
    let mut engine = Engine::new(instance.clone(), EngineOptions::default());
    let engine_report = engine.run_to_convergence(1e-12, 3, 400);
    println!(
        "\nprotocol ΣC:  {:>14.0}\nengine   ΣC:  {:>14.0}  (ratio {:.4})",
        report.final_cost,
        engine_report.final_cost,
        report.final_cost / engine_report.final_cost
    );

    let loads_summary: Vec<f64> = (0..m).map(|j| report.assignment.load(j)).collect();
    let max = loads_summary.iter().cloned().fold(f64::MIN, f64::max);
    let min = loads_summary.iter().cloned().fold(f64::MAX, f64::min);
    println!("final loads: min {min:.0}, max {max:.0} (speed-weighted balance)");
}
