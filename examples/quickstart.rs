//! Quickstart: name a scenario declaratively, run it, and compare the
//! distributed algorithm against the centralized QP solver.
//!
//! Run with `cargo run --release --example quickstart`.

use delay_lb::prelude::*;

fn main() {
    // Ten servers with U(1,5) speeds, exponential loads (mean 50
    // requests), homogeneous 20 ms latency — the paper's default
    // evaluation setting (§VI-A) — named in the scenario text that
    // `dlb run m=10 seed=42 patience=2 budget=100` reads too:
    let spec: ScenarioSpec = "m=10 seed=42 patience=2 budget=100".parse().unwrap();
    println!("scenario: {spec}");

    // `build_instance` is the single sampling path shared with the
    // CLI and every bench harness: same spec, same instance.
    let instance = spec.build_instance();
    println!("\n== instance ==");
    println!("servers:       {}", instance.len());
    println!("total load:    {:.1} requests", instance.total_load());
    println!("total speed:   {:.2} requests/ms", instance.total_speed());
    println!("mean latency:  {:.1} ms", instance.latency().mean_latency());

    // All-local starting point.
    let local = Assignment::local(&instance);
    println!(
        "\nall-local cost:      {:>12.2} request·ms",
        total_cost(&instance, &local)
    );

    // The paper's distributed algorithm, via the scenario runner: the
    // RunRecord carries the full ΣC trajectory.
    let run = spec.run();
    println!(
        "distributed engine:  {:>12.2} request·ms  ({} iterations)",
        run.final_cost(),
        run.iterations
    );
    for (iter, cost) in run.history.iter().enumerate() {
        println!("  after iteration {iter:>2}: {cost:>12.2}");
        if iter >= 5 {
            println!("  ...");
            break;
        }
    }

    // The centralized optimum for reference: another algorithm on the
    // same instance is a struct update (`algo=bcd` runs exact
    // block-coordinate descent).
    let bcd = ScenarioSpec {
        algo: AlgoSpec::Bcd,
        patience: 3,
        budget: 1_000,
        ..spec
    };
    let bcd = bcd.run();
    println!(
        "coordinate descent:  {:>12.2} request·ms  ({} sweeps)",
        bcd.final_cost(),
        bcd.iterations
    );

    let gap = (run.final_cost() - bcd.final_cost()) / bcd.final_cost();
    println!("\ndistributed vs centralized gap: {:.4} %", gap * 100.0);
}
