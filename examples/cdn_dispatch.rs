//! CDN request dispatch over a PlanetLab-like wide-area network.
//!
//! Forty front-end servers spread across geographic sites; a flash
//! crowd hits three of them. We compare four dispatch strategies:
//!
//! * **local** — every front-end serves its own users (no relaying),
//! * **round-robin** — requests spread uniformly over all servers,
//!   ignoring both congestion and distance (the baseline the paper's
//!   introduction criticizes),
//! * **distributed** — the paper's delay-aware distributed algorithm,
//! * **optimal** — the centralized QP optimum.
//!
//! Run with `cargo run --release --example cdn_dispatch`.

use delay_lb::prelude::*;

fn main() {
    let m = 40;
    // Forty front-ends on a PlanetLab-like WAN with exponential base
    // traffic (mean 30 requests) — named in scenario text, so the exact
    // same instance is one `dlb run net=pl m=40 avg=30 seed=7` away.
    let spec: ScenarioSpec = format!("net=pl m={m} avg=30 seed=7").parse().unwrap();
    let mut instance = spec.build_instance();

    // Flash crowd: three sites suddenly produce 60% of all traffic.
    let mut loads = instance.own_loads().to_vec();
    let total: f64 = loads.iter().sum();
    for &hot in &[3usize, 17, 31] {
        loads[hot] += total * 0.2;
    }
    instance.set_own_loads(loads);

    println!("== CDN dispatch: {m} front-ends, flash crowd at sites 3/17/31 ==");
    println!(
        "mean WAN latency {:.1} ms, total load {:.0} requests\n",
        instance.latency().mean_latency(),
        instance.total_load()
    );

    // Strategy 1: serve locally.
    let local = Assignment::local(&instance);
    report("local only", &instance, &local);

    // Strategy 2: round-robin (uniform fractions).
    let uniform = vec![1.0 / m as f64; m * m];
    let rr = Assignment::from_fractions(&instance, &uniform);
    report("round-robin", &instance, &rr);

    // Strategy 3: the paper's distributed algorithm.
    let mut engine = Engine::new(instance.clone(), EngineOptions::default());
    let conv = engine.run_to_convergence(1e-10, 2, 100);
    report(
        &format!("distributed ({} iters)", conv.iterations),
        &instance,
        engine.assignment(),
    );

    // Strategy 4: centralized optimum.
    let (opt, _) = solve_bcd(&instance, 2_000, 1e-10, None);
    let opt_assignment = delay_lb::solver::dense_to_assignment(&instance, &opt);
    report("centralized optimum", &instance, &opt_assignment);

    println!("\nper-request mean latency (ms):");
    for (name, a) in [
        ("local only", &local),
        ("round-robin", &rr),
        ("distributed", engine.assignment()),
    ] {
        println!(
            "  {name:<22} {:8.2}",
            total_cost(&instance, a) / instance.total_load()
        );
    }
}

fn report(name: &str, instance: &Instance, a: &Assignment) {
    let cost = total_cost(instance, a);
    let comm = delay_lb::core::cost::communication_cost(instance, a);
    let cong = delay_lb::core::cost::congestion_cost(instance, a);
    println!("{name:<28} ΣC = {cost:>12.0}   (congestion {cong:>12.0}, network {comm:>10.0})");
}
