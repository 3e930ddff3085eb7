//! Executor scaling: wall-clock cost of a protocol round by cluster
//! size and partner-selection policy.
//!
//! The event executor hosts every protocol machine on a virtual-time
//! heap in one process. This harness records network size × partner
//! selection → **wall-clock seconds per protocol round** (plus the
//! *simulated* protocol milliseconds per round under the sampled link
//! delays — the quantity the paper's deployment would observe) to
//! `BENCH_runtime.json` at the workspace root, one JSON record per
//! measurement, so the executor's perf trajectory is tracked across
//! PRs (`dlb report BENCH_runtime.json` renders it).
//!
//! The exact-scan grid climbs to the Figure-2 sizes
//! (`DLB_BENCH_SCALE=full` adds m = 2000 and m = 5000). A second grid
//! measures `select=topk:32`: the delay-aware candidate index drops
//! the per-round partner scan from O(m²) to O(m·K), which is what
//! carries the executor from m = 5000 to m = 100 000. The
//! 100 000-node rows use `net=homog` because PlanetLab-like sampling
//! runs an O(m³) metric closure — the *protocol* cost being measured
//! is topology-blind.
//!
//! A final parity pair runs both selection policies to *quiescence*
//! (volume threshold 1 request — the realistic stop, not the 1e-9
//! microbenchmark cutoff) on one shared instance and records
//! `drift_vs_exact`: the relative final-ΣC gap, the quality cost of
//! the pruned scan (acceptance bar: ≤ 1 %). Truncated fixed-round
//! snapshots are *not* comparable across policies — topk trades a
//! slightly different improvement order early on — so drift is only
//! meaningful, and only recorded, at quiescence.
//!
//! Run: `cargo bench -p dlb-bench --bench runtime_modes`

use dlb_bench::full_scale;
use dlb_bench::results::{JsonlSink, Record};
use dlb_core::workload::LoadDistribution;
use dlb_scenario::{AlgoSpec, NetSpec, ScenarioSpec, SelectSpec};

/// The Figure-2 workload shape: the peak distribution (total load
/// 100 000 on one server) bounded to a fixed round budget so
/// secs/round is comparable across sizes.
fn spec(m: usize, net: NetSpec, select: SelectSpec) -> ScenarioSpec {
    const ROUNDS: usize = 12;
    ScenarioSpec::new()
        .algo(AlgoSpec::Protocol)
        .net(net)
        .servers(m)
        .load(LoadDistribution::Peak)
        .avg_load(100_000.0 / m as f64)
        .seed(7)
        .select(select)
        .termination(1e-9, ROUNDS + 1, ROUNDS)
}

fn main() {
    let full = full_scale();
    let scale = if full { "full" } else { "fast" };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let mut sink = JsonlSink::create_at(out_path).expect("BENCH_runtime.json must be writable");

    println!("== runtime scaling — event executor (secs / round) ==");
    println!(
        "{:<8} {:<9} {:>8} {:>14} {:>16} {:>14}",
        "m", "select", "rounds", "secs/round", "sim ms/round", "final ΣC"
    );
    let exact_sizes: Vec<usize> = if full {
        vec![100, 300, 1000, 2000, 5000]
    } else {
        vec![100, 300, 1000]
    };
    // Top-k takes over where the exact scan stops scaling: one row on
    // the largest exact grid point (for the drift column), then the
    // sizes only the candidate index reaches.
    let topk_sizes: Vec<(usize, NetSpec)> = if full {
        vec![
            (5000, NetSpec::Pl),
            (20000, NetSpec::Homog),
            (50000, NetSpec::Homog),
            (100000, NetSpec::Homog),
        ]
    } else {
        vec![(1000, NetSpec::Pl), (20000, NetSpec::Homog)]
    };
    let grid = exact_sizes
        .iter()
        .map(|&m| (m, NetSpec::Pl, SelectSpec::Exact))
        .chain(
            topk_sizes
                .iter()
                .map(|&(m, net)| (m, net, SelectSpec::TopK(32))),
        );
    for (m, net, select) in grid {
        let spec = spec(m, net, select);
        // Sample outside the timer: net=pl instance construction runs
        // an O(m³) metric closure that would otherwise dominate (and
        // corrupt) the per-round figure at the large sizes.
        let instance = spec.build_instance();
        let start = std::time::Instant::now();
        let run = spec.run_on(instance);
        let wall = start.elapsed().as_secs_f64();
        let secs_per_round = wall / run.iterations.max(1) as f64;
        // `wall_secs` carries simulated protocol seconds
        // (deterministic per seed).
        let sim_ms_per_round = run.wall_secs * 1000.0 / run.iterations.max(1) as f64;
        println!(
            "{:<8} {:<9} {:>8} {:>14.4} {:>16.2} {:>14.4e}",
            m,
            select,
            run.iterations,
            secs_per_round,
            sim_ms_per_round,
            run.final_cost()
        );
        sink.record(
            &Record::new("runtime_scaling")
                .str("scenario", &run.scenario)
                .int("m", m as i64)
                .str("select", &select.to_string())
                .int("rounds", run.iterations as i64)
                .num("secs_per_round", secs_per_round)
                .num("sim_ms_per_round", sim_ms_per_round)
                .num("final_cost", run.final_cost())
                .str("scale", scale)
                .int("host_cores", cores as i64),
        );
    }

    // Exact-vs-topk parity at quiescence: both policies balance the
    // same sampled instance until the moved volume stays under one
    // request for 5 rounds. This is the bench-scale counterpart of the
    // `select_policy.rs` integration suite (m = 80, three topologies).
    println!("\n== selection parity at quiescence (volume < 1 for 5 rounds) ==");
    let base = spec(1000, NetSpec::Pl, SelectSpec::Exact).termination(1.0, 5, 6000);
    let instance = base.build_instance();
    let exact = base.run_on(instance.clone());
    let topk = base.select(SelectSpec::TopK(32)).run_on(instance);
    let drift = (topk.final_cost() - exact.final_cost()).abs() / exact.final_cost();
    for (run, policy, drift_vs_exact) in [
        (&exact, SelectSpec::Exact, f64::NAN),
        (&topk, SelectSpec::TopK(32), drift),
    ] {
        println!(
            "{:<8} {:<9} {:>8} {:>14.4e}   drift {:.5}  converged {}",
            run.m,
            policy,
            run.iterations,
            run.final_cost(),
            drift_vs_exact,
            run.converged
        );
        sink.record(
            &Record::new("runtime_parity")
                .str("scenario", &run.scenario)
                .int("m", run.m as i64)
                .str("select", &policy.to_string())
                .int("rounds", run.iterations as i64)
                .num("final_cost", run.final_cost())
                .num("drift_vs_exact", drift_vs_exact)
                .str("scale", scale)
                .int("host_cores", cores as i64),
        );
    }
    assert!(
        drift <= 0.01,
        "topk quality bar: final-ΣC drift {drift} exceeds 1%"
    );
    println!("\nscaling record written to BENCH_runtime.json");
}
