//! Figure 2: convergence of the distributed algorithm on large
//! networks under the peak load distribution (100 000 requests owned by
//! one server), heterogeneous latencies.
//!
//! The paper plots `ΣC_i` (log scale) against the iteration number for
//! m ∈ {500, 1000, 2000, 3000, 5000} and observes an exponential
//! decrease. We run the same series through the shared scenario API —
//! `algo=batched net=pl load=peak`, the propose/match/apply round that
//! executes one iteration as three data-parallel phases — and record
//! each series' `RunRecord` plus a scaling comparison (network size ×
//! round mode × thread count → wall-clock per iteration) to
//! `BENCH_figure2.json` at the workspace root, one JSON record per
//! measurement, so the perf trajectory of the Figure-2 hot path is
//! tracked across PRs (`dlb report BENCH_figure2.json` renders it).
//!
//! Run: `cargo bench -p dlb-bench --bench figure2_large_networks`
//! (`DLB_BENCH_SCALE=full` adds m = 3000 and m = 5000).

use dlb_bench::full_scale;
use dlb_core::workload::LoadDistribution;
use dlb_distributed::{Engine, EngineOptions, RoundMode};
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::{AlgoSpec, NetSpec, ScenarioSpec};

/// The Figure-2 scenario: total peak load of 100 000 requests on one
/// server of a PlanetLab-like network.
fn peak_spec(m: usize) -> ScenarioSpec {
    ScenarioSpec {
        net: NetSpec::Pl,
        m,
        load: LoadDistribution::Peak,
        avg: 100_000.0 / m as f64,
        seed: 7,
        ..ScenarioSpec::default()
    }
}

fn mode_label(mode: RoundMode) -> &'static str {
    match mode {
        RoundMode::Sequential => "sequential",
        RoundMode::Batched => "batched",
    }
}

/// Runs `iters` engine iterations and returns (wall-clock seconds per
/// iteration, final ΣC).
fn time_iterations(spec: &ScenarioSpec, mode: RoundMode, iters: usize) -> (f64, f64) {
    let mut engine = Engine::new(
        spec.build_instance(),
        EngineOptions {
            seed: spec.seed,
            round_mode: mode,
            ..Default::default()
        },
    );
    let start = std::time::Instant::now();
    for _ in 0..iters {
        engine.run_iteration();
    }
    let secs = start.elapsed().as_secs_f64() / iters as f64;
    (secs, engine.current_cost())
}

fn main() {
    let full = full_scale();
    // Every record carries the grid scale and the host's core count so
    // snapshots from different runs (fast vs full, laptop vs CI) stay
    // distinguishable in the committed artifact instead of silently
    // mixing incomparable rows.
    let scale = if full { "full" } else { "fast" };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get()) as i64;
    let tag = |r: Record| r.str("scale", scale).int("host_cores", cores);
    let sizes: Vec<usize> = if full {
        vec![500, 1000, 2000, 3000, 5000]
    } else {
        vec![500, 1000, 2000]
    };
    let iterations = 20;
    // Benches run with the package dir as CWD; anchor the committed
    // artifact at the workspace root regardless.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figure2.json");
    let mut sink = JsonlSink::create_at(out_path).expect("BENCH_figure2.json must be writable");

    println!("\n== Figure 2 — ΣC vs iteration, peak load, heterogeneous network ==");
    println!("(total peak load 100 000 requests; batched propose/match/apply rounds)\n");
    for &m in &sizes {
        // `eps=0` with `patience > budget` runs exactly `budget`
        // iterations — the fixed-length series the figure plots.
        let spec = ScenarioSpec {
            algo: AlgoSpec::Batched,
            eps: 0.0,
            patience: iterations + 1,
            budget: iterations,
            ..peak_spec(m)
        };
        let run = spec.run();
        print!("#servers = {m:<5} ΣC:");
        for cost in &run.history {
            print!(" {cost:.3e}");
        }
        println!();
        println!(
            "               reduction {:.1}x in {} iterations ({:.1} s wall)",
            run.initial_cost() / run.final_cost(),
            run.iterations,
            run.wall_secs
        );
        sink.record(&tag(Record::from_run("figure2_series", &run)));
    }

    // Scaling record: wall-clock per iteration for every round mode ×
    // thread count on the pruned-mode sizes. The sequential sweep runs
    // on the caller's thread, so its two thread rows differ only by
    // noise; the batched round fans its propose phase out over the
    // servers. Interpret the batched thread columns against the host:
    // with fewer cores than threads the threads=8 rows measure
    // oversubscription overhead, not parallel speedup.
    println!("\n== round-mode scaling (secs / iteration) ==");
    println!(
        "{:<8} {:<12} {:>8} {:>14} {:>14}",
        "m", "mode", "threads", "secs/iter", "final ΣC"
    );
    let scaling_sizes: Vec<usize> = if full {
        vec![1000, 2000, 5000]
    } else {
        vec![1000, 2000]
    };
    for &m in &scaling_sizes {
        let spec = peak_spec(m);
        for mode in [RoundMode::Sequential, RoundMode::Batched] {
            for threads in [1usize, 8] {
                std::env::set_var("DLB_THREADS", threads.to_string());
                let iters = 3;
                let (secs, cost) = time_iterations(&spec, mode, iters);
                std::env::remove_var("DLB_THREADS");
                println!(
                    "{:<8} {:<12} {:>8} {:>14.4} {:>14.4e}",
                    m,
                    mode_label(mode),
                    threads,
                    secs,
                    cost
                );
                let algo = match mode {
                    RoundMode::Sequential => AlgoSpec::Sequential,
                    RoundMode::Batched => AlgoSpec::Batched,
                };
                sink.record(&tag(Record::new("scaling")
                    .str(
                        "scenario",
                        &ScenarioSpec {
                            algo,
                            ..spec.clone()
                        }
                        .to_string(),
                    )
                    .int("m", m as i64)
                    .str("mode", mode_label(mode))
                    .int("threads", threads as i64)
                    .int("iters_timed", iters as i64)
                    .num("secs_per_iter", secs)
                    .num("cost_after", cost)));
            }
        }
    }

    println!("\npaper: total processing time decreases exponentially over ~20 iterations");
    println!("scaling record written to BENCH_figure2.json");
}
