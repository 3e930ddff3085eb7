//! Ablation (paper §VI-B): does negative-cycle removal change the
//! convergence of the distributed algorithm?
//!
//! The paper compared the plain algorithm against a variant running the
//! Appendix's min-cost-flow cycle removal every 2 iterations and found
//! *identical* iteration counts in all 6000 experiments (negative
//! cycles are rare and Algorithm 1 dismantles them by itself). This
//! bench reproduces that comparison.
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_cycle_removal`.

use dlb_bench::{full_scale, NETWORKS};
use dlb_core::workload::LoadDistribution;
use dlb_distributed::engine::iterations_to_reach;
use dlb_distributed::{Engine, EngineOptions};
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::ScenarioSpec;

fn main() {
    let mut sink = JsonlSink::create("ablation_cycle_removal");
    let ms: Vec<usize> = if full_scale() {
        vec![20, 50, 100, 200]
    } else {
        vec![20, 50, 100]
    };
    let seeds: Vec<u64> = if full_scale() {
        (1..=10).collect()
    } else {
        (1..=4).collect()
    };
    let dists = [
        LoadDistribution::Uniform,
        LoadDistribution::Exponential,
        LoadDistribution::Peak,
    ];
    let rel_err = 0.001;

    println!("\n== Ablation — negative-cycle removal every 2 iterations vs never ==");
    println!(
        "{:<30} {:>10} {:>10} {:>8}",
        "configuration", "plain", "removal", "same?"
    );
    let mut identical = 0usize;
    let mut total = 0usize;
    for &m in &ms {
        for dist in dists {
            for (net, net_label) in NETWORKS {
                let mut plain_iters = Vec::new();
                let mut removal_iters = Vec::new();
                for &seed in &seeds {
                    let avg = if dist == LoadDistribution::Peak {
                        100_000.0 / m as f64
                    } else {
                        50.0
                    };
                    let spec = ScenarioSpec {
                        net,
                        m,
                        load: dist,
                        avg,
                        seed,
                        ..ScenarioSpec::default()
                    };
                    let instance = spec.build_instance();
                    let measure = |cycle_every: Option<usize>| {
                        let mut engine = Engine::new(
                            instance.clone(),
                            EngineOptions {
                                seed,
                                cycle_removal_every: cycle_every,
                                ..Default::default()
                            },
                        );
                        engine.run_to_convergence(1e-9, 3, 60);
                        let optimum = engine.current_cost();
                        iterations_to_reach(engine.history(), optimum, rel_err)
                            .unwrap_or(engine.iterations())
                    };
                    let p = measure(None);
                    let r = measure(Some(2));
                    plain_iters.push(p as f64);
                    removal_iters.push(r as f64);
                    total += 1;
                    if p == r {
                        identical += 1;
                    }
                }
                let pa: f64 = plain_iters.iter().sum::<f64>() / plain_iters.len() as f64;
                let ra: f64 = removal_iters.iter().sum::<f64>() / removal_iters.len() as f64;
                sink.record(
                    &Record::new("table_row")
                        .str("table", "ablation_cycle_removal")
                        .int("m", m as i64)
                        .str("dist", dist.label())
                        .str("net", net_label)
                        .num("plain_avg_iters", pa)
                        .num("removal_avg_iters", ra)
                        .bool("identical", (pa - ra).abs() < 1e-9),
                );
                println!(
                    "{:<30} {:>10.2} {:>10.2} {:>8}",
                    format!("m={m} {} {net_label}", dist.label()),
                    pa,
                    ra,
                    if (pa - ra).abs() < 1e-9 { "yes" } else { "~" }
                );
            }
        }
    }
    sink.record(
        &Record::new("summary")
            .str("table", "ablation_cycle_removal")
            .int("identical_runs", identical as i64)
            .int("total_runs", total as i64),
    );
    println!(
        "\nidentical iteration counts in {identical}/{total} runs \
         (paper: 6000/6000; cycles are rare and Algorithm 1 removes them)"
    );
}
