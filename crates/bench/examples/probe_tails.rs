//! Diagnostic probe: per-configuration iteration counts for Table II,
//! to find which instances drive the max statistics.
//!
//! Run: `cargo run --release -p dlb-bench --example probe_tails`

use dlb_bench::NETWORKS;
use dlb_core::workload::LoadDistribution;
use dlb_distributed::engine::iterations_to_reach;
use dlb_distributed::{Engine, EngineOptions};
use dlb_scenario::ScenarioSpec;

fn main() {
    let rel_err = 0.001;
    for &m in &[20, 50, 100, 200] {
        for dist in [
            LoadDistribution::Uniform,
            LoadDistribution::Exponential,
            LoadDistribution::Peak,
        ] {
            let avgs: Vec<f64> = if dist == LoadDistribution::Peak {
                vec![100_000.0 / m as f64]
            } else {
                vec![10.0, 50.0, 200.0]
            };
            for &avg in &avgs {
                for (net, net_label) in NETWORKS {
                    for seed in [1u64, 2] {
                        let spec = ScenarioSpec {
                            net,
                            m,
                            load: dist,
                            avg,
                            seed,
                            ..ScenarioSpec::default()
                        };
                        let mut engine = Engine::new(
                            spec.build_instance(),
                            EngineOptions {
                                seed,
                                granularity: 1.0,
                                ..Default::default()
                            },
                        );
                        engine.run_to_convergence(1e-6, 3, 60);
                        let optimum = engine.current_cost();
                        let iters = iterations_to_reach(engine.history(), optimum, rel_err)
                            .unwrap_or(engine.iterations());
                        let total = engine.iterations();
                        if iters > 9 {
                            println!(
                                "m={m:<4} {:<8} avg={avg:<8} {net_label:<5} seed={seed}: {iters} iters (ran {total})",
                                dist.label()
                            );
                        }
                    }
                }
            }
        }
    }
}
