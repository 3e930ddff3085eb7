//! Ablation: the paper's pair-once iteration semantics vs an eager
//! variant in which a server may take part in several exchanges per
//! iteration.
//!
//! The paper's Table I/II peak-load iteration counts grow like
//! `log₂ m` (4.87 at m ≤ 50 up to 8.0 at m = 300): a peak spreads by
//! doubling, which implies a pairwise exchange occupies both endpoints
//! for the round. The eager variant lets every server drain the hot
//! server in the same round and converges in ~2 rounds — cheaper in
//! rounds but incompatible with the reported numbers, and each round
//! costs more messages.
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_pairing_semantics`

use dlb_bench::{format_row, print_header, stats};
use dlb_core::workload::LoadDistribution;
use dlb_distributed::engine::iterations_to_reach;
use dlb_distributed::{Engine, EngineOptions};
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::ScenarioSpec;

fn iterations(instance: &dlb_core::Instance, pair_once: bool, seed: u64) -> usize {
    let mut engine = Engine::new(
        instance.clone(),
        EngineOptions {
            seed,
            pair_once,
            ..Default::default()
        },
    );
    engine.run_to_convergence(1e-9, 3, 80);
    let optimum = engine.current_cost();
    iterations_to_reach(engine.history(), optimum, 0.02).unwrap_or(engine.iterations())
}

fn main() {
    let mut sink = JsonlSink::create("ablation_pairing_semantics");
    print_header(
        "Ablation — pair-once vs eager rounds (peak load, iterations to <=2%)",
        "m / semantics",
    );
    for &m in &[50usize, 100] {
        let mut paired = Vec::new();
        let mut eager = Vec::new();
        for seed in 1..=3u64 {
            let spec = ScenarioSpec {
                m,
                load: LoadDistribution::Peak,
                avg: 100_000.0 / m as f64,
                seed,
                ..ScenarioSpec::default()
            };
            let instance = spec.build_instance();
            paired.push(iterations(&instance, true, seed) as f64);
            eager.push(iterations(&instance, false, seed) as f64);
        }
        for (semantics, samples) in [("pair-once", &paired), ("eager", &eager)] {
            let s = stats(samples);
            sink.record(
                &Record::new("table_row")
                    .str("table", "ablation_pairing_semantics")
                    .int("m", m as i64)
                    .str("semantics", semantics)
                    .num("avg", s.mean)
                    .num("max", s.max)
                    .num("std", s.std)
                    .int("n", s.n as i64),
            );
        }
        println!(
            "{}",
            format_row(&format!("m={m} pair-once"), &stats(&paired))
        );
        println!("{}", format_row(&format!("m={m} eager"), &stats(&eager)));
    }
    println!("\npaper peak rows (avg): m<=50: 4.87, m=100: 6.88 — matches pair-once; eager collapses to ~2");
    println!("expectation: pair-once ≈ log2(m) + small refinement tail; eager ≤ 3");
}
