//! Ablation (paper §I/§IX claim): "even on a single CPU [the
//! distributed algorithm] outperforms the standard solvers".
//!
//! Compares wall-clock time and solution quality of:
//! * the distributed engine (exact partner selection, single thread),
//! * the distributed engine (pruned partner selection),
//! * exact block-coordinate descent (the fastest centralized method),
//! * projected gradient (FISTA).
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_solver_comparison`.

use std::time::Instant;

use dlb_bench::full_scale;
use dlb_core::cost::total_cost;
use dlb_distributed::mine::PartnerSelection;
use dlb_distributed::{Engine, EngineOptions};
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::ScenarioSpec;
use dlb_solver::{solve_bcd, solve_pgd, PgdOptions};

fn main() {
    let mut sink = JsonlSink::create("ablation_solver_comparison");
    let ms: Vec<usize> = if full_scale() {
        vec![50, 100, 200, 300]
    } else {
        vec![50, 100, 200]
    };
    println!("\n== Ablation — distributed algorithm vs standard solvers ==");
    println!(
        "{:<10} {:<26} {:>14} {:>12} {:>10}",
        "m", "method", "objective", "time (ms)", "quality"
    );
    for &m in &ms {
        let spec: ScenarioSpec = format!("net=pl m={m} seed=3").parse().unwrap();
        let instance = spec.build_instance();
        let mut rows: Vec<(String, f64, f64)> = Vec::new();

        let t = Instant::now();
        let mut engine = Engine::new(
            instance.clone(),
            EngineOptions {
                seed: 1,
                parallel: false,
                selection: Some(PartnerSelection::Exact),
                ..Default::default()
            },
        );
        engine.run_to_convergence(1e-12, 2, 100);
        rows.push((
            "distributed (exact)".into(),
            total_cost(&instance, engine.assignment()),
            t.elapsed().as_secs_f64() * 1e3,
        ));

        let t = Instant::now();
        let mut engine = Engine::new(
            instance.clone(),
            EngineOptions {
                seed: 1,
                parallel: false,
                selection: Some(PartnerSelection::Pruned { top_k: 8 }),
                ..Default::default()
            },
        );
        engine.run_to_convergence(1e-12, 2, 100);
        rows.push((
            "distributed (pruned k=8)".into(),
            total_cost(&instance, engine.assignment()),
            t.elapsed().as_secs_f64() * 1e3,
        ));

        let t = Instant::now();
        let (_, bcd) = solve_bcd(&instance, 5_000, 1e-9);
        rows.push((
            "coordinate descent".into(),
            bcd.objective,
            t.elapsed().as_secs_f64() * 1e3,
        ));

        let t = Instant::now();
        let (_, pgd) = solve_pgd(
            &instance,
            &PgdOptions {
                max_iters: 20_000,
                tol: 1e-7,
                ..Default::default()
            },
        );
        rows.push((
            "projected gradient".into(),
            pgd.objective,
            t.elapsed().as_secs_f64() * 1e3,
        ));

        let best = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        for (name, obj, ms_t) in rows {
            sink.record(
                &Record::new("table_row")
                    .str("table", "ablation_solver_comparison")
                    .int("m", m as i64)
                    .str("method", &name)
                    .num("objective", obj)
                    .num("time_ms", ms_t)
                    .num("quality", obj / best),
            );
            println!(
                "{:<10} {:<26} {:>14.1} {:>12.1} {:>10.5}",
                m,
                name,
                obj,
                ms_t,
                obj / best
            );
        }
        println!();
    }
    println!("quality = objective / best objective (1.0 is best)");
    println!("paper: the distributed algorithm outperforms standard solvers even on one CPU");
}
