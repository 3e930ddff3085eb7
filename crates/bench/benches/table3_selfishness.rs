//! Table III: the cost of selfishness — ratio of total processing
//! times between the (approximated) Nash equilibrium and the
//! cooperative optimum.
//!
//! Paper values (avg / max): const `s_i`: `l_av ≤ 30`: c=20 1.041/1.098,
//! PL 1.014/1.049 · `l_av = 50`: 1.114/1.150, 1.011/1.033 ·
//! `l_av ≥ 200`: 1.024/1.055, 1.003/1.022. Uniform `s_i`: everything
//! ≤ 1.062 and mostly ≈ 1.000.
//!
//! Every grid point is two scenarios over one sampled instance —
//! `algo=nash` (best-response dynamics with the paper's 1 % rule) and
//! `algo=bcd` (the cooperative optimum) — run through the shared
//! scenario API; every run and every table row is recorded through the
//! JSON-lines sink (`<DLB_RESULTS_DIR>/table3.jsonl`).
//!
//! Run: `cargo bench -p dlb-bench --bench table3_selfishness`.

use dlb_bench::{format_row, full_scale, print_header, stats, NETWORKS};
use dlb_core::workload::LoadDistribution;
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::{AlgoSpec, ScenarioSpec, SpeedKind};

fn main() {
    let full = full_scale();
    let ms: Vec<usize> = if full { vec![20, 30, 50] } else { vec![20, 30] };
    let seeds: Vec<u64> = if full {
        vec![1, 2, 3, 4, 5]
    } else {
        vec![1, 2, 3]
    };
    let load_buckets: Vec<(&str, Vec<f64>)> = vec![
        ("lav <= 30", vec![10.0, 20.0]),
        ("lav = 50", vec![50.0]),
        ("lav >= 200", vec![200.0, 1000.0]),
    ];
    let speed_kinds = [
        ("const s", SpeedKind::Const),
        ("uniform s", SpeedKind::Uniform),
    ];
    let mut sink = JsonlSink::create("table3");

    print_header(
        "Table III — selfish/cooperative total processing-time ratio",
        "speeds / bucket / network",
    );
    for (speed_label, speeds) in speed_kinds {
        for (bucket, avgs) in &load_buckets {
            for (net, net_label) in NETWORKS {
                let mut ratios = Vec::new();
                for &m in &ms {
                    for &avg in avgs {
                        for &seed in &seeds {
                            let base = ScenarioSpec {
                                net,
                                m,
                                load: LoadDistribution::Uniform,
                                avg,
                                speeds,
                                seed,
                                ..ScenarioSpec::default()
                            };
                            // Nash equilibrium via best-response dynamics
                            // with the paper's 1% termination rule.
                            let nash = ScenarioSpec {
                                algo: AlgoSpec::Nash,
                                eps: 0.01,
                                patience: 2,
                                budget: 10_000,
                                ..base.clone()
                            };
                            let nash = nash.run();
                            // Cooperative optimum.
                            let opt = ScenarioSpec {
                                algo: AlgoSpec::Bcd,
                                budget: 3_000,
                                ..base
                            };
                            let opt = opt.run();
                            sink.record(&Record::from_run("run", &nash));
                            sink.record(&Record::from_run("run", &opt));
                            if opt.final_cost() > 0.0 {
                                let ratio = (nash.final_cost() / opt.final_cost()).max(1.0);
                                sink.record(
                                    &Record::new("selfishness")
                                        .str("scenario", &nash.scenario)
                                        .num("nash_cost", nash.final_cost())
                                        .num("opt_cost", opt.final_cost())
                                        .num("ratio", ratio),
                                );
                                ratios.push(ratio);
                            }
                        }
                    }
                }
                let s = stats(&ratios);
                sink.record(
                    &Record::new("table_row")
                        .str("table", "table3")
                        .str("speeds", speed_label)
                        .str("bucket", bucket)
                        .str("network", net_label)
                        .num("avg", s.mean)
                        .num("max", s.max)
                        .num("std", s.std)
                        .int("n", s.n as i64),
                );
                println!(
                    "{}",
                    format_row(&format!("{speed_label} {bucket} {net_label}"), &s)
                );
            }
        }
    }
    println!("\npaper: all averages <= 1.114, all maxima <= 1.150");
}
