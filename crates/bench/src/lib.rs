//! # dlb-bench — experiment harnesses for every table and figure
//!
//! Each `harness = false` bench target regenerates one artifact of the
//! paper's evaluation (§VI and the Appendix), or one ablation that
//! answers a modelling question, and prints it in the paper's row
//! format. This library crate holds the shared machinery: experiment
//! grids, the optimum oracle, descriptive statistics, and table
//! formatting. Nothing depends on it — the `dlb` binary included: the
//! record writer and the report renderer the targets write through are
//! `dlb_scenario::{results, report}`, beside the `RunRecord` they
//! serialize. How fast the system runs is not measured here but by the
//! perf ledger in `benchmark/`.
//!
//! Scale control: set `DLB_BENCH_SCALE=full` for the paper-sized grids
//! (minutes of runtime); the default `fast` grids keep every qualitative
//! conclusion but finish in seconds, and are what `cargo bench` runs in
//! CI.
//!
//! Reading the committed artifacts: every record carries `host_cores`.
//! On a 1-core host `dlb-par` degrades to its sequential inline path,
//! so wall-clock columns recorded there miss the multi-core fan-out of
//! the batched propose phase and the executor's broadcasts (the
//! sequential engine runs on one thread everywhere). Compare rows only
//! within one `host_cores` value.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dlb_core::workload::LoadDistribution;
use dlb_distributed::engine::iterations_to_reach;
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::{NetSpec, ScenarioSpec};

/// The two latency substrates of the paper's tables (§VI-A), each with
/// its row label: `c_ij = 20` for all pairs, and the synthetic
/// PlanetLab-like matrix.
pub const NETWORKS: [(NetSpec, &str); 2] = [(NetSpec::Homog, "c=20"), (NetSpec::Pl, "PL")];

/// Returns `true` when the full (paper-scale) grids were requested via
/// `DLB_BENCH_SCALE=full`.
pub fn full_scale() -> bool {
    std::env::var("DLB_BENCH_SCALE")
        .map(|v| v.eq_ignore_ascii_case("full"))
        .unwrap_or(false)
}

/// Descriptive statistics used in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Sample count.
    pub n: usize,
}

/// Computes [`Stats`] over a sample.
pub fn stats(xs: &[f64]) -> Stats {
    let n = xs.len();
    if n == 0 {
        return Stats {
            mean: 0.0,
            max: 0.0,
            std: 0.0,
            n,
        };
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    Stats {
        mean,
        max,
        std: var.sqrt(),
        n,
    }
}

/// The Tables I/II measurement protocol for one scenario: run the
/// engine with unit granularity to its oracle fixpoint and report how
/// many iterations its trajectory needed to come within `rel_err` of
/// it (the paper approximates the optimum with the distributed
/// algorithm itself, §VI-A). Returns the run record alongside so
/// callers can sink it.
pub fn iterations_to_rel_error(
    spec: &ScenarioSpec,
    rel_err: f64,
) -> (usize, dlb_scenario::RunRecord) {
    // The paper's load is discrete unit requests (§II); its simulation
    // therefore stops when no whole request is worth moving. The
    // oracle stall tolerance, 1e-6 relative per iteration, is two
    // orders tighter than the finest measured threshold (0.1 %), so
    // the oracle is converged for measurement purposes without chasing
    // sub-request-scale improvements forever.
    let oracle = ScenarioSpec {
        gran: 1.0,
        eps: 1e-6,
        patience: 3,
        budget: 60,
        ..spec.clone()
    };
    let run = oracle.run();
    let iters =
        iterations_to_reach(&run.history, run.final_cost(), rel_err).unwrap_or(run.iterations);
    (iters, run)
}

/// Shared runner for Tables I and II: sweeps the §VI-A grid and prints
/// iterations-to-`rel_err` statistics per (size bucket, distribution).
/// Every sample's [`dlb_scenario::RunRecord`] and every printed row
/// are also emitted as JSON lines through the environment-driven sink
/// (`<DLB_RESULTS_DIR>/<sink_name>.jsonl`).
pub fn convergence_table(rel_err: f64, title: &str, sink_name: &str) {
    let full = full_scale();
    let size_buckets: Vec<(&str, Vec<usize>)> = if full {
        vec![
            ("m <= 50", vec![20, 30, 50]),
            ("m = 100", vec![100]),
            ("m = 200", vec![200]),
            ("m = 300", vec![300]),
        ]
    } else {
        vec![
            ("m <= 50", vec![20, 30, 50]),
            ("m = 100", vec![100]),
            ("m = 200", vec![200]),
        ]
    };
    let avg_loads: Vec<f64> = if full {
        vec![10.0, 20.0, 50.0, 200.0, 1000.0]
    } else {
        vec![10.0, 50.0]
    };
    let seeds: Vec<u64> = if full { vec![1, 2, 3, 4] } else { vec![1] };
    let dists = [
        LoadDistribution::Uniform,
        LoadDistribution::Exponential,
        LoadDistribution::Peak,
    ];

    let mut sink = JsonlSink::create(sink_name);
    print_header(title, "bucket / distribution");
    for (bucket, ms) in &size_buckets {
        for dist in dists {
            let mut samples = Vec::new();
            for &m in ms {
                // The peak workload fixes the total at 100 000 requests
                // on one server (paper §VI-A) and ignores the avg grid.
                let loads_grid: Vec<f64> = if dist == LoadDistribution::Peak {
                    vec![100_000.0 / m as f64]
                } else {
                    avg_loads.clone()
                };
                for &avg in &loads_grid {
                    for (net, _) in NETWORKS {
                        for &seed in &seeds {
                            let spec = ScenarioSpec {
                                net,
                                m,
                                load: dist,
                                avg,
                                seed,
                                ..ScenarioSpec::default()
                            };
                            let (iters, run) = iterations_to_rel_error(&spec, rel_err);
                            sink.record(
                                &Record::from_run("run", &run)
                                    .num("rel_err", rel_err)
                                    .int("iters_to_target", iters as i64),
                            );
                            samples.push(iters as f64);
                        }
                    }
                }
            }
            let s = stats(&samples);
            sink.record(
                &Record::new("table_row")
                    .str("table", sink_name)
                    .str("bucket", bucket)
                    .str("dist", dist.label())
                    .num("rel_err", rel_err)
                    .num("avg", s.mean)
                    .num("max", s.max)
                    .num("std", s.std)
                    .int("n", s.n as i64),
            );
            println!("{}", format_row(&format!("{bucket} {}", dist.label()), &s));
        }
    }
}

/// Formats a `(label, Stats)` table row in the paper's
/// `average / max / st.dev` layout.
pub fn format_row(label: &str, s: &Stats) -> String {
    format!(
        "{label:<28} {:>8.2} {:>8.2} {:>8.2}   (n={})",
        s.mean, s.max, s.std, s.n
    )
}

/// Prints a standard table header.
pub fn print_header(title: &str, col: &str) {
    println!("\n== {title} ==");
    println!("{:<28} {:>8} {:>8} {:>8}", col, "avg", "max", "st.dev");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.max, 3.0);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn stats_empty() {
        let s = stats(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn iterations_measurement_is_small_on_easy_instances() {
        let spec: ScenarioSpec = "m=20 load=uniform seed=3".parse().unwrap();
        let (iters, run) = iterations_to_rel_error(&spec, 0.02);
        assert!(iters <= 10, "{iters} iterations for an easy instance");
        assert_eq!(run.m, 20);
        assert!(run.final_cost() <= run.initial_cost());
    }

    #[test]
    fn format_row_shape() {
        let row = format_row("m=100 uniform", &stats(&[2.0, 3.0]));
        assert!(row.contains("m=100 uniform"));
        assert!(row.contains("(n=2)"));
    }
}
