//! Ablation: how far does the §IV protocol degrade when the network
//! misbehaves?
//!
//! The paper (and the neighborhood load-balancing line it builds on —
//! arXiv cs/0506098, arXiv 1109.6925) analyzes convergence under
//! idealized communication. This harness measures the other regime:
//! the same event-driven protocol run under `dlb-faults` schedules of
//! increasing intensity — frame loss, delay spikes, a partition
//! window, node crashes, and their combination — recording final
//! `ΣC`, rounds-to-converge, and simulated protocol time per fault
//! intensity to `BENCH_faults.json` at the workspace root (`dlb
//! report BENCH_faults.json` renders it). Every row is deterministic
//! per seed: one seed fixes the workload, the link delays, and the
//! fault trajectory.
//!
//! Reading the rows: loss/spike/partition cannot change *where* the
//! protocol can go — only when frames arrive — so they mostly cost
//! simulated time and reshuffle the exchange order; crashes remove
//! servers, so their rows converge to a genuinely worse `ΣC` (the
//! survivors' optimum plus the victims' frozen ledgers).
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_fault_tolerance`.

use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::ScenarioSpec;

/// The workload every fault intensity runs against: exponential loads
/// on the paper's homogeneous `c = 20` network, big enough that a
/// crash-induced shift is visible, small enough to sweep quickly.
fn base_spec() -> ScenarioSpec {
    "algo=protocol m=300 avg=60 seed=7 eps=1e-9 patience=5 budget=1000"
        .parse()
        .unwrap()
}

fn main() {
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    let mut sink = JsonlSink::create_at(out_path).expect("BENCH_faults.json must be writable");

    // The fault-intensity grid, mildest to harshest. Labels are the
    // exact `faults=` axis values, so every row is reproducible as
    // `dlb run <scenario>`.
    let grid: &[&str] = &[
        "",
        "loss:0.05",
        "loss:0.2",
        "loss:0.4",
        "spike:4x@100ms..600ms",
        "part:100ms..400ms",
        "crash:0.1@200ms",
        "crash:0.3@200ms",
        "crash:0.1@200ms,loss:0.1",
    ];

    println!("== fault tolerance — {} ==", base_spec());
    println!(
        "{:<28} {:>10} {:>8} {:>12} {:>12} {:>9} {:>9}",
        "faults", "final ΣC", "rounds", "vs clean", "sim secs", "delayed", "dropped"
    );
    let mut clean = f64::NAN;
    for &faults in grid {
        let spec = ScenarioSpec {
            faults: faults.parse().expect("grid plans parse"),
            ..base_spec()
        };
        let run = spec.run();
        assert!(
            run.converged,
            "fault row '{faults}' must converge within the budget"
        );
        if faults.is_empty() {
            clean = run.final_cost();
        }
        let vs_clean = run.final_cost() / clean - 1.0;
        println!(
            "{:<28} {:>10.0} {:>8} {:>+11.2}% {:>12.3} {:>9} {:>9}",
            if faults.is_empty() { "(none)" } else { faults },
            run.final_cost(),
            run.iterations,
            vs_clean * 100.0,
            run.wall_secs,
            run.faults.delayed_frames,
            run.faults.dropped_frames,
        );
        sink.record(
            &Record::from_run("fault_tolerance", &run)
                .str("faults", faults)
                .num("pct_vs_clean", vs_clean * 100.0),
        );
    }
    println!("\nfault sweep written to BENCH_faults.json");
}
