//! Ablation: what does giving up the liveness oracle cost?
//!
//! PR 7 replaced the script-fed oracle with an in-protocol failure
//! detector (`detect=timeout:MS` / `detect=adaptive`). This harness
//! quantifies the trade every deployed detector faces — detection
//! latency versus false positives — on one fixed fault trajectory:
//! a crash wave plus slow-but-alive stragglers, the adversarial mix
//! where aggressive timeouts wrongly suspect stragglers and lax ones
//! leave crashed nodes undetected for whole rounds. Every `detect=`
//! setting runs the identical scenario (same seed ⇒ same workload,
//! link delays, victims, stragglers), recording suspicions, false
//! positives, mean detection latency, rejoin time, aborted exchanges,
//! and final `ΣC` to `BENCH_detector.json` at the workspace root
//! (`dlb report BENCH_detector.json` renders it).
//!
//! Reading the rows: the oracle row is the unreachable ideal (zero
//! latency, zero false positives). Fixed timeouts trace the classic
//! curve — tighter deadline, faster detection, more stragglers
//! wrongly suspected. The adaptive (phi-accrual-style) detector
//! learns per-node report cadence, so it keeps detection latency in
//! the tight-timeout regime at a fraction of the false positives.
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_failure_detection`.

use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::{AlgoSpec, ScenarioSpec};

/// The fixed fault trajectory every detector setting faces: 15% of
/// the cluster crashes at 200 ms (silence the detector must notice),
/// 20% straggles at 4× for the whole run (alive nodes an impatient
/// detector wrongly suspects).
const FAULTS: &str = "crash:0.15@200ms,slow:0.2@4x";

fn base_spec() -> ScenarioSpec {
    let text = format!(
        "algo=protocol runtime=events net=homog m=120 avg=60 seed=7 \
         eps=1e-9 patience=5 budget=2000 faults={FAULTS}"
    );
    text.parse().expect("base spec parses")
}

fn main() {
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detector.json");
    let mut sink = JsonlSink::create_at(out_path).expect("BENCH_detector.json must be writable");

    // The detector grid: the oracle baseline, fixed report deadlines
    // from aggressive to lax, and the adaptive estimator. Labels are
    // exact `detect=` axis values, so every row is reproducible as
    // `dlb run <scenario>`.
    let grid: &[&str] = &[
        "oracle",
        "timeout:50ms",
        "timeout:200ms",
        "timeout:1000ms",
        "adaptive",
    ];

    println!("== failure detection — {} ==", base_spec());
    println!(
        "{:<14} {:>10} {:>8} {:>11} {:>11} {:>11} {:>10} {:>8}",
        "detect",
        "final ΣC",
        "rounds",
        "suspicions",
        "false pos",
        "latency ms",
        "rejoin ms",
        "aborts"
    );
    let mut rows: Vec<(&str, dlb_runtime::DetectorSummary)> = Vec::new();
    for &detect in grid {
        let text = format!("{} detect={detect}", base_spec());
        let spec: ScenarioSpec = text.parse().expect("grid specs parse");
        assert_eq!(spec.algo, AlgoSpec::Protocol);
        let run = spec.run();
        assert!(
            run.converged,
            "detect row '{detect}' must converge within the budget"
        );
        let d = run.detector;
        println!(
            "{:<14} {:>10.0} {:>8} {:>11} {:>11} {:>11.1} {:>10.1} {:>8}",
            detect,
            run.final_cost(),
            run.iterations,
            d.suspicions,
            d.false_positives,
            d.detection_latency_ms,
            d.rejoin_ms,
            d.aborted_exchanges,
        );
        sink.record(&Record::from_run("failure_detection", &run).str("detect", detect));
        rows.push((detect, d));
    }

    // The curve's headline: the adaptive estimator must beat at least
    // one fixed timeout on false positives while both detect the same
    // crash wave — otherwise the per-node history buys nothing.
    let adaptive = rows.iter().find(|(d, _)| *d == "adaptive").unwrap().1;
    assert!(
        rows.iter()
            .any(|(d, s)| d.starts_with("timeout") && adaptive.false_positives < s.false_positives),
        "adaptive ({} fps) must beat some fixed timeout on false positives: {rows:?}",
        adaptive.false_positives
    );
    println!("\ndetector sweep written to BENCH_detector.json");
}
