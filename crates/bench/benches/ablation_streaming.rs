//! Ablation: what does the protocol's continuous rebalancing buy an
//! open system, and what does failure detection cost its tail?
//!
//! PR 8 opened the runtime: `arrivals=`/`duration=` stream live
//! requests through the event executor while the protocol keeps
//! rebalancing. This harness sweeps arrival intensity (light Poisson
//! through a heavy burst overlay) twice — once fault-free under the
//! oracle, once with a crash wave under the adaptive in-protocol
//! detector — on one fixed seed, so every pair of rows isolates one
//! variable. Each row records the SLO view: requests served and
//! dropped, p50/p99 sojourn in virtual ms, time spent imbalanced, and
//! final `ΣC`, to `BENCH_streaming.json` at the workspace root
//! (`dlb report BENCH_streaming.json` renders it).
//!
//! Reading the rows: the continuous rebalancer holds the p50 sojourn
//! flat across a 6× intensity range (the protocol drains backlogs as
//! fast as the stream deepens them — the open-system payoff), and the
//! crash column shows the price of losing 15% of the cluster
//! mid-stream: requests homed on victims drop, and the cluster spends
//! multiples longer imbalanced while the detector notices and the
//! survivors re-spread the load.
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_streaming`.

use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::{AlgoSpec, ScenarioSpec};

/// The intensity sweep: exact `arrivals=` axis values, light to
/// heavy, so every row is reproducible as `dlb run <scenario>`.
const INTENSITIES: &[&str] = &[
    "poisson:100",
    "poisson:300",
    "poisson:300,burst:600@500ms..1500ms",
];

/// The crash wave the faulted half faces: 15% of the cluster dies at
/// 400 ms — early enough that victims still self-host most of their
/// load, so their in-flight requests have nowhere live to land.
const FAULTS: &str = "crash:0.15@400ms";

fn base_spec(arrivals: &str, faulted: bool) -> ScenarioSpec {
    let tail = if faulted {
        format!(" faults={FAULTS} detect=adaptive")
    } else {
        String::new()
    };
    let text = format!(
        "algo=protocol runtime=events net=homog m=120 avg=60 seed=7 \
         eps=1e-9 patience=5 budget=2000{tail} arrivals={arrivals} duration=2000"
    );
    text.parse().expect("grid specs parse")
}

fn main() {
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    let mut sink = JsonlSink::create_at(out_path).expect("BENCH_streaming.json must be writable");

    println!("== open-system streaming — m=120 seed=7 duration=2000ms ==");
    println!(
        "{:<38} {:<8} {:>7} {:>8} {:>9} {:>9} {:>12} {:>10}",
        "arrivals", "faults", "served", "dropped", "p50 ms", "p99 ms", "imbalance ms", "final ΣC"
    );
    let mut rows: Vec<(&str, bool, dlb_runtime::StreamSummary)> = Vec::new();
    for &arrivals in INTENSITIES {
        for faulted in [false, true] {
            let spec = base_spec(arrivals, faulted);
            assert_eq!(spec.algo, AlgoSpec::Protocol);
            let run = spec.run();
            let s = run.stream;
            println!(
                "{:<38} {:<8} {:>7} {:>8} {:>9.1} {:>9.1} {:>12.1} {:>10.0}",
                arrivals,
                if faulted { "crash" } else { "-" },
                s.served,
                s.dropped,
                s.p50_ms,
                s.p99_ms,
                s.imbalance_ms,
                run.final_cost(),
            );
            sink.record(
                &Record::from_run("streaming", &run)
                    .str("arrivals", arrivals)
                    .str("fault_mode", if faulted { "crash" } else { "none" }),
            );
            rows.push((arrivals, faulted, s));
        }
    }

    // The sweep's invariants: every setting serves most of its stream
    // with finite percentiles, fault-free runs drop nothing, and every
    // crash run drops the victims' unroutable requests.
    for (arrivals, faulted, s) in &rows {
        assert!(
            s.served > 0,
            "'{arrivals}' faulted={faulted} served nothing"
        );
        assert!(
            s.p50_ms.is_finite() && s.p50_ms > 0.0 && s.p99_ms >= s.p50_ms,
            "'{arrivals}' faulted={faulted} percentiles: {s:?}"
        );
        if *faulted {
            assert!(
                s.dropped > 0,
                "'{arrivals}' crash run must drop victim-homed requests: {s:?}"
            );
        } else {
            assert_eq!(s.dropped, 0, "'{arrivals}' fault-free run dropped: {s:?}");
        }
    }
    println!("\nstreaming sweep written to BENCH_streaming.json");
}
