//! Ablation: what does the observability plane cost?
//!
//! The `dlb-obs` tentpole claims **zero overhead when off**: every
//! trace hook is monomorphized over the sink type, so a `trace=off`
//! run compiles to the same machine code as a direct executor call
//! with `dlb_obs::NullSink` baked in. This harness puts a
//! number on that claim — and on what turning tracing *on* costs — at
//! the paper's large-network scale (m = 5000):
//!
//! * `direct` — the executor invoked straight through
//!   `run_cluster_events`, with the same options the scenario runner
//!   compiles. This is the PR-9-equivalent untraced baseline.
//! * `off` — the same scenario through the full runner path with the
//!   `trace=` axis absent. Asserted to cost **< 1%** over `direct`
//!   (median of interleaved repetitions).
//! * `summary` — `trace=summary`: events stream into an in-memory
//!   recording and fold into the `obs_*` metric group.
//! * `frames` — `trace=frames:FILE`: the full event stream is
//!   recorded and encoded to a binary frame log on disk.
//!
//! Each variant runs the identical protocol work (same instance, same
//! seed, same budget); `direct` vs `off` is additionally pinned by a
//! bit-equality check on the final cost, so a drift between the
//! replicated options below and the runner's own would fail loudly
//! rather than skew the baseline. Rows land in `BENCH_obs.json` at the
//! workspace root (`dlb report BENCH_obs.json` renders them).
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_obs_overhead`.

use dlb_netsim::rtt::QueueModel;
use dlb_netsim::LinkDelayModel;
use dlb_runtime::{run_cluster_events, ClusterOptions, NodeConfig};
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::{RunRecord, ScenarioSpec};
use std::time::Instant;

/// The workload every variant runs: the paper's large-network scale on
/// the homogeneous substrate (so instance sampling does not drown the
/// protocol work being measured).
const SPEC: &str =
    "algo=protocol runtime=events net=homog m=5000 avg=60 seed=2 patience=3 budget=6";

/// Interleaved repetitions per variant; the median decorrelates
/// machine drift from the comparison.
const REPS: usize = 5;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// The executor options the scenario runner compiles for this spec
/// (fault-free homogeneous case of its RTO bound). The `direct`/`off`
/// bit-equality assert below keeps this replica honest.
fn direct_options(spec: &ScenarioSpec, instance: &dlb_core::Instance) -> ClusterOptions {
    let jitter_tail = 40.0 * QueueModel::default().base_jitter_ms;
    let d_max = instance.latency().max_latency() / 2.0 + jitter_tail;
    ClusterOptions {
        max_rounds: spec.budget,
        quiescent_rounds: spec.patience.max(1),
        quiescent_volume: spec.eps,
        node: NodeConfig::default(),
        exchange_rto_ms: 2.0 * d_max + 50.0,
        ..Default::default()
    }
}

fn main() {
    let spec: ScenarioSpec = SPEC.parse().expect("base spec parses");
    let instance = spec.build_instance();
    let log_path = std::env::temp_dir().join("dlb_bench_obs_overhead.dlbf");
    let traced_spec = |axis: &str| -> ScenarioSpec {
        format!("{SPEC} trace={axis}")
            .parse()
            .expect("traced spec parses")
    };
    let summary_spec = traced_spec("summary");
    let frames_spec = traced_spec(&format!("frames:{}", log_path.display()));

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let mut sink = JsonlSink::create_at(out_path).expect("BENCH_obs.json must be writable");

    println!("== observability overhead — {SPEC} ==");
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut runs: [Option<RunRecord>; 3] = Default::default();
    let mut direct_final = f64::NAN;
    for rep in 0..REPS {
        // Interleave the variants so slow machine phases hit them all.
        let t0 = Instant::now();
        let report = run_cluster_events(&instance, &direct_options(&spec, &instance), {
            let delays = LinkDelayModel::new(instance.latency(), spec.seed);
            move |i, j| delays.one_way_ms(i, j)
        });
        times[0].push(t0.elapsed().as_secs_f64());
        direct_final = *report.history.last().expect("history non-empty");

        for (slot, s) in [&spec, &summary_spec, &frames_spec].into_iter().enumerate() {
            let inst = instance.clone();
            let t0 = Instant::now();
            let run = s.run_on(inst);
            times[slot + 1].push(t0.elapsed().as_secs_f64());
            runs[slot] = Some(run);
        }
        println!(
            "rep {}: direct {:.3}s  off {:.3}s  summary {:.3}s  frames {:.3}s",
            rep, times[0][rep], times[1][rep], times[2][rep], times[3][rep]
        );
    }

    let off_run = runs[0].take().expect("ran");
    assert_eq!(
        direct_final.to_bits(),
        off_run.final_cost().to_bits(),
        "direct baseline and trace=off must do identical protocol work"
    );
    let frames_run = runs[2].take().expect("ran");
    let log_bytes = std::fs::metadata(&log_path)
        .expect("frame log written")
        .len();

    let direct = median(times[0].clone());
    let labels = ["off", "summary", "frames"];
    println!(
        "\n{:<10} {:>12} {:>12}",
        "variant", "median secs", "vs direct"
    );
    println!("{:<10} {:>12.4} {:>11}%", "direct", direct, "-");
    for (i, label) in labels.iter().enumerate() {
        let m = median(times[i + 1].clone());
        let pct = (m / direct - 1.0) * 100.0;
        println!("{:<10} {:>12.4} {:>+11.2}%", label, m, pct);
        let run = match *label {
            "off" => &off_run,
            "summary" => runs[1].as_ref().expect("ran"),
            _ => &frames_run,
        };
        let mut row = Record::from_run("obs_overhead", run)
            .str("variant", label)
            .num("median_secs", m)
            .num("direct_secs", direct)
            .num("pct_vs_direct", pct);
        if *label == "frames" {
            row = row.int("frame_log_bytes", log_bytes as i64);
        }
        sink.record(&row);
    }

    // The tentpole's headline claim, enforced: tracing off is free.
    let off_pct = median(times[1].clone()) / direct - 1.0;
    assert!(
        off_pct < 0.01,
        "trace=off overhead {:.2}% exceeds the 1% budget",
        off_pct * 100.0
    );

    let _ = std::fs::remove_file(&log_path);
    println!(
        "\ntrace=off overhead {:+.2}% (< 1% budget); frame log at m=5000: {} bytes, {} events",
        off_pct * 100.0,
        log_bytes,
        frames_run.obs.events
    );
    println!("observability sweep written to BENCH_obs.json");
}
