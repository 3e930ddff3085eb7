//! Deterministic simulation: the event executor must produce
//! bit-identical runs however many workers drain its delivery batches,
//! and however many times a configuration is replayed.
//!
//! The executor drains small batches in place and lends broadcast
//! batches to the `dlb-par` threads as contiguous id ranges, always
//! scheduling replies per source in first-delivery order, so the
//! delivered event order — and therefore every ledger, every cost
//! history entry, and the whole `RunRecord` the scenario layer emits —
//! is a pure function of (instance, options, delay function). These
//! tests pin that down across `DLB_THREADS ∈ {1, 2, 4, default}` and
//! across repeats at the executor API, two of them against literal
//! values recorded before the table-lending executor existed;
//! `crates/scenario/tests/event_record_determinism.rs` extends the
//! same property to the whole `RunRecord`.
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests.

use dlb_core::workload::LoadDistribution;
use dlb_core::{Instance, LatencyMatrix};
use dlb_faults::{FaultPlan, FaultScript, FaultSummary};
use dlb_obs::event::DROP_SRC_DOWN;
use dlb_obs::{MemorySink, NullSink, TraceEvent, TraceKind, TraceSink, NODE_COORD};
use dlb_requestsim::stream::StreamScript;
use dlb_runtime::{
    run_cluster_events, run_cluster_events_observed, ClusterOptions, ClusterReport, DetectMode,
    VirtualClock,
};
use std::sync::Mutex;

mod common;
use common::{faults, planetlab_like, workload};

/// Both tests mutate the process-wide `DLB_THREADS` variable; they must
/// not interleave within this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// An instance big enough that delivery batches clear `dlb-par`'s
/// sequential cutoff (32 destinations), so the parallel sharding path
/// really runs under `DLB_THREADS=4`.
fn instance(m: usize, seed: u64) -> Instance {
    workload(
        LoadDistribution::Exponential,
        70.0,
        planetlab_like(m, seed),
        seed,
    )
}

fn simulate(instance: &Instance) -> ClusterReport {
    run_cluster_events(instance, &ClusterOptions::default(), |i, j| {
        instance.c(i, j) / 2.0
    })
}

/// Everything observable about a run that must be bit-stable. Wall
/// time is excluded on purpose — it is the one quantity the host may
/// legitimately vary (the scenario-level test covers `wall_secs`,
/// which carries *virtual* time for event runs).
fn fingerprint(report: &ClusterReport) -> (u64, Vec<u64>, Vec<u64>, usize, usize, u64, bool) {
    (
        report.event_hash,
        report.history.iter().map(|c| c.to_bits()).collect(),
        report
            .assignment
            .loads()
            .iter()
            .map(|l| l.to_bits())
            .collect(),
        report.rounds,
        report.exchanges,
        report.virtual_ms.to_bits(),
        report.quiescent,
    )
}

#[test]
fn event_order_and_results_are_thread_count_invariant() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inst = instance(64, 1);
    std::env::set_var("DLB_THREADS", "1");
    let one = fingerprint(&simulate(&inst));
    std::env::set_var("DLB_THREADS", "4");
    let four = fingerprint(&simulate(&inst));
    std::env::remove_var("DLB_THREADS");
    let default = fingerprint(&simulate(&inst));
    assert_eq!(one, four, "DLB_THREADS=1 vs 4 diverged");
    assert_eq!(one, default, "pinned vs default thread count diverged");
}

/// A crash+loss+spike+partition script over the same workload: fault
/// trajectories must be exactly as thread-count-invariant as clean
/// runs — every script consultation happens on the single-threaded
/// scheduling path.
fn chaos_plan() -> FaultPlan {
    faults("crash:0.2@40ms..400ms,loss:0.1,spike:3x@20ms..300ms,part:60ms..200ms")
}

fn chaos_script(m: usize) -> FaultScript {
    chaos_plan().compile(5, m)
}

fn simulate_faulted(instance: &Instance, script: &FaultScript) -> ClusterReport {
    run_cluster_events_observed(
        instance,
        &ClusterOptions::default(),
        |i, j| instance.c(i, j) / 2.0,
        script,
        &StreamScript::empty(),
        &mut VirtualClock,
        &mut NullSink,
    )
}

#[test]
fn fault_trajectories_are_thread_count_invariant() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inst = instance(64, 1);
    let script = chaos_script(64);
    std::env::set_var("DLB_THREADS", "1");
    let one = fingerprint(&simulate_faulted(&inst, &script));
    let one_faults = simulate_faulted(&inst, &script).faults;
    std::env::set_var("DLB_THREADS", "4");
    let four = fingerprint(&simulate_faulted(&inst, &script));
    let four_faults = simulate_faulted(&inst, &script).faults;
    std::env::remove_var("DLB_THREADS");
    let default = fingerprint(&simulate_faulted(&inst, &script));
    assert_eq!(one, four, "faulted DLB_THREADS=1 vs 4 diverged");
    assert_eq!(one, default, "faulted pinned vs default diverged");
    assert_eq!(one_faults, four_faults, "fault summaries diverged");
    // The script really bit: the trajectory differs from the clean run.
    let clean = fingerprint(&simulate(&inst));
    assert_ne!(one.0, clean.0, "faults must change the event order");
}

#[test]
fn repeated_runs_are_bit_identical_per_seed_and_differ_across_seeds() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var("DLB_THREADS");
    for seed in [2u64, 3] {
        let inst = instance(48, seed);
        let a = fingerprint(&simulate(&inst));
        let b = fingerprint(&simulate(&inst));
        assert_eq!(a, b, "seed {seed}: repeat diverged");
    }
    assert_ne!(
        fingerprint(&simulate(&instance(48, 2))).0,
        fingerprint(&simulate(&instance(48, 3))).0,
        "different instances must produce different event orders"
    );
}

/// Four-node islands: cheap links inside, prohibitive ones between.
/// Every island balances on its own, so each phase of a round is some
/// m/4 exchanges wide — where a well-connected cluster's proposal herd
/// allows one or two — and `Accept`, `Commit` and `CommitAck` batches
/// clear the sharding threshold, not just the broadcasts.
fn islands(m: usize, seed: u64) -> Instance {
    let mut lat = LatencyMatrix::zero(m);
    for i in 0..m {
        for j in (0..m).filter(|&j| j != i) {
            let near = 1.0 + ((i + j) % 3) as f64;
            lat.set(i, j, if i / 4 == j / 4 { near } else { 10_000.0 });
        }
    }
    workload(LoadDistribution::Exponential, 400.0, lat, seed)
}

/// A constant link delay: every frame species of a round lands at one
/// instant, in sender order — sharded batches whose first-delivery
/// order is *not* id order, which jittered delays never produce.
fn simulate_lockstep(
    instance: &Instance,
    options: &ClusterOptions,
    script: &FaultScript,
    tracer: &mut impl TraceSink,
) -> ClusterReport {
    run_cluster_events_observed(
        instance,
        options,
        |_, _| 5.0,
        script,
        &StreamScript::empty(),
        &mut VirtualClock,
        tracer,
    )
}

/// Event hash, an FNV fold of every final ledger entry's
/// `(server, owner, amount bits)`, and the fault accounting.
fn pin(report: &ClusterReport) -> (u64, u64, FaultSummary) {
    let mut fold = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |v: u64| fold = (fold ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    for j in 0..report.assignment.loads().len() {
        for (owner, amount) in report.assignment.ledger(j).iter() {
            mix(j as u64);
            mix(owner as u64);
            mix(amount.to_bits());
        }
    }
    (report.event_hash, fold, report.faults)
}

/// What the lockstep tests rely on, from a trace walked batch by batch
/// (a batch's deliveries precede its emissions). A batch is *sharded*
/// when it touched at least `SEQUENTIAL_CUTOFF` nodes.
struct Census {
    /// The widest batch whose first-delivery order is not ascending.
    widest_unordered: usize,
    /// The most deliveries one node received in a sharded batch.
    deepest_sharded: usize,
    /// Whether a down source's emissions were dropped in a sharded
    /// batch.
    wide_src_drop: bool,
}

fn batch_census(events: &[TraceEvent]) -> Census {
    let mut census = Census {
        widest_unordered: 0,
        deepest_sharded: 0,
        wide_src_drop: false,
    };
    // `(node, deliveries)` in first-delivery order.
    let mut touched: Vec<(u32, usize)> = Vec::new();
    let mut delivering = false;
    for ev in events {
        match ev.kind {
            TraceKind::FrameDelivered if ev.node != NODE_COORD => {
                if !std::mem::replace(&mut delivering, true) {
                    touched.clear();
                }
                match touched.iter_mut().find(|(j, _)| *j == ev.node) {
                    Some((_, n)) => *n += 1,
                    None => touched.push((ev.node, 1)),
                }
            }
            TraceKind::FrameScheduled | TraceKind::FrameDropped => {
                let sharded = touched.len() >= dlb_par::SEQUENTIAL_CUTOFF;
                if std::mem::replace(&mut delivering, false) {
                    if !touched.is_sorted_by_key(|&(j, _)| j) {
                        census.widest_unordered = census.widest_unordered.max(touched.len());
                    }
                    if sharded {
                        let deepest = touched.iter().map(|&(_, n)| n).max().unwrap_or(0);
                        census.deepest_sharded = census.deepest_sharded.max(deepest);
                    }
                }
                census.wide_src_drop |=
                    ev.kind == TraceKind::FrameDropped && ev.detail == DROP_SRC_DOWN && sharded;
            }
            _ => {}
        }
    }
    census
}

/// One traced lockstep run to check the test's premise against, then
/// the literal pin on it and under `DLB_THREADS ∈ {1, 2, 4}`. The
/// literals were recorded on the by-value checkout executor (commit
/// f359460), which the in-place and table-lending drains replaced.
fn assert_pinned(
    instance: &Instance,
    options: &ClusterOptions,
    script: &FaultScript,
    expected: (u64, u64, FaultSummary),
) -> Census {
    let mut trace = MemorySink::default();
    let traced = pin(&simulate_lockstep(instance, options, script, &mut trace));
    assert_eq!(traced, expected, "traced run");
    for threads in ["1", "2", "4"] {
        std::env::set_var("DLB_THREADS", threads);
        let got = pin(&simulate_lockstep(instance, options, script, &mut NullSink));
        std::env::remove_var("DLB_THREADS");
        assert_eq!(got, expected, "DLB_THREADS={threads}");
    }
    batch_census(&trace.events)
}

/// The sharded path's order contract: replies are scheduled in
/// first-delivery order, not id order.
#[test]
fn lockstep_batches_out_of_id_order_are_pinned() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, script) = (islands(240, 1), FaultScript::empty(240));
    let expected = (
        18_058_559_437_482_017_507,
        17_246_117_059_793_683_548,
        FaultSummary::default(),
    );
    let census = assert_pinned(&inst, &ClusterOptions::default(), &script, expected);
    let widest = census.widest_unordered;
    assert!(
        widest >= dlb_par::SEQUENTIAL_CUTOFF,
        "premise: a sharded batch out of id order (widest: {widest})"
    );
    let deepest = census.deepest_sharded;
    assert!(
        deepest >= 2,
        "premise: a node takes several deliveries in one sharded batch (most: {deepest})"
    );
}

/// The same under the suite's chaos plan with in-protocol detection
/// and the crash moved between round 1's `Commit` (t = 15) and
/// `CommitAck` (t = 20) instants: a fifth of the initiators are down
/// when their ack lands, inside a sharded batch; the ack still reaches
/// them, and the `Report` each then emits is dropped and counted
/// (`DROP_SRC_DOWN`) exactly as before.
#[test]
fn lockstep_chaos_with_down_sources_in_a_sharded_batch_is_pinned() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inst = islands(240, 1);
    let script = faults("crash:0.2@17ms..400ms,loss:0.1,spike:3x@20ms..300ms,part:60ms..200ms");
    let script = script.compile(5, 240);
    let options = ClusterOptions {
        detect: DetectMode::Timeout(250.0),
        exchange_rto_ms: 400.0,
        ..Default::default()
    };
    let faults = FaultSummary {
        crashes: 48,
        recoveries: 48,
        dropped_frames: 78,
        delayed_frames: 858,
        extra_delay_ms: 112_600.0,
    };
    let expected = (5_720_440_813_624_892_405, 5_799_907_708_976_331_928, faults);
    let census = assert_pinned(&inst, &options, &script, expected);
    assert!(
        census.wide_src_drop,
        "premise: a down source in a sharded batch"
    );
}
