//! Golden pins for the observability plane.
//!
//! The `dlb-obs` tracing hooks ride inside the event executor, so the
//! one thing they must never do is *change the run*. These pins prove
//! it two ways:
//!
//! * **Event-order pins.** Four scenario families — clean,
//!   faulted + adaptive detector, streamed arrivals, and top-k
//!   selection — are recorded to frame logs and replayed. The recorded
//!   `event_hash` must equal a golden captured from the
//!   pre-observability runtime; the hash folds the executor's
//!   delivered event order *before* any tracing hook runs, so a match
//!   means the traced executor schedules byte-for-byte the same events
//!   the untraced one did.
//! * **Record byte-pin.** An untraced run's JSON record must equal a
//!   frozen literal — `trace=` absent keeps the record shape (and
//!   every bit of every number) identical to the pre-observability
//!   emitter.
//!
//! Every replay must also be bit-exact: the rerun reproduces each
//! recorded event, the hash, and the trailer outcomes.

use delay_lb::obs::FrameLog;
use delay_lb::prelude::*;

/// `(scenario, event_hash)` goldens captured at the commit preceding
/// the observability plane (PR 9's executor).
const GOLDENS: &[(&str, u64)] = &[
    (
        "algo=protocol runtime=events net=pl m=64 seed=3",
        0xe4e172fce23838c1,
    ),
    (
        "algo=protocol runtime=events net=pl m=64 seed=3 faults=crash:0.1@500ms detect=adaptive",
        0xf86eb952a8ed39b9,
    ),
    (
        "algo=protocol runtime=events net=pl m=48 seed=5 arrivals=poisson:200 duration=2000",
        0x86ece7e284fb8f39,
    ),
    (
        "algo=protocol runtime=events net=homog m=40 seed=7 select=topk:8",
        0x445f1787309883b4,
    ),
];

#[test]
fn recorded_hashes_match_pre_observability_goldens_and_replay_bit_exactly() {
    for (i, &(text, golden)) in GOLDENS.iter().enumerate() {
        let path = std::env::temp_dir().join(format!("dlb_obs_pin_{i}.dlbf"));
        let spec: ScenarioSpec = format!("{text} trace=frames:{}", path.display())
            .parse()
            .expect("pinned scenario parses");
        let run = spec.run();
        assert!(run.obs.events > 0, "{text}: tracing must be live");

        let bytes = std::fs::read(&path).expect("frame log written");
        let log = FrameLog::decode(&bytes).expect("frame log decodes");
        assert_eq!(
            log.trailer.event_hash, golden,
            "{text}: delivered event order drifted from the pinned golden"
        );
        let untraced: ScenarioSpec = text.parse().unwrap();
        assert_eq!(
            log.spec,
            untraced.to_string(),
            "header must carry the canonical untraced spec"
        );

        let replay = replay_frame_log(&bytes).expect("log replays");
        assert!(replay.is_exact(), "{text}: {:?}", replay.divergence);
        assert_eq!(replay.replayed_hash, golden);
        std::fs::remove_file(&path).ok();
    }
}

/// A detected run whose crashed nodes never recover: the shutdown goes
/// to all `m` nodes, each down node drops it, and the executor freezes
/// their ledgers into the final assignment once the heap runs dry. The
/// event hash witnesses the dropped shutdowns; the trailer's
/// `final_cost`, the cost of that assignment, witnesses the ledgers.
#[test]
fn a_detected_run_ending_with_nodes_down_freezes_their_ledgers() {
    let text = "algo=protocol net=pl m=64 seed=3 faults=crash:0.1@500ms detect=adaptive";
    let path = std::env::temp_dir().join("dlb_obs_down_at_shutdown.dlbf");
    let spec: ScenarioSpec = format!("{text} trace=frames:{}", path.display())
        .parse()
        .expect("pinned scenario parses");
    spec.run();
    let bytes = std::fs::read(&path).expect("frame log written");
    std::fs::remove_file(&path).ok();
    let log = FrameLog::decode(&bytes).expect("frame log decodes");
    let shutdown = |kind| {
        let of_kind = log.events.iter().filter(|ev| ev.kind == kind);
        of_kind.filter(|ev| ev.tag == 7).count()
    };
    assert_eq!(shutdown(TraceKind::FrameScheduled), 64, "all m nodes");
    assert_eq!(shutdown(TraceKind::FrameDropped), 6, "the crashed six");
    assert_eq!(log.trailer.event_hash, 0xf86e_b952_a8ed_39b9);
    assert_eq!(log.trailer.final_cost.to_bits(), 0x40e0_ebc3_c4e3_6318);
}

/// The exact JSON an untraced `net=pl m=64 seed=3` event run emits
/// (before the sink's host stamp), frozen at the pre-observability
/// emitter. Any new field, reordered key, or perturbed bit fails here.
const GOLDEN_RECORD: &str = "{\"kind\":\"run\",\"scenario\":\"algo=protocol net=pl m=64 seed=3\",\"algo\":\"protocol\",\"m\":64,\"initial_cost\":49044.866653983554,\"final_cost\":34654.11778420787,\"iterations\":8,\"converged\":true,\"wall_secs\":0.9402266587905841,\"fault_crashes\":0,\"fault_recoveries\":0,\"fault_dropped_frames\":0,\"fault_delayed_frames\":0,\"fault_extra_delay_ms\":0,\"detector_suspicions\":0,\"detector_false_positives\":0,\"detector_latency_ms\":0,\"detector_rejoin_ms\":0,\"detector_aborted_exchanges\":0,\"history\":[49044.866653983554,42879.17363578381,36623.0928930763,35034.55016096606,34655.156880218834,34654.11778420787,34654.11778420787,34654.11778420787,34654.11778420787]}";

#[test]
fn untraced_records_stay_byte_identical_to_the_pre_observability_shape() {
    let spec: ScenarioSpec = "algo=protocol runtime=events net=pl m=64 seed=3"
        .parse()
        .unwrap();
    let run = spec.run();
    assert!(run.obs.is_quiet(), "trace= absent must keep obs_* quiet");
    let json = dlb_scenario::results::Record::from_run("run", &run).to_json();
    assert_eq!(json, GOLDEN_RECORD, "untraced record drifted");
}

/// `trace=summary` must change *only* the record's `obs_*` group: same
/// trajectory, same simulated time, same everything else.
#[test]
fn summary_tracing_only_adds_the_obs_group() {
    let text = "algo=protocol runtime=events net=pl m=64 seed=3";
    let off: ScenarioSpec = text.parse().unwrap();
    let on: ScenarioSpec = format!("{text} trace=summary").parse().unwrap();
    let (off_run, on_run) = (off.run(), on.run());
    assert!(on_run.obs.events > 0);
    assert_eq!(off_run.history, on_run.history);
    assert_eq!(off_run.wall_secs.to_bits(), on_run.wall_secs.to_bits());
    assert_eq!(off_run.iterations, on_run.iterations);
    assert_eq!(off_run.faults, on_run.faults);
    assert_eq!(off_run.detector, on_run.detector);
}

/// `trace=summary` folds events as they are emitted and keeps none;
/// `trace=frames:` keeps the stream and folds it afterwards. The two
/// must report the same `obs_*` group for the same scenario.
#[test]
fn summary_and_frame_log_runs_report_the_same_obs_group() {
    let text = "algo=protocol net=pl m=48 seed=5 faults=crash:0.1@300ms detect=adaptive";
    let path = std::env::temp_dir().join("dlb_obs_pin_summary.dlbf");
    let summary: ScenarioSpec = format!("{text} trace=summary").parse().unwrap();
    let frames: ScenarioSpec = format!("{text} trace=frames:{}", path.display())
        .parse()
        .unwrap();
    let (summary_run, frames_run) = (summary.run(), frames.run());
    std::fs::remove_file(&path).ok();
    assert!(summary_run.obs.events > 0 && summary_run.obs.frames > 0);
    assert_eq!(summary_run.obs, frames_run.obs);
    assert_eq!(summary_run.history, frames_run.history);
}

/// FNV-1a-64 over a traced event stream: each event's kind, `at_ms`
/// bits, node, peer, round, tag and `detail` bits, little-endian.
fn trace_hash(events: &[TraceEvent]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for ev in events {
        feed(&[ev.kind as u8]);
        feed(&ev.at_ms.to_bits().to_le_bytes());
        feed(&ev.node.to_le_bytes());
        feed(&ev.peer.to_le_bytes());
        feed(&ev.round.to_le_bytes());
        feed(&[ev.tag]);
        feed(&ev.detail.to_bits().to_le_bytes());
    }
    hash
}

/// The order in which the executor traces `DetectorSuspect` and
/// `DetectorRejoin` against the rest of the run: the replay tests
/// above prove a log is self-consistent, these pin it to history. An
/// adaptive detector under crashes and a partition, and a timeout
/// detector under crash churn with a top-k slate.
#[test]
fn detector_trace_streams_are_pinned() {
    let cases = [
        (
            "algo=protocol m=300 seed=3 detect=adaptive faults=crash:0.2@1ms..40ms,part:5ms..30ms",
            0xa053_3da5_2c8f_6a7f_u64,
        ),
        (
            "algo=protocol net=pl m=400 seed=4 select=topk:8 detect=timeout:30ms faults=crash:0.3@1ms..20ms",
            0x91ca_3409_1ff0_0a81,
        ),
    ];
    for (i, (text, golden)) in cases.into_iter().enumerate() {
        let path = std::env::temp_dir().join(format!("dlb_obs_detector_pin_{i}.dlbf"));
        let spec: ScenarioSpec = format!("{text} trace=frames:{}", path.display())
            .parse()
            .expect("pinned scenario parses");
        spec.run();
        let bytes = std::fs::read(&path).expect("frame log written");
        std::fs::remove_file(&path).ok();
        let log = FrameLog::decode(&bytes).expect("frame log decodes");
        let suspects = log
            .events
            .iter()
            .filter(|ev| ev.kind == TraceKind::DetectorSuspect)
            .count();
        let rejoins = log
            .events
            .iter()
            .filter(|ev| ev.kind == TraceKind::DetectorRejoin)
            .count();
        assert!(
            suspects > 0 && rejoins > 0,
            "{text}: {suspects} suspicions, {rejoins} rejoins"
        );
        assert_eq!(
            trace_hash(&log.events),
            golden,
            "{text}: traced stream drifted"
        );
    }
}

/// A round's `RoundEnd` closes the phase its `RoundBegin` opened: the
/// round ends the moment the coordinator stops awaiting its reports,
/// not when the next round begins. Under a 30 ms report deadline no
/// round can then last longer than 30 ms — not even one that parks
/// until stream activity resumes the coordinator.
#[test]
fn round_ends_close_the_phase_their_round_began() {
    let path = std::env::temp_dir().join("dlb_obs_round_phase.dlbf");
    let text = "algo=protocol m=50 seed=3 detect=timeout:30ms arrivals=poisson:20 duration=3000";
    let spec: ScenarioSpec = format!("{text} trace=frames:{}", path.display())
        .parse()
        .expect("scenario parses");
    spec.run();
    let bytes = std::fs::read(&path).expect("frame log written");
    std::fs::remove_file(&path).ok();
    let log = FrameLog::decode(&bytes).expect("frame log decodes");
    let mut began = std::collections::HashMap::new();
    let mut ends = 0;
    for ev in &log.events {
        match ev.kind {
            TraceKind::RoundBegin => {
                began.insert(ev.round, ev.at_ms);
            }
            TraceKind::RoundEnd => {
                ends += 1;
                let (round, took) = (ev.round, ev.detail);
                assert!(took <= 30.0 + 1e-9, "round {round} lasted {took} ms");
                assert_eq!(ev.at_ms - took, began[&round], "round {round}");
            }
            _ => {}
        }
    }
    assert!(ends > 1, "{ends} rounds ended");
}
