//! The full scenario surface of the deterministic executor: one
//! `runtime=events` spec must yield the *entire* [`RunRecord`] —
//! including `wall_secs`, which records simulated protocol time —
//! bit-identically across `DLB_THREADS` values and repeats. The
//! executor-level half of this suite lives in
//! `crates/runtime/tests/virtual_time_determinism.rs`.
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests.

use dlb_obs::{FrameLog, TraceKind};
use dlb_scenario::{RunRecord, ScenarioSpec};

/// A request stream under in-protocol detection: the stream holds the
/// coordinator open, so quiet rounds park it while report deadlines
/// are armed — a fixed timeout and the adaptive detector.
const STREAMED_DETECTION: [&str; 2] = [
    "algo=protocol m=50 seed=3 detect=timeout:30ms arrivals=poisson:20 duration=3000",
    "algo=protocol m=50 seed=3 detect=adaptive arrivals=poisson:5 duration=5000",
];

/// Runs `text` twice under each of `DLB_THREADS=1` and `4` and
/// returns the record, which all four runs must share bit for bit.
fn same_record_across_thread_counts(text: &str) -> RunRecord {
    let spec: ScenarioSpec = text.parse().unwrap();
    let mut records: Vec<RunRecord> = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("DLB_THREADS", threads);
        records.push(spec.run());
        records.push(spec.run()); // repeat under the same count
    }
    std::env::remove_var("DLB_THREADS");
    for r in &records[1..] {
        assert_eq!(records[0], *r, "RunRecord diverged: {text}");
    }
    records.swap_remove(0)
}

#[test]
fn event_run_records_are_bit_identical_across_thread_counts_and_repeats() {
    let record = same_record_across_thread_counts(
        "algo=protocol m=40 avg=60 seed=11 eps=1e-9 patience=5 budget=200",
    );
    assert!(record.converged);
    assert!(record.wall_secs > 0.0, "virtual time recorded");
    for text in STREAMED_DETECTION {
        same_record_across_thread_counts(text);
    }
}

/// Pins the streamed-detection runs: iterations, the bits of the cost
/// history, and the detector's and the stream's counters
/// `(suspicions, false positives, aborted exchanges, served, dropped)`.
#[test]
fn streamed_detection_records_are_pinned() {
    let pins = [
        (57, 0x471b_d41e_ca12_cf92, [160, 110, 0, 66, 0]),
        (50, 0x8c4d_1c4d_0b0e_cf3a, [2, 2, 0, 20, 0]),
    ];
    for (text, (iterations, hash, counters)) in STREAMED_DETECTION.into_iter().zip(pins) {
        let r = text.parse::<ScenarioSpec>().unwrap().run();
        let (d, s) = (r.detector, r.stream);
        let got = (
            r.iterations,
            history_hash(&r.history),
            [
                u64::from(d.suspicions),
                u64::from(d.false_positives),
                u64::from(d.aborted_exchanges),
                s.served,
                s.dropped,
            ],
        );
        assert_eq!(got, (iterations, hash, counters), "{text}");
    }
}

/// A quiet round parks the coordinator a stream holds open, with that
/// round's report deadline still queued; the deadline must not end the
/// round a second time. So every round the record counts began in the
/// trace.
#[test]
fn every_counted_round_began() {
    let path = std::env::temp_dir().join(format!("dlb_parked_{}.dlbf", std::process::id()));
    let text = format!("{} trace=frames:{}", STREAMED_DETECTION[0], path.display());
    let record = text.parse::<ScenarioSpec>().unwrap().run();
    let bytes = std::fs::read(&path).expect("frame log written");
    std::fs::remove_file(&path).ok();
    let log = FrameLog::decode(&bytes).expect("frame log decodes");
    let begun = log
        .events
        .iter()
        .filter(|ev| ev.kind == TraceKind::RoundBegin)
        .count();
    assert_eq!(record.iterations, begun, "{text}");
}

/// FNV-1a-64 over the bits of a cost history, eight bytes per entry.
fn history_hash(history: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in history.iter().flat_map(|c| c.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The exact round-start scan on the inputs that shape it: a flat
/// homogeneous net, dense PlanetLab and Euclidean rows, crashed peers
/// that leave the round's live set, suspects in the skip list, and
/// wild lanes (`avg=1e100 load=peak` puts loads above the tame range,
/// so every node scores every peer in id order without bounds).
/// Each run pins its iteration count and the bits of its cost history,
/// so a scan that picks one different partner in one round fails here.
#[test]
fn exact_scan_records_are_pinned() {
    let cases = [
        ("net=homog m=1000 seed=1", 12, 0x8f61_51da_7b91_6bbe),
        ("net=pl m=300 seed=2", 12, 0xbc86_1dc5_4b29_71a6),
        (
            "net=euclid m=600 seed=3 faults=crash:0.1@5ms",
            12,
            0xd205_5057_47df_7495,
        ),
        (
            "net=homog m=500 seed=4 detect=timeout:50ms faults=crash:0.2@20ms..200ms",
            12,
            0x56cc_25d1_6aab_0833,
        ),
        (
            "net=homog m=97 seed=5 avg=1e100 load=peak",
            12,
            0x37bb_9f3b_dc96_c9ac,
        ),
        (
            "net=pl m=300 seed=2 avg=1e100 load=peak faults=crash:0.1@5ms",
            12,
            0xb841_86ff_e6cc_011a,
        ),
    ];
    for (scenario, iterations, hash) in cases {
        let text = format!("algo=protocol select=exact budget=12 patience=12 {scenario}");
        let record = text.parse::<ScenarioSpec>().unwrap().run();
        let got = (record.iterations, history_hash(&record.history));
        assert_eq!(got, (iterations, hash), "{text}");
    }
}

/// The top-k round-start scan on the inputs that shape its candidate
/// slate: a homogeneous wheel that wraps (ids ≥ 968 at k = 32), the
/// stored delay-nearest row of a dense PlanetLab net, Euclidean rows with
/// crashed peers, suspects in the skip list, and `k ≥ m − 1`, where the
/// slate is every peer. Pinned like [`exact_scan_records_are_pinned`].
#[test]
fn topk_scan_records_are_pinned() {
    let cases = [
        (
            "net=homog m=1000 seed=1 select=topk:32",
            12,
            0xc78f_9b49_60e8_270f,
        ),
        (
            "net=pl m=300 seed=2 select=topk:8",
            12,
            0x57a0_d924_4290_8ff9,
        ),
        (
            "net=euclid m=600 seed=3 select=topk:16 faults=crash:0.1@5ms",
            12,
            0xd84d_9988_3c81_cea2,
        ),
        (
            "net=homog m=500 seed=4 select=topk:8 detect=timeout:50ms faults=crash:0.2@20ms..200ms",
            12,
            0xf968_8ab9_5e74_4090,
        ),
        (
            "net=homog m=40 seed=5 select=topk:64",
            12,
            0x2d76_4ea3_a7c3_3929,
        ),
    ];
    for (scenario, iterations, hash) in cases {
        let text = format!("algo=protocol budget=12 patience=12 {scenario}");
        let record = text.parse::<ScenarioSpec>().unwrap().run();
        let got = (record.iterations, history_hash(&record.history));
        assert_eq!(got, (iterations, hash), "{text}");
    }
}

/// The top-k scan across rounds, on what a node's kept nearest-peer
/// winner must survive: wild lanes whose scores are NaN
/// (`avg=1e100 load=peak`), a streamed Euclidean run whose crashed nodes
/// recover and rejoin under the adaptive detector while arrivals move
/// loads and park and kick rounds, and a homogeneous wheel run for 48
/// rounds. Pins iterations, the bits of the cost history and the
/// counters of [`streamed_detection_records_are_pinned`].
#[test]
fn topk_records_across_rounds_are_pinned() {
    let cases = [
        (
            "net=homog m=97 seed=5 avg=1e100 load=peak select=topk:8 budget=12 patience=12",
            (12, 0x2998_e139_54bf_464e, [0, 0, 0, 0, 0]),
        ),
        (
            "net=euclid m=150 seed=3 select=topk:8 detect=adaptive faults=crash:0.1@100ms..900ms arrivals=poisson:10 duration=5000",
            (38, 0x5935_e99f_5c6f_a435, [44, 15, 14, 57, 0]),
        ),
        (
            "net=homog m=400 seed=7 select=topk:8 budget=48 patience=48",
            (48, 0xa008_8935_988e_19b5, [0, 0, 0, 0, 0]),
        ),
    ];
    for (scenario, pin) in cases {
        let text = format!("algo=protocol {scenario}");
        let r = text.parse::<ScenarioSpec>().unwrap().run();
        let (d, s) = (r.detector, r.stream);
        let got = (
            r.iterations,
            history_hash(&r.history),
            [
                u64::from(d.suspicions),
                u64::from(d.false_positives),
                u64::from(d.aborted_exchanges),
                s.served,
                s.dropped,
            ],
        );
        assert_eq!(got, pin, "{text}");
    }
}
