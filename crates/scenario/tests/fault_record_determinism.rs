//! Fault determinism at the scenario surface: a `faults=` spec must
//! yield the *entire* [`RunRecord`] — cost history, simulated time,
//! and the fault-event summary — bit-identically across
//! `DLB_THREADS` values and repeats, and an absent `faults=` key must
//! be byte-equal to an explicitly empty plan. The executor-level half
//! of this suite lives in
//! `crates/runtime/tests/virtual_time_determinism.rs`.
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests.

use dlb_scenario::{RunRecord, ScenarioSpec};
use std::sync::Mutex;

/// All three tests mutate the process-wide `DLB_THREADS` variable;
/// they must not interleave within this binary (the harness runs
/// `#[test]`s on parallel threads).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn chaos_spec() -> ScenarioSpec {
    "algo=protocol runtime=events m=40 avg=60 seed=11 eps=1e-9 patience=5 \
     faults=crash:0.2@50ms..600ms,loss:0.1,spike:2x@30ms..300ms,part:80ms..250ms"
        .parse()
        .expect("chaos spec parses")
}

#[test]
fn fault_records_are_bit_identical_across_thread_counts_and_repeats() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = chaos_spec();
    let mut records: Vec<RunRecord> = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("DLB_THREADS", threads);
        records.push(spec.run());
        records.push(spec.run()); // repeat under the same count
    }
    std::env::remove_var("DLB_THREADS");
    records.push(spec.run());
    for r in &records[1..] {
        assert_eq!(records[0], *r, "faulted RunRecord diverged");
    }
    let r = &records[0];
    assert!(r.converged, "survivors must converge");
    assert_eq!(r.faults.crashes, 8, "20% of 40 nodes crashed");
    assert_eq!(r.faults.recoveries, 8, "…and recovered at 600ms");
    assert!(r.faults.delayed_frames > 0, "loss/spike/partition bit");
    assert!(r.scenario.contains("faults=crash:0.2@50ms..600ms"));
}

/// The same contract for the in-protocol failure detector: under every
/// `detect=` mode the whole record — including the new
/// `DetectorSummary` — must be bit-identical across `DLB_THREADS`
/// values and repeats. Suspicion, probation, and rejoin all run on the
/// virtual clock, so worker parallelism must never leak into them.
#[test]
fn detect_records_are_bit_identical_across_thread_counts_and_repeats() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for detect in ["timeout:400ms", "adaptive"] {
        let spec: ScenarioSpec = format!(
            "algo=protocol runtime=events m=24 avg=60 seed=11 eps=1e-9 patience=5 budget=800 \
             faults=crash:0.2@150ms,slow:0.2@4x detect={detect}"
        )
        .parse()
        .expect("detect spec parses");
        let mut records: Vec<RunRecord> = Vec::new();
        for threads in ["1", "4"] {
            std::env::set_var("DLB_THREADS", threads);
            records.push(spec.run());
            records.push(spec.run());
        }
        std::env::remove_var("DLB_THREADS");
        records.push(spec.run());
        for r in &records[1..] {
            assert_eq!(records[0], *r, "{detect}: detect RunRecord diverged");
        }
        let r = &records[0];
        assert!(r.converged, "{detect}: survivors must converge");
        assert!(
            r.detector.suspicions > 0,
            "{detect}: crashes must be suspected from silence: {:?}",
            r.detector
        );
        assert!(
            r.detector.detection_latency_ms > 0.0,
            "{detect}: latency of true detections is measured"
        );
        assert!(r.scenario.ends_with(&format!("detect={detect}")));
    }
}

#[test]
fn fault_trajectories_are_seed_sensitive() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var("DLB_THREADS");
    let a = chaos_spec().run();
    let b = ScenarioSpec {
        seed: 12,
        ..chaos_spec()
    };
    let b = b.run();
    assert_ne!(
        a.history, b.history,
        "a different seed must re-deal workload, delays, and victims"
    );
}

/// The no-faults parity the whole axis rests on: a spec with no
/// `faults=` key and the same spec with an explicitly empty plan are
/// the same scenario, produce byte-equal records, and report an
/// all-zero fault summary.
#[test]
fn absent_faults_equal_an_empty_plan_byte_for_byte() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var("DLB_THREADS");
    let text = "algo=protocol runtime=events m=24 avg=60 seed=7 patience=5";
    let bare: ScenarioSpec = text.parse().unwrap();
    let explicit: ScenarioSpec = format!("{text} faults=").parse().unwrap();
    assert_eq!(bare, explicit, "an empty plan is the default");
    let a = bare.run();
    let b = explicit.run();
    assert_eq!(a, b, "records must be byte-equal");
    assert!(a.faults.is_quiet(), "no schedule, no fault events");
    assert!(
        !a.scenario.contains("faults="),
        "the empty plan is omitted from the canonical text"
    );
}
