//! The full scenario surface of the deterministic executor: one
//! `runtime=events` spec must yield the *entire* [`RunRecord`] —
//! including `wall_secs`, which records simulated protocol time —
//! bit-identically across `DLB_THREADS` values and repeats. The
//! executor-level half of this suite lives in
//! `crates/runtime/tests/virtual_time_determinism.rs`.
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests.

use dlb_scenario::{RunRecord, ScenarioSpec};

#[test]
fn event_run_records_are_bit_identical_across_thread_counts_and_repeats() {
    let spec: ScenarioSpec = "algo=protocol m=40 avg=60 seed=11 eps=1e-9 patience=5 budget=200"
        .parse()
        .unwrap();
    let mut records: Vec<RunRecord> = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("DLB_THREADS", threads);
        records.push(spec.run());
        records.push(spec.run()); // repeat under the same count
    }
    std::env::remove_var("DLB_THREADS");
    for r in &records[1..] {
        assert_eq!(records[0], *r, "RunRecord diverged");
    }
    assert!(records[0].converged);
    assert!(records[0].wall_secs > 0.0, "virtual time recorded");
}
