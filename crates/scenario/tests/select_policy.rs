//! The `select=topk:K` partner-selection axis: candidate-index runs
//! must land within 1 % of the exact per-round scan (the quality bar
//! for trading O(m²) scans for O(m·K)), and must keep the executor's
//! bit-determinism guarantee across `DLB_THREADS` values.
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests; the parity tests share the lock
//! because they must not observe a pinned thread count either.

use dlb_scenario::{RunRecord, ScenarioSpec, SelectSpec};
use std::sync::Mutex;

/// Serializes every test in this binary around the process-wide
/// `DLB_THREADS` variable.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn rel_drift(topk: &RunRecord, exact: &RunRecord) -> f64 {
    (topk.final_cost() - exact.final_cost()).abs() / exact.final_cost()
}

/// Final ΣC under `topk:16` stays within 1 % of the exact scan across
/// seeds and all three network topologies — the acceptance bar for the
/// candidate index.
#[test]
fn topk_lands_within_one_percent_of_exact_across_seeds_and_topologies() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for net in ["homog", "euclid", "pl"] {
        for seed in [1u64, 7, 23] {
            let text = format!(
                "algo=protocol runtime=events net={net} m=80 load=exp avg=60 \
                 seed={seed} select=topk:16 patience=5 budget=600"
            );
            let topk: ScenarioSpec = text.parse().unwrap();
            let exact = ScenarioSpec {
                select: SelectSpec::Exact,
                ..topk.clone()
            };
            let instance = topk.build_instance();
            let a = topk.run_on(instance.clone());
            let b = exact.run_on(instance);
            assert!(
                a.converged && b.converged,
                "net={net} seed={seed}: topk {} exact {}",
                a.converged,
                b.converged
            );
            let drift = rel_drift(&a, &b);
            assert!(
                drift <= 0.01,
                "net={net} seed={seed}: ΣC drift {drift} (topk {}, exact {})",
                a.final_cost(),
                b.final_cost()
            );
        }
    }
}

/// The parity bar holds under fault injection too: the candidate index
/// is rebuilt when crashes change the exclusion set, so a churned run
/// balances the survivors as well as the exact scan does.
#[test]
fn topk_matches_exact_under_fault_injection() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for seed in [3u64, 11] {
        let text = format!(
            "algo=protocol runtime=events net=pl m=60 load=exp avg=60 seed={seed} \
             select=topk:16 patience=5 budget=600 faults=crash:0.1@200ms,loss:0.05"
        );
        let topk: ScenarioSpec = text.parse().unwrap();
        let exact = ScenarioSpec {
            select: SelectSpec::Exact,
            ..topk.clone()
        };
        let instance = topk.build_instance();
        let a = topk.run_on(instance.clone());
        let b = exact.run_on(instance);
        assert!(a.converged && b.converged, "seed {seed} converged");
        // The crash schedule is fixed by (seed, m) alone; loss/spike
        // counts legitimately differ with the policies' traffic.
        assert_eq!(a.faults.crashes, b.faults.crashes, "seed {seed} crashes");
        assert!(a.faults.crashes > 0, "seed {seed}: the script really bit");
        let drift = rel_drift(&a, &b);
        assert!(
            drift <= 0.01,
            "seed {seed}: faulted ΣC drift {drift} (topk {}, exact {})",
            a.final_cost(),
            b.final_cost()
        );
    }
}

/// Top-k runs inherit the executor's determinism: the whole
/// `RunRecord` — simulated `wall_secs` included — reproduces bit for
/// bit across `DLB_THREADS ∈ {1, 4, default}` and across repeats. The
/// candidate slates are pure functions of the instance and the
/// round's gossiped view, so sharding the scoring over more workers
/// cannot change a single choice.
#[test]
fn topk_records_are_bit_identical_across_thread_counts_and_repeats() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec: ScenarioSpec = "algo=protocol m=64 avg=60 seed=9 eps=1e-9 patience=5 budget=400 \
                              select=topk:8"
        .parse()
        .unwrap();
    let mut records: Vec<RunRecord> = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("DLB_THREADS", threads);
        records.push(spec.run());
        records.push(spec.run()); // repeat under the same count
    }
    std::env::remove_var("DLB_THREADS");
    records.push(spec.run());
    for r in &records[1..] {
        assert_eq!(records[0], *r, "topk RunRecord diverged");
    }
    assert!(records[0].converged);
    assert!(records[0].wall_secs > 0.0, "virtual time recorded");
}
