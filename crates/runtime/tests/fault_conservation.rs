//! Exact load conservation under every fault script × detect mode.
//!
//! The safety contract of the exchange protocol: every request is
//! owned by exactly one server at every instant — whether exchanges
//! complete, tear on a crashed partner, roll back on a retransmission
//! timeout, or freeze inside a dead node's ledger. These tests sweep
//! the full fault grammar (crash, churn, loss, spike, partition, slow,
//! and their composition) against all three liveness-detection modes
//! and assert that the final assignment's per-owner totals reproduce
//! the input workload *bit-for-bit within 1e-6* and pass every
//! structural invariant. No silent-drop accounting: an exchange either
//! happened on both sides or on neither.

use dlb_core::workload::LoadDistribution;
use dlb_core::Instance;
use dlb_faults::FaultPlan;
use dlb_obs::NullSink;
use dlb_requestsim::stream::StreamScript;
use dlb_runtime::{run_cluster_events_observed, ClusterOptions, DetectMode, VirtualClock};

mod common;
use common::{faults, planetlab_like, workload};

/// Every request lands on exactly one server: the per-owner totals of
/// the final assignment reproduce the input loads exactly.
fn assert_conserved(instance: &Instance, options: &ClusterOptions, plan: &FaultPlan, label: &str) {
    let m = instance.len();
    let script = plan.compile(11, m);
    let report = run_cluster_events_observed(
        instance,
        options,
        |i, j| instance.c(i, j) / 2.0,
        &script,
        &StreamScript::empty(),
        &mut VirtualClock,
        &mut NullSink,
    );
    report
        .assignment
        .check_invariants(instance)
        .unwrap_or_else(|e| panic!("{label}: invariants broken: {e:?}"));
    for k in 0..m {
        let total = report.assignment.owner_total(k);
        assert!(
            (total - instance.own_load(k)).abs() < 1e-6,
            "{label}: owner {k} holds {total}, workload says {}",
            instance.own_load(k)
        );
    }
}

/// The script grid: every primitive alone plus the kitchen-sink
/// composition, covering torn exchanges (crash mid-round), rollbacks
/// (timeouts on slow partners), retransmissions (loss), and held
/// frames (partition).
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("crash", faults("crash:0.2@60ms")),
        ("churn", faults("crash:0.25@40ms..400ms")),
        ("loss", faults("loss:0.2")),
        ("spike", faults("spike:6x@0ms..1500ms")),
        ("partition", faults("part:20ms..500ms")),
        ("slow", faults("slow:0.3@6x")),
        (
            "everything",
            faults("crash:0.15@80ms,loss:0.1,spike:3x@100ms..600ms,part:200ms..450ms,slow:0.2@4x"),
        ),
    ]
}

fn detect_modes() -> Vec<(&'static str, DetectMode)> {
    vec![
        ("oracle", DetectMode::Oracle),
        ("timeout", DetectMode::Timeout(120.0)),
        ("adaptive", DetectMode::Adaptive),
    ]
}

#[test]
fn conservation_survives_every_script_and_detector() {
    let instance = workload(
        LoadDistribution::Exponential,
        80.0,
        planetlab_like(14, 3),
        5,
    );
    for (plan_name, plan) in plans() {
        for (mode_name, detect) in detect_modes() {
            let options = ClusterOptions {
                detect,
                exchange_rto_ms: 4_000.0,
                ..Default::default()
            };
            assert_conserved(
                &instance,
                &options,
                &plan,
                &format!("{plan_name}/{mode_name}"),
            );
        }
    }
}

/// The adversarial corner: an RTO short enough to tear alive–alive
/// exchanges. A late Commit or CommitAck arriving after its waiter
/// rolled back must be ignored, never half-applied.
#[test]
fn conservation_survives_rto_tearing_live_exchanges() {
    let instance = workload(
        LoadDistribution::Exponential,
        90.0,
        planetlab_like(12, 7),
        9,
    );
    // 6× stragglers against an RTO of ~2 median hops: straggler
    // chains routinely overrun the timer while both parties live.
    let plan = faults("slow:0.3@6x");
    for (mode_name, detect) in detect_modes() {
        if matches!(detect, DetectMode::Oracle) {
            continue; // no RTOs under the oracle
        }
        let options = ClusterOptions {
            detect,
            exchange_rto_ms: 80.0,
            ..Default::default()
        };
        assert_conserved(&instance, &options, &plan, &format!("tearing/{mode_name}"));
    }
}
