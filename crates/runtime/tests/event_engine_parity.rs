//! Fixpoint parity between the message-passing protocol and the
//! analytic engine.
//!
//! The event executor runs the §IV protocol on local knowledge only —
//! partners ranked by the closed-form score over gossiped loads, one
//! ledger fetched per accepted proposal — under per-link virtual
//! delays; `dlb_distributed::Engine` runs the same pairwise exchanges
//! on shared memory with exact partner selection. Mirroring
//! `crates/distributed/tests/batched_parity.rs`, these tests pin the
//! consequence down: run the protocol with the certified round budget
//! (`m − 1` quiet rounds requested, 20m + 100 rounds available — deep
//! into the audit rotation's tail either way) and the engine to
//! convergence, and the final `ΣC` must agree within 1% across seeds,
//! workload shapes, network substrates, and failed nodes. Quiescence
//! itself is *not* asserted: on tie-heavy workloads (e.g. homogeneous
//! latencies) Algorithm 1 legally shuffles zero-improvement volume
//! between equally good hosts forever, so the protocol may exhaust the
//! round budget at the fixpoint cost without ever certifying.
//!
//! Deliberately *not* touching `DLB_THREADS`: CI runs this suite under
//! several ambient thread counts, which must all pass identically.

use dlb_core::workload::LoadDistribution;
use dlb_core::{Instance, LatencyMatrix};
use dlb_distributed::{Engine, EngineOptions};
use dlb_obs::NullSink;
use dlb_requestsim::stream::StreamScript;
use dlb_runtime::{
    run_cluster_events, run_cluster_events_observed, ClusterOptions, ClusterReport, VirtualClock,
};

mod common;
use common::{faults, planetlab_like, workload};

/// Certified options with a quiescent volume loose enough for FP-noise
/// volumes to settle: the default 1e-9 can keep them circulating for
/// hundreds of rounds, while 1e-6 is still ~8 orders below the
/// workloads here.
fn certified(m: usize) -> ClusterOptions {
    ClusterOptions {
        quiescent_volume: 1e-6,
        ..ClusterOptions::certified(m)
    }
}

fn protocol(instance: &Instance, options: &ClusterOptions) -> ClusterReport {
    let report = run_cluster_events(instance, options, |i, j| instance.c(i, j) / 2.0);
    report.assignment.check_invariants(instance).unwrap();
    report
}

/// The engine's fixpoint cost with the servers in `failed` taking no
/// part (the engine's reachability mask is the counterpart of nodes
/// the fault script crashes before the first round).
fn engine_fixpoint(instance: &Instance, seed: u64, failed: &[u32]) -> f64 {
    let mut engine = Engine::new(
        instance.clone(),
        EngineOptions {
            seed,
            ..Default::default()
        },
    );
    let mut active = vec![true; instance.len()];
    for &f in failed {
        active[f as usize] = false;
    }
    let mut calm = 0;
    for _ in 0..300 {
        let before = engine.current_cost();
        let after = engine.run_iteration_masked(Some(&active)).cost;
        calm = if before - after <= 1e-10 * before {
            calm + 1
        } else {
            0
        };
        if calm == 3 {
            break;
        }
    }
    engine
        .assignment()
        .check_invariants(engine.instance())
        .unwrap();
    engine.current_cost()
}

fn assert_within_one_percent(events: f64, engine: f64, label: &str) {
    assert!(
        events <= engine * 1.01 && engine <= events * 1.01,
        "{label}: events {events} vs engine {engine}"
    );
}

fn assert_parity(instance: &Instance, seed: u64, label: &str) {
    let events = protocol(instance, &certified(instance.len())).final_cost;
    let engine = engine_fixpoint(instance, seed, &[]);
    assert_within_one_percent(events, engine, &format!("{label} seed {seed}"));
}

#[test]
fn parity_uniform_homogeneous() {
    for seed in 1..=3u64 {
        let instance = workload(
            LoadDistribution::Uniform,
            50.0,
            LatencyMatrix::homogeneous(16, 20.0),
            seed,
        );
        assert_parity(&instance, seed, "uniform/homogeneous");
    }
}

#[test]
fn parity_exponential_heterogeneous() {
    for seed in 1..=3u64 {
        let instance = workload(
            LoadDistribution::Exponential,
            60.0,
            planetlab_like(14, seed),
            seed,
        );
        assert_parity(&instance, seed, "exponential/heterogeneous");
    }
}

#[test]
fn parity_peak_workload() {
    // The paper's hardest shape: all load on one server, spread by
    // doubling. Message timing must not change where the peak lands.
    for seed in 1..=2u64 {
        let m = 16;
        let mut instance = Instance::homogeneous(m, 1.0, 0.0, 20.0);
        let mut loads = vec![0.0; m];
        loads[0] = 50_000.0;
        instance.set_own_loads(loads);
        assert_parity(&instance, seed, "peak/homogeneous");
    }
}

#[test]
fn parity_with_failed_nodes() {
    let instance = workload(
        LoadDistribution::Exponential,
        80.0,
        planetlab_like(12, 5),
        5,
    );
    // Two nodes down from the first round; the engine masks the same
    // two out of every iteration.
    let script = faults(&format!("crash:{}@0ms", 2.0 / 12.0)).compile(5, 12);
    let failed = script.down_at(0.0);
    assert_eq!(failed.len(), 2);
    let events = run_cluster_events_observed(
        &instance,
        &certified(12),
        |i, j| instance.c(i, j) / 2.0,
        &script,
        &StreamScript::empty(),
        &mut VirtualClock,
        &mut NullSink,
    );
    events.assignment.check_invariants(&instance).unwrap();
    for &f in &failed {
        let f = f as usize;
        assert_eq!(events.assignment.load(f), instance.own_load(f));
    }
    let engine = engine_fixpoint(&instance, 5, &failed);
    assert_within_one_percent(events.final_cost, engine, "failed-node parity");
}
