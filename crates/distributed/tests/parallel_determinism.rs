//! The worker count must not change any result. The sequential sweep
//! runs on the caller's thread, so its fixpoint must not read
//! `DLB_THREADS` at all. The batched round cuts its propose phase into
//! one contiguous run of servers per worker and hands the runs to
//! `dlb_par::par_map_shards`, the workspace's one spawn site, which
//! returns them in order, so its fixpoint has to be bit-identical
//! whether the runs go to one worker (`DLB_THREADS=1`), to every core
//! (the default), or stay one inline run (`parallel: false`).
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests.

use dlb_core::rngutil::rng_for;
use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
use dlb_core::{Instance, LatencyMatrix};
use dlb_distributed::mine::PartnerSelection;
use dlb_distributed::{Engine, EngineOptions, RoundMode};
use rand::Rng;
use std::sync::Mutex;

/// Both tests mutate the process-wide `DLB_THREADS` variable; they must
/// not interleave within this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A heterogeneous instance big enough that the batched propose map
/// (`m` servers) clears `dlb-par`'s sequential cutoff.
fn instance(m: usize) -> Instance {
    let mut rng = rng_for(2024, 0xDE7);
    let mut lat = LatencyMatrix::zero(m);
    for i in 0..m {
        for j in 0..m {
            if i != j {
                lat.set(i, j, rng.gen_range(1.0..40.0));
            }
        }
    }
    lat.metric_close();
    WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 70.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(lat, &mut rng)
}

/// Runs the engine to convergence and returns its exact final state:
/// the cost and every server load, both compared bit-for-bit.
fn fixpoint_in(
    instance: &Instance,
    parallel: bool,
    selection: PartnerSelection,
    round_mode: RoundMode,
) -> (f64, Vec<f64>) {
    let mut engine = Engine::new(
        instance.clone(),
        EngineOptions {
            parallel,
            selection: Some(selection),
            seed: 7,
            round_mode,
            ..Default::default()
        },
    );
    let report = engine.run_to_convergence(1e-12, 2, 80);
    (report.final_cost, engine.assignment().loads().to_vec())
}

fn fixpoint(instance: &Instance, parallel: bool, selection: PartnerSelection) -> (f64, Vec<f64>) {
    fixpoint_in(instance, parallel, selection, RoundMode::Sequential)
}

#[test]
fn engine_fixpoint_is_thread_count_invariant() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inst = instance(96);
    for selection in [
        PartnerSelection::Exact,
        PartnerSelection::Pruned { top_k: 8 },
    ] {
        let sequential = fixpoint(&inst, false, selection);

        std::env::set_var("DLB_THREADS", "1");
        let one_thread = fixpoint(&inst, true, selection);

        std::env::set_var("DLB_THREADS", "3");
        let three_threads = fixpoint(&inst, true, selection);

        std::env::remove_var("DLB_THREADS");
        let default_threads = fixpoint(&inst, true, selection);

        assert_eq!(
            one_thread, default_threads,
            "{selection:?}: DLB_THREADS=1 vs default diverged"
        );
        assert_eq!(
            three_threads, default_threads,
            "{selection:?}: DLB_THREADS=3 vs default diverged"
        );
        assert_eq!(
            sequential, default_threads,
            "{selection:?}: parallel path diverged from sequential reference"
        );
    }
}

#[test]
fn batched_round_fixpoint_is_thread_count_invariant() {
    // The propose/match/apply path is the engines' one fan-out (the
    // per-server propose map); its fixpoint must be bit-identical
    // across worker counts and against the fully sequential execution,
    // for both selection policies.
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inst = instance(96);
    for selection in [
        PartnerSelection::Exact,
        PartnerSelection::Pruned { top_k: 8 },
    ] {
        let sequential = fixpoint_in(&inst, false, selection, RoundMode::Batched);

        std::env::set_var("DLB_THREADS", "1");
        let one_thread = fixpoint_in(&inst, true, selection, RoundMode::Batched);

        std::env::set_var("DLB_THREADS", "3");
        let three_threads = fixpoint_in(&inst, true, selection, RoundMode::Batched);

        std::env::remove_var("DLB_THREADS");
        let default_threads = fixpoint_in(&inst, true, selection, RoundMode::Batched);

        assert_eq!(
            one_thread, default_threads,
            "batched {selection:?}: DLB_THREADS=1 vs default diverged"
        );
        assert_eq!(
            three_threads, default_threads,
            "batched {selection:?}: DLB_THREADS=3 vs default diverged"
        );
        assert_eq!(
            sequential, default_threads,
            "batched {selection:?}: parallel path diverged from sequential reference"
        );
    }
}
