//! Runners: [`ScenarioSpec::run_on`] executes a spec on the system its
//! `algo` names.
//!
//! Every runner produces the same [`RunRecord`] — the scenario's text
//! form, the cost trajectory, the iteration count, whether the
//! termination criterion was met, and the wall time — so downstream
//! tooling (the `dlb` CLI, the bench harnesses, `dlb report`) handles
//! all four systems through one shape.

use std::time::Instant;

use dlb_core::cost::total_cost;
use dlb_core::Assignment;
use dlb_distributed::mine::PartnerSelection;
use dlb_distributed::{Engine, EngineOptions, RoundMode};
use dlb_faults::{FaultSummary, MAX_RETRANSMITS, RETRANSMIT_MS};
use dlb_gossip::GossipTraffic;
use dlb_netsim::rtt::QueueModel;
use dlb_netsim::LinkDelayModel;
use dlb_obs::{
    FrameLog, MemorySink, MetricSet, NullSink, ObsSummary, SummarySink, TraceSink, Trailer,
};
use dlb_runtime::{
    run_cluster_events_observed, ClusterOptions, ClusterReport, DetectorSummary, NodeConfig,
    StreamSummary, VirtualClock,
};
use dlb_solver::game::{run_best_response_dynamics, DynamicsOptions};
use dlb_solver::solve_bcd;

use crate::spec::{AlgoSpec, GossipSpec, ScenarioSpec, SpecError, TraceSpec};
use dlb_core::Instance;

/// The uniform result of running any scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The scenario's canonical text form.
    pub scenario: String,
    /// Algorithm label (`sequential`, `batched`, `nash`, `protocol`,
    /// `bcd`).
    pub algo: &'static str,
    /// Network size.
    pub m: usize,
    /// `ΣC` trajectory; index 0 is the initial (all-local) cost, the
    /// last entry the final cost. Runners without per-step cost
    /// observability record `[initial, final]`.
    pub history: Vec<f64>,
    /// Iterations / rounds / sweeps executed.
    pub iterations: usize,
    /// Whether the termination criterion was met within the budget.
    pub converged: bool,
    /// Wall-clock seconds of the run (excluding instance sampling) —
    /// except for `algo=protocol` runs, where it is the *simulated*
    /// protocol time under the sampled link delays: the quantity a
    /// deployment would measure, and deterministic per seed, so whole
    /// records are bit-reproducible.
    pub wall_secs: f64,
    /// Fault-event summary: what the scenario's `faults=` schedule
    /// actually injected (crashes, recoveries, dropped and delayed
    /// frames). All zeros when the scenario has no fault schedule.
    pub faults: FaultSummary,
    /// Failure-detector summary: what the scenario's `detect=` mode
    /// observed (suspicions, false positives, detection latency,
    /// rejoin time, aborted exchanges). All zeros under the default
    /// `detect=oracle`, which consults the fault script directly and
    /// never suspects anyone.
    pub detector: DetectorSummary,
    /// Streaming summary: what the scenario's `arrivals=`/`duration=`
    /// stream experienced (requests served and dropped, p50/p99
    /// sojourn in virtual ms, time spent imbalanced). All zeros when
    /// the scenario does not stream.
    pub stream: StreamSummary,
    /// Gossip-traffic summary: what the scenario's `gossip=event:...`
    /// control plane put on the wire (frames, bytes, completed
    /// exchanges, delta vs full-view entries). All zeros under the
    /// default `gossip=emulated`, which runs no control plane.
    pub gossip: GossipTraffic,
    /// Observability summary: what the scenario's `trace=` mode saw
    /// (events emitted, frames delivered/dropped/held, frame-latency
    /// percentiles). All zeros under the default `trace=off`, which
    /// observes nothing and keeps the run byte-identical to an
    /// untraced one.
    pub obs: ObsSummary,
}

impl RunRecord {
    /// A record of `spec`'s run with every summary group quiet; a
    /// runner overrides the groups its system actually fills.
    fn quiet(
        spec: &ScenarioSpec,
        history: Vec<f64>,
        iterations: usize,
        converged: bool,
        wall_secs: f64,
    ) -> Self {
        RunRecord {
            scenario: spec.to_string(),
            algo: spec.algo.label(),
            m: spec.m,
            history,
            iterations,
            converged,
            wall_secs,
            faults: FaultSummary::default(),
            detector: DetectorSummary::default(),
            stream: StreamSummary::default(),
            gossip: GossipTraffic::default(),
            obs: ObsSummary::default(),
        }
    }

    /// `ΣC` of the initial (all-local) assignment.
    pub fn initial_cost(&self) -> f64 {
        self.history.first().copied().unwrap_or(f64::NAN)
    }

    /// `ΣC` when the run stopped.
    pub fn final_cost(&self) -> f64 {
        self.history.last().copied().unwrap_or(f64::NAN)
    }
}

/// An exchange retransmission timeout that cannot tear an alive–alive
/// exchange under this scenario's own fault plan: twice the worst-case
/// one-way frame time, plus margin. The worst case stacks the slowest
/// link (max one-way latency plus the jitter tail bound the netsim
/// tests use), the straggler and spike multipliers, the reliable
/// transport's full retransmission budget when loss is scheduled, and
/// the longest partition hold. Deterministic — a pure function of the
/// spec and the instance's latency matrix — so records stay
/// bit-reproducible.
fn exchange_rto_ms(spec: &ScenarioSpec, instance: &Instance) -> f64 {
    let jitter_tail = 40.0 * QueueModel::default().base_jitter_ms;
    let d_max = instance.latency().max_latency() / 2.0 + jitter_tail;
    let slow = spec.faults.slow.map_or(1.0, |s| s.factor);
    let spike = spec.faults.spike.map_or(1.0, |s| s.factor);
    let retrans = spec
        .faults
        .loss
        .map_or(0.0, |_| f64::from(MAX_RETRANSMITS) * RETRANSMIT_MS);
    let hold = spec.faults.partition.map_or(0.0, |p| p.to_ms - p.from_ms);
    2.0 * (d_max * slow.max(1.0) * spike.max(1.0) + retrans + hold) + 50.0
}

/// Candidate count the `gossip=` axis forces on the engine. Stale
/// views only reach the pruned pre-scoring — exact selection
/// recomputes improvements from true loads and would never observe
/// them — so a non-default gossip axis switches the engine to
/// `Pruned { top_k: GOSSIP_TOP_K }`.
pub const GOSSIP_TOP_K: usize = 8;

/// Runs [`dlb_distributed::Engine`] (both round modes) to convergence.
fn run_engine(spec: &ScenarioSpec, instance: Instance) -> RunRecord {
    let round_mode = match spec.algo {
        AlgoSpec::Batched => RoundMode::Batched,
        _ => RoundMode::Sequential,
    };
    let options = EngineOptions {
        seed: spec.seed,
        granularity: spec.gran,
        round_mode,
        selection: (spec.gossip != GossipSpec::default()).then_some(PartnerSelection::Pruned {
            top_k: GOSSIP_TOP_K,
        }),
        ..Default::default()
    };
    let mut engine = Engine::new(instance, options);
    if let GossipSpec::Event { period_ms } = spec.gossip {
        engine.attach_gossip_feed(period_ms);
    }
    let start = Instant::now();
    let report = engine.run_to_convergence(spec.eps, spec.patience, spec.budget);
    RunRecord {
        gossip: engine.gossip_traffic().unwrap_or_default(),
        ..RunRecord::quiet(
            spec,
            engine.history().to_vec(),
            report.iterations,
            report.converged,
            start.elapsed().as_secs_f64(),
        )
    }
}

/// Runs selfish best-response dynamics
/// ([`dlb_solver::game::run_best_response_dynamics`]). `eps` is the paper's
/// per-organization change threshold (§VI-C uses `0.01`), `patience`
/// the calm-round count, `budget` the round budget.
fn run_nash(spec: &ScenarioSpec, instance: Instance) -> RunRecord {
    let mut assignment = Assignment::local(&instance);
    let initial = total_cost(&instance, &assignment);
    let start = Instant::now();
    let report = run_best_response_dynamics(
        &instance,
        &mut assignment,
        &DynamicsOptions {
            change_threshold: spec.eps,
            calm_rounds: spec.patience,
            max_rounds: spec.budget,
            seed: spec.seed,
        },
    );
    RunRecord::quiet(
        spec,
        vec![initial, total_cost(&instance, &assignment)],
        report.rounds,
        report.converged,
        start.elapsed().as_secs_f64(),
    )
}

/// The cluster options a scenario spec pins down: round budget,
/// quiescence thresholds, partner selection, failure detection, and
/// the deterministic exchange RTO derived from the instance's latency
/// matrix (see [`exchange_rto_ms`]).
fn protocol_options(spec: &ScenarioSpec, instance: &Instance) -> ClusterOptions {
    ClusterOptions {
        max_rounds: spec.budget,
        quiescent_rounds: spec.patience.max(1),
        quiescent_volume: spec.eps,
        node: NodeConfig {
            select: spec.select,
            ..Default::default()
        },
        detect: spec.detect,
        exchange_rto_ms: exchange_rto_ms(spec, instance),
    }
}

/// Runs the spec on the deterministic event executor with `tracer`
/// attached. This is *the* event path: [`run_protocol`] calls it for
/// live runs (with [`NullSink`] when `trace=off`) and the replay
/// verifier ([`crate::replay`]) calls it to re-derive a recorded run —
/// both therefore compile the same link delays, fault script, and
/// arrival stream from the spec's one seed.
pub(crate) fn run_protocol_events<T: TraceSink>(
    spec: &ScenarioSpec,
    instance: &Instance,
    tracer: &mut T,
) -> ClusterReport {
    let options = protocol_options(spec, instance);
    let delays = LinkDelayModel::new(instance.latency(), spec.seed);
    // The scenario's seed compiles the fault plan, so one seed fixes
    // the workload, the link delays, *and* the fault trajectory. An
    // empty plan compiles to the empty script, which the executor
    // treats exactly as "no faults" — byte-equal records.
    let script = spec.faults.compile(spec.seed, instance.len());
    // The same seed also compiles the arrival stream, with the
    // sampled own-loads as the per-organization weights. An empty
    // plan compiles to the empty script — byte-equal records to an
    // unstreamed run.
    let stream = spec
        .arrivals
        .compile(spec.seed, spec.duration, instance.own_loads());
    run_cluster_events_observed(
        instance,
        &options,
        |i, j| delays.one_way_ms(i, j),
        &script,
        &stream,
        &mut VirtualClock,
        tracer,
    )
}

/// The outcomes a frame log's trailer claims for a run.
pub(crate) fn trailer(report: &ClusterReport) -> Trailer {
    Trailer {
        event_hash: report.event_hash,
        final_cost: report.final_cost,
        rounds: report.rounds as u64,
        exchanges: report.exchanges as u64,
        virtual_ms: report.virtual_ms,
    }
}

/// Runs the message-passing protocol on the deterministic virtual-time
/// executor ([`dlb_runtime::run_cluster_events_observed`]), link
/// delays sampled per seed from [`dlb_netsim::LinkDelayModel`] over
/// the instance's latency matrix. `eps` is the quiescent-volume
/// threshold, `patience` the quiet-round count (`m − 1` certifies
/// pairwise optimality), `budget` the round budget. Runs report
/// *simulated* seconds as `wall_secs` (see [`RunRecord::wall_secs`]).
/// `trace=summary` folds events into metrics as they are emitted; only
/// `trace=frames:` keeps the stream, for its log — and a log that
/// cannot be written is this runner's one error.
fn run_protocol(spec: &ScenarioSpec, instance: Instance) -> Result<RunRecord, SpecError> {
    let (report, obs) = match &spec.trace {
        TraceSpec::Off => (
            run_protocol_events(spec, &instance, &mut NullSink),
            ObsSummary::default(),
        ),
        TraceSpec::Summary => {
            let mut sink = SummarySink::default();
            let report = run_protocol_events(spec, &instance, &mut sink);
            (report, sink.metrics.summary())
        }
        TraceSpec::Frames(path) => {
            let mut sink = MemorySink::default();
            let report = run_protocol_events(spec, &instance, &mut sink);
            let obs = MetricSet::from_events(&sink.events).summary();
            // The header records the spec *without* its trace key:
            // replay re-derives the run, and re-recording during
            // replay would be both circular and a determinism hazard.
            let mut header = spec.clone();
            header.trace = TraceSpec::Off;
            let log = FrameLog {
                spec: header.to_string(),
                events: sink.events,
                trailer: trailer(&report),
            };
            std::fs::write(path, log.encode())
                .map_err(|e| SpecError(format!("trace=frames:{path}: cannot write ({e})")))?;
            (report, obs)
        }
    };
    Ok(RunRecord {
        faults: report.faults,
        detector: report.detector,
        stream: report.stream,
        obs,
        ..RunRecord::quiet(
            spec,
            report.history,
            report.rounds,
            report.quiescent,
            report.virtual_ms / 1000.0,
        )
    })
}

/// Runs the centralized BCD solver baseline ([`dlb_solver::solve_bcd`])
/// with `budget` sweeps and tolerance `eps`.
fn run_bcd(spec: &ScenarioSpec, instance: Instance) -> RunRecord {
    let initial = total_cost(&instance, &Assignment::local(&instance));
    let start = Instant::now();
    let (_, report) = solve_bcd(&instance, spec.budget, spec.eps, None);
    RunRecord::quiet(
        spec,
        vec![initial, report.objective],
        report.iters,
        report.converged,
        start.elapsed().as_secs_f64(),
    )
}

impl ScenarioSpec {
    /// Runs this scenario on the system its `algo` names.
    ///
    /// # Panics
    /// Panics with [`ScenarioSpec::validate`]'s message on a spec it
    /// refuses — checked before the instance is sampled, so `avg=-5` is
    /// that message and not a sampler's assert, and a silently ignored
    /// fault plan cannot masquerade as a clean measurement — and when a
    /// `trace=frames:` log cannot be written.
    pub fn run(&self) -> RunRecord {
        let run = self
            .validate()
            .and_then(|()| self.try_run_on(self.build_instance()));
        run.unwrap_or_else(|e| panic!("{e}, got '{self}'"))
    }

    /// Runs this scenario on a prebuilt instance — callers holding
    /// several scenarios over one grid point (bench sweeps) sample
    /// once and share it. `instance` must be what
    /// [`ScenarioSpec::build_instance`] would produce (or an
    /// intentional override with the same size).
    ///
    /// # Panics
    /// Panics with [`try_run_on`](Self::try_run_on)'s error (see
    /// [`ScenarioSpec::run`]).
    pub fn run_on(&self, instance: Instance) -> RunRecord {
        self.try_run_on(instance)
            .unwrap_or_else(|e| panic!("{e}, got '{self}'"))
    }

    /// [`run_on`](Self::run_on) for callers that report failures
    /// instead of panicking.
    ///
    /// # Errors
    /// [`ScenarioSpec::validate`]'s refusal — of a value the text form
    /// refuses or of a key combination — or a `trace=frames:` log that
    /// cannot be written.
    pub fn try_run_on(&self, instance: Instance) -> Result<RunRecord, SpecError> {
        self.validate()?;
        match self.algo {
            AlgoSpec::Sequential | AlgoSpec::Batched => Ok(run_engine(self, instance)),
            AlgoSpec::Nash => Ok(run_nash(self, instance)),
            AlgoSpec::Protocol => run_protocol(self, instance),
            AlgoSpec::Bcd => Ok(run_bcd(self, instance)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DetectSpec, NetSpec, SelectSpec};
    use dlb_distributed::engine::iterations_to_reach;

    fn spec(text: &str) -> ScenarioSpec {
        text.parse().unwrap()
    }

    /// The engine runners must reproduce a direct
    /// `Engine::run_to_convergence` call bit for bit — the scenario
    /// layer adds naming, not behavior.
    #[test]
    fn engine_runners_match_direct_engine_exactly() {
        for (algo, mode) in [
            (AlgoSpec::Sequential, RoundMode::Sequential),
            (AlgoSpec::Batched, RoundMode::Batched),
        ] {
            let spec = ScenarioSpec {
                algo,
                m: 15,
                seed: 3,
                budget: 80,
                ..ScenarioSpec::default()
            };
            let run = spec.run();
            let mut engine = Engine::new(
                spec.build_instance(),
                EngineOptions {
                    seed: 3,
                    round_mode: mode,
                    ..Default::default()
                },
            );
            let report = engine.run_to_convergence(1e-10, 3, 80);
            assert_eq!(run.history, engine.history(), "{algo:?}");
            assert_eq!(run.final_cost(), report.final_cost, "{algo:?}");
            assert_eq!(run.iterations, report.iterations);
            assert_eq!(run.converged, report.converged);
        }
    }

    /// One spec value, round-tripped through its text form, must drive
    /// every deterministic runner to identical results.
    #[test]
    fn text_round_trip_preserves_results() {
        for algo in [AlgoSpec::Sequential, AlgoSpec::Batched, AlgoSpec::Bcd] {
            let spec = ScenarioSpec {
                algo,
                net: NetSpec::Pl,
                m: 12,
                seed: 9,
                eps: 1e-8,
                patience: 2,
                budget: 60,
                ..ScenarioSpec::default()
            };
            let reparsed: ScenarioSpec = spec.to_string().parse().unwrap();
            assert_eq!(reparsed, spec);
            assert_eq!(reparsed.run().history, spec.run().history, "{algo:?}");
        }
        let spec = ScenarioSpec {
            algo: AlgoSpec::Nash,
            m: 10,
            seed: 4,
            eps: 0.01,
            patience: 2,
            budget: 500,
            ..ScenarioSpec::default()
        };
        let reparsed: ScenarioSpec = spec.to_string().parse().unwrap();
        assert_eq!(reparsed.run().history, spec.run().history);
    }

    #[test]
    fn nash_runner_matches_direct_dynamics() {
        let spec = spec("algo=nash m=10 seed=2 eps=0.01 patience=2 budget=1000");
        let run = spec.run();
        let instance = spec.build_instance();
        let mut nash = Assignment::local(&instance);
        let report = run_best_response_dynamics(
            &instance,
            &mut nash,
            &DynamicsOptions {
                seed: 2,
                ..Default::default()
            },
        );
        assert_eq!(run.final_cost(), total_cost(&instance, &nash));
        assert_eq!(run.iterations, report.rounds);
        assert!(run.converged);
    }

    /// The protocol picks partners from gossiped loads and the engine
    /// from exact improvements, so the two stop at *a* pairwise-optimal
    /// state by different exchange orders: compared within a band.
    #[test]
    fn protocol_runner_lands_near_the_engine_fixpoint() {
        let spec = spec("algo=protocol m=8 avg=80 seed=5 eps=1e-9 patience=7 budget=300");
        let run = spec.run();
        assert_eq!(run.history.len(), run.iterations + 1);
        let coop = ScenarioSpec {
            algo: AlgoSpec::Sequential,
            eps: 1e-12,
            patience: 3,
            ..spec
        };
        let fixpoint = coop.run().final_cost();
        assert!(
            run.final_cost() <= fixpoint * 1.05,
            "protocol {} vs engine {fixpoint}",
            run.final_cost()
        );
    }

    /// Protocol runs are fully deterministic: the whole record —
    /// including `wall_secs`, which carries simulated protocol time —
    /// must reproduce bit for bit, and land at the engine's quality.
    #[test]
    fn event_protocol_runner_is_deterministic_and_matches_the_engine() {
        let spec = spec("algo=protocol m=10 avg=80 seed=5 eps=1e-9 patience=9 budget=300");
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "event runs must be bit-identical");
        assert!(a.converged);
        assert!(a.wall_secs > 0.0, "virtual time recorded");
        let coop = ScenarioSpec {
            algo: AlgoSpec::Sequential,
            eps: 1e-12,
            patience: 3,
            ..spec
        };
        let fixpoint = coop.run().final_cost();
        assert!(
            a.final_cost() <= fixpoint * 1.05,
            "events {} vs engine {fixpoint}",
            a.final_cost()
        );
    }

    /// A faulted `detect=adaptive` run carries a populated detector
    /// summary in its record, reproduces bit for bit, and still
    /// converges — crashes detected from silence, stragglers
    /// re-admitted, all without consulting the oracle.
    #[test]
    fn detector_summary_rides_the_record_deterministically() {
        let spec = spec(
            "algo=protocol m=16 avg=80 seed=5 eps=1e-9 patience=9 budget=800 \
             faults=crash:0.2@150ms,slow:0.2@4x detect=adaptive",
        );
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "detect runs must be bit-identical");
        assert!(a.converged);
        assert!(
            a.detector.suspicions > 0,
            "crashed nodes must be suspected from silence: {:?}",
            a.detector
        );
        assert!(a.detector.detection_latency_ms > 0.0);
        // The oracle mode on the same scenario reports a quiet detector.
        let oracle = ScenarioSpec {
            detect: DetectSpec::Oracle,
            ..spec
        };
        let oracle = oracle.run();
        assert!(oracle.detector.is_quiet(), "{:?}", oracle.detector);
    }

    /// A streamed run carries a populated stream summary in its
    /// record, reproduces bit for bit, and serves the whole workload
    /// with finite percentile latencies.
    #[test]
    fn stream_summary_rides_the_record_deterministically() {
        let spec = spec(
            "algo=protocol m=12 avg=60 seed=7 eps=1e-9 patience=9 budget=300 \
             arrivals=poisson:150,burst:300@200ms..600ms duration=1200",
        );
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "streamed runs must be bit-identical");
        assert!(!a.stream.is_quiet(), "{:?}", a.stream);
        assert!(a.stream.served > 0);
        assert_eq!(a.stream.dropped, 0, "no crashes scheduled");
        assert!(a.stream.p50_ms.is_finite() && a.stream.p50_ms > 0.0);
        assert!(a.stream.p99_ms >= a.stream.p50_ms);
        // The identical spec with the stream removed is a different
        // scenario — and reports a quiet summary.
        let calm = ScenarioSpec {
            arrivals: Default::default(),
            duration: 0.0,
            ..spec
        };
        let calm = calm.run();
        assert!(calm.stream.is_quiet(), "{:?}", calm.stream);
    }

    /// The derived exchange RTO clears the worst frame any plan can
    /// produce, so alive–alive exchanges never tear (see
    /// `exchange_rto_ms`).
    #[test]
    fn derived_rto_dominates_the_plan_worst_case() {
        let spec = spec(
            "algo=protocol m=12 faults=loss:0.2,spike:3x@100ms..600ms,part:200ms..450ms,slow:0.2@4x",
        );
        let instance = spec.build_instance();
        let rto = exchange_rto_ms(&spec, &instance);
        let d_max = instance.latency().max_latency() / 2.0;
        // One maximally unlucky one-way frame: slowest link × both
        // multipliers, the full retransmission budget, the partition.
        let worst = d_max * 4.0 * 3.0 + f64::from(MAX_RETRANSMITS) * RETRANSMIT_MS + 250.0;
        assert!(rto > worst, "rto {rto} vs worst one-way {worst}");
        // A fault-free spec still gets a sane, small timeout.
        let calm = ScenarioSpec {
            faults: Default::default(),
            ..spec
        };
        let calm_rto = exchange_rto_ms(&calm, &instance);
        assert!(calm_rto > 2.0 * d_max);
        assert!(calm_rto < worst);
    }

    /// `gossip=event:PERIODms` runs the real delta-gossip control
    /// plane: the record carries metered traffic, reproduces bit for
    /// bit, and still lands at the fresh-scoring fixpoint's quality.
    #[test]
    fn event_gossip_meters_traffic_and_converges() {
        let spec = spec("algo=batched m=30 seed=3 budget=200 gossip=event:100ms");
        let fresh = ScenarioSpec {
            gossip: GossipSpec::default(),
            ..spec.clone()
        };
        let a = spec.run();
        let mut b = spec.run();
        // Engine runs report real wall time; everything else must
        // replay bit for bit.
        b.wall_secs = a.wall_secs;
        assert_eq!(a, b, "gossip-fed runs must be bit-identical");
        assert!(a.converged);
        assert!(!a.gossip.is_quiet(), "{:?}", a.gossip);
        assert!(a.gossip.bytes > 0 && a.gossip.frames > 0);
        let fresh = fresh.run();
        assert!(
            a.final_cost() <= fresh.final_cost() * 1.01,
            "gossip-fed {} vs fresh {}",
            a.final_cost(),
            fresh.final_cost()
        );
        // The fresh default reports a quiet summary.
        assert!(fresh.gossip.is_quiet());
    }

    /// A struct literal can hold what `parse` rejects, so `run_on`
    /// begins with the same `validate` (whose table test lives in
    /// `spec.rs`) instead of silently ignoring the axis. `select=` is
    /// the one the runner's own copy of the rule book used to miss:
    /// this spec ran to completion and emitted a record whose
    /// `scenario` text would not parse.
    #[test]
    #[should_panic(expected = "select= requires algo=protocol")]
    fn run_on_refuses_what_validate_refuses() {
        let spec = ScenarioSpec {
            algo: AlgoSpec::Batched,
            m: 8,
            select: SelectSpec::TopK(4),
            ..ScenarioSpec::default()
        };
        spec.run_on(spec.build_instance());
    }

    /// Values the text form refuses, set on struct literals: each used
    /// to run (to `inf` or `NaN` seconds, or zero iterations) or panic
    /// in the sampler, and left a record whose `scenario` would not
    /// parse. Each is now the very error `parse` gives for the spec's
    /// own text, from `validate` and `try_run_on` — and from `run`,
    /// before it samples, for `avg`.
    #[test]
    fn struct_literals_meet_the_text_forms_refusals() {
        let on = ScenarioSpec {
            algo: AlgoSpec::Protocol,
            m: 8,
            ..ScenarioSpec::default()
        };
        let spike = dlb_faults::SpikeFault {
            factor: 1e308,
            from_ms: 0.0,
            to_ms: 1e9,
        };
        let faults = dlb_faults::FaultPlan {
            spike: Some(spike),
            ..Default::default()
        };
        let big = format!("{}", 1e308);
        for (spec, message) in [
            (
                ScenarioSpec {
                    lat: 1e308,
                    ..on.clone()
                },
                format!("lat: '{big}' must be at most 1e9"),
            ),
            (
                ScenarioSpec {
                    faults,
                    ..on.clone()
                },
                format!("faults: spike factor: '{big}' must be at most 1e6"),
            ),
            (
                ScenarioSpec {
                    budget: 0,
                    ..on.clone()
                },
                "budget must be at least 1".into(),
            ),
            (
                ScenarioSpec {
                    detect: DetectSpec::Timeout(f64::NAN),
                    ..on.clone()
                },
                "detect: the timeout deadline must be positive".into(),
            ),
            (
                ScenarioSpec {
                    select: SelectSpec::TopK(0),
                    ..on.clone()
                },
                "select: topk needs at least 1 candidate".into(),
            ),
        ] {
            let refusal = SpecError(message);
            let parsed = ScenarioSpec::parse(&spec.to_string());
            assert_eq!(parsed, Err(refusal.clone()), "{spec}");
            assert_eq!(spec.validate(), Err(refusal.clone()), "{spec}");
            assert_eq!(spec.try_run_on(on.build_instance()), Err(refusal));
        }
        let light = ScenarioSpec { avg: -5.0, ..on };
        let refusal = SpecError("avg: '-5' must be finite and non-negative".into());
        assert_eq!(
            ScenarioSpec::parse(&light.to_string()),
            Err(refusal.clone())
        );
        assert_eq!(light.validate(), Err(refusal.clone()));
        let panic = std::panic::catch_unwind(|| light.run()).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(*message, format!("{refusal}, got '{light}'"));
    }

    #[test]
    fn bcd_runner_reports_a_converged_optimum() {
        let spec = spec("algo=bcd m=10 seed=6");
        let run = spec.run();
        assert!(run.converged);
        assert!(run.final_cost() <= run.initial_cost());
        let engine = ScenarioSpec {
            algo: AlgoSpec::Sequential,
            ..spec
        };
        let engine = engine.run();
        assert!(
            engine.final_cost() <= run.final_cost() * 1.01,
            "engine {} vs solver {}",
            engine.final_cost(),
            run.final_cost()
        );
    }

    #[test]
    fn iterations_to_reach_matches_engine_semantics() {
        let spec = spec("m=15 seed=5 eps=1e-12 patience=2 budget=80");
        let run = spec.run();
        let exact = iterations_to_reach(&run.history, run.final_cost(), 0.0).unwrap();
        let loose = iterations_to_reach(&run.history, run.final_cost(), 0.02).unwrap();
        assert!(loose <= exact);
    }
}
