//! The traced pass of the three executor workloads: the event executor
//! driven directly, with options, link delays, fault script and arrival
//! stream built by hand from the spec's public fields, and the
//! benchmark's own `StampSink` attached.
//!
//! Building the options by hand duplicates a little of the scenario
//! layer (the selection policy mapping, the two-phase rule, the
//! exchange RTO formula). The pass proves the copy is right every time
//! it runs: the traced trajectory must equal, bit for bit, that of the
//! same scenario run through `ScenarioSpec::run_on`.

use std::hint::black_box;
use std::time::Instant;

use dlb_benchmark::procfs;
use dlb_benchmark::spans::Trace;
use dlb_benchmark::stats;
use dlb_core::Instance;
use dlb_faults::{MAX_RETRANSMITS, RETRANSMIT_MS};
use dlb_netsim::rtt::QueueModel;
use dlb_netsim::LinkDelayModel;
use dlb_obs::{FrameLog, MemorySink, MetricSet, TraceEvent, TraceKind, TraceSink, Trailer};
use dlb_runtime::{
    run_cluster_events_observed, ClusterOptions, ClusterReport, DetectMode, NodeConfig,
    SelectPolicy, VirtualClock,
};
use dlb_scenario::{DetectSpec, ScenarioSpec, SelectSpec};

use crate::stamp_sink::StampSink;
use crate::{probes, Setup, Sheet};

/// Events of a streamed run kept for the trace-plane probes.
const KEPT_EVENTS: usize = 1_000_000;

/// Link queries the fault-script probe makes.
const LINK_QUERIES: u64 = 1_000_000;

/// The per-node configuration a spec pins down: the selection policy
/// from `select=`, two-phase exchanges whenever detection is
/// in-protocol.
fn node_config(spec: &ScenarioSpec) -> NodeConfig {
    NodeConfig {
        select: match spec.select {
            SelectSpec::Exact => SelectPolicy::Exact,
            SelectSpec::TopK(k) => SelectPolicy::TopK(k),
        },
        two_phase: spec.detect != DetectSpec::Oracle,
        ..Default::default()
    }
}

/// The scenario layer's exchange retransmission timeout: twice the
/// worst-case one-way frame time under the spec's own fault plan, plus
/// margin. Ignored under the oracle detector.
fn exchange_rto_ms(spec: &ScenarioSpec, instance: &Instance) -> f64 {
    let jitter_tail = 40.0 * QueueModel::default().base_jitter_ms;
    let d_max = instance.latency().max_latency() / 2.0 + jitter_tail;
    let slow = spec.faults.slow.map_or(1.0, |s| s.factor);
    let spike = spec.faults.spike.map_or(1.0, |s| s.factor);
    let retransmits = spec
        .faults
        .loss
        .map_or(0.0, |_| f64::from(MAX_RETRANSMITS) * RETRANSMIT_MS);
    let hold = spec.faults.partition.map_or(0.0, |p| p.to_ms - p.from_ms);
    2.0 * (d_max * slow.max(1.0) * spike.max(1.0) + retransmits + hold) + 50.0
}

fn cluster_options(spec: &ScenarioSpec, instance: &Instance) -> ClusterOptions {
    ClusterOptions {
        max_rounds: spec.budget,
        quiescent_rounds: spec.patience.max(1),
        quiescent_volume: spec.eps,
        node: node_config(spec),
        detect: match spec.detect {
            DetectSpec::Oracle => DetectMode::Oracle,
            DetectSpec::Timeout(ms) => DetectMode::Timeout(ms),
            DetectSpec::Adaptive => DetectMode::Adaptive,
        },
        exchange_rto_ms: exchange_rto_ms(spec, instance),
        ..Default::default()
    }
}

fn set_event_counts(sheet: &mut Sheet, sink: &StampSink, wall_s: f64) {
    let c = |kind| sink.count(kind) as f64;
    let total: f64 = TraceKind::ALL.iter().map(|&k| c(k)).sum();
    sheet.set("runtime.events_total", total);
    sheet.set("runtime.frames_delivered", c(TraceKind::FrameDelivered));
    sheet.set("runtime.frames_dropped", c(TraceKind::FrameDropped));
    sheet.set("runtime.frames_held", c(TraceKind::FrameHeld));
    sheet.set("runtime.timers_fired", c(TraceKind::TimerFired));
    sheet.set("runtime.proposals", c(TraceKind::ExchangePropose));
    sheet.set("runtime.exchanges_committed", c(TraceKind::ExchangeCommit));
    sheet.set("runtime.exchanges_aborted", c(TraceKind::ExchangeAbort));
    if c(TraceKind::ExchangePropose) > 0.0 {
        sheet.set(
            "runtime.commit_per_propose",
            c(TraceKind::ExchangeCommit) / c(TraceKind::ExchangePropose),
        );
    }
    // Every frame scheduled asks the delay model for its link.
    sheet.set("netsim.calls", c(TraceKind::FrameScheduled));
    // Everything popped off the event heap: frames (delivered, or
    // dropped at the door), timers, and streamed arrivals/departures.
    sheet.set(
        "core.heap_ops",
        c(TraceKind::FrameDelivered)
            + c(TraceKind::FrameDropped)
            + c(TraceKind::TimerFired)
            + c(TraceKind::StreamArrival)
            + c(TraceKind::StreamDeparture)
            + c(TraceKind::StreamDrop),
    );
    if total > 0.0 {
        sheet.set("runtime.host_us_per_event", wall_s * 1e6 / total);
    }
}

pub fn pass(t: &mut Trace, sheet: &mut Sheet, setup: &Setup) {
    let (w, spec) = (setup.workload, &setup.spec);
    let instance = t.span("scenario.build_instance", |_| spec.build_instance());
    let m = instance.len();
    let for_reference = instance.clone();

    // The reference: the same scenario through the scenario API,
    // tracing off — what `e2e` times, at this pass's size.
    let (reference, reference_s) = t.timed("reference.run_on", |_| spec.run_on(for_reference));

    let options = cluster_options(spec, &instance);
    let delays = LinkDelayModel::new(instance.latency(), spec.seed);
    let (script, faults_compile_s) =
        t.timed("faults.compile", |_| spec.faults.compile(spec.seed, m));
    let (stream, stream_compile_s) = t.timed("requestsim.compile", |_| {
        spec.arrivals
            .compile(spec.seed, spec.duration, instance.own_loads())
    });
    let mut sink = StampSink::keeping(if stream.is_empty() { 0 } else { KEPT_EVENTS });

    let before = procfs::self_stat().unwrap_or_default();
    let called = Instant::now();
    let report = t.span("runtime.run_cluster_events_observed", |_| {
        run_cluster_events_observed(
            &instance,
            &options,
            |i, j| delays.one_way_ms(i, j),
            &script,
            &stream,
            &mut VirtualClock,
            &mut sink,
        )
    });
    let returned = Instant::now();
    let after = procfs::self_stat().unwrap_or_default();
    let wall_s = (returned - called).as_secs_f64();

    // Round stamps become child spans of the run.
    let run_span = t.find("runtime.run_cluster_events_observed");
    match sink.rounds() {
        Ok(rounds) => {
            for &(begin, end) in &rounds {
                t.record("runtime.round", begin, end, run_span);
            }
            let ms: Vec<f64> = rounds
                .iter()
                .map(|(b, e)| (*e - *b).as_secs_f64() * 1e3)
                .collect();
            if let (Some(first), Some(last)) = (rounds.first(), rounds.last()) {
                sheet.set("runtime.startup_s", (first.0 - called).as_secs_f64());
                sheet.set("runtime.shutdown_s", (returned - last.1).as_secs_f64());
                sheet.set("runtime.round_host_ms_first", ms[0]);
                sheet.set("runtime.round_host_ms_p50", stats::median(&ms));
                sheet.set("runtime.round_host_ms_max", stats::max(&ms));
            }
            sheet.check(rounds.len() >= report.rounds, || {
                format!(
                    "{}: {} round stamps for {} rounds",
                    w.name,
                    rounds.len(),
                    report.rounds
                )
            });
        }
        Err(e) => sheet.check(false, || {
            format!("{}: round stamps do not pair: {e}", w.name)
        }),
    }

    // The hand-built options are the scenario's if and only if the
    // trajectory is the reference's, bit for bit.
    sheet.check(
        report.history == reference.history
            && report.rounds == reference.iterations
            && report.stream == reference.stream
            && report.detector == reference.detector
            && report.faults == reference.faults,
        || {
            format!(
                "{}: the directly driven executor left the scenario's trajectory \
                 (rounds {} vs {}, final cost {:?} vs {:?})",
                w.name,
                report.rounds,
                reference.iterations,
                report.history.last(),
                reference.history.last()
            )
        },
    );
    let recomputed = probes::cost(t, sheet, &instance, &report.assignment);
    sheet.check(
        (recomputed - report.final_cost).abs() <= 1e-6 * report.final_cost.abs(),
        || {
            format!(
                "{}: total cost recomputed from the final assignment is {recomputed}, the run says {}",
                w.name, report.final_cost
            )
        },
    );
    // A closed batch conserves every owner's load; a stream deposits
    // and withdraws it, and is held to its own ledger below instead.
    if stream.is_empty() {
        sheet.check(
            probes::conservation_holds(&instance, &report.assignment),
            || format!("{}: per-owner load is not conserved", w.name),
        );
    }

    set_event_counts(sheet, &sink, wall_s);
    sheet.set("runtime.sim_s", report.virtual_ms / 1e3);
    sheet.set(
        "runtime.event_hash",
        (report.event_hash & ((1 << 53) - 1)) as f64,
    );
    // `cost_ratio` as `e2e` defines it: last over first of the history
    // (a stream moves load after the last round, so `final_cost` is
    // not the history's last entry there).
    let last_cost = report.history.last().copied().unwrap_or(f64::NAN);
    sheet.set_traced_run(
        (last_cost / report.history[0], report.rounds),
        (wall_s, reference_s),
        (before, after),
    );

    if !script.is_empty() {
        sheet.set("faults.compile_ms", faults_compile_s * 1e3);
        sheet.set("faults.dropped_frames", report.faults.dropped_frames as f64);
        sheet.set("faults.delayed_frames", report.faults.delayed_frames as f64);
        sheet.set(
            "runtime.detector_suspicions",
            f64::from(report.detector.suspicions),
        );
        sheet.set(
            "runtime.detector_false_positives",
            f64::from(report.detector.false_positives),
        );
        sheet.set(
            "runtime.detector_latency_ms",
            report.detector.detection_latency_ms,
        );
        sheet.set(
            "runtime.aborted_exchanges",
            f64::from(report.detector.aborted_exchanges),
        );
        let ((), link_s) = t.timed("probe.faults.reliable_link", |_| {
            let mut extra = 0.0;
            for seq in 0..LINK_QUERIES {
                let now = (seq % 16_000) as f64;
                let (src, dst) = (
                    (seq % m as u64) as usize,
                    ((seq / 7 + 1) % m as u64) as usize,
                );
                extra += script.reliable_link(now, src, dst, seq, 10.0).extra_ms;
            }
            black_box(extra);
        });
        sheet.set(
            "faults.reliable_link_ns",
            link_s * 1e9 / LINK_QUERIES as f64,
        );
    }
    if !stream.is_empty() {
        stream_metrics(t, sheet, setup, &report, &sink, stream.len() as u64);
        sheet.set("requestsim.compile_ms", stream_compile_s * 1e3);
    }

    let config = node_config(spec);
    probes::one_way(t, sheet, &instance, spec.seed);
    probes::heap(t, sheet, m);
    probes::map_mut_dispatch(t, sheet, m);
    if let SelectSpec::TopK(k) = spec.select {
        probes::knearest(t, sheet, &instance, k);
    }
    probes::machine_new(t, sheet, &instance, config);
    probes::machine_handle(t, sheet, &instance, config);
}

/// What only a streamed run has: the request ledger, and an event list
/// worth probing the trace plane with.
fn stream_metrics(
    t: &mut Trace,
    sheet: &mut Sheet,
    setup: &Setup,
    report: &ClusterReport,
    sink: &StampSink,
    scheduled: u64,
) {
    let w = setup.workload;
    let summary = report.stream;
    sheet.set("requestsim.arrivals", scheduled as f64);
    // Every scheduled request is accounted for: served or dropped.
    sheet.check(summary.served + summary.dropped == scheduled, || {
        format!(
            "{}: {scheduled} requests scheduled but {} served + {} dropped",
            w.name, summary.served, summary.dropped
        )
    });
    sheet.check(
        sink.count(TraceKind::StreamArrival) == summary.served
            && sink.count(TraceKind::StreamDrop) == summary.dropped,
        || {
            format!(
                "{}: the trace and the report disagree on the stream",
                w.name
            )
        },
    );
    sheet.set("runtime.stream_served", summary.served as f64);
    sheet.set(
        "runtime.stream_dropped_share",
        summary.dropped as f64 / scheduled.max(1) as f64,
    );
    sheet.set("runtime.stream_p99_ms", summary.p99_ms);

    // The trace plane itself, on the first events of this very run.
    let events: &[TraceEvent] = sink.kept();
    let ((), emit_s) = t.timed("probe.obs.emit", |_| {
        let mut memory = MemorySink::default();
        for ev in events {
            memory.emit(ev);
        }
        black_box(memory.events.len());
    });
    sheet.set("obs.emit_ns", emit_s * 1e9 / events.len().max(1) as f64);
    let ((), fold_s) = t.timed("probe.obs.metrics_fold", |_| {
        black_box(MetricSet::from_events(events).total());
    });
    sheet.set("obs.metrics_fold_ms", fold_s * 1e3);
    let log = FrameLog {
        spec: setup.text.clone(),
        events: events.to_vec(),
        trailer: Trailer {
            event_hash: report.event_hash,
            final_cost: report.final_cost,
            rounds: report.rounds as u64,
            exchanges: report.exchanges as u64,
            virtual_ms: report.virtual_ms,
        },
    };
    let (bytes, encode_s) = t.timed("probe.obs.framelog_encode", |_| log.encode().len());
    sheet.set("obs.framelog_encode_ms", encode_s * 1e3);
    sheet.set("obs.framelog_bytes", bytes as f64);
}
