//! The traced pass of the two engine workloads: `Engine::run_iteration`
//! looped under a span, the three phases of a batched round timed on a
//! copy of the state every `SAMPLE_EVERY`th iteration, and the gossip
//! feed's layers probed on their own.

use std::hint::black_box;
use std::time::Instant;

use dlb_benchmark::procfs;
use dlb_benchmark::spans::Trace;
use dlb_benchmark::stats;
use dlb_core::Instance;
use dlb_distributed::mine::PartnerSelection;
use dlb_distributed::round::{apply_matches, match_proposals, propose};
use dlb_distributed::{Engine, EngineOptions, GossipFeed, RoundMode, ScoreView};
use dlb_gossip::wire::{decode_delta, encode_delta, DeltaFrame, WireEntry};
use dlb_gossip::{DeltaGossip, DeltaGossipConfig};
use dlb_scenario::runner::GOSSIP_TOP_K;
use dlb_scenario::{GossipSpec, ScenarioSpec};

use crate::{probes, Setup, Sheet};

/// The three phases are timed on a copy of the assignment this often.
const SAMPLE_EVERY: usize = 50;

/// Entries in the frame the wire-codec probe encodes and decodes.
const WIRE_ENTRIES: usize = 500;
const WIRE_REPEATS: usize = 2000;

/// Gossip periods the standalone `DeltaGossip` probe advances.
const GOSSIP_PERIODS: usize = 20;

/// The engine options the scenario layer derives from a batched spec.
fn engine_options(spec: &ScenarioSpec) -> EngineOptions {
    EngineOptions {
        seed: spec.seed,
        granularity: spec.gran,
        round_mode: RoundMode::Batched,
        selection: match spec.gossip {
            GossipSpec::Event { .. } => Some(PartnerSelection::Pruned {
                top_k: GOSSIP_TOP_K,
            }),
            _ => None,
        },
        ..Default::default()
    }
}

/// The selection the engine resolves to for `m` servers.
fn selection(options: &EngineOptions, m: usize) -> PartnerSelection {
    options
        .selection
        .unwrap_or(if m <= options.exact_threshold {
            PartnerSelection::Exact
        } else {
            PartnerSelection::Pruned {
                top_k: options.pruned_top_k,
            }
        })
}

pub fn pass(t: &mut Trace, sheet: &mut Sheet, setup: &Setup) {
    let (w, spec) = (setup.workload, &setup.spec);
    let instance = t.span("scenario.build_instance", |_| spec.build_instance());
    let m = instance.len();
    let ((), latency_s) = t.timed("probe.topology.build_latency", |_| {
        black_box(spec.build_latency());
    });
    sheet.set("topology.build_latency_s", latency_s);

    let for_reference = instance.clone();
    let (reference, reference_s) = t.timed("reference.run_on", |_| spec.run_on(for_reference));

    let options = engine_options(spec);
    let selection = selection(&options, m);
    let period_ms = match spec.gossip {
        GossipSpec::Event { period_ms } => Some(period_ms),
        _ => None,
    };
    let order: Vec<usize> = (0..m).collect();
    let mut load_samples: Vec<Vec<f64>> = Vec::new();
    let (mut proposed, mut accepted) = (0usize, 0usize);

    let before = procfs::self_stat().unwrap_or_default();
    let called = Instant::now();
    let engine = t.span("distributed.engine", |t| {
        let mut engine = Engine::new(instance, options);
        if let Some(period_ms) = period_ms {
            engine.attach_gossip_feed(period_ms);
        }
        let min_improvement = options.min_improvement_rel * engine.current_cost().abs().max(1.0);
        for iteration in 0..spec.budget {
            if iteration % SAMPLE_EVERY == 0 {
                // The three phases of a batched round on a copy of the
                // live state, in server order and on live loads (the
                // engine's own order is shuffled and, under gossip, its
                // ranking reads stale views; the phase costs are the
                // same).
                t.span("distributed.sample", |t| {
                    let mut copy = engine.assignment().clone();
                    load_samples.push(copy.loads().to_vec());
                    let proposals = t.span("distributed.propose", |_| {
                        propose(
                            engine.instance(),
                            &copy,
                            &order,
                            selection,
                            min_improvement,
                            options.parallel,
                            None,
                            options.granularity,
                            ScoreView::Live,
                        )
                    });
                    let matched = t.span("distributed.match", |_| {
                        match_proposals(m, &order, &proposals, None)
                    });
                    proposed += proposals.iter().flatten().count();
                    accepted += matched.len();
                    t.span("distributed.apply", |_| {
                        black_box(apply_matches(
                            engine.instance(),
                            &mut copy,
                            &order,
                            proposals,
                            &matched,
                            options.granularity,
                        ));
                    });
                });
            }
            t.span("distributed.run_iteration", |_| {
                black_box(engine.run_iteration());
            });
        }
        engine
    });
    let wall_s = called.elapsed().as_secs_f64();
    let after = procfs::self_stat().unwrap_or_default();

    sheet.check(
        engine.history() == reference.history.as_slice()
            && engine.iterations() == reference.iterations,
        || {
            format!(
                "{}: the directly driven engine left the scenario's trajectory \
                 ({} vs {} iterations, final cost {:?} vs {:?})",
                w.name,
                engine.iterations(),
                reference.iterations,
                engine.history().last(),
                reference.history.last()
            )
        },
    );
    let recomputed = probes::cost(t, sheet, engine.instance(), engine.assignment());
    sheet.check(
        (recomputed - engine.current_cost()).abs() <= 1e-6 * engine.current_cost().abs(),
        || {
            format!(
                "{}: total cost recomputed from the final assignment is {recomputed}, the engine says {}",
                w.name,
                engine.current_cost()
            )
        },
    );
    sheet.check(
        probes::conservation_holds(engine.instance(), engine.assignment()),
        || format!("{}: per-owner load is not conserved", w.name),
    );

    let ms = |name: &str| -> Vec<f64> { t.durations_s(name).iter().map(|s| s * 1e3).collect() };
    let iterations = ms("distributed.run_iteration");
    sheet.set("distributed.iteration_ms_p50", stats::median(&iterations));
    sheet.set("distributed.iteration_ms_max", stats::max(&iterations));
    sheet.set(
        "distributed.propose_ms",
        stats::median(&ms("distributed.propose")),
    );
    sheet.set(
        "distributed.match_ms",
        stats::median(&ms("distributed.match")),
    );
    sheet.set(
        "distributed.apply_ms",
        stats::median(&ms("distributed.apply")),
    );
    if proposed > 0 {
        sheet.set("distributed.match_rate", accepted as f64 / proposed as f64);
    }
    sheet.set_traced_run(
        (
            engine.current_cost() / engine.history()[0],
            engine.iterations(),
        ),
        (wall_s, reference_s),
        (before, after),
    );

    if let Some(traffic) = engine.gossip_traffic() {
        let per_iter = engine.iterations().max(1) as f64;
        sheet.set("gossip.bytes_per_iter", traffic.bytes as f64 / per_iter);
        sheet.set("gossip.frames_per_iter", traffic.frames as f64 / per_iter);
        let entries = traffic.delta_entries + traffic.full_entries;
        if entries > 0 {
            sheet.set(
                "gossip.delta_entry_share",
                traffic.delta_entries as f64 / entries as f64,
            );
        }
    }
    if let Some(period_ms) = period_ms {
        gossip_probes(
            t,
            sheet,
            engine.instance(),
            &load_samples,
            period_ms,
            spec.seed,
        );
    }
    probes::map_slice_dispatch(t, sheet, m);
}

/// The gossip layers on their own, fed the load vectors the traced
/// engine actually went through (one per sampled iteration), so the
/// deltas they carry are the run's.
fn gossip_probes(
    t: &mut Trace,
    sheet: &mut Sheet,
    instance: &Instance,
    load_samples: &[Vec<f64>],
    period_ms: f64,
    seed: u64,
) {
    let m = instance.len();
    let Some(initial) = load_samples.first() else {
        return;
    };

    let mut step_ms = Vec::new();
    t.span("probe.distributed.feed_step", |_| {
        let mut feed = GossipFeed::new(initial, period_ms, seed);
        for loads in load_samples {
            let started = Instant::now();
            feed.step(instance.latency(), loads);
            step_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        black_box(feed.traffic());
    });
    sheet.set("distributed.feed_step_ms", stats::median(&step_ms));

    t.span("probe.gossip.delta", |_| {
        let config = DeltaGossipConfig {
            period_ms,
            ..Default::default()
        };
        let mut net = DeltaGossip::warm(initial, seed, config);
        let latest = load_samples.last().unwrap_or(initial);
        for (node, load) in latest.iter().enumerate() {
            net.publish(node, *load);
        }
        let started = Instant::now();
        for _ in 0..GOSSIP_PERIODS {
            let until = net.now_ms() + period_ms;
            net.advance(until, |i, j| instance.latency().get(i, j) / 2.0);
        }
        sheet.set(
            "gossip.advance_ms_per_period",
            started.elapsed().as_secs_f64() * 1e3 / GOSSIP_PERIODS as f64,
        );
        let mut view = Vec::new();
        let started = Instant::now();
        for node in 0..m {
            net.view_into(node, &mut view);
            black_box(&view);
        }
        sheet.set(
            "gossip.view_into_us",
            started.elapsed().as_secs_f64() * 1e6 / m as f64,
        );
    });

    t.span("probe.gossip.wire", |_| {
        let entry = |i: usize| WireEntry {
            origin: i as u32,
            version: 3 + i as u64,
            load: 50.0 + i as f64,
        };
        let frame = DeltaFrame {
            shard: 1,
            since: vec![7; 16],
            changed: (0..WIRE_ENTRIES / 2).map(entry).collect(),
            full: (WIRE_ENTRIES / 2..WIRE_ENTRIES).map(entry).collect(),
        };
        let started = Instant::now();
        for _ in 0..WIRE_REPEATS {
            black_box(encode_delta(black_box(&frame)));
        }
        let per_entry = 1e9 / (WIRE_REPEATS * WIRE_ENTRIES) as f64;
        sheet.set(
            "gossip.wire_encode_ns_per_entry",
            started.elapsed().as_secs_f64() * per_entry,
        );
        let bytes = encode_delta(&frame);
        let started = Instant::now();
        for _ in 0..WIRE_REPEATS {
            black_box(decode_delta(bytes.clone()));
        }
        sheet.set(
            "gossip.wire_decode_ns_per_entry",
            started.elapsed().as_secs_f64() * per_entry,
        );
    });
}
