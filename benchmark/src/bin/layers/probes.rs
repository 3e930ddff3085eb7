//! Isolated probes: one public function driven at the workload's own
//! size and on the workload's own instance, timed from outside.
//!
//! A probe is not a share of the run (the spans are); it is the unit
//! cost of one layer operation, so that a change to that layer can be
//! predicted and then found in the end-to-end number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dlb_benchmark::procfs;
use dlb_benchmark::spans::Trace;
use dlb_core::cost::total_cost;
use dlb_core::events::EventHeap;
use dlb_core::{Assignment, Instance};
use dlb_netsim::LinkDelayModel;
use dlb_runtime::{Dest, Frame, NodeConfig, NodeMachine, Outbound, SelectPolicy};
use dlb_topology::k_nearest_row;

use crate::Sheet;

/// Calls per timing loop where one call is nanoseconds.
const MICRO_CALLS: usize = 1_000_000;

/// Machines a `handle` probe drives (or `m`, when smaller).
const PROBE_NODES: usize = 1000;

/// Batches a dispatch probe sends.
const DISPATCH_BATCHES: usize = 200;

/// A cheap deterministic scrambler for probe inputs (SplitMix64 step).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds `f` takes, once: for the timed part of a probe whose span
/// also covers building its inputs.
fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// `LinkDelayModel::one_way_ms` over a million pairs.
pub fn one_way(t: &mut Trace, sheet: &mut Sheet, instance: &Instance, seed: u64) {
    let m = instance.len() as u64;
    let delays = LinkDelayModel::new(instance.latency(), seed);
    let ((), s) = t.timed("probe.netsim.one_way_ms", |_| {
        let mut sum = 0.0;
        for i in 0..MICRO_CALLS as u64 {
            let r = mix(i);
            sum += delays.one_way_ms((r % m) as usize, ((r >> 32) % m) as usize);
        }
        black_box(sum);
    });
    sheet.set("netsim.one_way_ns", s * 1e9 / MICRO_CALLS as f64);
}

/// `EventHeap` push + pop with `resident` events queued, the executor's
/// steady state: pop the earliest, schedule a successor a little later.
pub fn heap(t: &mut Trace, sheet: &mut Sheet, resident: usize) {
    let s = t.span("probe.core.event_heap", |_| {
        let mut heap = EventHeap::new();
        for i in 0..resident as u64 {
            heap.push((mix(i) % 1_000_000) as f64 / 1000.0, i);
        }
        secs(|| {
            for i in 0..MICRO_CALLS as u64 {
                let next = heap.pop().expect("heap stays at its resident size");
                heap.push(next.due + (mix(i) % 50_000) as f64 / 1000.0, next.item);
            }
            black_box(heap.len());
        })
    });
    sheet.set("core.heap_push_pop_ns", s * 1e9 / MICRO_CALLS as f64);
}

/// `cost::total_cost` on `assignment`; returns the cost so the caller
/// can hold it against the run's own figure.
pub fn cost(t: &mut Trace, sheet: &mut Sheet, instance: &Instance, assignment: &Assignment) -> f64 {
    let (value, s) = t.timed("probe.core.total_cost", |_| {
        black_box(total_cost(instance, assignment))
    });
    sheet.set("core.total_cost_ms", s * 1e3);
    value
}

/// Per-owner load conservation: everything an organization owned at the
/// start is still somewhere, and nothing was invented.
pub fn conservation_holds(instance: &Instance, assignment: &Assignment) -> bool {
    let mut totals = vec![0.0f64; instance.len()];
    for j in 0..instance.len() {
        for (owner, amount) in assignment.ledger(j).iter() {
            totals[owner as usize] += amount;
        }
    }
    totals
        .iter()
        .zip(instance.own_loads())
        .all(|(have, own)| (have - own).abs() <= 1e-6 * own.abs().max(1.0))
}

/// `with_pool` + `map_mut` over `m` no-op items: what one executor
/// instant pays to fan out and collect, work excluded. With
/// `DLB_THREADS=1` this is the inline path.
pub fn map_mut_dispatch(t: &mut Trace, sheet: &mut Sheet, m: usize) {
    let s = t.span("probe.par.map_mut", |_| {
        dlb_par::with_pool(
            |x: &mut u64| *x,
            |pool| {
                let mut items: Vec<u64> = (0..m as u64).collect();
                secs(|| {
                    for _ in 0..DISPATCH_BATCHES {
                        let (back, out) = pool.map_mut(std::mem::take(&mut items));
                        black_box(&out);
                        items = back;
                    }
                })
            },
        )
    });
    sheet.set("par.map_mut_dispatch_us", s * 1e6 / DISPATCH_BATCHES as f64);
}

/// `par_map_slice` over `m` no-op items: what one engine propose phase
/// pays to fan out and collect.
pub fn map_slice_dispatch(t: &mut Trace, sheet: &mut Sheet, m: usize) {
    let items: Vec<u64> = (0..m as u64).collect();
    let ((), s) = t.timed("probe.par.map_slice", |_| {
        for _ in 0..DISPATCH_BATCHES {
            black_box(dlb_par::par_map_slice(&items, |x| *x));
        }
    });
    sheet.set(
        "par.map_slice_dispatch_us",
        s * 1e6 / DISPATCH_BATCHES as f64,
    );
}

/// `k_nearest_row(lat, i, k)`: what a top-k machine pays once, on its
/// first round start.
pub fn knearest(t: &mut Trace, sheet: &mut Sheet, instance: &Instance, k: u32) {
    let rows = instance.len().min(200);
    let ((), s) = t.timed("probe.topology.k_nearest_row", |_| {
        for i in 0..rows {
            black_box(k_nearest_row(instance.latency(), i, k as usize));
        }
    });
    sheet.set("topology.knearest_row_us", s * 1e6 / rows as f64);
}

/// Constructs all `m` machines, as the executor does before its first
/// round: time and resident memory per node.
pub fn machine_new(t: &mut Trace, sheet: &mut Sheet, instance: &Instance, config: NodeConfig) {
    let m = instance.len();
    let shared = Arc::new(instance.clone());
    let (s, bytes) = t.span("probe.runtime.machine_new", |_| {
        let mut machines: Vec<Option<NodeMachine>> = Vec::new();
        let before = procfs::rss_bytes().unwrap_or(0);
        let s = secs(|| {
            machines = (0..m)
                .map(|id| Some(NodeMachine::local(id as u32, Arc::clone(&shared), config)))
                .collect();
        });
        let grown = procfs::rss_bytes().unwrap_or(0).saturating_sub(before);
        black_box(&machines);
        (s, grown as f64)
    });
    sheet.set("runtime.machine_new_us", s * 1e6 / m as f64);
    sheet.set("runtime.machine_bytes", bytes / m as f64);
}

fn round_start(round: u64, epoch: u64, loads: &Arc<Vec<f64>>) -> Frame {
    Frame::RoundStart {
        round,
        loads: Arc::clone(loads),
        excluded: Vec::new(),
        epoch,
        hot: Arc::new(Vec::new()),
    }
}

/// The peer a machine just proposed to, if it did.
fn proposed_to(out: &[Outbound]) -> Option<u32> {
    out.iter().find_map(|o| match (o.to, o.frame.as_ref()) {
        (Dest::Node(j), Frame::Propose { .. }) => Some(j),
        _ => None,
    })
}

/// `NodeMachine::handle` on the frames that carry a round's work:
/// `RoundStart` (partner scoring — exact, or top-k with the candidate
/// list rebuilt and cached) and `Accept` (Algorithm 1 on the
/// initiator, against a four-entry partner ledger).
pub fn machine_handle(t: &mut Trace, sheet: &mut Sheet, instance: &Instance, config: NodeConfig) {
    let m = instance.len();
    let n = m.min(PROBE_NODES);
    let shared = Arc::new(instance.clone());
    let loads = Arc::new(instance.own_loads().to_vec());
    let mut machines: Vec<NodeMachine> = (0..n)
        .map(|id| NodeMachine::local(id as u32, Arc::clone(&shared), config))
        .collect();
    let mut out = Vec::new();
    // Closes an open proposal with a refusal, so the machine is free
    // for the next round start (it would defer one otherwise).
    let refuse = |machine: &mut NodeMachine, round: u64, out: &mut Vec<Outbound>| {
        if let Some(j) = proposed_to(out) {
            out.clear();
            machine.handle(&Frame::Busy { from: j, round }, out);
        }
        out.clear();
    };

    t.span("probe.runtime.handle", |_| {
        // Round 1: the first round start (under top-k it also builds
        // the base candidate list; `topology.knearest_row_us` has that).
        let first = round_start(1, 1, &loads);
        let mut first_s = 0.0;
        for machine in &mut machines {
            first_s += secs(|| machine.handle(&first, &mut out));
            refuse(machine, 1, &mut out);
        }
        match config.select {
            SelectPolicy::Exact => {
                sheet.set(
                    "runtime.handle_roundstart_exact_us",
                    first_s * 1e6 / n as f64,
                );
            }
            SelectPolicy::TopK(_) => {
                // Round 2 on a new epoch merges the candidate list
                // again; round 3 on the same epoch reuses it.
                for (round, epoch, name) in [
                    (2, 2, "runtime.handle_roundstart_topk_rebuild_us"),
                    (3, 2, "runtime.handle_roundstart_topk_cached_us"),
                ] {
                    let frame = round_start(round, epoch, &loads);
                    let mut s = 0.0;
                    for machine in &mut machines {
                        s += secs(|| machine.handle(&frame, &mut out));
                        refuse(machine, round, &mut out);
                    }
                    sheet.set(name, s * 1e6 / n as f64);
                }
            }
        }
        // An Accept for the machine's open proposal: the partner's
        // ledger holds its own load and three foreign entries.
        let frame = round_start(4, 2, &loads);
        let (mut s, mut accepted) = (0.0, 0usize);
        for machine in &mut machines {
            machine.handle(&frame, &mut out);
            let Some(j) = proposed_to(&out) else {
                out.clear();
                continue;
            };
            out.clear();
            let own = loads[j as usize];
            let ledger = vec![
                (j, own * 0.7),
                ((j + 1) % m as u32, own * 0.1),
                ((j + 2) % m as u32, own * 0.1),
                ((j + 3) % m as u32, own * 0.1),
            ];
            let accept = Frame::Accept {
                from: j,
                round: 4,
                ledger,
            };
            s += secs(|| machine.handle(&accept, &mut out));
            accepted += 1;
            out.clear();
        }
        if accepted > 0 {
            sheet.set("runtime.handle_accept_us", s * 1e6 / accepted as f64);
        }
    });
}
