//! The per-layer metric table: one row per number the traced pass
//! prints, in print order. Layers are the workspace's crates; the name
//! before the dot says which.
//!
//! Every workload prints every row. A layer that is not on a workload's
//! path (the fault script on a fault-free run, the gossip feed on an
//! executor run) reads 0 there: zero calls, zero time.

use crate::metrics::Better;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or simulated statistic that repeats bit for bit and is
    /// pinned in `expected.json`; the rest are host timings.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 75] = [
    timing("scenario.parse_us", "us"),
    timing("scenario.build_instance_s", "s"),
    timing("scenario.setup_raw_s", "s"),
    timing("topology.build_latency_s", "s"),
    timing("topology.knearest_row_us", "us"),
    timing("netsim.one_way_ns", "ns"),
    exact("netsim.calls", "count", Lower),
    timing("core.heap_push_pop_ns", "ns"),
    exact("core.heap_ops", "count", Lower),
    timing("core.total_cost_ms", "ms"),
    timing("par.map_mut_dispatch_us", "us"),
    timing("par.map_slice_dispatch_us", "us"),
    timing("process.cpu_s", "s"),
    PerLayer {
        name: "process.cpu_per_wall",
        unit: "ratio",
        better: Higher,
        exact: false,
    },
    timing("process.sys_s", "s"),
    timing("process.minor_faults", "count"),
    timing("runtime.handle_roundstart_exact_us", "us"),
    timing("runtime.handle_roundstart_topk_rebuild_us", "us"),
    timing("runtime.handle_roundstart_topk_cached_us", "us"),
    timing("runtime.handle_accept_us", "us"),
    timing("runtime.machine_new_us", "us"),
    timing("runtime.machine_bytes", "B"),
    timing("runtime.startup_s", "s"),
    timing("runtime.shutdown_s", "s"),
    timing("runtime.round_host_ms_p50", "ms"),
    timing("runtime.round_host_ms_max", "ms"),
    timing("runtime.round_host_ms_first", "ms"),
    exact("runtime.events_total", "count", Lower),
    exact("runtime.frames_delivered", "count", Lower),
    exact("runtime.frames_dropped", "count", Lower),
    exact("runtime.frames_held", "count", Lower),
    exact("runtime.timers_fired", "count", Lower),
    exact("runtime.proposals", "count", Lower),
    exact("runtime.exchanges_committed", "count", Higher),
    exact("runtime.exchanges_aborted", "count", Lower),
    exact("runtime.commit_per_propose", "ratio", Higher),
    timing("runtime.host_us_per_event", "us"),
    exact("runtime.sim_s", "s", Lower),
    exact("runtime.event_hash", "hash53", Lower),
    exact("runtime.detector_suspicions", "count", Lower),
    exact("runtime.detector_false_positives", "count", Lower),
    exact("runtime.detector_latency_ms", "ms", Lower),
    exact("runtime.aborted_exchanges", "count", Lower),
    exact("runtime.stream_served", "count", Higher),
    exact("runtime.stream_dropped_share", "ratio", Lower),
    exact("runtime.stream_p99_ms", "ms", Lower),
    timing("runtime.trace_overhead_pct", "%"),
    timing("distributed.iteration_ms_p50", "ms"),
    timing("distributed.iteration_ms_max", "ms"),
    timing("distributed.propose_ms", "ms"),
    timing("distributed.match_ms", "ms"),
    timing("distributed.apply_ms", "ms"),
    exact("distributed.match_rate", "ratio", Higher),
    timing("distributed.feed_step_ms", "ms"),
    timing("gossip.advance_ms_per_period", "ms"),
    timing("gossip.view_into_us", "us"),
    exact("gossip.bytes_per_iter", "B", Lower),
    exact("gossip.frames_per_iter", "count", Lower),
    exact("gossip.delta_entry_share", "ratio", Higher),
    timing("gossip.wire_encode_ns_per_entry", "ns"),
    timing("gossip.wire_decode_ns_per_entry", "ns"),
    timing("faults.compile_ms", "ms"),
    timing("faults.reliable_link_ns", "ns"),
    exact("faults.dropped_frames", "count", Lower),
    exact("faults.delayed_frames", "count", Lower),
    timing("requestsim.compile_ms", "ms"),
    exact("requestsim.arrivals", "count", Higher),
    timing("obs.emit_ns", "ns"),
    timing("obs.metrics_fold_ms", "ms"),
    timing("obs.framelog_encode_ms", "ms"),
    exact("obs.framelog_bytes", "B", Lower),
    exact("trace.cost_ratio", "ratio", Lower),
    exact("trace.rounds", "count", Lower),
    timing("trace.wall_s", "s"),
    timing("trace.span_coverage", "ratio"),
];
