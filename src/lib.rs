//! # delay-lb — network delay-aware load balancing
//!
//! A Rust implementation of Skowron & Rzadca, *"Network delay-aware
//! load balancing in selfish and cooperative distributed systems"*
//! (IPDPS 2013, arXiv:1212.0421).
//!
//! The model: `m` organizations, each owning a server (speed `s_i`) and
//! producing `n_i` unit requests; constant pairwise network latencies
//! `c_ij`; the observed latency of a request is the sum of its network
//! delay and the congestion-dependent handling time `l_j / 2s_j`. The
//! library covers both the *cooperative* problem (minimize the total
//! processing time `ΣC`) and the *selfish* one (each organization
//! minimizes its own `C_i`; we compute Nash equilibria and the price of
//! anarchy).
//!
//! ## Quick start
//!
//! Every evaluation regime — cooperative vs. selfish, sequential vs.
//! batched rounds, message-passing deployment, homogeneous vs.
//! PlanetLab-like networks — is named by one declarative
//! [`ScenarioSpec`](scenario::ScenarioSpec), written as `key=value`
//! text:
//!
//! ```
//! use delay_lb::prelude::*;
//!
//! // The paper's default §VI-A setting, batched rounds, 30 servers.
//! let spec: ScenarioSpec = "algo=batched m=30 seed=7 budget=100".parse().unwrap();
//!
//! // A spec prints back to its canonical text, so the same value
//! // travels through CLI flags, bench grids, and JSON records:
//! assert_eq!(spec.to_string(), "algo=batched net=homog m=30 seed=7 budget=100");
//!
//! // A computed value is a struct update; the field names are the keys.
//! // A spec is `Clone`, not `Copy`: one still in use takes `.clone()`.
//! let wider = ScenarioSpec {
//!     m: 2 * spec.m,
//!     ..spec.clone()
//! };
//! assert_eq!(wider.to_string(), "algo=batched net=homog m=60 seed=7 budget=100");
//!
//! // Run it; every runner emits the same RunRecord shape.
//! let run = spec.run();
//! assert!(run.converged);
//! assert!(run.final_cost() < run.initial_cost());
//!
//! // The engine API underneath stays available for custom drives;
//! // `build_instance` is the one sampling path everything shares.
//! let mut engine = Engine::new(spec.build_instance(), EngineOptions::default());
//! engine.run_iteration();
//! ```
//!
//! The `dlb` binary exposes the same surface from a shell
//! (`dlb run algo=batched net=pl m=500 load=peak seed=7`,
//! `dlb report BENCH_figure2.json`).
//!
//! ## Testing with the virtual clock
//!
//! `algo=protocol` hosts the message-passing protocol on the
//! [`runtime`] crate's event executor: a deterministic
//! virtual-time heap with per-link delays sampled from [`netsim`],
//! which puts Figure-2-scale clusters (m = 5000) in one process and
//! makes protocol tests *reproducible* — one seed gives one event
//! order, bit-identical across repeats and `DLB_THREADS` values, so a
//! test can assert on exact histories instead of racing real threads:
//!
//! ```
//! use delay_lb::prelude::*;
//!
//! let spec: ScenarioSpec = "algo=protocol m=40 seed=7".parse().unwrap();
//! let (a, b) = (spec.run(), spec.run());
//! assert_eq!(a, b); // whole records reproduce, wall_secs included:
//! assert!(a.wall_secs > 0.0); // ...it carries *simulated* seconds
//! ```
//!
//! The same pattern is available below the scenario layer as
//! [`runtime::run_cluster_events`] (pass any `delay(i, j)` function).
//!
//! ## Scaling partner selection: `select=topk:K`
//!
//! The protocol's per-round partner scan is the runtime's O(m²) wall:
//! every node scoring every peer caps event rounds near m = 5000. The
//! `select=` axis swaps the scan for a delay-aware candidate index —
//! each node ranks its K nearest peers (from its latency column) once,
//! merges in the gossiped *hot set* (the most- and least-loaded
//! nodes, which the coordinator derives each round), and scores just
//! that slate. Selection quality stays within ~1 % of the exact scan
//! while rounds go from O(m²) to O(m·K):
//!
//! ```
//! use delay_lb::prelude::*;
//!
//! let topk: ScenarioSpec = "algo=protocol m=60 select=topk:8"
//!     .parse()
//!     .unwrap();
//! let exact = ScenarioSpec {
//!     select: SelectSpec::Exact,
//!     ..topk.clone()
//! };
//! let (a, b) = (topk.run(), exact.run());
//! assert!(a.converged && b.converged);
//! let drift = (a.final_cost() - b.final_cost()).abs() / b.final_cost();
//! assert!(drift <= 0.01, "topk within 1% of exact (drift {drift})");
//! ```
//!
//! With it, Figure-2-style measurements reach cluster scale in one
//! process — `dlb run algo=protocol m=100000 net=homog
//! select=topk:32 patience=8` completes with near-linear seconds per
//! round. Top-k runs stay bit-deterministic per seed (the candidate
//! slates are pure functions of the instance and the round's view),
//! so the reproducibility guarantees above carry over unchanged.
//!
//! ## Fault & churn injection
//!
//! The `faults=` axis turns the deterministic executor into an
//! adversarial testbed: a declarative [`faults::FaultPlan`] schedules
//! node crashes/recoveries, per-link frame loss, delay spikes, and
//! network partitions at virtual instants, and the scenario's seed
//! compiles it into a concrete per-run script — so one seed fixes the
//! workload, the link delays, *and* the fault trajectory, and a run
//! under `crash:0.1@500ms,loss:0.05` reproduces bit for bit:
//!
//! ```
//! use delay_lb::prelude::*;
//!
//! let spec: ScenarioSpec =
//!     "algo=protocol m=30 faults=crash:0.2@100ms,loss:0.1"
//!         .parse()
//!         .unwrap();
//! let (a, b) = (spec.run(), spec.run());
//! assert_eq!(a, b); // the fault trajectory replays exactly
//! assert_eq!(a.faults.crashes, 6); // 20% of 30 nodes went down...
//! assert!(a.converged); // ...and the survivors still converged
//! ```
//!
//! Crashed nodes drop out of the next round (the survivors keep
//! balancing; a victim's ledger freezes so conservation stays exact),
//! and loss and spikes stretch the simulated protocol time the record
//! reports. The shell form is
//! `dlb run algo=protocol faults=crash:0.1@500ms,loss:0.05 m=2000`.
//!
//! ## In-protocol failure detection: `detect=`
//!
//! By default the coordinator learns liveness from the fault script
//! itself — an *oracle*, fine for parity tests but nothing a
//! deployment could have. The `detect=` axis replaces it with an
//! in-protocol failure detector: `timeout:MS` suspects any node
//! silent `MS` past the round start, `adaptive` learns each node's
//! report cadence (a phi-accrual-style estimator, no RNG) and sets
//! per-node deadlines. Suspected nodes are excluded from the next
//! round; a wrongly suspected straggler that reports late is
//! re-admitted through a probation handshake with exact load
//! conservation; exchanges carry their own retransmission timeout, so
//! a proposer whose partner dies mid-exchange aborts and rolls back
//! rather than leaking load. The record's `detector` summary says
//! what happened:
//!
//! ```
//! use delay_lb::prelude::*;
//!
//! let spec: ScenarioSpec =
//!     "algo=protocol m=24 avg=60 seed=11 patience=5 budget=800 \
//!      faults=crash:0.2@150ms,slow:0.2@4x detect=adaptive"
//!         .parse()
//!         .unwrap();
//! let (a, b) = (spec.run(), spec.run());
//! assert_eq!(a, b); // suspicion/rejoin replay exactly, too
//! assert!(a.converged);
//! assert!(a.detector.suspicions > 0); // crashes noticed from silence
//! assert!(a.detector.detection_latency_ms > 0.0); // in virtual ms
//! ```
//!
//! `detect=oracle` stays the baseline (byte-identical to the
//! pre-detector runtime); `slow:FRAC@Fx` stragglers exist to exercise
//! the false-positive path — see `BENCH_detector.json` for the
//! detection-latency / false-positive trade curve. The shell form is
//! `dlb run algo=protocol m=2000
//! faults=crash:0.1@500ms..2000ms,slow:0.05@4x detect=adaptive`.
//!
//! ## Streaming: live arrivals on the virtual clock
//!
//! Everything above balances a *closed* system: the workload is
//! sampled once and the protocol quiesces. The `arrivals=` axis opens
//! it — an [`requestsim::stream::ArrivalPlan`] names deterministic
//! request processes (`poisson:RATE`, `burst:RATE@Tms..Tms`,
//! `diurnal:RATE@PERIODms`, rates in requests per second of virtual
//! time), the scenario's seed compiles it into a concrete arrival
//! script over a `duration=` horizon, and the event executor delivers
//! each request to its home organization *while the protocol runs*:
//! deposits land where the protocol has placed that organization's
//! load, service completes at the host's speed, and the coordinator
//! keeps rebalancing until the stream drains instead of quiescing.
//! The record's `stream` summary carries the SLO view — requests
//! served and dropped (a crashed host drops its in-flight work),
//! p50/p99 sojourn in virtual ms, and how long the cluster spent
//! imbalanced:
//!
//! ```
//! use delay_lb::prelude::*;
//!
//! let spec: ScenarioSpec =
//!     "algo=protocol m=12 avg=60 seed=7 patience=9 \
//!      arrivals=poisson:150,burst:300@200ms..600ms duration=1200"
//!         .parse()
//!         .unwrap();
//! let (a, b) = (spec.run(), spec.run());
//! assert_eq!(a, b); // arrival times and routing draws replay exactly
//! assert!(a.stream.served > 0);
//! assert_eq!(a.stream.dropped, 0); // no crashes scheduled
//! assert!(a.stream.p50_ms <= a.stream.p99_ms); // sojourn percentiles
//! ```
//!
//! The axis composes with `faults=` and `detect=` (crash the cluster
//! mid-stream and measure the p99 cost of detection lag) and with
//! `select=topk:K` for cluster-scale runs. An unstreamed scenario is
//! byte-identical to the pre-streaming runtime. The shell form is
//! `dlb run algo=protocol m=2000
//! arrivals=poisson:500,burst:2000@1000ms..2000ms duration=4000`.
//!
//! ## The gossip control plane: `gossip=`
//!
//! The engine algorithms score partners on load views the paper
//! assumes are "disseminated by a gossiping algorithm" (§IV). The
//! `gossip=` axis says which control plane provides them: the default
//! `emulated` runs none and scores on live loads, while
//! `event:PERIODms` runs the real thing from [`gossip`]: one
//! delta-gossip node per server exchanging sharded, delta-encoded
//! frames every `PERIOD` virtual ms over the instance's own link
//! delays, advanced `⌈log2 m⌉` periods per engine iteration (the
//! paper's speed ratio). Views are genuinely per-server and genuinely
//! stale, every byte is metered in the record's `gossip` summary, and
//! the steady-state traffic is O(changed entries) rather than O(m)
//! per frame — ≥10× below full-view push-pull at m = 5000 (see
//! `BENCH_gossip.json`):
//!
//! ```
//! use delay_lb::prelude::*;
//!
//! let spec: ScenarioSpec = "algo=batched m=30 seed=3 gossip=event:100ms"
//!     .parse()
//!     .unwrap();
//! let run = spec.run();
//! assert!(run.converged);
//! assert!(run.gossip.bytes > 0); // real frames moved on the wire
//!
//! // Fed by real gossip, the engine lands where fresh scoring does:
//! let fresh = ScenarioSpec {
//!     gossip: GossipSpec::Emulated,
//!     ..spec
//! };
//! let fresh = fresh.run();
//! assert!(run.final_cost() <= fresh.final_cost() * 1.01);
//! assert!(fresh.gossip.is_quiet()); // the default moves no bytes
//! ```
//!
//! The shell form is `dlb run algo=batched net=pl m=500
//! gossip=event:100ms`, and `dlb report BENCH_gossip.json` renders the
//! dissemination-cost, steady-state-bandwidth, and staleness-ablation
//! tables.
//!
//! ## Observability: `trace=` and bit-exact replay
//!
//! The [`obs`] crate is a deterministic trace/metrics plane stamped in
//! *virtual* time. The `trace=` axis turns it on for
//! `algo=protocol` scenarios: `trace=summary` folds the
//! event stream into the record's `obs_*` metric group (per-kind
//! counts and an RNG-free log-bucketed frame-latency histogram,
//! bit-identical across `DLB_THREADS` values), and `trace=frames:FILE` additionally writes a binary
//! [`obs::FrameLog`] — every frame delivery, drop, hold, round phase,
//! exchange verdict, detector decision, and stream event, plus the
//! run's `event_hash` in the trailer. Because the executor is
//! deterministic, a frame log is *replayable*: re-deriving the run
//! from the log's own scenario header must reproduce every recorded
//! event bit for bit. With tracing off, the hooks compile down to a
//! [`obs::NullSink`] whose `enabled()` is a constant `false` — records
//! stay byte-identical to the untraced runtime, at zero measured cost
//! (`BENCH_obs.json` pins < 1% at m = 5000):
//!
//! ```
//! use delay_lb::prelude::*;
//!
//! // Record: trace=frames:FILE writes the binary frame log.
//! let log_path = std::env::temp_dir().join("delay_lb_doc_obs.dlbf");
//! let spec: ScenarioSpec = format!(
//!     "algo=protocol m=16 seed=3 trace=frames:{}",
//!     log_path.display()
//! )
//! .parse()
//! .unwrap();
//! let run = spec.run();
//! assert!(run.obs.events > 0); // the obs_* record group is live
//!
//! // Replay: re-derive the run from the log's own header and prove
//! // bit-exactness — events, event_hash, and outcomes all match.
//! let bytes = std::fs::read(&log_path).unwrap();
//! let replay = replay_frame_log(&bytes).unwrap();
//! assert!(replay.is_exact(), "{:?}", replay.divergence);
//! assert_eq!(replay.replayed_hash, replay.recorded.event_hash);
//! # std::fs::remove_file(&log_path).ok();
//! ```
//!
//! The shell forms: `dlb run algo=protocol m=2000
//! faults=crash:0.1@500ms detect=adaptive trace=frames:run.dlbf`
//! records; `dlb trace replay run.dlbf` verifies (non-zero exit naming
//! the first divergence otherwise); `dlb trace show run.dlbf --kind
//! detector` renders a filtered aligned table; `dlb trace chrome
//! run.dlbf --out run.json` exports Chrome trace-event JSON for
//! `chrome://tracing` / Perfetto.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | instance/assignment model, cost functions, workloads |
//! | [`scenario`] | declarative ScenarioSpec → RunRecord experiment API; `scenario::{results, report}`: the JSON-lines `Record` the sinks write and `dlb report` draws |
//! | [`topology`] | homogeneous latencies and the two fixed generators, `euclidean::generate` / `planetlab::generate`; [`coords`]: their estimation by Vivaldi coordinates |
//! | [`solver`] | computed centrally on the dense state: the §III QP (block-coordinate descent, capped or not, over water-filling rows); [`game`]: Nash dynamics, price of anarchy (§V); [`extensions`]: §VII tasks, R-replication |
//! | [`distributed`] | Algorithms 1 & 2, the engine, Proposition 1, cycle removal; [`flow`]: its min-cost max-flow substrate (paper Appendix) |
//! | [`gossip`] | the load-dissemination control plane: delta gossip on a virtual-time heap, sharded delta-encoded frames |
//! | [`requestsim`] | request-level DES validating the cost model |
//! | [`netsim`] | flow-level network sim (Table IV) |
//! | [`runtime`] | the protocol deployed: poll-style state machines, wire frames, and the deterministic virtual-time event executor |
//! | [`faults`] | deterministic fault & churn injection: crash/recover, loss, delay spikes, partitions |
//! | [`obs`] | deterministic observability: virtual-time trace events, RNG-free metrics, replayable frame logs |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dlb_core as core;
pub use dlb_distributed as distributed;
pub use dlb_distributed::flow;
pub use dlb_faults as faults;
pub use dlb_gossip as gossip;
pub use dlb_netsim as netsim;
pub use dlb_obs as obs;
pub use dlb_par as par;
pub use dlb_requestsim as requestsim;
pub use dlb_runtime as runtime;
pub use dlb_scenario as scenario;
pub use dlb_solver as solver;
pub use dlb_solver::{extensions, game};
pub use dlb_topology as topology;
pub use dlb_topology::coords;

/// The most common imports in one place.
pub mod prelude {
    pub use dlb_core::cost::{org_cost, total_cost};
    pub use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
    pub use dlb_core::{Assignment, Instance, LatencyMatrix};
    pub use dlb_distributed::{Engine, EngineOptions, GossipFeed, RoundMode};
    pub use dlb_faults::{FaultPlan, FaultScript, FaultSummary};
    pub use dlb_gossip::{DeltaGossip, DeltaGossipConfig, GossipTraffic};
    pub use dlb_obs::{FrameLog, MetricSet, ObsSummary, TraceEvent, TraceKind, TraceSink, Trailer};
    pub use dlb_requestsim::stream::{ArrivalPlan, StreamScript};
    pub use dlb_runtime::{
        run_cluster_events, run_cluster_events_observed, ClusterOptions, DetectMode,
        DetectorSummary, StreamSummary, VirtualClock,
    };
    pub use dlb_scenario::{
        replay_frame_log, AlgoSpec, DetectSpec, GossipSpec, NetSpec, ReplayReport, RunRecord,
        ScenarioSpec, SelectSpec, SpeedKind, TraceSpec,
    };
    pub use dlb_solver::game::{
        epsilon_nash_gap, run_best_response_dynamics, theorem1_bounds, DynamicsOptions,
    };
    pub use dlb_solver::solve_bcd;
    pub use dlb_topology::planetlab;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let instance = Instance::homogeneous(3, 1.0, 5.0, 30.0);
        let mut engine = Engine::new(instance.clone(), EngineOptions::default());
        engine.run_iteration();
        assert!(total_cost(&instance, engine.assignment()).is_finite());
    }
}
