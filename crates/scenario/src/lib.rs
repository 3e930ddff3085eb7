//! # dlb-scenario — one declarative spec drives every system
//!
//! The paper evaluates a single model under many regimes: cooperative
//! vs. selfish (§V), sequential vs. batched rounds, a message-passing
//! deployment, homogeneous vs. PlanetLab-like topologies. This crate
//! gives every such regime a *name*:
//!
//! * [`ScenarioSpec`] declaratively describes an experiment — topology,
//!   workload, algorithm, termination — in one text form
//!   (`"algo=batched net=pl m=500 load=peak seed=7"` parses to a spec
//!   and a spec [`Display`](std::fmt::Display)s back to that text), so
//!   the same value travels through `dlb run` tokens, bench grids, and
//!   committed JSON records identically. The text is the only
//!   constructor; code that computes a value sets the field of the
//!   same name by struct update (`..spec.clone()` from a spec it keeps
//!   using: a spec is `Clone`, not `Copy`). The keys and the
//!   rules for which `algo` honours which of them are one table:
//!   [`ScenarioSpec::validate`] reads a spec's own text back and
//!   applies the rules, `parse` ends with it and `run` begins with it,
//!   so a spec built any way is refused exactly where its text would be.
//! * [`ScenarioSpec::build_instance`] is the **single sampling path**:
//!   the CLI, every bench harness, and the examples draw their §VI-A
//!   instances here, so equal seeds mean equal instances everywhere.
//! * [`ScenarioSpec::run`] executes a spec on the system its `algo`
//!   names — the iteration engine (sequential or batched rounds),
//!   best-response dynamics, the message-passing cluster, or the BCD
//!   solver baseline — and every runner emits the same [`RunRecord`]
//!   (cost trajectory, iterations, convergence flag, wall time).
//! * `algo=protocol` runs on the deterministic virtual-time executor
//!   with per-link delays sampled from `dlb-netsim`, which hosts
//!   Figure-2-scale clusters in one process and records *simulated
//!   protocol seconds* as the run's time.
//! * The `faults=` axis schedules deterministic fault injection for
//!   `algo=protocol` scenarios (`faults=crash:0.1@500ms,loss:0.05`):
//!   node crashes/recoveries, per-link loss, delay spikes, and
//!   partitions from `dlb-faults`, compiled per run with the
//!   scenario's seed. The [`RunRecord`] carries the resulting
//!   fault-event summary.
//! * The `gossip=` axis picks the control plane behind the engine
//!   algorithms' partner scoring: none (`gossip=emulated`, the
//!   default: live loads) or the delta-gossip protocol
//!   (`gossip=event:100ms`) from `dlb-gossip`, with per-server stale
//!   views and every byte metered in the [`RunRecord`]'s
//!   [`GossipTraffic`] summary.
//! * The `trace=` axis turns on the `dlb-obs` observability plane for
//!   `algo=protocol` scenarios: `trace=summary` folds the virtual-time
//!   event stream into the record's `obs_*` metric group as it is
//!   emitted, and `trace=frames:FILE` also keeps it, as a binary frame
//!   log that [`replay_frame_log`] re-executes bit-exactly (the
//!   recorded `event_hash` is computed *before* any tracing hook runs,
//!   so untraced runs stay byte-identical). `trace=off` (the default)
//!   compiles the hooks away through a `NullSink`.
//! * [`results`] and [`report`] are the record plane's two ends, over
//!   one row type, [`results::Record`]: the JSON-lines writer behind
//!   `dlb run --out`, the bench harnesses and the committed
//!   `BENCH_*.json` (a [`RunRecord`]'s keys are one field table), and
//!   the parser and table renderer behind `dlb report`.
//!
//! ```
//! use dlb_scenario::ScenarioSpec;
//!
//! let spec: ScenarioSpec = "algo=batched m=30 seed=7".parse().unwrap();
//! assert_eq!(spec.to_string(), "algo=batched net=homog m=30 seed=7");
//! let run = spec.run();
//! assert!(run.final_cost() <= run.initial_cost());
//!
//! // A computed value is a struct update; `run` validates it first.
//! let bigger = ScenarioSpec { m: 2 * spec.m, ..spec };
//! assert_eq!(bigger.run().m, 60);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod replay;
pub mod report;
pub mod results;
pub mod runner;
pub mod spec;

pub use replay::{replay_frame_log, ReplayReport};
pub use runner::RunRecord;
pub use spec::{
    AlgoSpec, DetectSpec, GossipSpec, NetSpec, ScenarioSpec, SelectSpec, SpecError, SpeedKind,
    TraceSpec,
};

// The fault axis's plan/summary types, so spec-level callers need no
// direct dlb-faults dependency.
pub use dlb_faults::{FaultPlan, FaultSummary};

// The gossip axis's traffic summary, so record consumers need no
// direct dlb-gossip dependency.
pub use dlb_gossip::GossipTraffic;

#[cfg(test)]
mod proptests;
