//! # dlb-faults — deterministic fault & churn injection
//!
//! The paper's protocol (§IV) and the related neighborhood
//! load-balancing results (arXiv cs/0506098, arXiv 1109.6925) analyze
//! convergence under *idealized* communication. This crate makes the
//! other regime measurable: it injects node crashes and recoveries,
//! per-link frame loss, delay-spike windows, network partitions, and
//! slow-but-alive stragglers into the workspace's virtual-time
//! simulation — the protocol executor in `dlb-runtime` — so "how far
//! does §IV degrade when the network misbehaves?" is a scenario, not a
//! thought experiment.
//!
//! Two layers:
//!
//! * [`FaultPlan`] — the *declarative* schedule, with an exact text
//!   round-trip matching the Scenario API's token style
//!   (`crash:0.1@500ms,loss:0.05` parses and [`Display`](std::fmt::Display)s
//!   back). A plan is pure data: fractions, probabilities, windows.
//! * [`FaultScript`] — the plan *compiled for one run*
//!   ([`FaultPlan::compile`] takes the seed and the cluster size):
//!   which concrete nodes crash, which partition side each node is on,
//!   and pure-function per-frame decisions. Every method is a pure
//!   function of `(seed, inputs)` — no interior state, no RNG stream —
//!   so a fault trajectory is bit-reproducible across repeats and
//!   worker-pool sizes, exactly like the executor it gates.
//!
//! ## Drop vs. delay: loss is retransmission latency
//!
//! The script has one consumer, `dlb_runtime::executor`, and it reads
//! loss and partitions through [`FaultScript::reliable_link`]: the §IV
//! exchange moves request ownership — dropping a `Commit` would tear
//! an exchange in half and violate conservation, which is why a real
//! deployment runs it over TCP. There, loss manifests as
//! retransmission latency: each lost attempt adds one retransmission
//! timeout, and a partition ([`FaultScript::crossing_blocked`]) holds
//! crossing frames until it heals. Only frames to *crashed*
//! destinations are truly dropped.
//!
//! ```
//! use dlb_faults::FaultPlan;
//!
//! let plan: FaultPlan = "crash:0.25@500ms..2000ms,loss:0.1".parse().unwrap();
//! assert_eq!(plan.to_string(), "crash:0.25@500ms..2000ms,loss:0.1");
//! let script = plan.compile(7, 20);
//! assert_eq!(script.down_at(1000.0).len(), 5); // 25% of 20 nodes
//! assert!(script.down_at(0.0).is_empty());     // ...but not before 500ms
//! assert!(script.down_at(3000.0).is_empty());  // ...and they recover
//! // Same seed, same script: decisions are pure functions.
//! assert_eq!(script.down_at(1000.0), plan.compile(7, 20).down_at(1000.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod script;

pub use plan::{CrashFault, FaultPlan, LossFault, PartitionFault, SlowFault, SpikeFault};
pub use script::{FaultScript, FaultSummary, LinkOutcome, MAX_RETRANSMITS, RETRANSMIT_MS};

#[cfg(test)]
mod proptests;
