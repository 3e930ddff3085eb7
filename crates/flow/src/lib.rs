//! # dlb-flow — minimum-cost flow substrate
//!
//! The paper's Appendix reduces the *negative-cycle removal* problem —
//! rerouting relayed requests so that server loads are preserved while
//! total communication cost is minimized — to a minimum-cost
//! maximum-flow computation. This crate implements that substrate from
//! scratch:
//!
//! * [`graph::FlowNetwork`] — residual-graph representation with paired
//!   forward/backward edges and `f64` capacities and costs,
//! * [`bellman_ford`] — shortest paths and negative-cycle detection on
//!   weighted digraphs (used both by the solvers and by the error-graph
//!   analysis in `dlb-distributed`),
//! * [`ssp`] — successive shortest paths with Johnson potentials
//!   (Dijkstra inner loop) for min-cost max-flow,
//! * [`cycle_cancel`] — negative-cycle cancelling, turning any feasible
//!   flow into a minimum-cost one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bellman_ford;
pub mod cycle_cancel;
pub mod graph;
#[cfg(all(test, feature = "proptests"))]
mod proptests;
pub mod ssp;

pub use graph::{EdgeId, FlowNetwork};

/// Capacities / flows below this are treated as zero.
pub const FLOW_EPS: f64 = 1e-9;
