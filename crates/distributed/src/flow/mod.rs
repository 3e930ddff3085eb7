//! Minimum-cost flow substrate.
//!
//! The paper's Appendix reduces the *negative-cycle removal* problem —
//! rerouting relayed requests so that server loads are preserved while
//! total communication cost is minimized — to a minimum-cost
//! maximum-flow computation. This module implements that substrate from
//! scratch, for its two callers in this crate ([`crate::cycles`] and
//! [`crate::error_graph`]):
//!
//! * [`graph::FlowNetwork`] — residual-graph representation with paired
//!   forward/backward edges and `f64` capacities and costs,
//! * [`bellman_ford`] — negative-cycle detection on a weighted digraph,
//!   for the error-graph analysis,
//! * [`ssp`] — successive shortest paths for min-cost max-flow:
//!   Dijkstra on Johnson potentials that start at zero (the networks
//!   built here have no negative-cost edge, so no Bellman–Ford pass),
//! * `cycle_cancel` — negative-cycle cancelling, turning any feasible
//!   flow into a minimum-cost one; compiled for tests only, where it is
//!   the independent cross-check of [`ssp`].

pub mod bellman_ford;
pub mod graph;
pub mod ssp;

pub use graph::{EdgeId, FlowNetwork};

/// Capacities / flows below this are treated as zero.
pub const FLOW_EPS: f64 = 1e-9;

// Test-only (`#![cfg(test)]` inside): the independent cross-check of `ssp`.
mod cycle_cancel;
#[cfg(test)]
mod proptests;
