//! # dlb-requestsim — request-level discrete-event validation simulator
//!
//! The analytic model prices a request executed on server `j` at
//! `l_j / 2s_j + c_ij` (expected wait under random order plus network
//! delay). This crate validates that abstraction from first principles
//! by actually *executing* the requests:
//!
//! * [`discretize()`](discretize()) — turns a fractional [`dlb_core::Assignment`] into
//!   integral per-request placements (largest-remainder rounding),
//! * [`sim`] — a discrete-event simulator with two service disciplines:
//!   [`sim::Discipline::RandomOrder`] (the model's assumption: each
//!   server processes its backlog in a uniformly random order) and
//!   [`sim::Discipline::FifoArrival`] (requests become available only
//!   after their network delay and are served first-come-first-served),
//! * [`validate`] — helpers comparing measured average completion times
//!   against the closed-form cost, as used by the model-validation
//!   integration tests,
//! * [`stream`] — the declarative [`ArrivalPlan`] (`poisson:` /
//!   `burst:` / `diurnal:`, exact text round-trip) compiled per run
//!   into a deterministic, RNG-stream-free [`StreamScript`] of
//!   virtual-time arrivals — what the event executor consumes to
//!   rebalance *while* requests flow.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod discretize;
pub mod sim;
pub mod stream;
pub mod validate;

pub use discretize::discretize;
pub use sim::{Discipline, SimConfig, SimResult};
pub use stream::{Arrival, ArrivalPlan, StreamScript};

#[cfg(test)]
mod proptests;
