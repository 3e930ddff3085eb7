//! # dlb-core — model types for network delay-aware load balancing
//!
//! This crate implements the mathematical model of Skowron & Rzadca,
//! *"Network delay-aware load balancing in selfish and cooperative
//! distributed systems"* (IPDPS 2013):
//!
//! * [`Instance`] — `m` organizations, each owning one server with speed
//!   `s_i` and an initial load of `n_i` unit requests, connected by a
//!   constant-latency network described by a [`LatencyMatrix`].
//! * [`Assignment`] — who executes whose requests: a sparse per-server
//!   ledger of `r_{k→j}` values (requests owned by organization `k`
//!   executing on server `j`), equivalent to the paper's relay-fraction
//!   matrix `ρ` via `r_{kj} = n_k ρ_{kj}`.
//! * [`cost`] — the expected-completion-time objective
//!   `ΣC = Σ_j l_j²/(2 s_j) + Σ_{kj} c_{kj} r_{kj}` and the per-organization
//!   cost `C_i`.
//! * [`workload`] — the initial-load and speed distributions used in the
//!   paper's evaluation (§VI-A): uniform, exponential and peak loads;
//!   constant and `U(1,5)` speeds.
//! * [`plan_text`] — the one typed-value grammar: the range-checked
//!   reader every scenario value, plan primitive and CLI number goes
//!   through, the `KIND:VALUE,…` plan walker, and the one input error,
//!   [`plan_text::SpecError`].
//! * [`events`] — the deterministic `(due, seq)`-ordered virtual-time
//!   event heap shared by every simulation in the workspace (the
//!   protocol executor, scheduled gossip, fault injection).
//!
//! All quantities are `f64`: loads in requests, speeds in requests/ms,
//! latencies in ms, costs in request·ms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignment;
pub mod cost;
pub mod events;
pub mod instance;
pub mod latency;
pub mod plan_text;
pub mod rngutil;
pub mod sparse;
pub mod workload;

pub use assignment::Assignment;
pub use instance::Instance;
pub use latency::LatencyMatrix;
pub use sparse::SparseVec;
pub use workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};

/// Absolute tolerance used when checking conservation invariants
/// (per unit of load).
pub const INVARIANT_TOL: f64 = 1e-6;
