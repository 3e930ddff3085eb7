//! §VII: heterogeneous tasks and replication.
//!
//! The base model assumes unit-size requests. Section VII of the paper
//! extends it in two directions, both implemented here:
//!
//! * **Tasks of different processing times** — solve the fractional
//!   problem with `n_i = Σ_k p_i(k)`, then *round*: partition each
//!   organization's task set so that the total size sent to each server
//!   matches the fractional prescription. This is the multiple subset
//!   sum problem (NP-complete; the paper cites a PTAS); [`rounding`]
//!   ships a greedy largest-first heuristic with local-search polish and
//!   a per-server error bounded by the largest task size.
//! * **R-replication** — every task must run at `R` distinct locations.
//!   The fractional problem gains the cap `ρ_ij ≤ 1/R`, after which
//!   `R·ρ_ij` is a valid inclusion probability; [`replication`] realizes
//!   placements with Madow systematic sampling, which picks exactly `R`
//!   distinct servers with those marginals.

pub mod replication;
pub mod rounding;
pub mod tasks;

pub use replication::place_replicas;
pub use rounding::{round_tasks, rounding_error};
pub use tasks::TaskSet;
