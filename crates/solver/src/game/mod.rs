//! Selfish organizations and the price of anarchy.
//!
//! Implements §V of the paper: every organization selfishly minimizes
//! the expected completion time `C_i` of its *own* requests.
//!
//! * [`best_response()`](best_response()) — the exact best response of one organization
//!   (a single-row QP solved in closed form by water-filling),
//! * [`dynamics`] — sequential best-response dynamics with the paper's
//!   termination rule (all organizations change their distribution by
//!   less than 1 % in two consecutive rounds),
//! * [`nash`] — ε-Nash verification,
//! * [`poa`] — the price of anarchy: measured ratios, Theorem 1's
//!   closed-form band for homogeneous networks, Lemma 3's equilibrium
//!   load-spread bound, and the tightness construction from the proof.

pub mod best_response;
pub mod dynamics;
pub mod nash;
pub mod poa;

pub use best_response::{best_response, best_response_cost};
pub use dynamics::{run_best_response_dynamics, DynamicsOptions, DynamicsReport};
pub use nash::{epsilon_nash_gap, is_epsilon_nash};
pub use poa::{lemma3_load_spread_bound, theorem1_bounds, theorem1_tight_equilibrium};
