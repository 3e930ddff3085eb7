//! # dlb-solver — what the paper computes centrally, on the dense state
//!
//! Everything here sees the whole instance at once: the cooperative
//! optimum (§III), the selfish equilibrium (§V, [`game`]) and the §VII
//! roundings ([`extensions`]). None of it is on the protocol's path or
//! a gated benchmark workload; the distributed algorithm is judged
//! against it.
//!
//! The paper (§III) shows that minimizing the total processing time
//! `ΣC = ρᵀQρ + bᵀρ` over the product of per-organization simplexes is a
//! convex quadratic program, solvable in polynomial time — but with
//! `O(L m⁶)` standard-solver complexity, which motivates the distributed
//! algorithm. These modules play the "standard solver" role:
//!
//! * [`qp`] — the explicit sparse `Q` matrix and `b` vector of §III
//!   (Figure 1), with a matrix-form objective evaluator used to validate
//!   the model,
//! * [`dense`] — dense request-matrix representation, objective and
//!   gradient evaluation, Frank-Wolfe optimality gap,
//! * [`projection`] — Euclidean projection onto (capped) simplexes,
//! * [`pgd`] — FISTA-accelerated projected gradient descent (the
//!   generic solver) and exact block-coordinate descent (the optimum
//!   oracle behind `algo=bcd`),
//! * [`waterfill`] — the exact KKT water-filling solver for single-row
//!   quadratic programs (the kernel of selfish best responses),
//! * [`bruteforce`] — grid-search reference optima for tiny instances
//!   (test support).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bruteforce;
pub mod dense;
pub mod extensions;
pub mod game;
pub mod pgd;
pub mod projection;
pub mod qp;
pub mod waterfill;

pub use dense::{dense_to_assignment, objective, DenseState};
pub use pgd::{solve_bcd, solve_pgd, PgdOptions, SolveReport};

/// Default relative Frank-Wolfe-gap tolerance for the iterative solvers.
pub const DEFAULT_TOL: f64 = 1e-7;
