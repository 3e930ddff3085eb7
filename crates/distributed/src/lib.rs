//! # dlb-distributed — the paper's distributed load-balancing algorithm
//!
//! This crate implements the primary contribution of Skowron & Rzadca
//! (IPDPS 2013):
//!
//! * [`transfer`] — **Algorithm 1** (`calcBestTransfer`): the optimal
//!   pairwise exchange between two servers, derived from Lemma 1's
//!   closed-form transfer `Δr = (s_j l_i − s_i l_j − s_i s_j (c_kj −
//!   c_ki)) / (s_i + s_j)` applied per owning organization in ascending
//!   `c_kj − c_ki` order,
//! * [`mine`] — **Algorithm 2** (Min-Error): each server picks the
//!   partner with the largest exact improvement and exchanges requests
//!   with it,
//! * [`engine`] — the iteration engine used in all experiments: in each
//!   iteration every server (in random order) executes Algorithm 2;
//!   includes the pruned partner-selection mode that keeps Figure 2's
//!   5000-server runs tractable, plus incremental `ΣC` tracking,
//! * [`round`] — the batched propose/match/apply round
//!   ([`RoundMode::Batched`]): one outer-parallel partner-choice pass
//!   over all servers, a deterministic conflict-free matching, and
//!   concurrent execution of the matched (ledger-disjoint) exchanges,
//! * [`feed`] — the [`GossipFeed`] adapter that serves each server's
//!   pruned pre-scoring from the delta-gossip control plane
//!   (`dlb-gossip`), the engine's only source of stale load views,
//! * [`error_bound`] — **Proposition 1**: the `(4m+1)·ΔR·Σs_i` bound on
//!   the Manhattan distance to the optimum,
//! * [`error_graph`] — the error-graph construction used by the bound's
//!   no-negative-cycle precondition,
//! * [`cycles`] — the Appendix reduction of negative-cycle removal to
//!   minimum-cost maximum flow,
//! * [`flow`] — the min-cost-flow substrate under those two
//!   (Bellman-Ford, successive shortest paths); they are its only
//!   callers, so it lives here rather than behind a crate wall.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cycles;
pub mod engine;
pub mod error_bound;
pub mod error_graph;
pub mod feed;
pub mod flow;
pub mod mine;
pub mod round;
pub mod transfer;

pub use engine::{ConvergenceReport, Engine, EngineOptions, IterationStats};
pub use feed::GossipFeed;
pub use round::{RoundMode, RoundOutcome, ScoreView};
pub use transfer::{calc_best_transfer, TransferOutcome};
