//! # dlb-topology — latency-matrix substrates
//!
//! The paper evaluates on two kinds of networks (§VI-A): a homogeneous
//! network with `c_ij = 20` ms, and a heterogeneous network whose
//! latencies come from PlanetLab measurements (the iPlane dataset). That
//! dataset is not redistributable, so this crate provides (beside
//! `LatencyMatrix::homogeneous` itself):
//!
//! * [`euclidean`] — random geometric latencies (a standard synthetic
//!   model),
//! * [`planetlab`] — a synthetic PlanetLab-like generator with
//!   geographic clustering, jitter, asymmetry, and *incomplete
//!   measurements completed via shortest paths*, mirroring the paper's
//!   footnote 3,
//! * [`restricted`] — trust-restricted neighbor graphs (forbidden links
//!   become infinite latencies),
//! * [`nearest`] — delay-nearest-k candidate queries (the static half
//!   of the runtime's `select=topk:K` partner index).
//!
//! All generators are deterministic given a seed.
//!
//! The model takes those `c_ij` as known (§II); [`coords`] is the
//! substrate behind that assumption — Vivaldi network coordinates that
//! learn a latency matrix from a few probes per node, judged against
//! the generators above (`dlb estimate`, `ablation_latency_estimation`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coords;
pub mod euclidean;
pub mod nearest;
pub mod planetlab;
pub mod restricted;

pub use euclidean::EuclideanConfig;
pub use nearest::k_nearest_row;
pub use planetlab::PlanetLabConfig;
pub use restricted::{out_degree, restrict_to_k_nearest, restrict_to_neighbors};
