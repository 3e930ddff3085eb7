//! Decentralized latency estimation.
//!
//! The load balancer's model (§II of the paper) assumes the pairwise
//! communication latencies `c_ij` are known, citing network-coordinate
//! systems as the standard solution ("monitoring the pairwise
//! latencies … is a well studied problem with known solutions"). This
//! module provides that substrate: a Vivaldi-style coordinate system
//! ([`vivaldi`]) in which every node learns a low-dimensional embedding
//! of the RTT space from a few random probes per tick ([`estimator`]),
//! turning `O(m²)` measurements into `O(m)` state per node — the same
//! input budget as the distributed balancing algorithm itself.
//!
//! The integration tests (and `ablation_latency_estimation`) close the
//! loop: running the balancing engine on *estimated* latencies costs
//! only a few percent of `ΣC` versus ground truth, which is the
//! justification the paper leans on when it assumes `c_ij` as given.
//!
//! ```
//! use dlb_core::LatencyMatrix;
//! use dlb_topology::coords::{Estimator, EstimatorConfig};
//!
//! let truth = LatencyMatrix::homogeneous(10, 20.0);
//! let mut est = Estimator::new(10, EstimatorConfig::default());
//! est.run(&truth, 60);
//! // Homogeneous 20ms one-way → 40ms RTTs; estimates land nearby.
//! let e = est.estimate(0, 5);
//! assert!(e > 5.0 && e < 60.0);
//! ```

pub mod estimator;
pub mod vivaldi;

pub use estimator::{Estimator, EstimatorConfig};
pub use vivaldi::{Coordinate, VivaldiConfig, DIM};
