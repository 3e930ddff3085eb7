//! The harness shared by the benchmark's two binaries.
//!
//! Nothing here touches the workspace's crates: this is process
//! plumbing, timing, statistics, a JSON codec and the benchmark's own
//! tables. `e2e` adds the narrow scenario API on top, `layers` the wide
//! one (see `README.md` for which surface each may use and why).

pub mod args;
pub mod child;
pub mod expected;
pub mod json;
pub mod layer_metrics;
pub mod metrics;
pub mod procfs;
pub mod spans;
pub mod stamp;
pub mod stats;
pub mod workloads;
