//! Instance sampling shared by the runtime integration-test binaries,
//! so the determinism and parity suites exercise the same workloads.

use dlb_core::rngutil::rng_for;
use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
use dlb_core::{Instance, LatencyMatrix};
use dlb_faults::FaultPlan;
use rand::Rng;

/// A metric, asymmetry-free stand-in for measured PlanetLab latencies.
pub fn planetlab_like(m: usize, seed: u64) -> LatencyMatrix {
    let mut rng = rng_for(seed, 0xBA7C);
    let mut lat = LatencyMatrix::zero(m);
    for i in 0..m {
        for j in 0..m {
            if i != j {
                lat.set(i, j, rng.gen_range(2.0..80.0));
            }
        }
    }
    lat.metric_close();
    lat
}

/// Samples a §VI-A workload over the given latency substrate.
pub fn workload(dist: LoadDistribution, avg: f64, lat: LatencyMatrix, seed: u64) -> Instance {
    let mut rng = rng_for(seed, 0xF12);
    WorkloadSpec {
        loads: dist,
        avg_load: avg,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(lat, &mut rng)
}

/// A fault plan from its `faults=` text.
pub fn faults(text: &str) -> FaultPlan {
    text.parse().unwrap()
}
