//! Random geometric latencies: servers as points in a plane.

use dlb_core::rngutil::rng_for;
use dlb_core::LatencyMatrix;
use rand::Rng;

/// Side length of the square the servers are placed in (interpreted
/// directly in milliseconds of one-way distance).
const SIDE_MS: f64 = 80.0;
/// Constant added to every off-diagonal latency (last-mile /
/// processing overhead).
const BASE_MS: f64 = 2.0;

/// Generates an `m × m` symmetric latency matrix. Distances are
/// Euclidean, so the result is metric by construction.
pub fn generate(m: usize, seed: u64) -> LatencyMatrix {
    let mut rng = rng_for(seed, 0xE0C1);
    let points: Vec<(f64, f64)> = (0..m)
        .map(|_| (rng.gen_range(0.0..=SIDE_MS), rng.gen_range(0.0..=SIDE_MS)))
        .collect();
    let mut lat = LatencyMatrix::zero(m);
    for i in 0..m {
        for j in (i + 1)..m {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            let d = (dx * dx + dy * dy).sqrt() + BASE_MS;
            lat.set(i, j, d);
            lat.set(j, i, d);
        }
    }
    lat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_symmetric_metric_matrix() {
        let lat = generate(20, 7);
        assert_eq!(lat.len(), 20);
        for i in 0..20 {
            assert_eq!(lat.get(i, i), 0.0);
            for j in 0..20 {
                assert_eq!(lat.get(i, j), lat.get(j, i));
            }
        }
        // base + Euclidean distance keeps the triangle inequality.
        assert!(lat.is_metric(1e-9));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(10, 42);
        let b = generate(10, 42);
        let c = generate(10, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn base_latency_is_floor() {
        let lat = generate(15, 1);
        for i in 0..15 {
            for j in 0..15 {
                if i != j {
                    assert!(lat.get(i, j) >= BASE_MS);
                }
            }
        }
    }
}
