//! A decentralized latency-estimation round loop on top of the
//! Vivaldi coordinates: every tick each node probes a few random
//! peers (its RTT samples come from the ground-truth latency matrix,
//! optionally jittered) and refines its coordinate. The converged
//! coordinates yield an estimated latency matrix the load balancer
//! can consume instead of impossible-to-measure full `O(m²)` probing.

use dlb_core::rngutil::rng_for;
use dlb_core::LatencyMatrix;
use rand::rngs::StdRng;
use rand::Rng;

use crate::coords::vivaldi::{Coordinate, VivaldiConfig};

/// Configuration of the estimation process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Vivaldi tuning.
    pub vivaldi: VivaldiConfig,
    /// Random peers probed by each node per tick.
    pub probes_per_tick: usize,
    /// Multiplicative measurement noise: each sample is scaled by
    /// `1 + U(−noise, +noise)`.
    pub measurement_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            vivaldi: VivaldiConfig::default(),
            probes_per_tick: 4,
            measurement_noise: 0.05,
            seed: 0,
        }
    }
}

/// The running estimator: one coordinate per node.
#[derive(Debug, Clone)]
pub struct Estimator {
    coords: Vec<Coordinate>,
    config: EstimatorConfig,
    rng: StdRng,
    ticks: usize,
}

impl Estimator {
    /// Creates an estimator for `m` nodes, all at the origin.
    pub fn new(m: usize, config: EstimatorConfig) -> Self {
        Self {
            coords: (0..m)
                .map(|_| Coordinate::origin(&config.vivaldi))
                .collect(),
            rng: rng_for(config.seed, 0xC00D),
            config,
            ticks: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when the estimator tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// The coordinate of node `i`.
    pub fn coordinate(&self, i: usize) -> &Coordinate {
        &self.coords[i]
    }

    /// Runs one tick: every node samples `probes_per_tick` random
    /// peers from the ground-truth matrix. The RTT is taken as the
    /// symmetrized latency `(c_ij + c_ji)` (an RTT crosses both
    /// directions), halved back when estimating one-way delays.
    pub fn tick(&mut self, truth: &LatencyMatrix) {
        let m = self.coords.len();
        assert_eq!(truth.len(), m, "matrix size must match node count");
        if m < 2 {
            self.ticks += 1;
            return;
        }
        for i in 0..m {
            for _ in 0..self.config.probes_per_tick {
                let mut j = self.rng.gen_range(0..m - 1);
                if j >= i {
                    j += 1;
                }
                let rtt_true = truth.get(i, j) + truth.get(j, i);
                if !rtt_true.is_finite() {
                    continue; // unmeasurable pair (restricted topology)
                }
                let noise = 1.0
                    + self
                        .rng
                        .gen_range(-self.config.measurement_noise..=self.config.measurement_noise);
                let sample = (rtt_true * noise).max(0.0);
                let peer = self.coords[j];
                self.coords[i].update(&peer, sample, &self.config.vivaldi, &mut self.rng);
            }
        }
        self.ticks += 1;
    }

    /// Runs `n` ticks.
    pub fn run(&mut self, truth: &LatencyMatrix, n: usize) {
        for _ in 0..n {
            self.tick(truth);
        }
    }

    /// Estimated *one-way* latency between `i` and `j` (half the
    /// estimated RTT), zero on the diagonal.
    pub fn estimate(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        0.5 * self.coords[i].distance(&self.coords[j])
    }

    /// Builds the full estimated latency matrix.
    pub fn estimated_matrix(&self) -> LatencyMatrix {
        let m = self.coords.len();
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, self.estimate(i, j));
                }
            }
        }
        lat
    }

    /// Median relative error of the estimates against the (symmetrized,
    /// one-way) ground truth — Vivaldi's standard accuracy metric.
    pub fn median_relative_error(&self, truth: &LatencyMatrix) -> f64 {
        let m = self.coords.len();
        let mut errs = Vec::with_capacity(m * (m - 1) / 2);
        for i in 0..m {
            for j in (i + 1)..m {
                let t = 0.5 * (truth.get(i, j) + truth.get(j, i));
                if t <= 0.0 || !t.is_finite() {
                    continue;
                }
                let e = self.estimate(i, j);
                errs.push((e - t).abs() / t);
            }
        }
        if errs.is_empty() {
            return 0.0;
        }
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        errs[errs.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn euclidean_truth(m: usize, seed: u64) -> LatencyMatrix {
        // Points on a plane → a perfectly embeddable matrix.
        let mut rng = rng_for(seed, 0x70);
        let pts: Vec<(f64, f64)> = (0..m)
            .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    let dx = pts[i].0 - pts[j].0;
                    let dy = pts[i].1 - pts[j].1;
                    lat.set(i, j, (dx * dx + dy * dy).sqrt().max(0.5));
                }
            }
        }
        lat
    }

    #[test]
    fn converges_on_embeddable_matrix() {
        let truth = euclidean_truth(30, 5);
        let mut est = Estimator::new(
            30,
            EstimatorConfig {
                measurement_noise: 0.0,
                ..Default::default()
            },
        );
        est.run(&truth, 150);
        let err = est.median_relative_error(&truth);
        assert!(err < 0.12, "median relative error {err} too high");
    }

    #[test]
    fn noise_degrades_gracefully() {
        let truth = euclidean_truth(25, 6);
        let clean = {
            let mut e = Estimator::new(
                25,
                EstimatorConfig {
                    measurement_noise: 0.0,
                    seed: 1,
                    ..Default::default()
                },
            );
            e.run(&truth, 120);
            e.median_relative_error(&truth)
        };
        let noisy = {
            let mut e = Estimator::new(
                25,
                EstimatorConfig {
                    measurement_noise: 0.2,
                    seed: 1,
                    ..Default::default()
                },
            );
            e.run(&truth, 120);
            e.median_relative_error(&truth)
        };
        assert!(noisy < 0.35, "noisy error {noisy} out of control");
        assert!(clean <= noisy + 0.05, "clean {clean} vs noisy {noisy}");
    }

    #[test]
    fn estimated_matrix_is_symmetric_metricish() {
        let truth = euclidean_truth(12, 9);
        let mut est = Estimator::new(12, EstimatorConfig::default());
        est.run(&truth, 100);
        let m = est.estimated_matrix();
        for i in 0..12 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..12 {
                if i != j {
                    assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-9);
                    assert!(m.get(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn single_node_and_empty_are_fine() {
        let truth = LatencyMatrix::zero(1);
        let mut est = Estimator::new(1, EstimatorConfig::default());
        est.run(&truth, 3);
        assert_eq!(est.ticks(), 3);
        assert_eq!(est.estimate(0, 0), 0.0);
    }
}
