//! The Vivaldi network-coordinate algorithm (Dabek et al., SIGCOMM'04)
//! with height vectors.
//!
//! Each node keeps a point in a low-dimensional Euclidean space plus a
//! *height* modelling the access-link detour; the estimated RTT
//! between two nodes is the Euclidean distance of their points plus
//! both heights. A node refines its coordinate with every RTT sample
//! through a spring-relaxation step whose gain adapts to the relative
//! confidence (`error`) of the two endpoints, so stable nodes are not
//! yanked around by freshly joined ones.

use rand::Rng;

/// Dimensionality of the coordinate space. 2–5 are typical; Vivaldi's
/// evaluation found 2D+height captures Internet RTTs well.
pub const DIM: usize = 3;

/// Tuning constants from the Vivaldi paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VivaldiConfig {
    /// Gain of the coordinate correction (`c_c`).
    pub cc: f64,
    /// Gain of the error-estimate EWMA (`c_e`).
    pub ce: f64,
    /// Initial per-node error estimate (relative).
    pub initial_error: f64,
    /// Floor for heights (a node can never have a negative last-mile).
    pub min_height: f64,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        Self {
            cc: 0.25,
            ce: 0.25,
            initial_error: 1.0,
            min_height: 1.0e-3,
        }
    }
}

/// One node's coordinate state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coordinate {
    /// Position in the Euclidean component.
    pub pos: [f64; DIM],
    /// Height (non-Euclidean last-mile component).
    pub height: f64,
    /// Relative error estimate (confidence; lower is better).
    pub error: f64,
}

impl Coordinate {
    /// A fresh coordinate at the origin with maximal uncertainty.
    pub fn origin(config: &VivaldiConfig) -> Self {
        Self {
            pos: [0.0; DIM],
            height: config.min_height,
            error: config.initial_error,
        }
    }

    /// Estimated RTT to `other`: Euclidean distance plus both heights.
    pub fn distance(&self, other: &Coordinate) -> f64 {
        let mut d2 = 0.0;
        for k in 0..DIM {
            let d = self.pos[k] - other.pos[k];
            d2 += d * d;
        }
        d2.sqrt() + self.height + other.height
    }

    /// Applies one Vivaldi update from a measured RTT to `peer`.
    ///
    /// `rng` breaks the symmetry when two nodes sit at the same point
    /// (the paper's "random direction" rule for colocated nodes).
    pub fn update<R: Rng>(
        &mut self,
        peer: &Coordinate,
        rtt: f64,
        config: &VivaldiConfig,
        rng: &mut R,
    ) {
        debug_assert!(rtt.is_finite() && rtt >= 0.0, "rtt must be a measurement");
        let rtt = rtt.max(1e-9);
        // Confidence-weighted sample weight.
        let w = if self.error + peer.error > 0.0 {
            self.error / (self.error + peer.error)
        } else {
            0.5
        };
        let dist = self.distance(peer);
        // Relative fit error of this sample, updates the EWMA.
        let es = (dist - rtt).abs() / rtt;
        self.error = (es * config.ce * w + self.error * (1.0 - config.ce * w)).clamp(0.0, 10.0);
        // Unit vector from peer to self (random when colocated).
        let mut dir = [0.0f64; DIM];
        let mut norm2 = 0.0;
        for k in 0..DIM {
            dir[k] = self.pos[k] - peer.pos[k];
            norm2 += dir[k] * dir[k];
        }
        let norm = norm2.sqrt();
        if norm < 1e-12 {
            let mut n2 = 0.0;
            for d in dir.iter_mut() {
                *d = rng.gen_range(-1.0..=1.0);
                n2 += *d * *d;
            }
            let n = n2.sqrt().max(1e-12);
            for d in dir.iter_mut() {
                *d /= n;
            }
        } else {
            for d in dir.iter_mut() {
                *d /= norm;
            }
        }
        // Spring force: positive when we should move away (distance
        // underestimates the RTT), negative towards the peer.
        let force = rtt - dist;
        let delta = config.cc * w;
        for k in 0..DIM {
            self.pos[k] += delta * force * dir[k];
        }
        // The height absorbs a share of the residual, floored.
        self.height =
            (self.height + delta * force * self.height / dist.max(1e-9)).max(config.min_height);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::rngutil::rng_for;

    #[test]
    fn distance_is_symmetric_and_positive() {
        let config = VivaldiConfig::default();
        let mut a = Coordinate::origin(&config);
        let mut b = Coordinate::origin(&config);
        a.pos = [3.0, 0.0, 4.0];
        a.height = 2.0;
        b.height = 1.0;
        assert!((a.distance(&b) - (5.0 + 3.0)).abs() < 1e-12);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn two_nodes_converge_to_their_rtt() {
        let config = VivaldiConfig::default();
        let mut rng = rng_for(1, 0x51);
        let mut a = Coordinate::origin(&config);
        let mut b = Coordinate::origin(&config);
        for _ in 0..200 {
            let snapshot_b = b;
            a.update(&snapshot_b, 50.0, &config, &mut rng);
            let snapshot_a = a;
            b.update(&snapshot_a, 50.0, &config, &mut rng);
        }
        let est = a.distance(&b);
        assert!(
            (est - 50.0).abs() / 50.0 < 0.05,
            "estimate {est} should be within 5% of 50"
        );
        assert!(a.error < 0.3, "error should shrink, got {}", a.error);
    }

    #[test]
    fn update_handles_colocated_nodes() {
        let config = VivaldiConfig::default();
        let mut rng = rng_for(2, 7);
        let mut a = Coordinate::origin(&config);
        let b = Coordinate::origin(&config);
        a.update(&b, 30.0, &config, &mut rng);
        // Must have moved off the origin in a random direction.
        let moved: f64 = a.pos.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(moved > 0.0, "node must escape colocated start");
    }

    #[test]
    fn error_never_goes_negative_or_explodes() {
        let config = VivaldiConfig::default();
        let mut rng = rng_for(3, 8);
        let mut a = Coordinate::origin(&config);
        let mut b = Coordinate::origin(&config);
        b.pos = [100.0, 0.0, 0.0];
        for i in 0..500 {
            // Wildly inconsistent samples.
            let rtt = if i % 2 == 0 { 1.0 } else { 500.0 };
            a.update(&b, rtt, &config, &mut rng);
            assert!(a.error >= 0.0 && a.error <= 10.0, "error {}", a.error);
            assert!(a.height >= config.min_height);
            for p in a.pos {
                assert!(p.is_finite());
            }
        }
    }
}
