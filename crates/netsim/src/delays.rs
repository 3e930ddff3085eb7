//! Per-link one-way delay sampling for the event-driven runtime.
//!
//! The executor in `dlb-runtime` schedules every data-plane frame at
//! `now + delay(src, dst)`; this module supplies that delay function
//! from the same substrate the paper's model uses. A link's one-way
//! delay is half its RTT entry in the [`LatencyMatrix`] plus a small
//! per-link jitter term drawn from the [`QueueModel`]'s baseline
//! jitter — the idle-network regime of the Table IV experiment, where
//! the constant-latency assumption holds.
//!
//! The jitter is *sampled once per (seed, link)*, not per message:
//! it models persistent path asymmetry (routing, serialization), and
//! keeping it a pure function of `(seed, src, dst)` is what makes the
//! virtual-time simulation deterministic without storing an `O(m²)`
//! delay matrix — at Figure-2 scale (m = 5000) that table alone would
//! be 200 MB.

use dlb_core::LatencyMatrix;

use crate::rtt::QueueModel;

/// Deterministic per-link one-way delays over a latency matrix.
///
/// `one_way_ms(i, j)` = `c_ij / 2` + exponential jitter with mean
/// [`QueueModel::base_jitter_ms`], where the jitter is a pure function
/// of `(seed, i, j)`. Self-links have zero delay.
#[derive(Debug, Clone, Copy)]
pub struct LinkDelayModel<'a> {
    matrix: &'a LatencyMatrix,
    jitter_mean_ms: f64,
    seed: u64,
}

impl<'a> LinkDelayModel<'a> {
    /// A delay model with the default [`QueueModel`]'s baseline jitter.
    pub fn new(matrix: &'a LatencyMatrix, seed: u64) -> Self {
        Self {
            matrix,
            jitter_mean_ms: QueueModel::default().base_jitter_ms,
            seed,
        }
    }

    /// The one-way delay of link `src → dst` in ms (zero for
    /// `src == dst`).
    pub fn one_way_ms(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        self.matrix.get(src, dst) / 2.0 + self.jitter_ms(src, dst)
    }

    /// The deterministic jitter component of link `src → dst`.
    fn jitter_ms(&self, src: usize, dst: usize) -> f64 {
        // SplitMix64 over (seed, src, dst) → uniform in (0, 1) →
        // inverse-CDF exponential. No state, no allocation: the same
        // triple always yields the same jitter.
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((src as u64) << 32 | dst as u64);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Map to (0, 1]: the +1 in a 2^53 window keeps ln() finite.
        let u = ((x >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -self.jitter_mean_ms * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> LatencyMatrix {
        LatencyMatrix::homogeneous(6, 20.0)
    }

    #[test]
    fn delay_is_half_rtt_plus_bounded_jitter() {
        let m = matrix();
        let model = LinkDelayModel::new(&m, 7);
        for i in 0..6 {
            for j in 0..6 {
                let d = model.one_way_ms(i, j);
                if i == j {
                    assert_eq!(d, 0.0);
                } else {
                    assert!(d >= 10.0, "delay {d} below half-RTT");
                    assert!(d.is_finite());
                    // Exponential tail: astronomically unlikely to
                    // exceed 40 means.
                    assert!(d < 10.0 + 40.0 * QueueModel::default().base_jitter_ms);
                }
            }
        }
    }

    #[test]
    fn delays_are_deterministic_per_seed_and_link() {
        let m = matrix();
        let a = LinkDelayModel::new(&m, 42);
        let b = LinkDelayModel::new(&m, 42);
        let c = LinkDelayModel::new(&m, 43);
        assert_eq!(a.one_way_ms(1, 4), b.one_way_ms(1, 4));
        assert_ne!(a.one_way_ms(1, 4), c.one_way_ms(1, 4));
        // Forward and reverse paths jitter independently (asymmetry).
        assert_ne!(a.one_way_ms(1, 4), a.one_way_ms(4, 1));
    }
}
