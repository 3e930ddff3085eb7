//! Discrete task sets with heterogeneous processing times.

use dlb_core::rngutil::rng_for;
use rand::Rng;

/// The tasks of one organization (`J_i` in the paper); `sizes[k]` is
/// `p_i(k)`, the processing time of task `J_i(k)` on a unit-speed
/// server.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    /// Task sizes.
    pub sizes: Vec<f64>,
}

impl TaskSet {
    /// Wraps explicit sizes.
    pub fn new(sizes: Vec<f64>) -> Self {
        assert!(
            sizes.iter().all(|&p| p > 0.0),
            "task sizes must be positive"
        );
        Self { sizes }
    }

    /// Total load `n_i = Σ_k p_i(k)` the set contributes to the
    /// fractional model.
    pub fn total(&self) -> f64 {
        self.sizes.iter().sum()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Returns `true` when the set holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Largest task size.
    pub fn max_size(&self) -> f64 {
        self.sizes.iter().copied().fold(0.0, f64::max)
    }

    /// Uniform sizes in `[lo, hi]`.
    pub fn uniform(count: usize, lo: f64, hi: f64, seed: u64) -> Self {
        assert!(lo > 0.0 && hi >= lo);
        let mut rng = rng_for(seed, 0x7A5C);
        Self::new((0..count).map(|_| rng.gen_range(lo..=hi)).collect())
    }

    /// Zipf-like sizes (`size ∝ 1/rank^exponent`, scaled so the mean is
    /// `mean_size`) — the heavy-tailed popularity profile of CDN
    /// content.
    pub fn zipf(count: usize, exponent: f64, mean_size: f64, seed: u64) -> Self {
        assert!(count > 0 && exponent >= 0.0 && mean_size > 0.0);
        let mut rng = rng_for(seed, 0x21FF);
        let raw: Vec<f64> = (1..=count)
            .map(|rank| 1.0 / (rank as f64).powf(exponent))
            .collect();
        let mean_raw: f64 = raw.iter().sum::<f64>() / count as f64;
        let mut sizes: Vec<f64> = raw.iter().map(|&r| r / mean_raw * mean_size).collect();
        // Shuffle so task index does not encode popularity.
        for i in (1..sizes.len()).rev() {
            let j = rng.gen_range(0..=i);
            sizes.swap(i, j);
        }
        Self::new(sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_max() {
        let t = TaskSet::new(vec![1.0, 3.0, 2.0]);
        assert_eq!(t.total(), 6.0);
        assert_eq!(t.max_size(), 3.0);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn uniform_sizes_in_range() {
        let t = TaskSet::uniform(1000, 0.5, 2.0, 1);
        assert!(t.sizes.iter().all(|&p| (0.5..=2.0).contains(&p)));
        let mean = t.total() / 1000.0;
        assert!((mean - 1.25).abs() < 0.1);
    }

    #[test]
    fn zipf_mean_is_calibrated() {
        let t = TaskSet::zipf(500, 1.0, 4.0, 2);
        let mean = t.total() / 500.0;
        assert!((mean - 4.0).abs() < 1e-9);
        // heavy tail: max far above mean
        assert!(t.max_size() > 3.0 * mean);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_sizes() {
        TaskSet::new(vec![1.0, 0.0]);
    }
}
